// Forensics workflow: catch a worm, archive the infected VM, resurrect it in a
// lab for offline analysis.
//
//   ./vm_forensics [--dir /tmp]
//
// Steps shown:
//   1. a farm (drop-all containment, forensics enabled) is probed and exploited
//   2. the recycler retires the infected VM -> a .snap file appears (its memory
//      DELTA only: a few pages, not the whole image)
//   3. the snapshot is loaded and restored into a fresh flash clone of the same
//      reference image -> byte-identical infected machine, ready to dissect
#include <cstdio>

#include "src/base/flags.h"
#include "src/base/strings.h"
#include "src/core/honeyfarm.h"
#include "src/hv/snapshot.h"

using namespace potemkin;

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::string dir = flags.GetString("dir", "/tmp");
  const Ipv4Prefix prefix(Ipv4Address(10, 1, 0, 0), 24);

  HoneyfarmConfig config = MakeDefaultFarmConfig(prefix, /*num_hosts=*/1,
                                                 /*host_memory_mb=*/256,
                                                 ContentMode::kStoreBytes);
  config.server_template.image.num_pages = 1024;
  config.server_template.forensics_dir = dir;
  config.gateway.containment.mode = OutboundMode::kDropAll;
  config.gateway.recycle.idle_timeout = Duration::Seconds(5);
  config.gateway.recycle.infected_hold = Duration::Seconds(5);
  Honeyfarm farm(config);

  WormRuntime worm(&farm.loop(),
                   SlammerLikeWorm(Ipv4Prefix(Ipv4Address(11, 0, 0, 0), 8)), 99);
  farm.AttachWorm(&worm);
  farm.Start();

  // 1. Exploit arrives.
  const Ipv4Address victim_ip = prefix.AddressAt(66);
  std::printf("[1] exploit packet -> %s (slammer-like, udp/1434)\n",
              victim_ip.ToString().c_str());
  farm.SeedWorm(worm, Ipv4Address(198, 51, 100, 13), victim_ip);
  farm.RunFor(Duration::Seconds(3.0));
  if (farm.epidemic().total_infections() != 1) {
    std::printf("    unexpected: no infection\n");
    return 1;
  }
  const VmId infected_vm = farm.epidemic().events()[0].vm;
  std::printf("    VM %llu at %s infected; scanning (contained: drop-all)\n",
              static_cast<unsigned long long>(infected_vm),
              victim_ip.ToString().c_str());

  // 2. Recycler archives it.
  farm.RunFor(Duration::Seconds(30.0));
  const std::string snap_path =
      StrFormat("%s/vm-%llu-%s.snap", dir.c_str(),
                static_cast<unsigned long long>(infected_vm),
                victim_ip.ToString().c_str());
  std::printf("[2] VM recycled; forensic snapshots written: %llu -> %s\n",
              static_cast<unsigned long long>(farm.server(0).snapshots_written()),
              snap_path.c_str());

  const auto snapshot = VmSnapshot::ReadFromFile(snap_path);
  if (!snapshot) {
    std::printf("    snapshot missing!\n");
    return 1;
  }
  std::printf("    snapshot: %zu delta pages (%s), infected=%s\n",
              snapshot->delta_pages(),
              HumanBytes(snapshot->delta_pages() * kPageSize).c_str(),
              snapshot->meta().infected ? "yes" : "no");
  std::printf("    (full image is %s — the archive stores only the delta)\n",
              HumanBytes(1024ull * kPageSize).c_str());

  // 3. Resurrect in the lab: a standalone host with the same reference image.
  std::printf("[3] restoring into a lab clone...\n");
  PhysicalHostConfig lab_config;
  lab_config.memory_mb = 128;
  lab_config.content_mode = ContentMode::kStoreBytes;
  PhysicalHost lab(lab_config);
  const ImageId lab_image = lab.RegisterImage(config.server_template.image);
  VirtualMachine* specimen = lab.CreateClone(lab_image, CloneKind::kFlash, "specimen");
  if (specimen == nullptr || !snapshot->RestoreInto(specimen)) {
    std::printf("    restore failed\n");
    return 1;
  }
  std::printf("    specimen up: %s, infected=%s, delta=%u pages — identical to the\n"
              "    machine the worm compromised, frozen at recycle time.\n",
              specimen->name().c_str(), specimen->infected() ? "yes" : "no",
              specimen->memory().private_pages());
  std::remove(snap_path.c_str());
  return 0;
}
