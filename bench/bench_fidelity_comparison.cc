// Experiment E2 (baseline comparison) — High-interaction farm vs low-interaction
// responder.
//
// The paper's opening argument: low-interaction honeypots scale trivially but
// cannot be compromised, so they never observe the malware itself. This bench
// subjects both systems to the identical workload — background radiation plus a
// worm outbreak — and compares what each one captured and what it cost.
#include <cstdio>

#include "bench/report.h"
#include "src/base/flags.h"
#include "src/base/strings.h"
#include "src/base/table.h"
#include "src/core/honeyfarm.h"
#include "src/gateway/low_interaction.h"
#include "src/malware/radiation.h"

namespace potemkin {
namespace {

const Ipv4Prefix kPrefix(Ipv4Address(10, 1, 0, 0), 22);

struct Workload {
  std::vector<TraceRecord> radiation;
  WormConfig worm;
  Ipv4Address worm_attacker = Ipv4Address(198, 51, 100, 66);
  Ipv4Address worm_victim;
};

Workload MakeWorkload(const Flags& flags) {
  Workload workload;
  RadiationConfig radiation;
  radiation.telescope = kPrefix;
  radiation.duration = Duration::Minutes(flags.GetDouble("minutes", 2.0));
  radiation.mean_pps = flags.GetDouble("pps", 30.0);
  radiation.source_pool = 2000;
  radiation.seed = flags.GetUint("seed", 17);
  workload.radiation = RadiationGenerator(radiation).GenerateAll();
  workload.worm = SlammerLikeWorm(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
  workload.worm.scan_rate_pps = 1.0;
  workload.worm_victim = kPrefix.AddressAt(7);
  return workload;
}

struct Outcome {
  uint64_t responses = 0;
  uint64_t infections_observed = 0;
  uint64_t worm_scans_captured = 0;   // outbound behaviour recorded
  uint64_t exploit_deliveries = 0;    // exploits that reached *something*
  uint64_t memory_mib = 0;
  uint64_t vms = 0;
};

Outcome RunHighInteraction(const Workload& workload, const Flags& flags) {
  HoneyfarmConfig config = MakeDefaultFarmConfig(kPrefix, /*num_hosts=*/4,
                                                 /*host_memory_mb=*/1024,
                                                 ContentMode::kMetadataOnly);
  config.server_template.image.num_pages = 2048;
  config.server_template.engine.latency = CloneLatencyModel::Optimized();
  config.server_template.engine.control_plane_workers = 8;
  config.gateway.containment.mode = OutboundMode::kReflect;
  config.gateway.recycle.idle_timeout = Duration::Minutes(2);
  config.gateway.recycle.infected_hold = Duration::Minutes(30);
  config.gateway.recycle.max_lifetime = Duration::Zero();

  Honeyfarm farm(config);
  WormRuntime worm(&farm.loop(), workload.worm, 5);
  farm.AttachWorm(&worm);
  farm.Start();
  farm.ScheduleTrace(workload.radiation);
  farm.SeedWorm(worm, workload.worm_attacker, workload.worm_victim);
  farm.RunFor(Duration::Minutes(flags.GetDouble("minutes", 2.0)));

  Outcome outcome;
  outcome.responses = farm.egress_packet_count();
  outcome.infections_observed = farm.epidemic().total_infections();
  outcome.worm_scans_captured = worm.stats().scans_sent;
  GuestStats guest_totals;
  for (size_t s = 0; s < farm.server_count(); ++s) {
    guest_totals.exploits_received +=
        farm.server(s).AggregateGuestStats().exploits_received;
  }
  outcome.exploit_deliveries = guest_totals.exploits_received;
  outcome.memory_mib = farm.TotalUsedFrames() * kPageSize >> 20;
  outcome.vms = farm.TotalLiveVms();
  return outcome;
}

Outcome RunLowInteraction(const Workload& workload, const Flags& flags) {
  // The responder sees the same radiation plus the worm's seed exploit; there is
  // no VM, so nothing can be infected and no worm behaviour exists to observe.
  LowInteractionResponder responder(kPrefix, DefaultWindowsServices(), 5);
  Outcome outcome;
  EventLoop loop;
  WormRuntime worm(&loop, workload.worm, 5);  // used only to build the exploit
  auto feed = [&](const Packet& packet) {
    const auto view = PacketView::Parse(packet);
    if (!view) {
      return;
    }
    if (responder.Respond(*view).has_value()) {
      ++outcome.responses;
    }
  };
  for (const auto& record : workload.radiation) {
    feed(PacketFromRecord(record, MacAddress::FromId(record.src.value()),
                          MacAddress::FromId(1)));
  }
  feed(worm.MakeScanPacket(workload.worm_attacker,
                           MacAddress::FromId(workload.worm_attacker.value()),
                           workload.worm_victim));
  outcome.exploit_deliveries = responder.stats().exploit_payloads_ignored;
  outcome.infections_observed = 0;     // structurally impossible
  outcome.worm_scans_captured = 0;     // nothing runs, nothing scans
  outcome.memory_mib = 1;              // a responder process; effectively free
  outcome.vms = 0;
  (void)flags;
  return outcome;
}

void Run(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  std::printf("=== E2 (baseline): high-interaction farm vs low-interaction "
              "responder ===\n");
  const Workload workload = MakeWorkload(flags);
  std::printf("identical workload: %zu radiation packets + slammer-like outbreak "
              "on %s\n\n",
              workload.radiation.size(), kPrefix.ToString().c_str());

  const Outcome high = RunHighInteraction(workload, flags);
  const Outcome low = RunLowInteraction(workload, flags);

  Table table({"metric", "low-interaction (honeyd-style)",
               "high-interaction (Potemkin)"});
  table.AddRow({"responses produced", WithCommas(low.responses),
                WithCommas(high.responses)});
  table.AddRow({"exploits delivered to a target", WithCommas(low.exploit_deliveries),
                WithCommas(high.exploit_deliveries)});
  table.AddRow({"infections observed", WithCommas(low.infections_observed),
                WithCommas(high.infections_observed)});
  table.AddRow({"worm scans captured (behaviour)",
                WithCommas(low.worm_scans_captured),
                WithCommas(high.worm_scans_captured)});
  table.AddRow({"live VMs at end", WithCommas(low.vms), WithCommas(high.vms)});
  table.AddRow({"memory in use", StrFormat("~%llu MiB",
                                           static_cast<unsigned long long>(
                                               low.memory_mib)),
                StrFormat("%llu MiB", static_cast<unsigned long long>(
                                          high.memory_mib))});
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf("shape check (paper's motivation): the responder answers probes as\n"
              "cheaply as Potemkin does, but observes ZERO infections and zero\n"
              "post-compromise behaviour — exploits bounce off a facade. The farm\n"
              "pays real (but delta-sized) memory to capture the actual malware.\n");

  // The rows pin what each farm observes: a move either way changes the
  // comparison, so none declares a better direction.
  BenchReport report("fidelity_comparison");
  report.set_seed(flags.GetUint("seed", 17));
  report.Add("infections_high_interaction",
             static_cast<double>(high.infections_observed), "infections");
  report.Add("infections_low_interaction",
             static_cast<double>(low.infections_observed), "infections");
  report.Add("worm_scans_captured_high",
             static_cast<double>(high.worm_scans_captured), "packets");
  report.WriteJson();
}

}  // namespace
}  // namespace potemkin

int main(int argc, char** argv) {
  potemkin::Run(argc, argv);
  return 0;
}
