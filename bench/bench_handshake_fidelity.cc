// Experiment E3 (ablation) — Pending-packet queueing vs connection-oriented worms.
//
// A flash clone takes real time; what happens to the packets that arrive for an
// address while its VM is still being created? The paper's gateway queues them
// and replays once the clone is live. This ablation shows why that matters: a
// connection-oriented (two-phase, Blaster-style) worm needs its SYN to survive
// the clone window — with queueing the epidemic proceeds; with drop-during-clone
// first contacts never complete a handshake and the epidemic starves. The
// single-packet (Slammer-style) worm is the control: its exploit is re-sent with
// every scan, so dropping costs far less.
#include <cstdio>

#include "bench/report.h"
#include "src/base/flags.h"
#include "src/base/strings.h"
#include "src/base/table.h"
#include "src/core/honeyfarm.h"

namespace potemkin {
namespace {

struct Cell {
  uint64_t infections = 0;
  uint64_t infections_30s = 0;  // early epidemic (where lost first contacts bite)
  double t50 = -1;
  uint64_t handshakes = 0;
  uint64_t scans = 0;
  uint64_t queued = 0;
  uint64_t dropped_cloning = 0;
};

Cell RunCase(bool two_phase, bool queue_pending, const Flags& flags) {
  const Ipv4Prefix prefix(Ipv4Address(10, 1, 0, 0), 23);  // 512 addresses
  HoneyfarmConfig config = MakeDefaultFarmConfig(prefix, /*num_hosts=*/4,
                                                 /*host_memory_mb=*/1024,
                                                 ContentMode::kMetadataOnly);
  config.server_template.image.num_pages = 2048;
  // Paper-scale clone latency: the ~0.5 s window is exactly what queueing covers.
  config.server_template.engine.control_plane_workers = 8;
  config.gateway.containment.mode = OutboundMode::kReflect;
  config.gateway.queue_while_cloning = queue_pending;
  config.gateway.recycle.idle_timeout = Duration::Minutes(10);
  config.gateway.recycle.infected_hold = Duration::Minutes(30);
  config.gateway.recycle.max_lifetime = Duration::Zero();

  Honeyfarm farm(config);
  WormConfig worm_config = BlasterLikeWorm(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
  worm_config.scan_rate_pps = flags.GetDouble("scan-rate", 1.0);
  worm_config.two_phase_tcp = two_phase;
  worm_config.selection = TargetSelection::kUniformRandom;
  WormRuntime worm(&farm.loop(), worm_config, 31);
  farm.AttachWorm(&worm);
  farm.Start();
  // Seed twice: real attackers retransmit, and in drop-during-clone mode the
  // first exploit dies in the clone window by design.
  farm.SeedWorm(worm, Ipv4Address(198, 51, 100, 66), prefix.AddressAt(1));
  farm.RunFor(Duration::Seconds(3.0));
  farm.SeedWorm(worm, Ipv4Address(198, 51, 100, 66), prefix.AddressAt(1));
  farm.RunFor(Duration::Minutes(flags.GetDouble("minutes", 3.0)));

  Cell cell;
  cell.infections = farm.epidemic().total_infections();
  cell.infections_30s =
      farm.epidemic().InfectedAt(TimePoint() + Duration::Seconds(33.0));
  const Duration to_half =
      farm.epidemic().TimeToFraction(0.5, std::max<uint64_t>(1, cell.infections));
  if (to_half != Duration::Max()) {
    cell.t50 = to_half.seconds();
  }
  cell.handshakes = worm.stats().handshakes_completed;
  cell.scans = worm.stats().scans_sent;
  cell.queued = farm.gateway().stats().inbound_queued;
  cell.dropped_cloning = farm.gateway().stats().inbound_dropped_cloning;
  return cell;
}

void Run(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  std::printf("=== E3 (ablation): pending-packet queueing during flash cloning ===\n");
  std::printf("blaster-class worm, reflect containment, ~0.5 s clone latency\n\n");

  Table table({"worm model", "pending packets", "infections", "infected@30s",
               "t50 (s)", "handshakes", "queued", "dropped while cloning"});
  struct Case {
    const char* worm;
    bool two_phase;
    const char* pending;
    bool queue;
  };
  const Case cases[] = {
      {"two-phase TCP (Blaster-like)", true, "queued (paper)", true},
      {"two-phase TCP (Blaster-like)", true, "dropped", false},
      {"single-packet (Slammer-like)", false, "queued (paper)", true},
      {"single-packet (Slammer-like)", false, "dropped", false},
  };
  // Infection counts pin the modelled epidemic under each handshake mode: a
  // move either way is a behaviour change, so they declare no direction.
  BenchReport report("handshake_fidelity");
  for (const auto& c : cases) {
    const Cell cell = RunCase(c.two_phase, c.queue, flags);
    table.AddRow({c.worm, c.pending, WithCommas(cell.infections),
                  WithCommas(cell.infections_30s),
                  cell.t50 >= 0 ? StrFormat("%.0f", cell.t50) : "-",
                  c.two_phase ? WithCommas(cell.handshakes) : std::string("-"),
                  WithCommas(cell.queued), WithCommas(cell.dropped_cloning)});
    report.Add(StrFormat("infections_30s_%s_%s",
                         c.two_phase ? "two_phase" : "single_packet",
                         c.queue ? "queued" : "dropped"),
               static_cast<double>(cell.infections_30s), "infections");
    std::fprintf(stderr, "  [done] %s / %s\n", c.worm, c.pending);
  }
  report.WriteJson();
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf("shape check: with queue-and-replay the clone window is invisible —\n"
              "the farm saturates in seconds. Dropping first contacts starves the\n"
              "early epidemic (~5x slower t50, single-digit infections at 30s):\n"
              "every first exploit dies in the ~0.5s clone window and spread only\n"
              "resumes via revisits to already-live VMs. Queueing is what makes\n"
              "flash-clone latency invisible to malware, stateful or not.\n");
}

}  // namespace
}  // namespace potemkin

int main(int argc, char** argv) {
  potemkin::Run(argc, argv);
  return 0;
}
