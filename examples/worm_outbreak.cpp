// Worm outbreak demo: release a scanning worm against the farm and compare what
// each containment policy does to it, live.
//
//   ./worm_outbreak [--policy open|drop|reflect] [--minutes 3] [--worm slammer|blaster|codered]
//                   [--postmortem-dir DIR] [--shards N]  (default: 4)
//
// With --policy reflect (the default) the worm's Internet-bound scans are folded
// back into the farm, infecting fresh honeypots: the epidemic you watch is the
// worm's *real* propagation behaviour, contained.
//
// With --postmortem-dir the farm flies instrumented: the SLO watchdog runs at
// 1 Hz and the flight recorder is armed, so any containment breach (try
// --policy open) drops a self-contained post-mortem JSON into DIR. The full
// event ledger (ledger.jsonl) and final health snapshot (snapshot.json) land
// there too for offline forensics; if either cannot be written the demo names
// the path and exits 2.
//
// Containment figures are farm-wide at any shard count: they come from the
// registry's gateway.* rows, which a sharded gateway rolls up across shards.
#include <cstdio>

#include "src/base/flags.h"
#include "src/base/strings.h"
#include "src/core/honeyfarm.h"

using namespace potemkin;

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::string policy = flags.GetString("policy", "reflect");
  const double minutes = flags.GetDouble("minutes", 3.0);
  const std::string strain = flags.GetString("worm", "slammer");
  const std::string postmortem_dir = flags.GetString("postmortem-dir", "");

  OutboundMode mode = OutboundMode::kReflect;
  if (policy == "open") {
    mode = OutboundMode::kOpen;
  } else if (policy == "drop") {
    mode = OutboundMode::kDropAll;
  }

  const Ipv4Prefix prefix(Ipv4Address(10, 1, 0, 0), 22);  // 1024 addresses
  HoneyfarmConfig config = MakeDefaultFarmConfig(prefix, /*num_hosts=*/4,
                                                 /*host_memory_mb=*/1024,
                                                 ContentMode::kMetadataOnly);
  config.server_template.image.num_pages = 2048;
  config.server_template.engine.latency = CloneLatencyModel::Optimized();
  config.server_template.engine.control_plane_workers = 4;
  config.gateway.containment.mode = mode;
  config.gateway.recycle.idle_timeout = Duration::Minutes(10);
  config.gateway.recycle.infected_hold = Duration::Minutes(30);
  config.gateway.recycle.max_lifetime = Duration::Zero();
  // A fixed default topology, so stdout is the same on every host.
  config.gateway_shards = static_cast<uint32_t>(flags.GetUint("shards", 4));
  if (!postmortem_dir.empty()) {
    // Forensic flight: size the ledger for the whole outbreak so the exported
    // JSONL holds every event, not just the tail of the default ring.
    config.ledger_capacity = 1u << 18;
  }

  Honeyfarm farm(config);
  if (config.gateway_shards > 1) {
    std::printf("(gateway partitioned across %u shards)\n", config.gateway_shards);
  }
  if (!postmortem_dir.empty()) {
    farm.StartWatchdog(Duration::Seconds(1));
    FlightRecorderConfig recorder_config;
    recorder_config.output_dir = postmortem_dir;
    recorder_config.prefix = "worm_outbreak";
    farm.ArmFlightRecorder(recorder_config);
  }

  // The worm believes it is scanning the whole Internet.
  const Ipv4Prefix internet(Ipv4Address(0, 0, 0, 0), 0);
  WormConfig worm_config = strain == "blaster"   ? BlasterLikeWorm(internet)
                           : strain == "codered" ? CodeRedLikeWorm(internet)
                                                 : SlammerLikeWorm(internet);
  worm_config.scan_rate_pps = flags.GetDouble("scan-rate", 15.0);
  WormRuntime worm(&farm.loop(), worm_config, flags.GetUint("seed", 4));
  farm.AttachWorm(&worm);
  farm.Start();

  std::printf("Farm: %s across 4 hosts; containment policy: %s\n",
              prefix.ToString().c_str(), OutboundModeName(mode));
  std::printf("Releasing %s (%s targeting, %.0f scans/s per instance)...\n\n",
              worm_config.name.c_str(), TargetSelectionName(worm_config.selection),
              worm_config.scan_rate_pps);
  farm.SeedWorm(worm, Ipv4Address(198, 51, 100, 66), prefix.AddressAt(1));

  // Narrate the outbreak every 15 virtual seconds.
  const MetricRegistry& metrics = farm.obs().metrics;
  const Duration tick = Duration::Seconds(15);
  for (TimePoint t = TimePoint() + tick; t <= TimePoint() + Duration::Minutes(minutes);
       t += tick) {
    farm.RunUntil(t);
    std::printf("[%5.0fs] infected=%-4llu live VMs=%-5llu scans=%-7llu "
                "reflected=%-7llu escapes=%llu\n",
                t.seconds(),
                static_cast<unsigned long long>(farm.epidemic().total_infections()),
                static_cast<unsigned long long>(farm.TotalLiveVms()),
                static_cast<unsigned long long>(worm.stats().scans_sent),
                static_cast<unsigned long long>(
                    metrics.ValueOf("gateway.containment.reflected")),
                static_cast<unsigned long long>(
                    metrics.ValueOf("gateway.containment.escapes_from_infected")));
  }

  std::printf("\n--- outbreak post-mortem ---\n");
  const auto& events = farm.epidemic().events();
  const size_t show = std::min<size_t>(events.size(), 10);
  for (size_t i = 0; i < show; ++i) {
    std::printf("  infection #%zu at t=%.1fs: %s (attacked from %s)\n", i + 1,
                events[i].time.seconds(), events[i].victim.ToString().c_str(),
                events[i].attacker.ToString().c_str());
  }
  if (events.size() > show) {
    std::printf("  ... and %zu more\n", events.size() - show);
  }
  const auto escapes = static_cast<unsigned long long>(
      metrics.ValueOf("gateway.containment.escapes_from_infected"));
  std::printf("\ncontainment verdict: %llu packets from infected VMs reached the "
              "real Internet (%s)\n",
              escapes, escapes == 0 ? "CONTAINED" : "ESCAPED");

  if (!postmortem_dir.empty()) {
    const std::string ledger_path = postmortem_dir + "/ledger.jsonl";
    const std::string snapshot_path = postmortem_dir + "/snapshot.json";
    if (!farm.ledger().WriteJsonLines(ledger_path)) {
      std::fprintf(stderr, "worm_outbreak: cannot write %s\n", ledger_path.c_str());
      return 2;
    }
    if (!farm.health().SampleNow().WriteJson(snapshot_path)) {
      std::fprintf(stderr, "worm_outbreak: cannot write %s\n",
                   snapshot_path.c_str());
      return 2;
    }
    const FlightRecorder* recorder = farm.flight_recorder();
    std::printf("\nforensics: %llu ledger events -> %s/ledger.jsonl\n",
                static_cast<unsigned long long>(farm.ledger().appended()),
                postmortem_dir.c_str());
    if (recorder->dumps_written() > 0) {
      std::printf("flight recorder tripped %llu time(s); last artifact: %s\n",
                  static_cast<unsigned long long>(recorder->dumps_written()),
                  recorder->last_path().c_str());
    } else {
      std::printf("flight recorder armed, never tripped (no breach/alert)\n");
    }
  }
  return 0;
}
