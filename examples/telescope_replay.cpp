// Telescope replay: generate (or load) a background-radiation trace for a large
// address block and replay it against the farm, reporting how few live VMs cover
// the whole space — the paper's core scalability demonstration, as a tool.
//
//   ./telescope_replay [--prefix 10.1.0.0/18] [--minutes 30] [--pps 40]
//                      [--timeout-s 5] [--save trace.pkt | --load trace.pkt]
//                      [--shards N]   (power of two; partitions the gateway.
//                                      default: 4)
#include <cstdio>
#include <memory>

#include "src/analysis/series_util.h"
#include "src/base/flags.h"
#include "src/base/strings.h"
#include "src/core/honeyfarm.h"
#include "src/malware/radiation.h"
#include "src/net/gre.h"

using namespace potemkin;

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const Ipv4Prefix prefix =
      Ipv4Prefix::Parse(flags.GetString("prefix", "10.1.0.0/18")).value();
  const double minutes = flags.GetDouble("minutes", 30.0);
  const double pps = flags.GetDouble("pps", 40.0);
  const double timeout_s = flags.GetDouble("timeout-s", 5.0);

  // 1. Obtain a trace: load a recorded one or synthesize background radiation.
  std::vector<TraceRecord> trace;
  if (flags.Has("load")) {
    trace = TraceReader::ReadAll(flags.GetString("load", ""));
    std::printf("Loaded %zu records from %s\n", trace.size(),
                flags.GetString("load", "").c_str());
  } else {
    RadiationConfig radiation;
    radiation.telescope = prefix;
    radiation.duration = Duration::Minutes(minutes);
    radiation.mean_pps = pps;
    radiation.seed = flags.GetUint("seed", 21);
    RadiationGenerator generator(radiation);
    RadiationSummary summary{};
    if (flags.Has("save")) {
      summary = generator.GenerateToFile(flags.GetString("save", "trace.pkt"));
      trace = TraceReader::ReadAll(flags.GetString("save", "trace.pkt"));
    } else {
      trace = generator.GenerateAll();
      summary.packets = trace.size();
    }
    std::printf("Synthesized %llu packets of background radiation (%0.f pps mean, "
                "diurnal cycle)\n",
                static_cast<unsigned long long>(summary.packets), pps);
  }
  if (trace.empty()) {
    std::printf("no trace to replay\n");
    return 1;
  }

  // 2. Build the farm and replay.
  HoneyfarmConfig config = MakeDefaultFarmConfig(prefix, /*num_hosts=*/8,
                                                 /*host_memory_mb=*/2048,
                                                 ContentMode::kMetadataOnly);
  config.server_template.engine.latency = CloneLatencyModel::Optimized();
  config.server_template.engine.control_plane_workers = 8;
  config.gateway.recycle.idle_timeout = Duration::Seconds(timeout_s);
  config.gateway.recycle.max_lifetime = Duration::Zero();
  // A fixed default topology, so stdout is the same on every host.
  config.gateway_shards = static_cast<uint32_t>(flags.GetUint("shards", 4));

  Honeyfarm farm(config);
  if (config.gateway_shards > 1) {
    std::printf("(gateway partitioned across %u shards)\n", config.gateway_shards);
  }
  farm.Start();
  // Live-VM population every 10 virtual seconds, for the sparkline and mean.
  TimeSeries population;
  farm.loop().SchedulePeriodic(Duration::Seconds(10), [&farm, &population] {
    population.Record(farm.loop().Now(), static_cast<double>(farm.TotalLiveVms()));
  });

  if (flags.GetBool("gre", false)) {
    // Deliver the trace the way the paper's deployment received it: each packet
    // GRE-encapsulated by a border router and decapsulated by the gateway.
    const Ipv4Address gateway_ip(192, 0, 2, 2);
    const Ipv4Address router_ip(192, 0, 2, 1);
    farm.EnableGreTermination(gateway_ip, router_ip, 100);
    auto router = std::make_shared<GreTunnel>(router_ip, gateway_ip, 100);
    for (const auto& record : trace) {
      farm.loop().ScheduleAt(record.time, [&farm, router, record]() {
        farm.InjectTunneled(router->Send(PacketFromRecord(
            record, MacAddress::FromId(record.src.value()), MacAddress::FromId(1))));
      });
    }
    std::printf("(delivering via GRE tunnel %s -> %s, key 100)\n",
                router_ip.ToString().c_str(), gateway_ip.ToString().c_str());
  } else {
    farm.ScheduleTrace(trace);
  }
  const Duration span = trace.back().time - TimePoint() + Duration::Seconds(30.0);
  std::printf("Replaying into %s across %zu hosts, recycle timeout %.1fs...\n\n",
              prefix.ToString().c_str(), farm.server_count(), timeout_s);
  farm.RunUntil(TimePoint() + span);

  // 3. Report.
  uint64_t peak = 0;
  double sum = 0;
  for (const auto& sample : population.samples()) {
    peak = std::max(peak, static_cast<uint64_t>(sample.value));
    sum += sample.value;
  }
  const double mean = population.empty()
                          ? 0
                          : sum / static_cast<double>(population.samples().size());

  std::printf("live-VM population  |%s|\n",
              Sparkline(population, 64, TimePoint() + span).c_str());
  std::printf("\naddress space:        %s addresses\n",
              WithCommas(prefix.NumAddresses()).c_str());
  std::printf("peak live VMs:        %s  (%.0fx reduction)\n", WithCommas(peak).c_str(),
              static_cast<double>(prefix.NumAddresses()) /
                  static_cast<double>(std::max<uint64_t>(1, peak)));
  std::printf("mean live VMs:        %.1f\n", mean);
  std::printf("clones completed:     %s\n",
              WithCommas(farm.total_clones_completed()).c_str());
  const GatewayStats gw = farm.sharded_gateway().AggregateStats();
  uint64_t scanners = 0;
  for (uint32_t s = 0; s < farm.sharded_gateway().shard_count(); ++s) {
    scanners += farm.sharded_gateway().shard(s).scan_detector().scanners_flagged();
  }
  std::printf("VMs recycled:         %s\n", WithCommas(gw.vms_retired).c_str());
  std::printf("distinct scanners:    %s flagged\n", WithCommas(scanners).c_str());
  std::printf("capacity drops:       %s\n",
              WithCommas(gw.no_capacity_drops).c_str());
  return 0;
}
