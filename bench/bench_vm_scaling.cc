// Experiment F1 — Live-VM population vs time under telescope traffic.
//
// The paper's key scalability result: traffic arriving for a /16 (64 Ki addresses)
// can be served by a small number of live VMs because only the *currently active*
// slice of the address space needs a VM at any instant. We replay a synthetic
// 24-hour-style background-radiation trace into the farm once per recycle timeout
// and report the live-VM population curve: short timeouts keep the farm hundreds
// of times smaller than the address space.
//
// Ablation (--infected-hold): recycle policy variants from DESIGN.md §5.
#include <cstdio>

#include "src/analysis/series_util.h"
#include "bench/report.h"
#include "src/base/flags.h"
#include "src/base/strings.h"
#include "src/base/table.h"
#include "src/core/honeyfarm.h"
#include "src/malware/radiation.h"

namespace potemkin {
namespace {

struct ScalingResult {
  double timeout_s = 0;
  uint64_t peak_live = 0;
  double mean_live = 0;
  uint64_t clones = 0;
  uint64_t retired = 0;
  uint64_t capacity_drops = 0;
  double cpu_utilization = 0;
  TimeSeries population;
};

ScalingResult RunOnce(const std::vector<TraceRecord>& trace, Ipv4Prefix prefix,
                      Duration duration, Duration timeout, uint32_t hosts,
                      uint64_t host_mb, uint32_t emergency_batch = 0) {
  HoneyfarmConfig config =
      MakeDefaultFarmConfig(prefix, hosts, host_mb, ContentMode::kMetadataOnly);
  config.server_template.engine.latency = CloneLatencyModel::Optimized();
  config.server_template.engine.control_plane_workers = 8;
  config.gateway.recycle.idle_timeout = timeout;
  config.gateway.recycle.infected_hold = timeout;
  config.gateway.recycle.emergency_reclaim_batch = emergency_batch;
  config.gateway.recycle.max_lifetime = Duration::Zero();
  config.gateway.recycle.scan_interval =
      timeout < Duration::Seconds(2.0) ? timeout : Duration::Seconds(2.0);

  Honeyfarm farm(config);
  farm.Start();
  ScalingResult result;
  // Every 30 virtual seconds: the live-VM population, and the hosts' mean CPU
  // utilization so far (the last sample is the reported one).
  farm.loop().SchedulePeriodic(Duration::Seconds(30), [&farm, &result] {
    result.population.Record(farm.loop().Now(),
                             static_cast<double>(farm.TotalLiveVms()));
    result.cpu_utilization = farm.MeanCpuUtilization();
  });
  farm.ScheduleTrace(trace);
  farm.RunUntil(TimePoint() + duration);

  result.timeout_s = timeout.seconds();
  result.clones = farm.total_clones_completed();
  result.retired = farm.gateway().stats().vms_retired;
  result.capacity_drops = farm.gateway().stats().no_capacity_drops;
  double sum = 0;
  for (const auto& sample : result.population.samples()) {
    result.peak_live =
        std::max(result.peak_live, static_cast<uint64_t>(sample.value));
    sum += sample.value;
  }
  const size_t samples = result.population.samples().size();
  result.mean_live = samples == 0 ? 0.0 : sum / static_cast<double>(samples);
  return result;
}

void Run(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const double hours = flags.GetDouble("hours", 0.5);
  const double pps = flags.GetDouble("pps", 60.0);
  const uint32_t hosts = static_cast<uint32_t>(flags.GetUint("hosts", 8));
  const uint64_t host_mb = flags.GetUint("host-mb", 2048);
  const Ipv4Prefix prefix =
      Ipv4Prefix::Parse(flags.GetString("prefix", "10.1.0.0/16")).value();

  RadiationConfig radiation;
  radiation.telescope = prefix;
  radiation.duration = Duration::Hours(hours);
  radiation.mean_pps = pps;
  radiation.diurnal_period = Duration::Hours(hours);  // one full cycle per run
  radiation.seed = flags.GetUint("seed", 7);
  RadiationGenerator generator(radiation);
  const auto trace = generator.GenerateAll();

  std::printf("=== F1: live-VM population vs time (telescope replay) ===\n");
  std::printf("prefix=%s (%s addresses), trace: %.1fh at mean %.0f pps, "
              "%zu packets, hosts=%u x %s\n\n",
              prefix.ToString().c_str(), WithCommas(prefix.NumAddresses()).c_str(),
              hours, pps, trace.size(), hosts,
              HumanBytes(host_mb << 20).c_str());

  const std::vector<double> timeouts = {0.5, 5.0, 30.0, 300.0};
  std::vector<ScalingResult> results;
  std::vector<NamedSeries> curves;
  std::vector<std::string> labels;
  for (double t : timeouts) {
    results.push_back(RunOnce(trace, prefix, Duration::Hours(hours),
                              Duration::Seconds(t), hosts, host_mb));
    labels.push_back(StrFormat("%g", t));
    curves.push_back({StrFormat("vms@%gs", t), results.back().population});
    std::fprintf(stderr, "  [done] timeout=%gs peak=%llu\n", t,
                 static_cast<unsigned long long>(results.back().peak_live));
  }
  // Ablation: the longest (saturating) timeout with emergency reclaim enabled.
  results.push_back(RunOnce(trace, prefix, Duration::Hours(hours),
                            Duration::Seconds(timeouts.back()), hosts, host_mb,
                            /*emergency_batch=*/64));
  labels.push_back(StrFormat("%g+reclaim", timeouts.back()));
  curves.push_back({"vms@reclaim", results.back().population});
  std::fprintf(stderr, "  [done] emergency-reclaim peak=%llu\n",
               static_cast<unsigned long long>(results.back().peak_live));

  Table table({"recycle timeout (s)", "peak live VMs", "mean live VMs",
               "clones", "retired", "capacity drops", "cpu util",
               "addr-space reduction"});
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    table.AddRow(
        {labels[i], WithCommas(r.peak_live),
         StrFormat("%.1f", r.mean_live), WithCommas(r.clones), WithCommas(r.retired),
         WithCommas(r.capacity_drops), StrFormat("%.1f%%", r.cpu_utilization * 100.0),
         StrFormat("%.0fx", static_cast<double>(prefix.NumAddresses()) /
                                std::max<uint64_t>(1, r.peak_live))});
  }
  std::printf("%s\n", table.ToAscii().c_str());

  std::printf("population curves (max per %ds bucket):\n",
              static_cast<int>(Duration::Hours(hours).seconds() / 60));
  for (size_t i = 0; i < curves.size(); ++i) {
    std::printf("  %-10s |%s| peak=%llu\n", curves[i].name.c_str(),
                Sparkline(curves[i].series, 60, TimePoint() + Duration::Hours(hours))
                    .c_str(),
                static_cast<unsigned long long>(results[i].peak_live));
  }
  std::printf("\nfigure data (CSV):\n%s",
              AlignSeries(curves, Duration::Minutes(hours * 60.0 / 48.0),
                          TimePoint() + Duration::Hours(hours))
                  .ToCsv()
                  .c_str());
  std::printf("\nshape check (paper): live VMs << address space; population grows "
              "with the recycle timeout; aggressive recycling gives orders-of-"
              "magnitude reduction.\n");

  BenchReport report("vm_scaling");
  report.set_seed(radiation.seed);
  for (size_t i = 0; i < results.size(); ++i) {
    report.Add(StrFormat("peak_live_vms_timeout_%s", labels[i].c_str()),
               static_cast<double>(results[i].peak_live), "vms", Better::kLower);
  }
  report.Add("addr_space_reduction_smallest_timeout",
             static_cast<double>(prefix.NumAddresses()) /
                 std::max<uint64_t>(1, results.front().peak_live),
             "x", Better::kHigher);
  report.WriteJson();
}

}  // namespace
}  // namespace potemkin

int main(int argc, char** argv) {
  potemkin::Run(argc, argv);
  return 0;
}
