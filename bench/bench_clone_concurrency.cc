// Experiment F6 — Clone-engine scalability under concurrent demand.
//
// The rate at which a host can materialize VMs bounds how much new traffic the
// farm absorbs. This bench offers Poisson clone-request storms at increasing
// arrival rates against (a) the paper's serialized control plane and (b) the
// projected parallel/optimized one, reporting completion throughput, latency
// inflation from queueing, and the saturation point.
#include <cstdio>
#include <algorithm>
#include <vector>

#include "bench/report.h"
#include "src/analysis/cdf.h"
#include "src/base/event_loop.h"
#include "src/base/flags.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/table.h"
#include "src/hv/clone_engine.h"

namespace potemkin {
namespace {

struct StormResult {
  double offered_rate = 0;
  double completed_rate = 0;
  double mean_latency_ms = 0;
  double p99_latency_ms = 0;
  double mean_queue_wait_ms = 0;
  uint64_t failures = 0;
};

StormResult RunStorm(double arrival_rate, int workers, const CloneLatencyModel& model,
                     Duration run_for, uint64_t seed) {
  EventLoop loop;
  PhysicalHostConfig host_config;
  host_config.memory_mb = 64ull << 10;  // plenty: isolate control-plane limits
  host_config.content_mode = ContentMode::kMetadataOnly;
  host_config.domain_overhead_frames = 16;
  PhysicalHost host(host_config);
  ReferenceImageConfig image_config;
  image_config.num_pages = 8192;
  const ImageId image = host.RegisterImage(image_config);

  CloneEngineConfig engine_config;
  engine_config.latency = model;
  engine_config.control_plane_workers = workers;
  CloneEngine engine(&loop, &host, engine_config);

  // Poisson arrivals; retire each VM as soon as it is created so memory is not
  // the bottleneck. Latency and queue wait are exact, over completed clones.
  Rng rng(seed);
  Cdf latency_ms;
  Cdf queue_wait_ms;
  std::function<void()> arrival = [&]() {
    static uint64_t counter = 0;
    ++counter;
    engine.RequestClone(
        image, "storm", Ipv4Address(10, 1, 0, 1), MacAddress::FromId(counter),
        [&](VirtualMachine* vm, const CloneTiming& timing) {
          if (vm != nullptr) {
            latency_ms.Add(timing.Total().millis_f());
            queue_wait_ms.Add(timing.QueueWait().millis_f());
            engine.RequestDestroy(vm->id());
          }
        });
    loop.ScheduleAfter(Duration::Seconds(rng.NextExponential(arrival_rate)), arrival);
  };
  loop.ScheduleAfter(Duration::Seconds(rng.NextExponential(arrival_rate)), arrival);
  loop.RunUntil(TimePoint() + run_for);

  StormResult result;
  result.offered_rate = arrival_rate;
  result.completed_rate =
      static_cast<double>(engine.clones_completed()) / run_for.seconds();
  result.mean_latency_ms = latency_ms.Mean();
  result.p99_latency_ms = latency_ms.Quantile(0.99);
  result.mean_queue_wait_ms = queue_wait_ms.Mean();
  result.failures = engine.clones_failed();
  return result;
}

// ---- Clone density: how many concurrent clones one 2 GB host sustains ----
//
// The headline scale-out experiment: offer a first-contact storm against a
// single simulated 2 GB host with the whole clone-memory path engaged —
// batched CoW faulting, working-set prefetch from recorded sessions, and the
// memory-pressure recycler — and measure peak concurrency plus the per-phase
// clone-latency distribution across every completed clone.

// Metric-name slugs for the phase histograms (ClonePhaseName() uses
// human-readable names with spaces).
constexpr const char* kPhaseSlug[] = {
    "control_plane_rpc", "domain_create",  "memory_map",
    "device_attach",     "network_config", "guest_resume",
};

struct DensityResult {
  uint64_t peak_concurrent = 0;
  uint64_t completed = 0;
  uint64_t failures = 0;
  uint64_t pressure_reclaims = 0;
  uint64_t frames_denied = 0;
  double prefetch_hit_rate = 0.0;
  uint64_t prefetched_pages = 0;
  // Exact distributions over every completed clone.
  Cdf phase_ms[static_cast<size_t>(ClonePhase::kNumPhases)];
  Cdf prefetch_ms;
  Cdf total_ms;
  Cdf queue_wait_ms;
};

// The first pages a freshly compromised service touches: code, stack, heap and
// scattered data — three contiguous runs spread across the 8192-page image.
std::vector<Gpfn> AttackWorkingSet() {
  std::vector<Gpfn> pages;
  for (Gpfn g = 512; g < 544; ++g) pages.push_back(g);    // service code
  for (Gpfn g = 1024; g < 1040; ++g) pages.push_back(g);  // heap
  for (Gpfn g = 6144; g < 6152; ++g) pages.push_back(g);  // stack
  return pages;
}

// Each contiguous run faults in with one batched reservation, then takes the
// per-page marker writes; a run the host cannot back is left untouched.
void TouchWorkingSet(VirtualMachine* vm, const std::vector<Gpfn>& pages) {
  AddressSpace& mem = vm->memory();
  size_t i = 0;
  while (i < pages.size()) {
    size_t j = i + 1;
    while (j < pages.size() && pages[j] == pages[j - 1] + 1) {
      ++j;
    }
    const auto run = static_cast<uint32_t>(j - i);
    if (mem.FaultRange(pages[i], run) != MemAccessResult::kOutOfMemory) {
      mem.TouchPages(pages[i], run);
    }
    i = j;
  }
}

DensityResult RunDensity(uint64_t target, double arrival_rate, uint64_t seed) {
  EventLoop loop;
  PhysicalHostConfig host_config;
  host_config.memory_mb = 2048;  // the headline host: one 2 GB server
  host_config.content_mode = ContentMode::kMetadataOnly;
  // 512 KiB per-domain overhead: the slimmed descriptor the paper's projected
  // C control plane carries (the unoptimized 1 MiB default would cap a 2 GB
  // host below the density this experiment demonstrates).
  host_config.domain_overhead_frames = 128;
  host_config.admission_reserve_frames = 512;
  // Pressure recycler: while committed frames are past 85% of the host, each
  // clone request first reclaims up to 64 idle clones (the engine's batch
  // below).
  host_config.pressure_high_watermark = 0.85;
  PhysicalHost host(host_config);
  ReferenceImageConfig image_config;
  image_config.num_pages = 8192;
  const ImageId image = host.RegisterImage(image_config);

  CloneEngineConfig engine_config;
  engine_config.latency = CloneLatencyModel::Optimized();
  engine_config.kind = CloneKind::kFlash;
  engine_config.control_plane_workers = 8;
  engine_config.pressure_reclaim_batch = 64;
  CloneEngine engine(&loop, &host, engine_config);

  const std::vector<Gpfn> working_set = AttackWorkingSet();

  // Profile warm-up: a few recorded sessions teach the image which pages an
  // attack touches first; every storm clone is then prefetched from that
  // profile.
  CloneOptions record_opts;
  record_opts.record_working_set = true;
  for (int i = 0; i < 8; ++i) {
    VirtualMachine* vm = host.CreateClone(image, CloneKind::kFlash, "warmup",
                                          record_opts);
    TouchWorkingSet(vm, working_set);
    host.DestroyVm(vm->id());
  }

  CloneOptions storm_opts;
  storm_opts.use_working_set = true;
  storm_opts.prefetch_pages = 64;

  DensityResult result;
  // Offer 30% more requests than the concurrency target: the tail arrives
  // after the host crosses its pressure watermark, so the recycler (not
  // allocation failure) is what absorbs the overshoot.
  const uint64_t requests = target + (target * 3) / 10;
  Rng rng(seed);
  uint64_t issued = 0;
  std::function<void()> arrival = [&]() {
    ++issued;
    engine.RequestClone(
        image, "density", Ipv4Address(10, 1, 0, 1), MacAddress::FromId(issued),
        kNoSession, storm_opts,
        [&](VirtualMachine* vm, const CloneTiming& timing) {
          if (vm == nullptr) {
            return;
          }
          // The session's first touches: predicted pages are already private
          // (prefetch hits), the rest break CoW through the batched path.
          TouchWorkingSet(vm, working_set);
          for (int p = 0; p < static_cast<int>(ClonePhase::kNumPhases); ++p) {
            result.phase_ms[p].Add(timing.phase[static_cast<size_t>(p)].millis_f());
          }
          result.prefetch_ms.Add(timing.ws_prefetch.millis_f());
          result.total_ms.Add(timing.Total().millis_f());
          result.queue_wait_ms.Add(timing.QueueWait().millis_f());
          result.peak_concurrent =
              std::max<uint64_t>(result.peak_concurrent, host.live_vm_count());
        });
    if (issued < requests) {
      loop.ScheduleAfter(Duration::Seconds(rng.NextExponential(arrival_rate)),
                         arrival);
    }
  };
  loop.ScheduleAfter(Duration::Seconds(rng.NextExponential(arrival_rate)), arrival);
  loop.RunAll();

  result.completed = engine.clones_completed();
  result.failures = engine.clones_failed();
  result.pressure_reclaims = engine.pressure_reclaims();
  result.frames_denied = host.allocator().denied_requests();
  const PrefetchTotals prefetch = host.prefetch_totals();
  result.prefetch_hit_rate = prefetch.HitRate();
  result.prefetched_pages = prefetch.prefetched_pages;
  return result;
}

void RunDensitySection(BenchReport& report, uint64_t target, double rate) {
  std::printf("--- clone density: %llu+ concurrent clones on one 2 GB host ---\n",
              static_cast<unsigned long long>(target));
  const DensityResult r = RunDensity(target, rate, 11);

  const CloneLatencyModel paper;  // unoptimized per-phase budget (~0.5 s total)
  Table table({"phase", "p50 (ms)", "p99 (ms)", "max (ms)", "paper (ms)"});
  double paper_total = 0.0;
  for (int p = 0; p < static_cast<int>(ClonePhase::kNumPhases); ++p) {
    const auto phase = static_cast<ClonePhase>(p);
    const double paper_ms = paper.PhaseCost(phase, 8192).millis_f();
    paper_total += paper_ms;
    table.AddRow({ClonePhaseName(phase),
                  StrFormat("%.2f", r.phase_ms[p].Quantile(0.5)),
                  StrFormat("%.2f", r.phase_ms[p].Quantile(0.99)),
                  StrFormat("%.2f", r.phase_ms[p].Max()),
                  StrFormat("%.1f", paper_ms)});
  }
  table.AddRow({"ws prefetch", StrFormat("%.2f", r.prefetch_ms.Quantile(0.5)),
                StrFormat("%.2f", r.prefetch_ms.Quantile(0.99)),
                StrFormat("%.2f", r.prefetch_ms.Max()), "-"});
  table.AddRow({"total", StrFormat("%.2f", r.total_ms.Quantile(0.5)),
                StrFormat("%.2f", r.total_ms.Quantile(0.99)),
                StrFormat("%.2f", r.total_ms.Max()),
                StrFormat("%.1f", paper_total)});
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf(
      "peak concurrent clones: %llu (failures %llu, pressure reclaims %llu, "
      "denied allocations %llu)\n",
      static_cast<unsigned long long>(r.peak_concurrent),
      static_cast<unsigned long long>(r.failures),
      static_cast<unsigned long long>(r.pressure_reclaims),
      static_cast<unsigned long long>(r.frames_denied));
  std::printf("working-set prefetch: %llu pages prefetched, hit rate %.3f\n\n",
              static_cast<unsigned long long>(r.prefetched_pages),
              r.prefetch_hit_rate);

  report.Add("density_peak_concurrent_clones",
             static_cast<double>(r.peak_concurrent), "vms", Better::kHigher);
  report.Add("density_clones_completed", static_cast<double>(r.completed),
             "clones", Better::kHigher);
  report.Add("density_clone_failures", static_cast<double>(r.failures),
             "clones", Better::kLower);
  // A pressure reclaim ends a live session early to free its frames.
  report.Add("density_pressure_reclaims",
             static_cast<double>(r.pressure_reclaims), "vms", Better::kLower);
  report.Add("density_prefetch_hit_rate", r.prefetch_hit_rate, "ratio",
             Better::kHigher);
  for (int p = 0; p < static_cast<int>(ClonePhase::kNumPhases); ++p) {
    report.Add(StrFormat("density_phase_%s_p99_ms", kPhaseSlug[p]),
               r.phase_ms[p].Quantile(0.99), "ms", Better::kLower);
  }
  report.Add("density_ws_prefetch_p99_ms", r.prefetch_ms.Quantile(0.99), "ms",
             Better::kLower);
  report.Add("density_total_p50_ms", r.total_ms.Quantile(0.5), "ms",
             Better::kLower);
  report.Add("density_total_p99_ms", r.total_ms.Quantile(0.99), "ms",
             Better::kLower);
  report.Add("density_queue_wait_p99_ms", r.queue_wait_ms.Quantile(0.99), "ms",
             Better::kLower);
}

void Run(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const double seconds = flags.GetDouble("seconds", 120.0);

  std::printf("=== F6: clone-engine throughput under concurrent demand ===\n");
  std::printf("Poisson clone-request storms, %.0fs of virtual time each\n\n", seconds);

  struct Scenario {
    const char* name;
    CloneLatencyModel model;
    int workers;
  };
  const Scenario scenarios[] = {
      {"unoptimized, serial control plane (paper prototype)", CloneLatencyModel{}, 1},
      {"unoptimized, 4 control-plane workers", CloneLatencyModel{}, 4},
      {"optimized control plane, serial", CloneLatencyModel::Optimized(), 1},
      {"optimized, 4 workers", CloneLatencyModel::Optimized(), 4},
  };

  BenchReport report("clone_concurrency");
  report.set_seed(3);
  for (const auto& scenario : scenarios) {
    const double service_rate =
        static_cast<double>(scenario.workers) /
        scenario.model.FlashCloneTotal(8192).seconds();
    std::printf("--- %s (service capacity ~%.1f clones/s) ---\n", scenario.name,
                service_rate);
    Table table({"offered (req/s)", "completed (clones/s)", "mean latency (ms)",
                 "p99 latency (ms)", "mean queue wait (ms)"});
    double saturated_rate = 0;
    for (double frac : {0.25, 0.5, 0.9, 1.5, 3.0}) {
      const double rate = service_rate * frac;
      const StormResult r = RunStorm(rate, scenario.workers, scenario.model,
                                     Duration::Seconds(seconds), 3);
      saturated_rate = std::max(saturated_rate, r.completed_rate);
      table.AddRow({StrFormat("%.2f", r.offered_rate),
                    StrFormat("%.2f", r.completed_rate),
                    StrFormat("%.0f", r.mean_latency_ms),
                    StrFormat("%.0f", r.p99_latency_ms),
                    StrFormat("%.0f", r.mean_queue_wait_ms)});
    }
    std::printf("%s\n", table.ToAscii().c_str());
    report.Add(StrFormat("peak_completed_rate_workers_%d%s", scenario.workers,
                         scenario.model.FlashCloneTotal(8192) <
                                 CloneLatencyModel{}.FlashCloneTotal(8192)
                             ? "_optimized"
                             : ""),
               saturated_rate, "clones/s", Better::kHigher);
  }
  const auto density_target =
      static_cast<uint64_t>(flags.GetInt("density-target", 2000));
  // ~85% of the 8-worker optimized control plane's service capacity: arrivals
  // nearly keep pace with completions, so the host crosses its pressure
  // watermark while the request tail is still arriving and the recycler (not
  // allocation failure) absorbs the overshoot.
  const double density_rate = flags.GetDouble("density-rate", 160.0);
  RunDensitySection(report, density_target, density_rate);

  report.WriteJson();

  std::printf("shape check (paper): completion rate tracks offered load until the "
              "control plane saturates at ~1/clone-latency per worker, after which "
              "queue wait grows without bound; the optimized control plane raises "
              "the ceiling ~10x.\n");
}

}  // namespace
}  // namespace potemkin

int main(int argc, char** argv) {
  potemkin::Run(argc, argv);
  return 0;
}
