// Farm-wide metric registry: the single telemetry surface every component
// reports through, designed so that instrumenting a hot path costs one plain
// integer add and nothing else.
//
// The registry separates *registration* (cold: may allocate, happens once per
// component construction) from *recording* (hot: zero allocations, zero locks,
// no branches on registry internals). Registration hands back a small handle —
// `Counter` or `LatencyHistogram` — that points directly at integer
// storage owned by the registry; the handle's increment methods compile down to
// a single add on a pre-resolved address. The farm runs on one thread, so the
// cells are plain integers: no atomics, no cache-line padding. Storage lives in
// deques, whose elements never move, so handles stay valid for the registry's
// lifetime no matter how many metrics register after them.
//
// Two metric kinds cover the farm's recorded events:
//   * Counter          — monotone event count (packets delivered, clones done)
//   * LatencyHistogram — log-linear (HDR-style) distribution over the full
//                        uint64 range at ~6.25% relative precision, for
//                        latencies and sizes alike (frame bytes);
//                        recording is a bit-scan plus one add, and the
//                        collect path extracts p50/p90/p99/p999 + exact max
//                        in one rank walk. POD `LatencySnapshot`s of a
//                        histogram merge and subtract bucket-wise.
//
// plus *probes*: named callbacks sampled only when a snapshot is taken, for
// components that already keep their own counters (binding-table load factor,
// pool occupancy, containment verdicts) and for every level the farm exports
// (live VMs, used frames, queue depths). A probe costs its owner nothing on
// the packet path. Probes capture component pointers, so owners MUST call
// `RemoveProbes(owner)` from their destructor (the instrumented components in
// this repo all do).
//
// Registering the same name twice returns a handle to the same storage —
// multiple instances of a component (common in tests sharing the process-wide
// default bundle) aggregate rather than collide.
#ifndef SRC_OBS_METRIC_REGISTRY_H_
#define SRC_OBS_METRIC_REGISTRY_H_

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace potemkin {

class MetricRegistry;

// Handle to a monotone counter. Default-constructed handles target a shared
// sink cell, so an uninstrumented component never branches or faults.
class Counter {
 public:
  Counter();
  void Inc(uint64_t n = 1) { *cell_ += n; }
  uint64_t value() const { return *cell_; }

 private:
  friend class MetricRegistry;
  explicit Counter(uint64_t* cell) : cell_(cell) {}
  uint64_t* cell_;
};

struct LatencySnapshot;

// Handle to a zero-allocation log-linear (HDR-style) histogram for latency and
// size distributions whose dynamic range is unknown at registration time.
//
// Bucket layout: values below kSubBuckets (16) get one bucket each (exact);
// above that, every power-of-two range splits into 16 sub-buckets, so the
// bucket upper bound over-reports a recorded value by at most 1/16 (~6.25%).
// Values are clamped to kMaxTrackable = 2^48-1 — anything larger lands in the
// saturating top bucket (a separate `max` cell still remembers the exact raw
// maximum). Total footprint is kNumBuckets (720) fixed POD cells per instance.
//
// Record cost: one branch-free bucket index (a count-leading-zeros plus
// shifts), one add to that bucket, and a compare against the running max.
class LatencyHistogram {
 public:
  static constexpr uint32_t kSubBucketBits = 4;
  static constexpr uint32_t kSubBuckets = 1u << kSubBucketBits;  // 16
  static constexpr uint32_t kMaxExponent = 48;
  static constexpr uint32_t kNumBuckets =
      (kMaxExponent - kSubBucketBits) * kSubBuckets + kSubBuckets;  // 720
  static constexpr uint64_t kMaxTrackable =
      (uint64_t{1} << kMaxExponent) - 1;

  // The POD cell block a handle points at. Owned by the registry (or the
  // shared sink for default-constructed handles); never moves.
  struct Cells {
    uint64_t counts[kNumBuckets]{};
    uint64_t max = 0;
  };

  LatencyHistogram();

  void Record(uint64_t value) {
    ++cells_->counts[BucketIndex(value)];
    if (value > cells_->max) {
      cells_->max = value;
    }
  }

  uint64_t count() const;

  // Copies the current cell values into `out` (overwrites it).
  void SnapshotInto(LatencySnapshot* out) const;

  // Bucket index for `value` after clamping to kMaxTrackable.
  static uint32_t BucketIndex(uint64_t value) {
    if (value > kMaxTrackable) {
      value = kMaxTrackable;
    }
    if (value < kSubBuckets) {
      return static_cast<uint32_t>(value);
    }
    const uint32_t msb = 63u - static_cast<uint32_t>(std::countl_zero(value));
    return (msb - kSubBucketBits + 1) * kSubBuckets +
           static_cast<uint32_t>((value >> (msb - kSubBucketBits)) &
                                 (kSubBuckets - 1));
  }
  // Largest value that lands in bucket `index` (inverse of BucketIndex).
  static uint64_t BucketUpperBound(uint32_t index);
  // The one rank walk behind every quantile: writes to out[k] the bucket-
  // upper-bound estimate of the qs[k]-quantile of the `total` samples in
  // `counts`, for n quantiles in ascending order, in a single pass over the
  // buckets. Estimates are 0 when `total` is 0, and kMaxTrackable for a rank
  // past the samples in `counts` (q > 1, or a `total` above their sum).
  static void Quantiles(const uint64_t* counts, uint64_t total,
                        const double* qs, size_t n, uint64_t* out);

 private:
  friend class MetricRegistry;
  explicit LatencyHistogram(Cells* cells) : cells_(cells) {}
  Cells* cells_;
};

// POD snapshot of a LatencyHistogram: a copy of its cells plus their total,
// safe to diff and merge (the soak harness's windowed-percentile checks
// subtract a midpoint snapshot from the final one).
struct LatencySnapshot {
  uint64_t counts[LatencyHistogram::kNumBuckets];
  uint64_t total = 0;
  uint64_t max = 0;

  void Clear();
  // Subtracts an earlier snapshot of the same histogram, leaving only the
  // samples recorded in the window between the two (for "flat p99" checks).
  void SubtractBaseline(const LatencySnapshot& earlier);
  // Bucket-upper-bound estimate of the q-quantile (q in (0, 1]); 0 when
  // empty. Quantile(1.0) reports the top non-empty bucket's bound, which may
  // exceed `max` by the bucket width. Same walk as LatencyHistogram::Quantiles.
  uint64_t Quantile(double q) const;
};

class MetricRegistry {
 public:
  struct Sample {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // ---- Registration (cold path; may allocate) ----
  Counter RegisterCounter(const std::string& name, const std::string& unit);
  // Log-linear histogram over uint64 values (latencies in ns, sizes in
  // packets/pages). Re-registering a name returns the same storage, so
  // instances sharing a registry aggregate into one farm-wide distribution.
  LatencyHistogram RegisterLatency(const std::string& name,
                                   const std::string& unit);
  // Registers a callback sampled at Collect() time. `owner` keys removal; the
  // callback must stay valid until RemoveProbes(owner).
  void RegisterProbe(const void* owner, const std::string& name,
                     const std::string& unit, std::function<double()> probe);
  // Drops every probe registered under `owner` (called from owner destructors).
  void RemoveProbes(const void* owner);

  // ---- Collection (snapshot path; never taken per packet) ----
  // The one registry walk. Rows come in a fixed order: counters, then
  // histograms, then probes, each in registration order. Counters emit one
  // row each; histograms emit `<name>_count` (unit "count"),
  // `<name>_p50`, `<name>_p90`, `<name>_p99`, `<name>_p999` (bucket-upper-
  // bound estimates, all four from one rank walk after one pass for the
  // total) and `<name>_max` (exact); probes emit their sampled value. The visitor gets stable `const std::string&` names and units
  // (histogram-derived row names are pre-built at registration), so the walk
  // itself never touches the heap and periodic exporters can take ticks
  // allocation-free. Duplicate probe names are NOT deduplicated here —
  // consumers whose format tolerates duplicate keys (the telemetry exporter's
  // array-of-pairs schema) see every probe.
  class SampleVisitor {
   public:
    virtual ~SampleVisitor() = default;
    virtual void OnSample(const std::string& name, double value,
                          const std::string& unit) = 0;
  };
  void VisitSamples(SampleVisitor& visitor) const;

  // VisitSamples() into a vector, except that duplicate probe names keep one
  // row, in the first registration's position, carrying the most recent
  // registration's value and unit.
  std::vector<Sample> Collect() const;

  // Copies the named latency histogram's cells into `out`. Returns false (and
  // leaves `out` cleared) when no such histogram is registered.
  bool SnapshotLatency(const std::string& name, LatencySnapshot* out) const;

  // Cold lookup of a single collected value by name (tests, benches).
  // Returns 0.0 when absent.
  double ValueOf(const std::string& name) const;

 private:
  struct CounterSlot {
    std::string name;
    std::string unit;
    uint64_t value = 0;
  };
  struct LatencySlot {
    std::string name;
    std::string unit;
    // Pre-built derived row names (_count/_p50/_p90/_p99/_p999/_max) so
    // VisitSamples never concatenates strings on an exporter tick.
    std::array<std::string, 6> rows;
    // Heap block (~5.8 KB of cells) with a stable address; the deque slot
    // itself also never moves, but the indirection keeps slots cheap to walk.
    std::unique_ptr<LatencyHistogram::Cells> cells;
  };
  struct ProbeSlot {
    const void* owner;
    std::string name;
    std::string unit;
    std::function<double()> probe;
  };

  // Deques: element addresses are stable across growth, which is what keeps
  // previously handed-out handles valid.
  std::deque<CounterSlot> counters_;
  std::deque<LatencySlot> latencies_;
  std::vector<ProbeSlot> probes_;
};

}  // namespace potemkin

#endif  // SRC_OBS_METRIC_REGISTRY_H_
