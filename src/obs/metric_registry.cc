#include "src/obs/metric_registry.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

namespace potemkin {

namespace {
// Shared sinks for default-constructed handles: recording into an unregistered
// handle is harmless instead of a null deref, and the hot path needs no branch.
uint64_t g_counter_sink = 0;
LatencyHistogram::Cells g_latency_sink{};
}  // namespace

Counter::Counter() : cell_(&g_counter_sink) {}
LatencyHistogram::LatencyHistogram() : cells_(&g_latency_sink) {}

uint64_t LatencyHistogram::count() const {
  uint64_t total = 0;
  for (uint32_t i = 0; i < kNumBuckets; ++i) {
    total += cells_->counts[i];
  }
  return total;
}

void LatencyHistogram::SnapshotInto(LatencySnapshot* out) const {
  out->total = 0;
  for (uint32_t i = 0; i < kNumBuckets; ++i) {
    out->counts[i] = cells_->counts[i];
    out->total += out->counts[i];
  }
  out->max = cells_->max;
}

uint64_t LatencyHistogram::BucketUpperBound(uint32_t index) {
  if (index >= kNumBuckets) {
    index = kNumBuckets - 1;
  }
  if (index < kSubBuckets) {
    return index;
  }
  const uint32_t base = index / kSubBuckets;  // >= 1
  const uint64_t sub = index % kSubBuckets;
  return ((kSubBuckets + sub + 1) << (base - 1)) - 1;
}

void LatencyHistogram::Quantiles(const uint64_t* counts, uint64_t total,
                                 const double* qs, size_t n, uint64_t* out) {
  if (total == 0) {
    std::fill(out, out + n, uint64_t{0});
    return;
  }
  // 0-based rank of the q-quantile sample; q=1 stops at the highest non-empty
  // bucket instead of falling through to the top bound, q<=0 at the lowest.
  const auto rank_of = [total](double q) -> uint64_t {
    const double up = std::ceil(q * static_cast<double>(total));
    return up >= 1.0 ? static_cast<uint64_t>(up) - 1 : 0;
  };
  size_t k = 0;
  uint64_t rank = rank_of(qs[0]);
  uint64_t seen = 0;
  for (uint32_t i = 0; i < kNumBuckets && k < n; ++i) {
    seen += counts[i];
    while (seen > rank) {
      out[k] = BucketUpperBound(i);
      if (++k == n) {
        break;
      }
      rank = rank_of(qs[k]);
    }
  }
  std::fill(out + k, out + n, kMaxTrackable);
}

void LatencySnapshot::Clear() {
  std::memset(counts, 0, sizeof(counts));
  total = 0;
  max = 0;
}

void LatencySnapshot::SubtractBaseline(const LatencySnapshot& earlier) {
  for (uint32_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    // Saturate rather than wrap, so a baseline that is not an earlier
    // snapshot of this histogram cannot turn into huge wrapped counts.
    counts[i] -= std::min(counts[i], earlier.counts[i]);
  }
  total = 0;
  for (uint32_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    total += counts[i];
  }
  // `max` stays cumulative — the cells keep no per-window maximum.
}

uint64_t LatencySnapshot::Quantile(double q) const {
  uint64_t estimate;
  LatencyHistogram::Quantiles(counts, total, &q, 1, &estimate);
  return estimate;
}

Counter MetricRegistry::RegisterCounter(const std::string& name,
                                        const std::string& unit) {
  for (CounterSlot& slot : counters_) {
    if (slot.name == name) {
      return Counter(&slot.value);
    }
  }
  counters_.emplace_back();
  CounterSlot& slot = counters_.back();
  slot.name = name;
  slot.unit = unit;
  return Counter(&slot.value);
}

LatencyHistogram MetricRegistry::RegisterLatency(const std::string& name,
                                                 const std::string& unit) {
  for (LatencySlot& slot : latencies_) {
    if (slot.name == name) {
      return LatencyHistogram(slot.cells.get());
    }
  }
  latencies_.emplace_back();
  LatencySlot& slot = latencies_.back();
  slot.name = name;
  slot.unit = unit;
  slot.rows = {name + "_count", name + "_p50", name + "_p90",
               name + "_p99",   name + "_p999", name + "_max"};
  slot.cells = std::make_unique<LatencyHistogram::Cells>();
  return LatencyHistogram(slot.cells.get());
}

void MetricRegistry::RegisterProbe(const void* owner, const std::string& name,
                                   const std::string& unit,
                                   std::function<double()> probe) {
  probes_.push_back(ProbeSlot{owner, name, unit, std::move(probe)});
}

void MetricRegistry::RemoveProbes(const void* owner) {
  std::erase_if(probes_, [owner](const ProbeSlot& p) { return p.owner == owner; });
}

void MetricRegistry::VisitSamples(SampleVisitor& visitor) const {
  for (const CounterSlot& slot : counters_) {
    visitor.OnSample(slot.name, static_cast<double>(slot.value), slot.unit);
  }
  static const std::string kCountUnit = "count";
  static constexpr double kRowQuantiles[] = {0.50, 0.90, 0.99, 0.999};
  for (const LatencySlot& slot : latencies_) {
    // Read in place, no snapshot copy: one pass for the total, then one rank
    // walk that stops at the p999 bucket.
    const LatencyHistogram::Cells& cells = *slot.cells;
    const uint64_t total = LatencyHistogram(slot.cells.get()).count();
    uint64_t estimates[4];
    LatencyHistogram::Quantiles(cells.counts, total, kRowQuantiles, 4,
                                estimates);
    visitor.OnSample(slot.rows[0], static_cast<double>(total), kCountUnit);
    for (size_t k = 0; k < 4; ++k) {
      visitor.OnSample(slot.rows[k + 1], static_cast<double>(estimates[k]),
                       slot.unit);
    }
    visitor.OnSample(slot.rows[5], static_cast<double>(cells.max), slot.unit);
  }
  for (const ProbeSlot& slot : probes_) {
    visitor.OnSample(slot.name, slot.probe(), slot.unit);
  }
}

std::vector<MetricRegistry::Sample> MetricRegistry::Collect() const {
  // Rows before `first_probe` come from counters and histograms and
  // are kept as they are. A later registration of a probe name replaces the
  // earlier row in place (the newest live instance wins).
  struct Collector final : SampleVisitor {
    void OnSample(const std::string& name, double value,
                  const std::string& unit) override {
      if (out.size() >= first_probe) {
        auto [it, inserted] = probe_at.emplace(name, out.size());
        if (!inserted) {
          out[it->second] = Sample{name, value, unit};
          return;
        }
      }
      out.push_back(Sample{name, value, unit});
    }
    size_t first_probe = 0;
    std::vector<Sample> out;
    std::unordered_map<std::string, size_t> probe_at;
  } collector;
  collector.first_probe = counters_.size() + 6 * latencies_.size();
  collector.out.reserve(collector.first_probe + probes_.size());
  VisitSamples(collector);
  return std::move(collector.out);
}

bool MetricRegistry::SnapshotLatency(const std::string& name,
                                     LatencySnapshot* out) const {
  for (const LatencySlot& slot : latencies_) {
    if (slot.name == name) {
      LatencyHistogram(slot.cells.get()).SnapshotInto(out);
      return true;
    }
  }
  out->Clear();
  return false;
}

double MetricRegistry::ValueOf(const std::string& name) const {
  for (const Sample& sample : Collect()) {
    if (sample.name == name) {
      return sample.value;
    }
  }
  return 0.0;
}

}  // namespace potemkin
