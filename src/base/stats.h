// Time-series recorders over virtual time. These feed the analysis/ emitters
// that print the paper's tables and figures (distributions go through
// LatencyHistogram in src/obs or Cdf in src/analysis).
#ifndef SRC_BASE_STATS_H_
#define SRC_BASE_STATS_H_

#include <vector>

#include "src/base/time_types.h"

namespace potemkin {

// An append-only series of (virtual time, value) samples.
class TimeSeries {
 public:
  struct Sample {
    TimePoint time;
    double value;
  };

  void Record(TimePoint t, double value) { samples_.push_back({t, value}); }
  const std::vector<Sample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }
  size_t size() const { return samples_.size(); }
  void Clear() { samples_.clear(); }

  double MaxValue() const;
  double LastValue() const;
  // Mean of values weighted by the span each sample was current (step function).
  double TimeWeightedMean(TimePoint end) const;

  // Downsamples to fixed intervals; each output point carries the maximum value
  // observed in its interval (the natural reduction for "live VM count" curves).
  std::vector<Sample> ResampleMax(Duration interval) const;

 private:
  std::vector<Sample> samples_;
};

}  // namespace potemkin

#endif  // SRC_BASE_STATS_H_
