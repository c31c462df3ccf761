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

 private:
  std::vector<Sample> samples_;
};

}  // namespace potemkin

#endif  // SRC_BASE_STATS_H_
