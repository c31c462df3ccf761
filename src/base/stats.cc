#include "src/base/stats.h"

#include <algorithm>

namespace potemkin {

double TimeSeries::MaxValue() const {
  double best = 0.0;
  for (const auto& s : samples_) {
    best = std::max(best, s.value);
  }
  return best;
}

double TimeSeries::LastValue() const {
  return samples_.empty() ? 0.0 : samples_.back().value;
}

double TimeSeries::TimeWeightedMean(TimePoint end) const {
  if (samples_.empty()) {
    return 0.0;
  }
  double weighted = 0.0;
  double total = 0.0;
  for (size_t i = 0; i < samples_.size(); ++i) {
    const TimePoint next = (i + 1 < samples_.size()) ? samples_[i + 1].time : end;
    const double span = (next - samples_[i].time).seconds();
    if (span > 0.0) {
      weighted += samples_[i].value * span;
      total += span;
    }
  }
  return total > 0.0 ? weighted / total : samples_.back().value;
}

std::vector<TimeSeries::Sample> TimeSeries::ResampleMax(Duration interval) const {
  std::vector<Sample> out;
  if (samples_.empty() || interval.nanos() <= 0) {
    return out;
  }
  TimePoint bucket_start = samples_.front().time;
  double bucket_max = samples_.front().value;
  bool have = false;
  for (const auto& s : samples_) {
    while (s.time >= bucket_start + interval) {
      if (have) {
        out.push_back({bucket_start, bucket_max});
      }
      bucket_start += interval;
      bucket_max = s.value;
      have = false;
    }
    bucket_max = have ? std::max(bucket_max, s.value) : s.value;
    have = true;
  }
  if (have) {
    out.push_back({bucket_start, bucket_max});
  }
  return out;
}

}  // namespace potemkin
