#include "src/analysis/cdf.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace potemkin {

void Cdf::EnsureSorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Cdf::Quantile(double q) const {
  if (values_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  q = std::clamp(q, 0.0, 1.0);
  const double position = q * static_cast<double>(values_.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(position));
  const size_t hi = static_cast<size_t>(std::ceil(position));
  const double fraction = position - static_cast<double>(lo);
  return values_[lo] * (1.0 - fraction) + values_[hi] * fraction;
}

double Cdf::Mean() const {
  if (values_.empty()) {
    return 0.0;
  }
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

}  // namespace potemkin
