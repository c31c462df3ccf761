// Empirical CDFs for reporting latency and footprint distributions.
#ifndef SRC_ANALYSIS_CDF_H_
#define SRC_ANALYSIS_CDF_H_

#include <vector>

namespace potemkin {

class Cdf {
 public:
  void Add(double value) { values_.push_back(value); }

  // Value at quantile q in [0,1] (linear interpolation between order statistics).
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Max() const { return Quantile(1.0); }
  double Mean() const;

 private:
  void EnsureSorted() const;
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

}  // namespace potemkin

#endif  // SRC_ANALYSIS_CDF_H_
