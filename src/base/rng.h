// Deterministic pseudo-random number generation for the simulation.
//
// Every stochastic component (worm target selection, radiation arrivals, guest page
// touching) owns an `Rng` seeded from the experiment seed, so whole experiments are
// reproducible bit-for-bit. The core generator is xoshiro256**, which is fast, has a
// 256-bit state and passes BigCrush; seeding uses splitmix64 as recommended by its
// authors.
#ifndef SRC_BASE_RNG_H_
#define SRC_BASE_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace potemkin {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  // Derives an independent child generator; children with distinct tags are
  // statistically independent streams.
  Rng Fork(uint64_t tag) const;

  uint64_t NextU64();
  // Uniform in [0, bound), bias-free via rejection.
  uint64_t NextBelow(uint64_t bound);
  // Uniform double in [0, 1).
  double NextDouble();
  bool NextBool(double probability_true);

  // Exponential inter-arrival sample with the given rate (events per unit).
  double NextExponential(double rate);
  // Pareto (heavy-tailed) sample with shape `alpha` and minimum `xm`.
  double NextPareto(double alpha, double xm);

  // Samples an index according to the given (unnormalized) weights.
  size_t NextWeighted(const std::vector<double>& weights);

 private:
  uint64_t state_[4];
};

}  // namespace potemkin

#endif  // SRC_BASE_RNG_H_
