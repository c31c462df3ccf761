#include "src/base/rng.h"

#include <cmath>
#include <numeric>

namespace potemkin {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) {
    s = SplitMix64(sm);
  }
}

Rng Rng::Fork(uint64_t tag) const {
  // Mix the current state with the tag through splitmix to derive a child seed.
  uint64_t mix = state_[0] ^ Rotl(state_[1], 17) ^ Rotl(state_[2], 31) ^ state_[3];
  mix ^= tag * 0xd1342543de82ef95ull;
  return Rng(SplitMix64(mix));
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  if (bound <= 1) {
    return 0;
  }
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    const uint64_t threshold = -bound % bound;
    while (l < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double probability_true) { return NextDouble() < probability_true; }

double Rng::NextExponential(double rate) {
  double u = NextDouble();
  while (u <= 0.0) {
    u = NextDouble();
  }
  return -std::log(u) / rate;
}

double Rng::NextPareto(double alpha, double xm) {
  double u = NextDouble();
  while (u <= 0.0) {
    u = NextDouble();
  }
  return xm / std::pow(u, 1.0 / alpha);
}

double Rng::NextGaussian(double mean, double stddev) {
  double u1 = NextDouble();
  while (u1 <= 0.0) {
    u1 = NextDouble();
  }
  const double u2 = NextDouble();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  return mean + stddev * z;
}

uint64_t Rng::NextPoisson(double mean) {
  if (mean <= 0.0) {
    return 0;
  }
  if (mean < 30.0) {
    const double limit = std::exp(-mean);
    uint64_t count = 0;
    double product = NextDouble();
    while (product > limit) {
      ++count;
      product *= NextDouble();
    }
    return count;
  }
  // Normal approximation for large means; adequate for workload generation.
  const double sample = NextGaussian(mean, std::sqrt(mean));
  return sample <= 0.0 ? 0 : static_cast<uint64_t>(sample + 0.5);
}

size_t Rng::NextWeighted(const std::vector<double>& weights) {
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0 || weights.empty()) {
    return 0;
  }
  double target = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) {
      return i;
    }
  }
  return weights.size() - 1;
}

std::vector<uint32_t> Rng::Permutation(uint32_t n) {
  std::vector<uint32_t> out(n);
  std::iota(out.begin(), out.end(), 0u);
  for (uint32_t i = n; i > 1; --i) {
    const uint32_t j = static_cast<uint32_t>(NextBelow(i));
    std::swap(out[i - 1], out[j]);
  }
  return out;
}

}  // namespace potemkin
