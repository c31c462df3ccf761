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

}  // namespace potemkin
