#include "src/base/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace potemkin {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(7);
  Rng child1 = parent.Fork(1);
  Rng child2 = parent.Fork(2);
  Rng child1_again = parent.Fork(1);
  EXPECT_EQ(child1.NextU64(), child1_again.NextU64());
  EXPECT_NE(child1.NextU64(), child2.NextU64());
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(99);
  for (uint64_t bound : {1ull, 2ull, 7ull, 100ull, 65536ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowCoversFullRange) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    seen.insert(rng.NextBelow(10));
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(17);
  const double rate = 4.0;
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(rate);
  }
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.02);
}

TEST(RngTest, ParetoMinimumRespected) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.NextPareto(1.5, 2.0), 2.0);
  }
}

TEST(RngTest, WeightedSamplingFollowsWeights) {
  Rng rng(31);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) {
    counts[rng.NextWeighted(weights)]++;
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(RngTest, BoolProbabilityRoughlyHonored) {
  Rng rng(41);
  int trues = 0;
  for (int i = 0; i < 10000; ++i) {
    trues += rng.NextBool(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(trues / 10000.0, 0.25, 0.02);
}

}  // namespace
}  // namespace potemkin
