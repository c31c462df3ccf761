// BackendPool unit tests: lifecycle states, admission veto, placement scoring
// and the denial-pressure EWMA — all against synthetic capacity callbacks, no
// farm underneath.
#include "src/ctrl/backend_pool.h"

#include <gtest/gtest.h>

namespace potemkin {
namespace {

// A capacity callback the test mutates between Refresh() calls.
struct FakeBackend {
  BackendCapacity cap;
  BackendPool::CapacityFn fn() {
    return [this] { return cap; };
  }
};

BackendCapacity Cap(uint64_t used, uint64_t capacity, uint64_t vms,
                    uint64_t denied = 0) {
  BackendCapacity cap;
  cap.used_frames = used;
  cap.capacity_frames = capacity;
  cap.live_vms = vms;
  cap.denied_requests = denied;
  cap.can_admit = used < capacity;
  return cap;
}

TEST(BackendPoolTest, RegistersDenselyAndTracksState) {
  BackendPool pool;
  FakeBackend a, b;
  a.cap = Cap(0, 100, 0);
  b.cap = Cap(0, 100, 0);
  pool.Register(0, "host0", a.fn(), BackendState::kActive, TimePoint());
  pool.Register(1, "host1", b.fn(), BackendState::kDown, TimePoint());
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.name(1), "host1");
  EXPECT_EQ(pool.state(0), BackendState::kActive);
  EXPECT_EQ(pool.state(1), BackendState::kDown);
  EXPECT_EQ(pool.CountInState(BackendState::kActive), 1u);

  const TimePoint later = TimePoint::FromNanos(5'000'000'000);
  pool.SetState(1, BackendState::kWarming, later);
  EXPECT_EQ(pool.state(1), BackendState::kWarming);
  EXPECT_EQ(pool.state_since(1), later);
  // Setting the same state again must not reset the transition clock.
  pool.SetState(1, BackendState::kWarming, TimePoint::FromNanos(9'000'000'000));
  EXPECT_EQ(pool.state_since(1), later);
}

TEST(BackendPoolTest, OnlyActiveBackendsAdmit) {
  BackendPool pool;
  FakeBackend backends[4];
  const BackendState states[] = {BackendState::kActive, BackendState::kWarming,
                                 BackendState::kDraining, BackendState::kDown};
  for (uint32_t i = 0; i < 4; ++i) {
    backends[i].cap = Cap(0, 100, 0);
    pool.Register(i, "h", backends[i].fn(), states[i], TimePoint());
  }
  EXPECT_TRUE(pool.Admits(0));
  EXPECT_FALSE(pool.Admits(1));
  EXPECT_FALSE(pool.Admits(2));
  EXPECT_FALSE(pool.Admits(3));
  EXPECT_FALSE(pool.Admits(99));  // out of range: no admission
}

TEST(BackendPoolTest, ScorePrefersFrameHeadroom) {
  BackendPool pool;
  FakeBackend full, empty;
  full.cap = Cap(90, 100, 10);
  empty.cap = Cap(10, 100, 10);
  pool.Register(0, "full", full.fn(), BackendState::kActive, TimePoint());
  pool.Register(1, "empty", empty.fn(), BackendState::kActive, TimePoint());
  pool.Refresh();
  EXPECT_GT(pool.Score(1), pool.Score(0));
  // Frame headroom at weight 1, VM headroom (against 4,096 VMs) at 0.25.
  EXPECT_DOUBLE_EQ(pool.Score(1), 0.9 + 0.25 * (1.0 - 10.0 / 4096.0));
}

TEST(BackendPoolTest, DenialStormDepressesScore) {
  BackendPool pool;
  FakeBackend quiet, denying;
  quiet.cap = Cap(50, 100, 5);
  denying.cap = Cap(50, 100, 5);
  pool.Register(0, "quiet", quiet.fn(), BackendState::kActive, TimePoint());
  pool.Register(1, "denying", denying.fn(), BackendState::kActive, TimePoint());
  pool.Refresh();
  EXPECT_DOUBLE_EQ(pool.Score(0), pool.Score(1));

  // A burst of denials between refreshes raises host 1's EWMA and sinks it.
  denying.cap.denied_requests += 500;
  pool.Refresh();
  EXPECT_GT(pool.denial_pressure(1), 0.0);
  EXPECT_LT(pool.Score(1), pool.Score(0));

  // With the storm over, the EWMA decays back toward parity.
  const double pressure_after_storm = pool.denial_pressure(1);
  for (int i = 0; i < 10; ++i) {
    pool.Refresh();
  }
  EXPECT_LT(pool.denial_pressure(1), pressure_after_storm / 100.0);
}

TEST(BackendPoolTest, StateNamesCoverAllStates) {
  EXPECT_STREQ(BackendStateName(BackendState::kActive), "active");
  EXPECT_STREQ(BackendStateName(BackendState::kWarming), "warming");
  EXPECT_STREQ(BackendStateName(BackendState::kDraining), "draining");
  EXPECT_STREQ(BackendStateName(BackendState::kDown), "down");
}

}  // namespace
}  // namespace potemkin
