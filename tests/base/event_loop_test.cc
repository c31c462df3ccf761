#include "src/base/event_loop.h"

#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

namespace potemkin {
namespace {

TEST(EventLoopTest, StartsAtTimeZero) {
  EventLoop loop;
  EXPECT_EQ(loop.Now().nanos(), 0);
  EXPECT_TRUE(loop.Empty());
}

TEST(EventLoopTest, RunsEventsInTimestampOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(TimePoint::FromNanos(300), [&] { order.push_back(3); });
  loop.ScheduleAt(TimePoint::FromNanos(100), [&] { order.push_back(1); });
  loop.ScheduleAt(TimePoint::FromNanos(200), [&] { order.push_back(2); });
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.Now().nanos(), 300);
}

TEST(EventLoopTest, SameTimestampRunsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAt(TimePoint::FromNanos(42), [&order, i] { order.push_back(i); });
  }
  loop.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoopTest, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  TimePoint observed;
  loop.ScheduleAt(TimePoint::FromNanos(1000), [&] {
    loop.ScheduleAfter(Duration::Nanos(500), [&] { observed = loop.Now(); });
  });
  loop.RunAll();
  EXPECT_EQ(observed.nanos(), 1500);
}

TEST(EventLoopTest, PastEventsClampToNow) {
  EventLoop loop;
  loop.ScheduleAt(TimePoint::FromNanos(1000), [] {});
  loop.RunAll();
  TimePoint observed;
  loop.ScheduleAt(TimePoint::FromNanos(10), [&] { observed = loop.Now(); });
  loop.RunAll();
  EXPECT_EQ(observed.nanos(), 1000);  // not earlier than current time
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.ScheduleAt(TimePoint::FromNanos(100), [&] { ++fired; });
  loop.ScheduleAt(TimePoint::FromNanos(200), [&] { ++fired; });
  loop.ScheduleAt(TimePoint::FromNanos(300), [&] { ++fired; });
  const uint64_t executed = loop.RunUntil(TimePoint::FromNanos(250));
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.Now().nanos(), 250);  // clock advances to the deadline
  loop.RunAll();
  EXPECT_EQ(fired, 3);
}

TEST(EventLoopTest, RunForAdvancesRelativeSpans) {
  EventLoop loop;
  int fired = 0;
  loop.ScheduleAfter(Duration::Seconds(1.0), [&] { ++fired; });
  loop.RunFor(Duration::Millis(500));
  EXPECT_EQ(fired, 0);
  loop.RunFor(Duration::Millis(501));
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const EventHandle handle = loop.ScheduleAfter(Duration::Nanos(5), [&] { ran = true; });
  EXPECT_TRUE(loop.Cancel(handle));
  loop.RunAll();
  EXPECT_FALSE(ran);
  EXPECT_FALSE(loop.Cancel(handle));  // double-cancel reports failure
}

TEST(EventLoopTest, CancelAfterExecutionFails) {
  EventLoop loop;
  const EventHandle handle = loop.ScheduleAfter(Duration::Nanos(5), [] {});
  loop.RunAll();
  EXPECT_FALSE(loop.Cancel(handle));
}

TEST(EventLoopTest, EventsScheduledDuringRunExecute) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      loop.ScheduleAfter(Duration::Nanos(1), recurse);
    }
  };
  loop.ScheduleAfter(Duration::Nanos(1), recurse);
  loop.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.Now().nanos(), 5);
}

TEST(EventLoopTest, PendingCountTracksLiveEvents) {
  EventLoop loop;
  const EventHandle a = loop.ScheduleAfter(Duration::Nanos(1), [] {});
  loop.ScheduleAfter(Duration::Nanos(2), [] {});
  EXPECT_EQ(loop.pending_events(), 2u);
  loop.Cancel(a);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.RunAll();
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_EQ(loop.executed_events(), 1u);
}

TEST(EventLoopTest, SchedulePeriodicFiresAtFixedIntervals) {
  EventLoop loop;
  std::vector<int64_t> fired;
  const EventHandle handle = loop.SchedulePeriodic(
      Duration::Nanos(10), [&] { fired.push_back(loop.Now().nanos()); });
  loop.RunFor(Duration::Nanos(45));
  EXPECT_EQ(fired, (std::vector<int64_t>{10, 20, 30, 40}));
  EXPECT_EQ(loop.pending_events(), 1u);  // the whole series counts as one event
  EXPECT_FALSE(loop.Empty());
  EXPECT_TRUE(loop.Cancel(handle));  // the handle stays valid across re-arms
  loop.RunFor(Duration::Nanos(1000));
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_TRUE(loop.Empty());
}

TEST(EventLoopTest, PeriodicCancelledFromOwnCallbackStops) {
  EventLoop loop;
  int fired = 0;
  EventHandle handle;
  handle = loop.SchedulePeriodic(Duration::Nanos(5), [&] {
    if (++fired == 3) {
      EXPECT_TRUE(loop.Cancel(handle));
    }
  });
  loop.RunFor(Duration::Nanos(1000));
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(loop.Empty());
}

TEST(EventLoopTest, PeriodicSelfCancelFreesSlotWithoutRearming) {
  // The footgun: a periodic callback cancelling its own handle mid-fire. The
  // series must not re-arm, the slot must be reclaimed (not leaked), and a new
  // event scheduled from the same callback may legally reuse that slot without
  // the dead series resurrecting through it.
  EventLoop loop;
  int periodic_fired = 0;
  int replacement_fired = 0;
  EventHandle handle;
  handle = loop.SchedulePeriodic(Duration::Nanos(10), [&] {
    ++periodic_fired;
    EXPECT_TRUE(loop.Cancel(handle));
    EXPECT_FALSE(loop.Cancel(handle));  // second cancel must be a no-op
    // Reuses the just-freed slot; the old series' re-arm check must see the
    // bumped generation and leave this replacement alone.
    loop.SchedulePeriodic(Duration::Nanos(10), [&] {
      if (++replacement_fired == 3) {
        loop.Cancel(handle);  // stale handle: must not kill the replacement
      }
    });
  });
  EXPECT_EQ(loop.slab_slots(), 1u);
  loop.RunFor(Duration::Nanos(100));
  EXPECT_EQ(periodic_fired, 1);       // cancelled mid-fire: never re-armed
  EXPECT_GE(replacement_fired, 5);    // survived the stale-handle cancel
  EXPECT_EQ(loop.slab_slots(), 1u);   // slot recycled, not leaked
  EXPECT_EQ(loop.pending_events(), 1u);
}

TEST(EventLoopDeathTest, SchedulePeriodicRejectsNonPositivePeriod) {
  // A zero period would fire once and stop; a negative one would re-arm into
  // the past. Both are caller bugs, caught where the series is scheduled.
  EventLoop loop;
  EXPECT_DEATH(loop.SchedulePeriodic(Duration::Zero(), [] {}),
               "positive period");
  EXPECT_DEATH(loop.SchedulePeriodic(Duration::Nanos(-5), [] {}),
               "positive period");
}

TEST(EventLoopTest, StaleHandleCannotCancelRecycledSlot) {
  EventLoop loop;
  bool second_ran = false;
  const EventHandle first = loop.ScheduleAfter(Duration::Nanos(10), [] {});
  EXPECT_TRUE(loop.Cancel(first));
  // Cancel reclaims the slot eagerly, so this schedule reuses it.
  const EventHandle second =
      loop.ScheduleAfter(Duration::Nanos(20), [&] { second_ran = true; });
  EXPECT_EQ(loop.slab_slots(), 1u);
  EXPECT_FALSE(loop.Cancel(first));  // stale generation must not hit `second`
  loop.RunAll();
  EXPECT_TRUE(second_ran);
}

TEST(EventLoopTest, CancelRearmChurnStaysBounded) {
  // A recycler forever re-arming far-future timers: the slab must recycle slots
  // (never exceeding the peak number of simultaneously live events) and
  // compaction must keep cancelled residue in the queue bounded.
  EventLoop loop;
  std::vector<EventHandle> handles(128);
  for (int round = 0; round < 1000; ++round) {
    for (auto& handle : handles) {
      handle = loop.ScheduleAfter(Duration::Hours(1), [] {});
    }
    for (auto& handle : handles) {
      EXPECT_TRUE(loop.Cancel(handle));
    }
  }
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_LE(loop.slab_slots(), 128u);
  EXPECT_LE(loop.heap_items(), 1024u);
  loop.RunAll();
  EXPECT_EQ(loop.executed_events(), 0u);
}

// Two loops fed the same seeded workload — heavy timestamp ties, interleaved
// cancels and partial drains — must execute the exact same (id, time) sequence.
// Heap addresses differ between the two runs, so any ordering that leaked
// pointer values or container iteration order would diverge here.
TEST(EventLoopTest, IdenticalWorkloadsExecuteIdentically) {
  const auto run = [](std::vector<std::pair<int, int64_t>>& trace) {
    EventLoop loop;
    std::mt19937 rng(99);
    std::vector<EventHandle> handles;
    for (int i = 0; i < 2000; ++i) {
      handles.push_back(loop.ScheduleAfter(
          Duration::Nanos(static_cast<int64_t>(rng() % 64)),
          [&trace, &loop, i] { trace.emplace_back(i, loop.Now().nanos()); }));
      if (rng() % 4 == 0) {
        loop.Cancel(handles[rng() % handles.size()]);
      }
      if (rng() % 8 == 0) {
        loop.RunFor(Duration::Nanos(static_cast<int64_t>(rng() % 16)));
      }
    }
    loop.RunAll();
  };
  std::vector<std::pair<int, int64_t>> a;
  std::vector<std::pair<int, int64_t>> b;
  run(a);
  run(b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  for (size_t i = 1; i < a.size(); ++i) {
    ASSERT_LE(a[i - 1].second, a[i].second);  // time never moves backwards
  }
}

}  // namespace
}  // namespace potemkin
