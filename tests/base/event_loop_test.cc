#include "src/base/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

namespace potemkin {
namespace {

TEST(EventLoopTest, StartsAtTimeZero) {
  EventLoop loop;
  EXPECT_EQ(loop.Now().nanos(), 0);
  EXPECT_EQ(loop.pending_events(), 0u);
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

TEST(EventLoopTest, EarlierDeadlineNeverMovesTheClockBack) {
  // An event pending past the deadline must not drag the clock back to an
  // earlier deadline, exactly as an empty queue does not.
  EventLoop loop;
  loop.RunUntil(TimePoint::FromNanos(150));
  EXPECT_EQ(loop.Now().nanos(), 150);
  bool fired = false;
  loop.ScheduleAt(TimePoint::FromNanos(200), [&] { fired = true; });
  EXPECT_EQ(loop.RunUntil(TimePoint::FromNanos(50)), 0u);
  EXPECT_EQ(loop.Now().nanos(), 150);
  EXPECT_FALSE(fired);
  loop.RunAll();
  EXPECT_TRUE(fired);
  EXPECT_EQ(loop.Now().nanos(), 200);
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
  EXPECT_NE(loop.pending_events(), 0u);
  EXPECT_TRUE(loop.Cancel(handle));  // the handle stays valid across re-arms
  loop.RunFor(Duration::Nanos(1000));
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_EQ(loop.pending_events(), 0u);
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
  EXPECT_EQ(loop.pending_events(), 0u);
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

// ---- Reference-order differential test ----
//
// One seeded script drives the loop and a std::set<(when, sequence)> model of
// its documented order, and both must produce the same trace. The model assigns
// a fresh sequence to every schedule and to every periodic re-arm (made after
// the callback returns), so a tie-break on anything but the sequence, a re-arm
// that kept its old sequence, or a cancelled event left in the run order all
// show up as a divergence. Delays are multiples of 4 ns, so many events share
// a timestamp.

// What the trace records: ('x', event id, time) per execution, ('c', event id,
// Cancel's result) per cancel, ('r', 0, Now()) after each RunUntil.
using Trace = std::vector<std::tuple<char, int, int64_t>>;

// What an event does when it fires: a pure function of its id and firing
// count, so the loop and the model act identically without sharing state.
// A periodic series schedules a one-shot exactly one period ahead on its first
// two firings, to tie with its own re-arm, and cancels itself on its third
// (odd ids) or twentieth firing unless the script cancelled it first. A third
// of the one-shots schedule a child (a delay of 0 ties with events already
// queued for now).
template <typename Sim>
void OnFire(Sim& sim, int id, int64_t period, int firing) {
  if (period > 0) {
    if (firing <= 2) {
      sim.ScheduleAfter(period, 0);
    }
    if (firing == (id % 2 == 1 ? 3 : 20)) {
      sim.Cancel(id);
    }
  } else if (id % 3 == 0) {
    sim.ScheduleAfter(4 * (id % 5), 0);
  }
}

// The real loop behind the script's interface.
class LoopSim {
 public:
  int64_t Now() const { return loop_.Now().nanos(); }
  Trace& trace() { return trace_; }
  EventLoop& loop() { return loop_; }

  // A positive `period` makes a periodic series, first due one period ahead.
  void ScheduleAt(int64_t when, int64_t period) {
    handles_.push_back(
        period > 0 ? loop_.SchedulePeriodic(Duration::Nanos(period), Fire(period))
                   : loop_.ScheduleAt(TimePoint::FromNanos(when), Fire(0)));
  }
  void ScheduleAfter(int64_t delay, int64_t period) {
    handles_.push_back(
        period > 0 ? loop_.SchedulePeriodic(Duration::Nanos(period), Fire(period))
                   : loop_.ScheduleAfter(Duration::Nanos(delay), Fire(0)));
  }
  void Cancel(int id) {
    const bool cancelled = loop_.Cancel(handles_[static_cast<size_t>(id)]);
    trace_.emplace_back('c', id, cancelled);
    // Stale items are compacted once they outnumber live ones (or reach 64),
    // so right after a cancel the queue is bounded by the live events.
    EXPECT_LE(loop_.heap_items(),
              std::max<uint64_t>(128, 2 * loop_.pending_events()));
  }
  void RunUntil(int64_t deadline) {
    loop_.RunUntil(TimePoint::FromNanos(deadline));
    trace_.emplace_back('r', 0, Now());
  }
  int events() const { return static_cast<int>(handles_.size()); }

 private:
  // The callback for the event about to take the next id.
  EventLoop::Callback Fire(int64_t period) {
    const int id = events();
    return [this, id, period, firing = 0]() mutable {
      trace_.emplace_back('x', id, Now());
      OnFire(*this, id, period, ++firing);
    };
  }

  EventLoop loop_;
  std::vector<EventHandle> handles_;
  Trace trace_;
};

// The reference: an ordered set of (when, sequence) plus per-event state.
class ModelSim {
 public:
  int64_t Now() const { return now_; }
  Trace& trace() { return trace_; }

  void ScheduleAt(int64_t when, int64_t period) {
    const int id = static_cast<int>(events_.size());
    events_.push_back(Event{period, true, 0, 0});
    Arm(id, period > 0 ? now_ + period : std::max(when, now_));
  }
  void ScheduleAfter(int64_t delay, int64_t period) {
    ScheduleAt(now_ + delay, period);
  }
  int events() const { return static_cast<int>(events_.size()); }
  void Cancel(int id) {
    Event& e = events_[static_cast<size_t>(id)];
    const bool cancelled = e.live;
    if (e.live) {
      // A no-op for a periodic series cancelling itself while it executes.
      if (queue_.erase({e.when, e.sequence}) != 0) {
        id_of_.erase(e.sequence);
      }
      e.live = false;
    }
    trace_.emplace_back('c', id, cancelled);
  }
  void RunUntil(int64_t deadline) {
    while (!queue_.empty() && queue_.begin()->first <= deadline) {
      const auto [when, sequence] = *queue_.begin();
      queue_.erase(queue_.begin());
      const int id = id_of_.at(sequence);
      id_of_.erase(sequence);
      Event& e = events_[static_cast<size_t>(id)];
      now_ = when;
      trace_.emplace_back('x', id, now_);
      if (e.period == 0) {
        e.live = false;
      }
      const int64_t period = e.period;
      OnFire(*this, id, period, ++e.fired);
      if (period > 0 && events_[static_cast<size_t>(id)].live) {
        Arm(id, when + period);
      }
    }
    now_ = std::max(now_, deadline);
    trace_.emplace_back('r', 0, now_);
  }

 private:
  struct Event {
    int64_t period;
    bool live;
    int fired;
    int64_t when;
    uint64_t sequence = 0;
  };
  void Arm(int id, int64_t when) {
    Event& e = events_[static_cast<size_t>(id)];
    e.when = when;
    e.sequence = next_sequence_++;
    queue_.insert({when, e.sequence});
    id_of_[e.sequence] = id;
  }

  int64_t now_ = 0;
  uint64_t next_sequence_ = 1;
  std::set<std::pair<int64_t, uint64_t>> queue_;
  std::map<uint64_t, int> id_of_;
  std::vector<Event> events_;
  Trace trace_;
};

// The seeded script: schedules with heavy ties and past times that clamp,
// periodic series, cancels of live, executed and already-cancelled events
// (their handles go stale as slots are reused), and RunUntil to random
// deadlines. Every event is cancelled at the end so the run terminates.
template <typename Sim>
void RunScript(Sim& sim, uint32_t seed, int steps) {
  std::mt19937 rng(seed);
  for (int step = 0; step < steps; ++step) {
    const uint32_t op = rng() % 100;
    const int64_t r = static_cast<int64_t>(rng() % 16);
    if (op < 35) {
      sim.ScheduleAt(sim.Now() + 4 * (r - 4), 0);  // r < 4: in the past
    } else if (op < 50) {
      sim.ScheduleAfter(4 * (r % 8), 0);
    } else if (op < 53) {
      sim.ScheduleAfter(0, 4 * (1 + r % 3));
    } else if (op < 80) {
      if (sim.events() > 0) {
        sim.Cancel(static_cast<int>(rng() % static_cast<uint32_t>(sim.events())));
      }
    } else {
      sim.RunUntil(sim.Now() + 4 * r + static_cast<int64_t>(rng() % 4));
    }
  }
  for (int id = 0; id < sim.events(); ++id) {
    sim.Cancel(id);
  }
  sim.RunUntil(sim.Now() + 1000);
}

TEST(EventLoopTest, MatchesReferenceOrderModel) {
  for (const uint32_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    LoopSim loop;
    ModelSim model;
    RunScript(loop, seed, 6000);
    RunScript(model, seed, 6000);
    const Trace& got = loop.trace();
    const Trace& want = model.trace();
    const size_t common = std::min(got.size(), want.size());
    size_t executed = 0;
    for (size_t i = 0; i < common; ++i) {
      ASSERT_EQ(got[i], want[i]) << "traces diverge at entry " << i << " of "
                                 << want.size() << ": ('" << std::get<0>(got[i])
                                 << "', " << std::get<1>(got[i]) << ", "
                                 << std::get<2>(got[i]) << ") vs ('"
                                 << std::get<0>(want[i]) << "', "
                                 << std::get<1>(want[i]) << ", "
                                 << std::get<2>(want[i]) << ")";
      executed += std::get<0>(got[i]) == 'x' ? 1 : 0;
    }
    ASSERT_EQ(got.size(), want.size());
    EXPECT_GT(executed, 1000u);
    EXPECT_EQ(loop.loop().pending_events(), 0u);
  }
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
