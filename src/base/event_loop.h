// Discrete-event simulation core.
//
// The entire honeyfarm (gateway, hosts, guests, links, worms) is driven by one
// `EventLoop`: components schedule callbacks at virtual times and the loop executes
// them in timestamp order, advancing a virtual clock. The loop is single-threaded
// and fully deterministic given a fixed schedule, which is what lets the benchmark
// harness reproduce the paper's time-based figures exactly across runs.
//
// Storage is a slab of event slots (scheduling and cancellation never allocate
// per event; `Cancel` reclaims its slot eagerly) plus a binary min-heap of
// 16-byte (when, sequence|slot) items. Keys are unique, so the pop order is
// *exactly* (when, sequence). A heap suits the farm's schedule: about a
// thousand events pending at most (1,032 at the peak of a reflected worm
// outbreak, so ten levels that stay in L1), and every packet delivery
// scheduled a fixed latency ahead, so the newest item is usually among the
// next to fire — which defeats any scheme that batches recent schedules
// before sorting them. Cancelled events leave stale items that are skipped at
// the top and compacted once they outnumber live ones. Handles are
// generation-tagged so a stale handle (slot since reused) can never cancel
// someone else's event.
#ifndef SRC_BASE_EVENT_LOOP_H_
#define SRC_BASE_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/time_types.h"

namespace potemkin {

// Handle for a scheduled event; allows cancellation. A handle stays valid for a
// periodic event across re-arms, until the event is cancelled.
class EventHandle {
 public:
  EventHandle() = default;
  bool IsValid() const { return generation_ != 0; }

 private:
  friend class EventLoop;
  EventHandle(uint32_t slot, uint32_t generation)
      : slot_(slot), generation_(generation) {}
  uint32_t slot_ = 0;
  uint32_t generation_ = 0;
};

class EventLoop {
 public:
  using Callback = std::function<void()>;

  EventLoop() = default;
  ~EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Current virtual time.
  TimePoint Now() const { return now_; }

  // Schedules `cb` to run at absolute virtual time `when`. Events scheduled in the
  // past run at the current time. Returns a handle usable with `Cancel`.
  EventHandle ScheduleAt(TimePoint when, Callback cb) {
    return Schedule(when, Duration::Zero(), std::move(cb));
  }

  // Schedules `cb` to run `delay` after the current time.
  EventHandle ScheduleAfter(Duration delay, Callback cb) {
    return ScheduleAt(now_ + delay, std::move(cb));
  }

  // Schedules `cb` to run every `period`, first at Now() + period. The callback
  // object is retained across firings (no per-tick closure allocation) and the
  // returned handle remains cancellable for the lifetime of the series. A
  // periodic event counts as one pending event; the loop is never empty while
  // one is armed, so drive it with RunUntil/RunFor rather than RunAll. The
  // period must be positive (checked): a zero one would fire once, a negative
  // one would re-arm into the past.
  EventHandle SchedulePeriodic(Duration period, Callback cb);

  // Cancels a pending event. Returns true if the event existed and had not yet run
  // (for periodic events: stops the series). The slot is reclaimed immediately.
  bool Cancel(EventHandle handle);

  // Runs events until the queue is empty or the next one lies past `deadline`.
  // The clock then reads `deadline` when it is finite and later than Now(),
  // else it stays at the last event executed: it never moves backwards.
  // Returns the number of events executed.
  uint64_t RunUntil(TimePoint deadline);

  // Runs all pending events (including ones scheduled while running).
  uint64_t RunAll() { return RunUntil(TimePoint::Max()); }

  // Runs events for a span of virtual time from Now().
  uint64_t RunFor(Duration span) { return RunUntil(now_ + span); }

  uint64_t pending_events() const { return live_events_; }
  uint64_t executed_events() const { return executed_events_; }

  // Test oracles, reached by no program: the slab never holds more slots than
  // the peak number of simultaneously live events, and the queue stays within
  // a constant factor of it even under cancel/re-arm churn.
  size_t slab_slots() const { return slots_.size(); }
  size_t heap_items() const { return heap_.size(); }

 private:
  // Queue item keys pack (sequence << kSlotBits) | slot. Sequence numbers are
  // globally unique, so ordering by (when, key) is exactly the documented
  // (when, sequence) FIFO order, and a slot's current key doubles as a staleness
  // check: a popped item whose key no longer matches its slot was cancelled.
  static constexpr uint32_t kSlotBits = 24;  // up to 16M concurrent events
  static constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr uint64_t kMaxSequence = 1ull << (64 - kSlotBits);

  struct Slot {
    Callback cb;
    union {
      uint64_t armed_key;  // key of this slot's live queue item (while armed)
      uint32_t next_free;  // free-list link (while free)
    };
    TimePoint when;           // next firing time (for periodic re-arm)
    Duration period;          // zero for one-shot events
    uint32_t generation = 1;  // bumped on every free; 0 is never a live value
    bool armed = false;
    bool in_queue = false;  // false while its item is popped for execution

    Slot() : armed_key(0) {}
  };
  struct Item {
    TimePoint when;
    uint64_t key;  // (sequence << kSlotBits) | slot
  };

  EventHandle Schedule(TimePoint when, Duration period, Callback cb);
  uint32_t AllocSlot();
  void FreeSlot(uint32_t slot);
  void PushItem(TimePoint when, uint32_t slot);
  // Returns the minimal live item (popping stale ones off the top), or nullptr
  // if no live items remain. The item is heap_.front(); PopTop() removes it.
  const Item* PeekLive();
  void PopTop();
  void CompactIfBloated();
  void Execute(const Item& item);

  bool ItemStale(const Item& item) const {
    const Slot& s = slots_[item.key & kSlotMask];
    return !s.armed || s.armed_key != item.key;
  }

  bool SlotMatches(const EventHandle& handle) const {
    return handle.generation_ != 0 && handle.slot_ < slots_.size() &&
           slots_[handle.slot_].armed &&
           slots_[handle.slot_].generation == handle.generation_;
  }

  TimePoint now_;
  uint64_t next_sequence_ = 1;
  uint64_t live_events_ = 0;
  uint64_t executed_events_ = 0;
  uint64_t stale_items_ = 0;
  std::vector<Slot> slots_;
  std::vector<Item> heap_;  // min-heap on (when, key), stale items included
  uint32_t free_head_ = kNoFreeSlot;
  static constexpr uint32_t kNoFreeSlot = 0xffffffffu;
};

}  // namespace potemkin

#endif  // SRC_BASE_EVENT_LOOP_H_
