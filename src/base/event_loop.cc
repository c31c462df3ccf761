#include "src/base/event_loop.h"

#include <algorithm>
#include <utility>

#include "src/base/log.h"

namespace potemkin {

namespace {
// std::push_heap/pop_heap build a max-heap, so ordering by "greater" keeps the
// minimal (when, key) item at front().
struct ItemGreater {
  template <typename Item>
  bool operator()(const Item& a, const Item& b) const {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.key > b.key;
  }
};
}  // namespace

uint32_t EventLoop::AllocSlot() {
  if (free_head_ != kNoFreeSlot) {
    const uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  const uint32_t slot = static_cast<uint32_t>(slots_.size());
  PK_CHECK(slot <= kSlotMask) << "event slot space exhausted";
  slots_.emplace_back();
  return slot;
}

void EventLoop::FreeSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;  // release the closure's captures now, not at slot reuse
  s.armed = false;
  ++s.generation;
  if (s.generation == 0) {
    ++s.generation;  // generation 0 is reserved for invalid handles
  }
  s.next_free = free_head_;
  free_head_ = slot;
}

void EventLoop::PushItem(TimePoint when, uint32_t slot) {
  PK_CHECK(next_sequence_ < kMaxSequence) << "event sequence space exhausted";
  const uint64_t key = (next_sequence_++ << kSlotBits) | slot;
  Slot& s = slots_[slot];
  s.armed_key = key;
  s.in_queue = true;
  heap_.push_back(Item{when, key});
  std::push_heap(heap_.begin(), heap_.end(), ItemGreater{});
}

const EventLoop::Item* EventLoop::PeekLive() {
  while (!heap_.empty()) {
    if (stale_items_ == 0 || !ItemStale(heap_.front())) {
      return &heap_.front();
    }
    PopTop();
    --stale_items_;
  }
  return nullptr;
}

void EventLoop::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), ItemGreater{});
  heap_.pop_back();
}

EventHandle EventLoop::Schedule(TimePoint when, Duration period, Callback cb) {
  if (when < now_) {
    when = now_;
  }
  const uint32_t slot = AllocSlot();
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.when = when;
  s.period = period;
  s.armed = true;
  PushItem(when, slot);
  ++live_events_;
  return EventHandle(slot, s.generation);
}

EventHandle EventLoop::SchedulePeriodic(Duration period, Callback cb) {
  PK_CHECK(period > Duration::Zero())
      << "SchedulePeriodic needs a positive period, got " << period.nanos()
      << " ns";
  return Schedule(now_ + period, period, std::move(cb));
}

bool EventLoop::Cancel(EventHandle handle) {
  if (!SlotMatches(handle)) {
    return false;
  }
  if (slots_[handle.slot_].in_queue) {
    ++stale_items_;  // its queue item outlives the slot; skipped at the top
  }
  FreeSlot(handle.slot_);
  --live_events_;
  CompactIfBloated();
  return true;
}

void EventLoop::CompactIfBloated() {
  // Cancelled events leave 16-byte stale items in the heap. Filter them out
  // once they outnumber live items (amortized O(1) per cancel), so a
  // cancel/re-arm loop — e.g. a recycler re-arming far-future timers forever —
  // runs in bounded space.
  if (stale_items_ < 64 || stale_items_ * 2 < heap_.size()) {
    return;
  }
  std::erase_if(heap_, [this](const Item& item) { return ItemStale(item); });
  std::make_heap(heap_.begin(), heap_.end(), ItemGreater{});
  stale_items_ = 0;
}

void EventLoop::Execute(const Item& item) {
  const uint32_t slot_id = static_cast<uint32_t>(item.key & kSlotMask);
  Slot& s = slots_[slot_id];
  s.in_queue = false;
  now_ = item.when;
  ++executed_events_;
  // Move the callback out: running it may grow slots_ (invalidating `s`), cancel
  // this very event, or schedule new ones.
  Callback cb = std::move(s.cb);
  const bool periodic = !s.period.IsZero();
  const uint32_t generation = s.generation;
  if (!periodic) {
    FreeSlot(slot_id);
    --live_events_;
  }
  cb();
  if (periodic) {
    Slot& after = slots_[slot_id];
    if (after.armed && after.generation == generation) {
      // Not cancelled during execution: retain the callback and re-arm.
      after.cb = std::move(cb);
      after.when = item.when + after.period;
      PushItem(after.when, slot_id);
    }
  }
}

uint64_t EventLoop::RunUntil(TimePoint deadline) {
  uint64_t executed = 0;
  for (const Item* top; (top = PeekLive()) != nullptr;) {
    if (top->when > deadline) {
      break;
    }
    const Item item = *top;
    PopTop();
    Execute(item);
    ++executed;
  }
  if (deadline != TimePoint::Max() && deadline > now_) {
    now_ = deadline;
  }
  return executed;
}

}  // namespace potemkin
