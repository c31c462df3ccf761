#include "src/base/event_loop.h"

#include <algorithm>
#include <utility>

#include "src/base/log.h"

namespace potemkin {

namespace {
// Runs are sorted descending so the minimum is at back() and pops are O(1).
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
  const Item item{when, key};
  if (!stage_nonempty_ || ItemLess(item, stage_min_)) {
    stage_min_ = item;
    stage_nonempty_ = true;
  }
  stage_.push_back(item);
  ++total_items_;
  if (stage_.size() >= kMaxStage) {
    Flush();
  }
}

std::vector<EventLoop::Item> EventLoop::TakeBuffer() {
  if (!pool_.empty()) {
    std::vector<Item> buffer = std::move(pool_.back());
    pool_.pop_back();
    return buffer;
  }
  return {};
}

void EventLoop::DropRun(size_t index) {
  runs_[index].clear();
  pool_.push_back(std::move(runs_[index]));
  runs_.erase(runs_.begin() + static_cast<ptrdiff_t>(index));
}

void EventLoop::Flush() {
  if (stage_.empty()) {
    stage_nonempty_ = false;
    return;
  }
  std::sort(stage_.begin(), stage_.end(), ItemGreater{});
  runs_.push_back(std::move(stage_));
  stage_ = TakeBuffer();
  stage_nonempty_ = false;
  if (runs_.size() > kMaxRuns) {
    MergeSmallestRuns();
  }
}

void EventLoop::MergeSmallestRuns() {
  // Merge the two smallest runs (ties: lower index) — a deterministic policy
  // under which each item is merged O(log pending) times over its lifetime.
  while (runs_.size() > kMaxRuns) {
    size_t a = 0, b = 1;
    if (runs_[b].size() < runs_[a].size()) {
      std::swap(a, b);
    }
    for (size_t i = 2; i < runs_.size(); ++i) {
      if (runs_[i].size() < runs_[a].size()) {
        b = a;
        a = i;
      } else if (runs_[i].size() < runs_[b].size()) {
        b = i;
      }
    }
    std::vector<Item> merged = TakeBuffer();
    merged.resize(runs_[a].size() + runs_[b].size());
    std::merge(runs_[a].begin(), runs_[a].end(), runs_[b].begin(), runs_[b].end(),
               merged.begin(), ItemGreater{});
    std::swap(runs_[a], merged);
    merged.clear();
    pool_.push_back(std::move(merged));
    DropRun(b);
  }
}

EventLoop::Item* EventLoop::PeekLive() {
  for (;;) {
    size_t best = runs_.size();
    for (size_t i = 0; i < runs_.size(); ++i) {
      if (best == runs_.size() || ItemLess(runs_[i].back(), runs_[best].back())) {
        best = i;
      }
    }
    if (stage_nonempty_ &&
        (best == runs_.size() || ItemLess(stage_min_, runs_[best].back()))) {
      // The next event to fire may still be in staging: sort it into a run.
      Flush();
      continue;
    }
    if (best == runs_.size()) {
      return nullptr;
    }
    Item& tip = runs_[best].back();
    if (stale_items_ != 0 && ItemStale(tip)) {
      runs_[best].pop_back();
      --total_items_;
      --stale_items_;
      if (runs_[best].empty()) {
        DropRun(best);
      }
      continue;
    }
    peeked_run_ = best;
    return &tip;
  }
}

void EventLoop::PopPeeked() {
  std::vector<Item>& run = runs_[peeked_run_];
  run.pop_back();
  --total_items_;
  if (run.empty()) {
    DropRun(peeked_run_);
  }
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
    ++stale_items_;  // its queue item outlives the slot; skipped at the tips
  }
  FreeSlot(handle.slot_);
  --live_events_;
  CompactIfBloated();
  return true;
}

void EventLoop::CompactIfBloated() {
  // Cancelled events leave 16-byte stale items in the runs. Filter them out
  // once they outnumber live items (amortized O(1) per cancel), so a
  // cancel/re-arm loop — e.g. a recycler re-arming far-future timers forever —
  // runs in bounded space.
  if (stale_items_ < 64 || stale_items_ * 2 < total_items_) {
    return;
  }
  for (size_t i = runs_.size(); i-- > 0;) {
    std::erase_if(runs_[i], [this](const Item& item) { return ItemStale(item); });
    if (runs_[i].empty()) {
      DropRun(i);
    }
  }
  std::erase_if(stage_, [this](const Item& item) { return ItemStale(item); });
  stage_nonempty_ = !stage_.empty();
  if (stage_nonempty_) {
    stage_min_ = *std::min_element(stage_.begin(), stage_.end(),
                                   [](const Item& a, const Item& b) {
                                     return ItemLess(a, b);
                                   });
  }
  total_items_ = stage_.size();
  for (const std::vector<Item>& run : runs_) {
    total_items_ += run.size();
  }
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
  for (Item* tip; (tip = PeekLive()) != nullptr;) {
    if (tip->when > deadline) {
      now_ = deadline;
      return executed;
    }
    const Item item = *tip;
    PopPeeked();
    Execute(item);
    ++executed;
  }
  if (deadline != TimePoint::Max() && deadline > now_) {
    now_ = deadline;
  }
  return executed;
}

}  // namespace potemkin
