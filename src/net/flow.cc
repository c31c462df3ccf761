#include "src/net/flow.h"

namespace potemkin {

namespace {
constexpr uint32_t kNotFound =
    FlatIndex<PackedFlowKey, PackedFlowKeyHash>::kNotFound;
}  // namespace

FlowKey FlowKey::FromView(const PacketView& view) {
  return FlowKey{view.ip().src, view.ip().dst, view.ip().proto, view.src_port(),
                 view.dst_port()};
}

FlowTable::FlowTable(Duration idle_timeout, size_t max_flows)
    : idle_timeout_(idle_timeout), max_flows_(max_flows) {}

void FlowTable::LruUnlink(uint32_t slot) {
  FlowSlot& s = slab_.At(slot);
  if (s.lru_prev != kNil) {
    slab_.At(s.lru_prev).lru_next = s.lru_next;
  } else {
    lru_head_ = s.lru_next;
  }
  if (s.lru_next != kNil) {
    slab_.At(s.lru_next).lru_prev = s.lru_prev;
  } else {
    lru_tail_ = s.lru_prev;
  }
  s.lru_prev = kNil;
  s.lru_next = kNil;
}

void FlowTable::LruPushBack(uint32_t slot) {
  FlowSlot& s = slab_.At(slot);
  s.lru_prev = lru_tail_;
  s.lru_next = kNil;
  if (lru_tail_ != kNil) {
    slab_.At(lru_tail_).lru_next = slot;
  } else {
    lru_head_ = slot;
  }
  lru_tail_ = slot;
}

void FlowTable::RemoveSlot(uint32_t slot) {
  LruUnlink(slot);
  index_.Erase(PackedFlowKey::From(slab_.At(slot).record.key));
  slab_.Free(slot);
}

uint32_t FlowTable::FindSlot(const PackedFlowKey& packed) const {
  const uint32_t slot = index_.Find(packed);
  return slot != kNotFound ? slot : index_.Find(packed.Reversed());
}

const FlowRecord& FlowTable::Record(const PacketView& view, TimePoint now) {
  const FlowKey key = FlowKey::FromView(view);
  const PackedFlowKey packed = PackedFlowKey::From(key);
  uint32_t slot = FindSlot(packed);
  if (slot == kNotFound) {
    if (slab_.live_count() >= max_flows_) {
      EvictOldest();
    }
    slot = slab_.Alloc();
    index_.Insert(packed, slot);
    slab_.At(slot).record.key = key;
  } else {
    LruUnlink(slot);
  }
  LruPushBack(slot);
  FlowRecord& record = slab_.At(slot).record;
  record.last_seen = now;
  return record;
}

const FlowRecord* FlowTable::Find(const FlowKey& key) const {
  const uint32_t slot = FindSlot(PackedFlowKey::From(key));
  return slot == kNotFound ? nullptr : &slab_.At(slot).record;
}

size_t FlowTable::ExpireIdle(TimePoint now) {
  size_t removed = 0;
  while (lru_head_ != kNil) {
    const uint32_t oldest = lru_head_;
    if (now - slab_.At(oldest).record.last_seen <= idle_timeout_) {
      break;  // everything behind it is younger
    }
    RemoveSlot(oldest);
    ++removed;
  }
  return removed;
}

void FlowTable::EvictOldest() {
  if (lru_head_ == kNil) {
    return;
  }
  RemoveSlot(lru_head_);
}

}  // namespace potemkin
