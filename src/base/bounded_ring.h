// Bounded FIFO ring over a fixed slot array.
//
// The sharded gateway's cross-shard handoff queue: reflection and farm-internal
// traffic whose rewritten destination belongs to another shard waits here, one
// ring per ordered (producer shard, consumer shard) pair, until the consumer
// drains it. Single-threaded: every shard runs on the farm's one event loop.
//
// Capacity is a power of two, fixed at construction, and every slot is
// allocated then, so pushing and popping never touch the heap. Cursors are
// monotonically increasing and masked into the slot array, so full and empty
// need no spare slot. Elements are moved in and out: move-only payloads
// (Packet) work, and a failed push leaves its argument intact.
#ifndef SRC_BASE_BOUNDED_RING_H_
#define SRC_BASE_BOUNDED_RING_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace potemkin {

template <typename T>
class BoundedRing {
 public:
  // Capacity is rounded up to a power of two (minimum 2).
  explicit BoundedRing(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) {
      cap <<= 1;
    }
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  // Returns false when the ring is full; `value` is then left untouched so the
  // caller can retry or divert it.
  bool TryPush(T&& value) {
    if (size() == capacity()) {
      return false;
    }
    slots_[tail_++ & mask_] = std::move(value);
    return true;
  }

  // Returns false when the ring is empty.
  bool TryPop(T* out) {
    if (Empty()) {
      return false;
    }
    *out = std::move(slots_[head_++ & mask_]);
    return true;
  }

  bool Empty() const { return head_ == tail_; }
  size_t size() const { return static_cast<size_t>(tail_ - head_); }
  size_t capacity() const { return slots_.size(); }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;
  uint64_t head_ = 0;  // next slot to pop
  uint64_t tail_ = 0;  // next slot to push
};

}  // namespace potemkin

#endif  // SRC_BASE_BOUNDED_RING_H_
