// Open-addressing hash index: trivially-copyable key -> uint32_t slot id.
//
// The packet-path replacement for std::unordered_map: one flat power-of-two
// array of (key, slot) entries probed linearly, so a lookup touches one or two
// cache lines and insertion never allocates per element. Empty and tombstone
// cells are encoded as reserved slot values, so an entry for a 4-byte key is
// exactly 8 bytes — eight entries per cache line. Values are slot ids into a
// `Slab`, keeping this index pure bookkeeping. Deletions leave tombstones that
// are recycled by insertions and swept out on rehash.
#ifndef SRC_BASE_FLAT_INDEX_H_
#define SRC_BASE_FLAT_INDEX_H_

#include <cstdint>
#include <vector>

#include "src/base/log.h"

namespace potemkin {

// Default hasher for integral keys: Fibonacci multiplication, then xor-fold so
// the mask sees the high (well-mixed) bits.
struct FlatIndexHash {
  uint64_t operator()(uint64_t key) const {
    uint64_t h = key * 0x9e3779b97f4a7c15ull;
    return h ^ (h >> 32);
  }
};

template <typename Key, typename Hash = FlatIndexHash>
class FlatIndex {
 public:
  static constexpr uint32_t kNotFound = 0xffffffffu;

  explicit FlatIndex(size_t initial_capacity = 64) {
    size_t cap = 16;
    while (cap < initial_capacity) {
      cap <<= 1;
    }
    entries_.assign(cap, Entry{});
  }

  // Returns the slot mapped to `key`, or kNotFound.
  uint32_t Find(const Key& key) const {
    const size_t mask = entries_.size() - 1;
    for (size_t i = Hash{}(key) & mask;; i = (i + 1) & mask) {
      const Entry& e = entries_[i];
      if (e.key == key && e.slot < kTombstoneSlot) {
        return e.slot;
      }
      if (e.slot == kEmptySlot) {
        return kNotFound;
      }
    }
  }

  // Inserts key -> slot. The key must not already be present.
  // Rehash at 5/8 occupancy (live + tombstones): linear probing degrades
  // sharply past ~70% load, and the index is 8 bytes/entry, so trading memory
  // for short probe chains is the right side of the bargain on the packet path.
  void Insert(const Key& key, uint32_t slot) {
    PK_CHECK(slot < kTombstoneSlot) << "slot id collides with index sentinels";
    if ((live_ + tombstones_ + 1) * 8 >= entries_.size() * 5) {
      Rehash(live_ * 2 >= entries_.size() ? entries_.size() * 2 : entries_.size());
    }
    const size_t mask = entries_.size() - 1;
    for (size_t i = Hash{}(key) & mask;; i = (i + 1) & mask) {
      Entry& e = entries_[i];
      if (e.slot >= kTombstoneSlot) {
        if (e.slot == kTombstoneSlot) {
          --tombstones_;
        }
        e.key = key;
        e.slot = slot;
        ++live_;
        return;
      }
      PK_CHECK(!(e.key == key)) << "duplicate key in flat index";
    }
  }

  // Removes key; returns the slot it mapped to, or kNotFound.
  uint32_t Erase(const Key& key) {
    const size_t mask = entries_.size() - 1;
    for (size_t i = Hash{}(key) & mask;; i = (i + 1) & mask) {
      Entry& e = entries_[i];
      if (e.key == key && e.slot < kTombstoneSlot) {
        const uint32_t slot = e.slot;
        e.slot = kTombstoneSlot;
        --live_;
        ++tombstones_;
        return slot;
      }
      if (e.slot == kEmptySlot) {
        return kNotFound;
      }
    }
  }

  size_t size() const { return live_; }
  size_t capacity() const { return entries_.size(); }

 private:
  // Reserved slot values marking cell state; real slab slots stay below these.
  static constexpr uint32_t kEmptySlot = 0xffffffffu;
  static constexpr uint32_t kTombstoneSlot = 0xfffffffeu;

  struct Entry {
    Key key{};
    uint32_t slot = kEmptySlot;
  };

  void Rehash(size_t new_capacity) {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(new_capacity, Entry{});
    live_ = 0;
    tombstones_ = 0;
    for (const Entry& e : old) {
      if (e.slot < kTombstoneSlot) {
        Insert(e.key, e.slot);
      }
    }
  }

  std::vector<Entry> entries_;
  size_t live_ = 0;
  size_t tombstones_ = 0;
};

}  // namespace potemkin

#endif  // SRC_BASE_FLAT_INDEX_H_
