// Flow table: the state behind the gateway's one flow decision, whether an
// outbound packet answers an external peer that opened the conversation
// (honeypots may respond to whoever contacted them). A flow is a 5-tuple found
// in either direction; its record keeps the initiator's tuple in `key` and the
// time of its last packet in `last_seen`, which ages it out under LRU idle
// expiry. `max_flows` bounds the table: a new flow past it evicts the least
// recently seen one. Telling scans from service traffic is ScanDetector's job.
//
// The table is packet-path flat: 5-tuples are packed into a 96-bit key probed in
// an open-addressing index, records live in a chunked slab, and LRU order is an
// intrusive doubly-linked list of slot ids — no per-flow node allocations and no
// iterator bookkeeping maps.
#ifndef SRC_NET_FLOW_H_
#define SRC_NET_FLOW_H_

#include <cstdint>

#include "src/base/flat_index.h"
#include "src/base/slab.h"
#include "src/base/time_types.h"
#include "src/net/ipv4.h"
#include "src/net/packet.h"

namespace potemkin {

struct FlowKey {
  Ipv4Address src;
  Ipv4Address dst;
  IpProto proto = IpProto::kTcp;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;

  static FlowKey FromView(const PacketView& view);

  bool operator==(const FlowKey&) const = default;
};

// The 104 relevant bits of a 5-tuple packed into two words, so key compare is
// two integer compares and the hash touches no padding.
struct PackedFlowKey {
  uint64_t addrs = 0;  // src << 32 | dst
  uint64_t rest = 0;   // src_port << 24 | dst_port << 8 | proto

  static PackedFlowKey From(const FlowKey& key) {
    PackedFlowKey packed;
    packed.addrs =
        (static_cast<uint64_t>(key.src.value()) << 32) | key.dst.value();
    packed.rest = (static_cast<uint64_t>(key.src_port) << 24) |
                  (static_cast<uint64_t>(key.dst_port) << 8) |
                  static_cast<uint64_t>(key.proto);
    return packed;
  }
  // The same flow seen from the opposite direction.
  PackedFlowKey Reversed() const {
    PackedFlowKey packed;
    packed.addrs = (addrs << 32) | (addrs >> 32);
    packed.rest = (((rest >> 8) & 0xffff) << 24) | (((rest >> 24) & 0xffff) << 8) |
                  (rest & 0xff);
    return packed;
  }
  bool operator==(const PackedFlowKey&) const = default;
};

struct PackedFlowKeyHash {
  uint64_t operator()(const PackedFlowKey& key) const noexcept {
    uint64_t h = key.addrs * 0x9e3779b97f4a7c15ull + key.rest;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ull;
    return h ^ (h >> 32);
  }
};

struct FlowRecord {
  FlowKey key;  // as the initiator sent it: key.src opened the flow
  TimePoint last_seen;
};

// Bidirectional flow table keyed on the initiator-direction 5-tuple. Packets in
// either direction refresh the same record. Flows idle past the configured
// timeout are reclaimed by explicit sweeps.
class FlowTable {
 public:
  explicit FlowTable(Duration idle_timeout, size_t max_flows = 1 << 20);

  // Records a packet; creates the flow if new. Returns the updated record
  // (valid until the next mutating call).
  const FlowRecord& Record(const PacketView& view, TimePoint now);

  // The flow `key` belongs to, looked up in either direction.
  const FlowRecord* Find(const FlowKey& key) const;

  // Removes flows idle since before `now - idle_timeout`. Returns count removed.
  size_t ExpireIdle(TimePoint now);

  // Test oracle, reached by no program: the table's bound.
  size_t size() const { return slab_.live_count(); }

 private:
  static constexpr uint32_t kNil = 0xffffffffu;

  struct FlowSlot {
    FlowRecord record;
    uint32_t lru_prev = kNil;
    uint32_t lru_next = kNil;
  };

  // The slot holding `packed` in either direction, or kNotFound.
  uint32_t FindSlot(const PackedFlowKey& packed) const;
  void EvictOldest();
  void LruUnlink(uint32_t slot);
  void LruPushBack(uint32_t slot);
  // Removes the slot from index, LRU and slab.
  void RemoveSlot(uint32_t slot);

  Duration idle_timeout_;
  size_t max_flows_;
  FlatIndex<PackedFlowKey, PackedFlowKeyHash> index_;  // forward key -> slot
  Slab<FlowSlot> slab_;
  uint32_t lru_head_ = kNil;  // oldest
  uint32_t lru_tail_ = kNil;  // most recently touched
};

}  // namespace potemkin

#endif  // SRC_NET_FLOW_H_
