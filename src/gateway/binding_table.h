// Late-binding table: IP address -> VM.
//
// No VM exists for an address until traffic arrives; the table tracks each bound
// address through its lifecycle (cloning with queued packets -> active -> removed
// at recycle). Its size over time *is* the paper's headline scalability curve.
//
// Storage is packet-path flat: an open-addressing index keyed on the raw
// uint32_t address maps to a chunked slab of `Binding` records (stable
// addresses, no per-binding allocation). Packets queued while a clone is in
// flight live out-of-line in a side table — only ~queue-depth bindings are ever
// in kCloning, so the common kActive record stays one cache line.
#ifndef SRC_GATEWAY_BINDING_TABLE_H_
#define SRC_GATEWAY_BINDING_TABLE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/base/flat_index.h"
#include "src/base/session.h"
#include "src/base/slab.h"
#include "src/base/time_types.h"
#include "src/hv/types.h"
#include "src/net/ipv4.h"
#include "src/net/packet.h"

namespace potemkin {

enum class BindingState : uint8_t {
  kCloning,  // clone requested; packets queue here until it completes
  kActive,   // VM live; packets forward directly
};

struct Binding {
  Ipv4Address ip;
  HostId host = 0;
  VmId vm = kInvalidVm;
  TimePoint created;
  TimePoint last_activity;
  SessionId session = kNoSession;  // forensic session minted at first contact
  uint32_t pending_count = 0;  // packets queued out-of-line while kCloning
  BindingState state = BindingState::kCloning;
  bool infected = false;
};
static_assert(sizeof(Binding) <= 64, "kActive binding must stay one cache line");

struct BindingTableStats {
  uint64_t peak_live = 0;
  uint64_t pending_dropped = 0;
};

class BindingTable {
 public:
  // Packets queued per cloning binding; the gateway keeps the default, and
  // tests pass a small cap to reach the queue-full drop quickly.
  explicit BindingTable(size_t pending_queue_cap = 64);

  // Creates a kCloning binding. Must not already exist. The returned reference
  // is stable for the binding's lifetime (slab storage).
  Binding& CreatePending(Ipv4Address ip, HostId host, TimePoint now);
  // Transitions to kActive with the clone's VM id; returns nullptr if gone.
  Binding* Activate(Ipv4Address ip, VmId vm, TimePoint now);
  bool Remove(Ipv4Address ip);

  // Per-packet lookup; defined inline — it is the single hottest gateway call.
  Binding* Find(Ipv4Address ip) {
    const uint32_t slot = index_.Find(ip.value());
    return slot == FlatIndex<uint32_t>::kNotFound ? nullptr : &slab_.At(slot);
  }

  // Queues a packet on a cloning binding, enforcing the queue cap.
  // Returns false (and counts a drop) when full.
  bool QueuePending(Binding& binding, Packet packet);
  // Removes and returns all queued packets.
  std::vector<Packet> TakePending(Binding& binding);

  size_t size() const { return slab_.live_count(); }
  // Occupancy of the open-addressing index (live entries / table slots): the
  // probe-length health signal surfaced in farm snapshots.
  double load_factor() const {
    return index_.capacity() == 0
               ? 0.0
               : static_cast<double>(index_.size()) /
                     static_cast<double>(index_.capacity());
  }
  const BindingTableStats& stats() const { return stats_; }

  template <typename Fn>
  void ForEach(Fn&& fn) {
    slab_.ForEach([&](uint32_t, Binding& binding) { fn(binding); });
  }

  // Collects addresses matching a predicate (used by the recycler to avoid
  // mutating while iterating).
  template <typename Pred>
  std::vector<Ipv4Address> CollectIf(Pred&& pred) const {
    std::vector<Ipv4Address> out;
    slab_.ForEach([&](uint32_t, const Binding& binding) {
      if (pred(binding)) {
        out.push_back(binding.ip);
      }
    });
    return out;
  }

 private:
  size_t pending_queue_cap_;
  FlatIndex<uint32_t> index_;  // ip (host order) -> slab slot
  Slab<Binding> slab_;
  // Out-of-line clone-time packet queues, keyed by raw IP. Touched only for
  // kCloning bindings, which number ~clone-queue-depth at any instant.
  std::unordered_map<uint32_t, std::vector<Packet>> pending_;
  BindingTableStats stats_;
};

}  // namespace potemkin

#endif  // SRC_GATEWAY_BINDING_TABLE_H_
