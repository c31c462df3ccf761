// Backend pool: lifecycle state and capacity-aware placement scores for every
// clone-server backend the farm fronts.
//
// The gateway's ChooseHost only asks "can this host admit one more clone?";
// the pool layers the control plane's view on top: a lifecycle state machine
// (active / warming / draining / down) that gates admission independently of
// capacity, and a placement score blending frame headroom, live-clone count,
// and recent allocation denials (`hv.frames.denied` deltas, EWMA-smoothed) so
// kScored placement steers new bindings away from hosts that are nearly full
// or actively refusing allocations.
//
// Capacity is sampled, not live: `Refresh()` (called once per controller tick)
// snapshots each backend through its CapacityFn, so the per-packet Admits()
// and Score() reads are an index and a compare — nothing on the packet path
// touches an allocator.
#ifndef SRC_CTRL_BACKEND_POOL_H_
#define SRC_CTRL_BACKEND_POOL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/time_types.h"
#include "src/hv/types.h"

namespace potemkin {

enum class BackendState : uint8_t {
  kActive,    // in rotation: takes new bindings
  kWarming,   // booting / recovering: no new bindings until promoted
  kDraining,  // being emptied: existing sessions migrate or retire, no new ones
  kDown,      // out of service (crashed or drained)
};

const char* BackendStateName(BackendState state);

// Snapshot of one backend's capacity, filled by its CapacityFn at Refresh.
struct BackendCapacity {
  uint64_t used_frames = 0;
  uint64_t capacity_frames = 0;
  uint64_t live_vms = 0;
  uint64_t denied_requests = 0;  // monotone counter (hv.frames.denied)
  bool can_admit = false;
};

class BackendPool {
 public:
  using CapacityFn = std::function<BackendCapacity()>;

  // Registers backend `host`. Hosts must register densely in id order (the
  // pool indexes by host id, matching the farm's server indexing).
  void Register(HostId host, std::string name, CapacityFn capacity,
                BackendState initial, TimePoint now);
  size_t size() const { return entries_.size(); }
  const std::string& name(HostId host) const;

  BackendState state(HostId host) const;
  void SetState(HostId host, BackendState next, TimePoint now);
  TimePoint state_since(HostId host) const;
  size_t CountInState(BackendState state) const;

  // Admission veto the controller installs as the farm's HostAdmissionFilter:
  // only kActive backends take new bindings.
  bool Admits(HostId host) const {
    return host < entries_.size() &&
           entries_[host].state == BackendState::kActive;
  }

  // Placement score over the last Refresh()'s snapshot; higher is better:
  //   frame headroom                  (1 - used/capacity, in [0,1])
  // + 0.25 * VM headroom              (1 - live/4096, clamped to >= 0)
  // - 0.5 * denial pressure           (EWMA of denied deltas, squashed to [0,1))
  double Score(HostId host) const;

  // Re-snapshots every backend's capacity and advances the denial EWMAs.
  void Refresh();

  // Test oracle, reached by no program (Score() reads the EWMA directly):
  // smoothed allocation-denial pressure (EWMA of per-refresh denied deltas).
  double denial_pressure(HostId host) const;

 private:
  struct Entry {
    HostId host = 0;
    std::string name;
    CapacityFn capacity_fn;
    BackendState state = BackendState::kActive;
    TimePoint state_since;
    BackendCapacity cap;
    double denial_ewma = 0.0;
    uint64_t last_denied = 0;
  };

  std::vector<Entry> entries_;  // indexed by host id
};

}  // namespace potemkin

#endif  // SRC_CTRL_BACKEND_POOL_H_
