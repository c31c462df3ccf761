// VM recycling policy.
//
// Scalability hinges on aggressively reclaiming idle VMs so the live population
// tracks only the *currently active* slice of the address space. The policy below
// captures the paper's knobs: an idle timeout, a hard lifetime cap, and an extended
// hold for infected VMs (which are the interesting ones to keep observing).
#ifndef SRC_GATEWAY_RECYCLER_H_
#define SRC_GATEWAY_RECYCLER_H_

#include "src/base/time_types.h"
#include "src/gateway/binding_table.h"

namespace potemkin {

struct RecyclePolicy {
  // Retire a VM that has seen no traffic for this long.
  Duration idle_timeout = Duration::Seconds(30);
  // Retire any VM after this long regardless of activity (0 = disabled).
  Duration max_lifetime = Duration::Minutes(30);
  // Infected VMs use this idle timeout instead (usually longer, for analysis;
  // 0 = same as idle_timeout).
  Duration infected_hold = Duration::Minutes(5);
  // How often the gateway sweeps the binding table.
  Duration scan_interval = Duration::Seconds(1);
  // Memory-pressure relief: when a new address finds no host with capacity,
  // immediately retire this many of the most-idle active VMs (0 = disabled).
  // Reclaim is asynchronous (teardown goes through the control plane), so the
  // triggering packet is still dropped; subsequent arrivals find room.
  uint32_t emergency_reclaim_batch = 0;
};

// Why (or whether) a binding should be retired. The gateway attributes recycler
// churn per reason in its health metrics, so the policy exposes the
// classification rather than just the boolean.
enum class RetireReason : uint8_t {
  kKeep = 0,          // not retired
  kLifetime,          // exceeded max_lifetime
  kIdle,              // idle past idle_timeout
  kInfectedExpired,   // infected VM idle past its (longer) infected_hold
};

// `b` markers of kVmRetired ledger records for retirements outside the
// recycler's sweep, above every RetireReason value.
inline constexpr uint64_t kRetiredStaleClone = 0xfc;  // clone outlived its binding
inline constexpr uint64_t kRetiredFailover = 0xfd;    // host crashed (invalidated)
inline constexpr uint64_t kRetiredDrain = 0xfe;       // drained or migrated off
inline constexpr uint64_t kRetiredReclaim = 0xff;     // emergency reclaim

RetireReason ClassifyRetire(const Binding& binding, const RecyclePolicy& policy,
                            TimePoint now);

// Whether `binding` should be retired at time `now` under `policy`. Bindings still
// cloning are never retired.
inline bool ShouldRetire(const Binding& binding, const RecyclePolicy& policy,
                         TimePoint now) {
  return ClassifyRetire(binding, policy, now) != RetireReason::kKeep;
}

}  // namespace potemkin

#endif  // SRC_GATEWAY_RECYCLER_H_
