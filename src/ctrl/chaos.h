// Chaos harness: deterministic fault injection that proves containment holds
// while the farm is degraded.
//
// The containment matrix (tests, EXPERIMENTS.md) establishes what the gateway
// does on a healthy farm. The chaos harness asks the harder question the paper
// cares about: does the farm still contain when backends crash mid-outbreak,
// hosts slow to a crawl, allocators refuse memory, or the shard fabric
// partitions? Faults are generated from a seeded Rng against the virtual
// clock, so a chaos run is fully reproducible — same seed, same farm, same
// fault schedule, same ledger, byte for byte (CI replays a run twice and
// diffs).
//
// While armed, the harness periodically asserts the invariants that define
// containment-under-failure:
//   1. no packet from an infected VM escapes to the real Internet (unless the
//      farm is deliberately in kOpen mode);
//   2. no binding points at a host the controller has marked down — failover
//      must re-route flows, not blackhole them;
//   3. every reflection-NAT entry lives on the shard that owns its victim
//      address (cross-shard reflection stayed coherent through the faults);
//   4. every running VM on a live host is the VM of an active binding for its
//      address — a clone that outlived its binding (a failover invalidated it
//      mid-clone) is retired, not left running where no packet reaches it.
// Violations are counted and logged (PK_ERROR), never silently swallowed.
#ifndef SRC_CTRL_CHAOS_H_
#define SRC_CTRL_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time_types.h"
#include "src/core/honeyfarm.h"
#include "src/ctrl/controller.h"
#include "src/hv/types.h"

namespace potemkin {

enum class ChaosFault : uint8_t {
  kBackendCrash,      // hard-kill a clone server mid-flight
  kSlowHost,          // scale a host's clone/destroy latencies up
  kAllocDenialStorm,  // hold a host's free frames so allocations deny
  kShardPartition,    // cut a gateway handoff ring pair (multi-shard only)
};

const char* ChaosFaultName(ChaosFault fault);

struct ChaosEvent {
  Duration at;  // injection time, relative to Arm()
  ChaosFault fault = ChaosFault::kBackendCrash;
  // Host id, or for kShardPartition the packed shard pair (from << 16) | to.
  uint32_t target = 0;
  Duration duration = Duration::Seconds(10);  // heal fires at `at + duration`
  double magnitude = 4.0;                     // kSlowHost latency multiplier
};

struct ChaosConfig {
  uint64_t seed = 7;
  // GeneratePlan spreads `num_faults` events over `horizon`, at least 5 s
  // apart.
  Duration horizon = Duration::Minutes(2);
  size_t num_faults = 4;
};

struct ChaosReport {
  uint64_t faults_injected = 0;
  uint64_t heals = 0;
  uint64_t checks = 0;
  uint64_t violations = 0;
  // Invariant detail at the worst check (all must be zero for a clean run).
  uint64_t containment_escapes = 0;
  uint64_t bindings_on_down_hosts = 0;
  uint64_t nat_misplaced = 0;
  uint64_t orphaned_vms = 0;
  // Handoff pushes dropped because a partitioned ring was full (bounded
  // loss, not a violation — the fabric model drops like a real switch).
  uint64_t partition_drops = 0;
};

// A chaos run's verdict label: "ESCAPED" when `escapes` packets from
// infected VMs reached the Internet under a containing policy (`open_policy`
// false); "VIOLATED: " and the invariants `report` holds nonzero, named as in
// chaos_report.json ("bindings_on_down_hosts", "nat_misplaced",
// "orphaned_vms"); both, joined by "; "; or "CONTAINED" when nothing failed.
// Every violation the harness counts sets one of these.
std::string ChaosVerdict(const ChaosReport& report, uint64_t escapes,
                         bool open_policy);

class ChaosHarness {
 public:
  // `controller` must outlive the harness and be Start()ed before Arm(): the
  // down-host invariant reads its pool, and crash heals revive through it.
  ChaosHarness(Honeyfarm* farm, Controller* controller, ChaosConfig config);

  // Deterministic fault plan from the config seed. Shard partitions are only
  // emitted on multi-shard farms.
  std::vector<ChaosEvent> GeneratePlan();

  // Schedules the plan's injections and heals plus the invariant checks (one
  // a second) on the farm's loop, starting from the current virtual time.
  void Arm() { Arm(GeneratePlan()); }
  void Arm(std::vector<ChaosEvent> plan);

  // One invariant sweep, immediately. Returns violations found this sweep.
  uint64_t CheckInvariantsOnce();

  // Report with live totals (partition_drops sampled at call time).
  ChaosReport report() const;

 private:
  void Inject(size_t index);
  void Heal(size_t index);
  uint64_t TotalEscapes() const;
  // Running VMs on live hosts that no active binding holds (invariant 4).
  uint64_t CountOrphanedVms();

  Honeyfarm* farm_;
  Controller* controller_;
  ChaosConfig config_;
  std::vector<ChaosEvent> plan_;
  // Frames held per plan event during a denial storm (released by the heal).
  std::vector<std::vector<FrameId>> held_frames_;
  uint64_t baseline_escapes_ = 0;
  bool armed_ = false;
  ChaosReport report_;
};

}  // namespace potemkin

#endif  // SRC_CTRL_CHAOS_H_
