#include "src/ctrl/chaos.h"

#include <algorithm>
#include <utility>

#include "src/base/log.h"
#include "src/gateway/containment.h"
#include "src/hv/frame_allocator.h"

namespace potemkin {

namespace {

// Planned faults land at least this far apart.
constexpr Duration kMinGap = Duration::Seconds(5);
// Interval of the periodic invariant sweep.
constexpr Duration kCheckInterval = Duration::Seconds(1);

}  // namespace

const char* ChaosFaultName(ChaosFault fault) {
  switch (fault) {
    case ChaosFault::kBackendCrash:
      return "backend_crash";
    case ChaosFault::kSlowHost:
      return "slow_host";
    case ChaosFault::kAllocDenialStorm:
      return "alloc_denial_storm";
    case ChaosFault::kShardPartition:
      return "shard_partition";
  }
  return "?";
}

ChaosHarness::ChaosHarness(Honeyfarm* farm, Controller* controller,
                           ChaosConfig config)
    : farm_(farm), controller_(controller), config_(config) {
  PK_CHECK(controller_ != nullptr)
      << "chaos harness needs a controller (down-host invariant, crash heals)";
}

std::vector<ChaosEvent> ChaosHarness::GeneratePlan() {
  Rng rng(config_.seed);
  const uint32_t hosts = static_cast<uint32_t>(farm_->server_count());
  const uint32_t shards = farm_->sharded_gateway().shard_count();
  std::vector<ChaosEvent> plan;
  plan.reserve(config_.num_faults);
  // Evenly sliced horizon with in-slot jitter keeps events spread and
  // deterministic; kMinGap clamps the jitter from stacking faults.
  const int64_t slot_ns = config_.num_faults == 0
                              ? 0
                              : config_.horizon.nanos() /
                                    static_cast<int64_t>(config_.num_faults);
  int64_t prev_ns = 0;
  for (size_t i = 0; i < config_.num_faults; ++i) {
    ChaosEvent event;
    const int64_t slot_start = static_cast<int64_t>(i) * slot_ns;
    const int64_t jitter =
        slot_ns > 0 ? static_cast<int64_t>(rng.NextBelow(
                          static_cast<uint64_t>(slot_ns)))
                    : 0;
    int64_t at_ns = std::max(slot_start + jitter,
                             prev_ns + kMinGap.nanos());
    event.at = Duration::Nanos(at_ns);
    prev_ns = at_ns;
    // Faults cycle through the kinds the farm can express, with the target
    // drawn per event so the schedule varies with the seed.
    const uint32_t kinds = shards > 1 ? 4 : 3;
    event.fault = static_cast<ChaosFault>(rng.NextBelow(kinds));
    if (event.fault == ChaosFault::kShardPartition) {
      const uint32_t from = static_cast<uint32_t>(rng.NextBelow(shards));
      uint32_t to = static_cast<uint32_t>(rng.NextBelow(shards - 1));
      if (to >= from) {
        ++to;
      }
      event.target = (from << 16) | to;
    } else {
      event.target = static_cast<uint32_t>(rng.NextBelow(hosts));
    }
    event.duration =
        Duration::Seconds(5.0 + 10.0 * rng.NextDouble());
    event.magnitude = 2.0 + 6.0 * rng.NextDouble();
    plan.push_back(event);
  }
  return plan;
}

void ChaosHarness::Arm(std::vector<ChaosEvent> plan) {
  PK_CHECK(!armed_) << "chaos harness armed twice";
  armed_ = true;
  plan_ = std::move(plan);
  held_frames_.assign(plan_.size(), {});
  baseline_escapes_ = TotalEscapes();
  EventLoop& loop = farm_->loop();
  for (size_t i = 0; i < plan_.size(); ++i) {
    loop.ScheduleAfter(plan_[i].at, [this, i] { Inject(i); });
    loop.ScheduleAfter(plan_[i].at + plan_[i].duration, [this, i] { Heal(i); });
  }
  loop.SchedulePeriodic(kCheckInterval, [this] { CheckInvariantsOnce(); });
}

void ChaosHarness::Inject(size_t index) {
  const ChaosEvent& event = plan_[index];
  farm_->ledger().Append(LedgerEvent::kChaosFault, kNoSession,
                         farm_->loop().Now().nanos(),
                         static_cast<uint64_t>(event.fault), event.target);
  ++report_.faults_injected;
  PK_INFO << "chaos: inject " << ChaosFaultName(event.fault) << " target "
          << event.target;
  switch (event.fault) {
    case ChaosFault::kBackendCrash:
      farm_->CrashHost(event.target);
      break;
    case ChaosFault::kSlowHost:
      farm_->server(event.target).set_latency_scale(event.magnitude);
      break;
    case ChaosFault::kAllocDenialStorm: {
      // Hold every free frame so real clone allocations hit kDenied — the
      // signal the pool's denial EWMA and any frame-pressure alerts key on.
      FrameAllocator& alloc = farm_->server(event.target).host().allocator();
      std::vector<FrameId>& held = held_frames_[index];
      std::vector<FrameId> chunk;
      while (alloc.free_frames() > 0) {
        const uint32_t n = static_cast<uint32_t>(
            std::min<uint64_t>(alloc.free_frames(), 4096));
        chunk.resize(n);
        if (alloc.AllocateBatch(n, chunk.data()) != FrameAllocStatus::kOk) {
          break;
        }
        held.insert(held.end(), chunk.begin(), chunk.end());
      }
      break;
    }
    case ChaosFault::kShardPartition: {
      const uint32_t from = event.target >> 16;
      const uint32_t to = event.target & 0xffff;
      farm_->sharded_gateway().SetHandoffPartition(from, to, true);
      farm_->sharded_gateway().SetHandoffPartition(to, from, true);
      break;
    }
  }
}

void ChaosHarness::Heal(size_t index) {
  const ChaosEvent& event = plan_[index];
  switch (event.fault) {
    case ChaosFault::kBackendCrash:
      // Revive through the controller so the host re-enters the pool via
      // warming instead of silently flipping back to active.
      controller_->ReviveHost(event.target);
      break;
    case ChaosFault::kSlowHost:
      farm_->server(event.target).set_latency_scale(1.0);
      break;
    case ChaosFault::kAllocDenialStorm: {
      std::vector<FrameId>& held = held_frames_[index];
      if (!held.empty()) {
        farm_->server(event.target).host().allocator().UnrefBatch(held);
        held.clear();
        held.shrink_to_fit();
      }
      break;
    }
    case ChaosFault::kShardPartition: {
      const uint32_t from = event.target >> 16;
      const uint32_t to = event.target & 0xffff;
      farm_->sharded_gateway().SetHandoffPartition(from, to, false);
      farm_->sharded_gateway().SetHandoffPartition(to, from, false);
      // Stalled handoffs flow again on the next pump; do it now so queued
      // cross-shard packets don't wait for unrelated traffic.
      farm_->sharded_gateway().PumpHandoffs();
      break;
    }
  }
  farm_->ledger().Append(LedgerEvent::kChaosHeal, kNoSession,
                         farm_->loop().Now().nanos(),
                         static_cast<uint64_t>(event.fault), event.target);
  ++report_.heals;
  PK_INFO << "chaos: heal " << ChaosFaultName(event.fault) << " target "
          << event.target;
}

uint64_t ChaosHarness::TotalEscapes() const {
  uint64_t total = 0;
  ShardedGateway& gw = farm_->sharded_gateway();
  for (uint32_t s = 0; s < gw.shard_count(); ++s) {
    total += gw.shard(s).containment().stats().escapes_from_infected;
  }
  return total;
}

uint64_t ChaosHarness::CheckInvariantsOnce() {
  ++report_.checks;
  uint64_t violations = 0;

  // 1. Containment: no infected packet reached the real Internet since Arm()
  //    — unless the farm deliberately runs open.
  const uint64_t escapes = TotalEscapes() - baseline_escapes_;
  const bool open_mode =
      farm_->config().gateway.containment.mode == OutboundMode::kOpen;
  if (escapes > report_.containment_escapes && !open_mode) {
    PK_ERROR << "chaos invariant: " << escapes
             << " packet(s) from infected VMs escaped during the run";
    ++violations;
  }
  report_.containment_escapes = std::max(report_.containment_escapes, escapes);

  // 2. Failover: the controller marked hosts down and invalidated their
  //    bindings in the same step, so any binding still pointing at a down
  //    host is a flow the gateway would blackhole.
  uint64_t down_bindings = 0;
  ShardedGateway& gw = farm_->sharded_gateway();
  for (uint32_t s = 0; s < gw.shard_count(); ++s) {
    gw.shard(s).bindings().ForEach([&](const Binding& binding) {
      if (controller_->pool().state(binding.host) == BackendState::kDown) {
        ++down_bindings;
      }
    });
  }
  if (down_bindings > 0) {
    PK_ERROR << "chaos invariant: " << down_bindings
             << " binding(s) still target down hosts";
    ++violations;
  }
  report_.bindings_on_down_hosts =
      std::max(report_.bindings_on_down_hosts, down_bindings);

  // 3. Sharding: every reflection-NAT entry must live on the shard owning its
  //    victim address, or reflected return traffic rewrites on the wrong
  //    shard.
  const uint64_t misplaced = gw.CountMisplacedReflectNat();
  if (misplaced > 0) {
    PK_ERROR << "chaos invariant: " << misplaced
             << " reflection-NAT entries on the wrong shard";
    ++violations;
  }
  report_.nat_misplaced = std::max(report_.nat_misplaced, misplaced);

  // 4. Failover and migration: a running VM that no active binding holds
  //    receives no packet and is never recycled, so it holds its host's
  //    memory until the farm stops.
  const uint64_t orphaned = CountOrphanedVms();
  if (orphaned > 0) {
    PK_ERROR << "chaos invariant: " << orphaned
             << " running VM(s) without an active binding";
    ++violations;
  }
  report_.orphaned_vms = std::max(report_.orphaned_vms, orphaned);

  report_.violations += violations;
  return violations;
}

uint64_t ChaosHarness::CountOrphanedVms() {
  uint64_t orphaned = 0;
  ShardedGateway& gw = farm_->sharded_gateway();
  for (size_t i = 0; i < farm_->server_count(); ++i) {
    const HostId host = static_cast<HostId>(i);
    if (farm_->HostCrashed(host)) {
      continue;
    }
    farm_->server(i).host().ForEachVm([&](VirtualMachine& vm) {
      if (vm.state() != VmState::kRunning) {
        return;
      }
      const Binding* binding =
          gw.shard(gw.ShardOf(vm.ip())).bindings().Find(vm.ip());
      if (binding == nullptr || binding->state != BindingState::kActive ||
          binding->host != host || binding->vm != vm.id()) {
        ++orphaned;
      }
    });
  }
  return orphaned;
}

std::string ChaosVerdict(const ChaosReport& report, uint64_t escapes,
                         bool open_policy) {
  std::string invariants;
  for (const auto& [name, count] :
       {std::pair{"bindings_on_down_hosts", report.bindings_on_down_hosts},
        std::pair{"nat_misplaced", report.nat_misplaced},
        std::pair{"orphaned_vms", report.orphaned_vms}}) {
    if (count > 0) {
      invariants += invariants.empty() ? "VIOLATED: " : ", ";
      invariants += name;
    }
  }
  if (escapes > 0 && !open_policy) {
    return invariants.empty() ? "ESCAPED" : "ESCAPED; " + invariants;
  }
  return invariants.empty() ? "CONTAINED" : invariants;
}

ChaosReport ChaosHarness::report() const {
  ChaosReport report = report_;
  report.partition_drops = farm_->sharded_gateway().partition_drops();
  return report;
}

}  // namespace potemkin
