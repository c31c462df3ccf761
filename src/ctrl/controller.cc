#include "src/ctrl/controller.h"

#include <algorithm>
#include <utility>

#include "src/base/log.h"
#include "src/hv/frame_allocator.h"
#include "src/hv/reference_image.h"

namespace potemkin {

namespace {

// Sessions migrated off a draining host per controller tick.
constexpr size_t kMigratePerTick = 64;
// Pages patched per image per rotation, drawn from a fixed-seed stream so a
// rotation schedule replays identically.
constexpr uint32_t kRotationPatchPages = 4;
constexpr uint64_t kRotationSeed = 1234;

}  // namespace

Controller::Controller(Honeyfarm* farm, ControllerConfig config)
    : farm_(farm),
      config_(config),
      rotation_rng_(kRotationSeed) {}

Controller::~Controller() {
  farm_->obs().metrics.RemoveProbes(this);
  if (started_) {
    // The farm may outlive the controller; leave it admitting by capacity
    // alone rather than through callbacks into freed pool state.
    farm_->set_host_admission_filter(nullptr);
    farm_->set_host_score_fn(nullptr);
  }
}

void Controller::Start() {
  PK_CHECK(!started_) << "controller started twice";
  started_ = true;
  const TimePoint now = farm_->loop().Now();
  for (size_t i = 0; i < farm_->server_count(); ++i) {
    const HostId host = static_cast<HostId>(i);
    pool_.Register(
        host, farm_->server(i).host().name(),
        [farm = farm_, i] {
          BackendCapacity cap;
          CloneServer& server = farm->server(i);
          const FrameAllocator& alloc = server.host().allocator();
          cap.used_frames = alloc.used_frames();
          cap.capacity_frames = alloc.capacity_frames();
          cap.live_vms = server.LiveVms();
          cap.denied_requests = alloc.denied_requests();
          cap.can_admit = server.CanAdmit();
          return cap;
        },
        BackendState::kActive, now);
  }
  farm_->set_host_admission_filter(
      [this](HostId host) { return pool_.Admits(host); });
  farm_->set_host_score_fn([this](HostId host) { return pool_.Score(host); });

  MetricRegistry& metrics = farm_->obs().metrics;
  metrics.RegisterProbe(this, "ctrl.backends.active", "hosts", [this] {
    return static_cast<double>(pool_.CountInState(BackendState::kActive));
  });
  metrics.RegisterProbe(this, "ctrl.backends.warming", "hosts", [this] {
    return static_cast<double>(pool_.CountInState(BackendState::kWarming));
  });
  metrics.RegisterProbe(this, "ctrl.backends.draining", "hosts", [this] {
    return static_cast<double>(pool_.CountInState(BackendState::kDraining));
  });
  metrics.RegisterProbe(this, "ctrl.backends.down", "hosts", [this] {
    return static_cast<double>(pool_.CountInState(BackendState::kDown));
  });
  metrics.RegisterProbe(this, "ctrl.drains.completed", "count", [this] {
    return static_cast<double>(stats_.drains_completed);
  });
  metrics.RegisterProbe(this, "ctrl.failovers", "count", [this] {
    return static_cast<double>(stats_.failovers);
  });
  metrics.RegisterProbe(this, "ctrl.migrations", "count", [this] {
    return static_cast<double>(stats_.migrations);
  });
  metrics.RegisterProbe(this, "ctrl.rotations", "count", [this] {
    return static_cast<double>(stats_.rotations);
  });

  last_rotation_ = now;
  pool_.Refresh();
  farm_->loop().SchedulePeriodic(config_.tick, [this] { Tick(); });
}

void Controller::SetState(HostId host, BackendState next) {
  if (pool_.state(host) == next) {
    return;
  }
  pool_.SetState(host, next, farm_->loop().Now());
  farm_->ledger().Append(LedgerEvent::kCtrlState, kNoSession,
                         farm_->loop().Now().nanos(), host,
                         static_cast<uint64_t>(next));
}

void Controller::Tick() {
  pool_.Refresh();
  DetectCrashes();
  ProgressDrains();
  PromoteWarming();
  MaybeRotate();
}

void Controller::DetectCrashes() {
  for (size_t i = 0; i < pool_.size(); ++i) {
    const HostId host = static_cast<HostId>(i);
    if (!farm_->HostCrashed(host) || pool_.state(host) == BackendState::kDown) {
      continue;
    }
    SetState(host, BackendState::kDown);
    // Invalidate rather than retire: the backend is gone, so there is nothing
    // to tear down there — dropping the bindings makes the next inbound packet
    // for each address re-route through placement instead of blackholing into
    // a dead host.
    const size_t invalidated =
        farm_->sharded_gateway().InvalidateHostBindings(host);
    farm_->ledger().Append(LedgerEvent::kCtrlFailover, kNoSession,
                           farm_->loop().Now().nanos(), host, invalidated);
    ++stats_.failovers;
    PK_INFO << "controller: host " << pool_.name(host) << " failed, "
            << invalidated << " bindings invalidated";
    std::erase_if(drains_, [host](const Drain& d) { return d.host == host; });
  }
}

void Controller::ProgressDrains() {
  const TimePoint now = farm_->loop().Now();
  for (size_t i = 0; i < drains_.size();) {
    Drain& drain = drains_[i];
    if (pool_.state(drain.host) != BackendState::kDraining) {
      // Crashed (or otherwise transitioned) mid-drain; failover handled it.
      drains_.erase(drains_.begin() + i);
      continue;
    }
    ShardedGateway& gw = farm_->sharded_gateway();
    if (!drain.forced) {
      stats_.migrations +=
          gw.MigrateHostBindings(drain.host, kMigratePerTick);
    } else {
      // Past the deadline: stop moving sessions, just retire what remains.
      // Cloning stragglers activate on later ticks and are retired then.
      gw.RetireHostBindings(drain.host);
    }
    const size_t remaining = gw.CountHostBindings(drain.host);
    if (remaining == 0) {
      SetState(drain.host, BackendState::kDown);
      farm_->ledger().Append(LedgerEvent::kCtrlDrainEnd, kNoSession,
                             now.nanos(), drain.host, drain.forced ? 1 : 0);
      ++stats_.drains_completed;
      drains_.erase(drains_.begin() + i);
      continue;
    }
    if (!drain.forced && now - drain.started >= config_.drain_deadline) {
      gw.RetireHostBindings(drain.host);
      drain.forced = true;
      ++stats_.drains_forced;
    }
    ++i;
  }
}

void Controller::PromoteWarming() {
  const TimePoint now = farm_->loop().Now();
  for (size_t i = 0; i < pool_.size(); ++i) {
    const HostId host = static_cast<HostId>(i);
    if (pool_.state(host) == BackendState::kWarming &&
        now - pool_.state_since(host) >= config_.warmup) {
      SetState(host, BackendState::kActive);
    }
  }
}

void Controller::MaybeRotate() {
  if (config_.rotation_interval <= Duration::Zero()) {
    return;
  }
  const TimePoint now = farm_->loop().Now();
  if (now - last_rotation_ < config_.rotation_interval) {
    return;
  }
  last_rotation_ = now;
  RotateImages();
}

void Controller::DrainHost(HostId host) {
  PK_CHECK(started_) << "DrainHost before Start";
  if (pool_.state(host) != BackendState::kActive) {
    return;
  }
  const size_t bindings = farm_->sharded_gateway().CountHostBindings(host);
  farm_->ledger().Append(LedgerEvent::kCtrlDrainBegin, kNoSession,
                         farm_->loop().Now().nanos(), host, bindings);
  SetState(host, BackendState::kDraining);
  drains_.push_back(Drain{host, farm_->loop().Now(), false});
  ++stats_.drains_started;
  PK_INFO << "controller: draining " << pool_.name(host) << " (" << bindings
          << " bindings)";
}

void Controller::FailHost(HostId host) {
  PK_CHECK(started_) << "FailHost before Start";
  farm_->CrashHost(host);
  DetectCrashes();  // immediate failover instead of waiting for the tick
}

void Controller::ReviveHost(HostId host) {
  PK_CHECK(started_) << "ReviveHost before Start";
  if (pool_.state(host) != BackendState::kDown) {
    return;
  }
  farm_->RestoreHost(host);
  SetState(host, config_.warmup > Duration::Zero() ? BackendState::kWarming
                                                   : BackendState::kActive);
}

size_t Controller::RotateImages() {
  PK_CHECK(started_) << "RotateImages before Start";
  size_t rotated = 0;
  for (size_t i = 0; i < pool_.size(); ++i) {
    const HostId host = static_cast<HostId>(i);
    if (pool_.state(host) == BackendState::kDown || farm_->HostCrashed(host)) {
      continue;
    }
    CloneServer& server = farm_->server(host);
    ReferenceImage* image = server.host().mutable_image(server.image_id());
    if (image == nullptr || image->num_pages() == 0) {
      continue;
    }
    // A small deterministic patch set models the image refresh (security
    // update, config change): a handful of pages get new contents.
    std::vector<ImagePatch> patches;
    patches.reserve(kRotationPatchPages);
    for (uint32_t p = 0; p < kRotationPatchPages; ++p) {
      ImagePatch patch;
      patch.gpfn = static_cast<Gpfn>(rotation_rng_.NextBelow(image->num_pages()));
      patch.bytes.resize(64);
      for (uint8_t& byte : patch.bytes) {
        byte = static_cast<uint8_t>(rotation_rng_.NextBelow(256));
      }
      patches.push_back(std::move(patch));
    }
    if (!image->Refresh(patches)) {
      continue;
    }
    farm_->ledger().Append(LedgerEvent::kCtrlRotate, kNoSession,
                           farm_->loop().Now().nanos(), host,
                           image->current_generation());
    ++rotated;
    ++stats_.rotations;
  }
  return rotated;
}

}  // namespace potemkin
