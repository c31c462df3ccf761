#include "src/hv/clone_engine.h"

#include "src/base/log.h"

namespace potemkin {

namespace {

// Metric-name-safe phase slugs; ClonePhaseName returns display forms (with
// spaces) for tables and the clone-phase trace, which would make awkward
// metric rows.
const char* ClonePhaseSlug(ClonePhase phase) {
  switch (phase) {
    case ClonePhase::kControlPlaneRpc:
      return "control_plane_rpc";
    case ClonePhase::kDomainCreate:
      return "domain_create";
    case ClonePhase::kMemoryMapSetup:
      return "memory_map";
    case ClonePhase::kDeviceAttach:
      return "device_attach";
    case ClonePhase::kNetworkConfig:
      return "network_config";
    case ClonePhase::kGuestResume:
      return "guest_resume";
    case ClonePhase::kNumPhases:
      break;
  }
  return "unknown";
}

}  // namespace

CloneEngine::CloneEngine(EventLoop* loop, PhysicalHost* host,
                         const CloneEngineConfig& config)
    : loop_(loop),
      host_(host),
      config_(config),
      obs_(ObsOrDefault(config.obs)) {
  PK_CHECK(config_.control_plane_workers >= 1);
  // Counter names are shared across engines on purpose: same name -> same
  // storage, so a multi-host farm aggregates clone counts for free.
  m_completed_ = obs_.metrics.RegisterCounter("clone.completed", "count");
  m_failed_ = obs_.metrics.RegisterCounter("clone.failed", "count");
  m_destroyed_ = obs_.metrics.RegisterCounter("clone.destroyed", "count");
  m_pressure_reclaims_ =
      obs_.metrics.RegisterCounter("clone.pressure_reclaims", "count");
  // Log-linear ns distributions per clone phase plus the end-to-end total:
  // the paper's breakdown table as live percentiles (p999 included). The
  // watchdog's clone_total_p99 rule reads the total's _p99 row.
  for (int p = 0; p < static_cast<int>(ClonePhase::kNumPhases); ++p) {
    m_phase_ns_[static_cast<size_t>(p)] = obs_.metrics.RegisterLatency(
        std::string("clone.phase_ns.") + ClonePhaseSlug(static_cast<ClonePhase>(p)),
        "ns");
  }
  m_total_ns_ = obs_.metrics.RegisterLatency("clone.phase_ns.total", "ns");
}

void CloneEngine::RequestClone(ImageId image, const std::string& vm_name,
                               Ipv4Address ip, MacAddress mac, SessionId session,
                               CloneCallback callback) {
  RequestClone(image, vm_name, ip, mac, session, CloneOptions{},
               std::move(callback));
}

void CloneEngine::RequestClone(ImageId image, const std::string& vm_name,
                               Ipv4Address ip, MacAddress mac, SessionId session,
                               const CloneOptions& options,
                               CloneCallback callback) {
  // Relieve memory pressure *before* the clone enters the queue: the victims'
  // teardowns run ahead of it on the control plane, so by the time the clone
  // materialises pages the frames are back.
  if (config_.pressure_reclaim_batch > 0 && host_->UnderMemoryPressure()) {
    ReclaimUnderPressure(config_.pressure_reclaim_batch);
  }
  Job job;
  job.image = image;
  job.vm_name = vm_name;
  job.ip = ip;
  job.mac = mac;
  job.session = session;
  job.options = options;
  job.callback = std::move(callback);
  job.requested = loop_->Now();
  queue_.push_back(std::move(job));
  MaybeStartWork();
}

size_t CloneEngine::ReclaimUnderPressure(size_t max_victims) {
  if (max_victims == 0 || !host_->UnderMemoryPressure()) {
    return 0;
  }
  const std::vector<VmId> victims = host_->PressureVictims(max_victims);
  for (const VmId victim : victims) {
    if (pressure_reclaim_) {
      pressure_reclaim_(victim);
    } else {
      // Quiesce immediately so the victim stops being a reclaim candidate
      // while its teardown waits in the control-plane queue.
      if (VirtualMachine* vm = host_->FindVm(victim)) {
        vm->set_state(VmState::kPaused);
      }
      RequestDestroy(victim);
    }
    ++pressure_reclaims_;
    m_pressure_reclaims_.Inc();
  }
  return victims.size();
}

void CloneEngine::RequestDestroy(VmId vm, std::function<void()> callback) {
  Job job;
  job.is_destroy = true;
  job.victim = vm;
  job.destroy_callback = std::move(callback);
  job.requested = loop_->Now();
  queue_.push_back(std::move(job));
  MaybeStartWork();
}

void CloneEngine::MaybeStartWork() {
  while (busy_workers_ < config_.control_plane_workers && !queue_.empty()) {
    Job job = std::move(queue_.front());
    queue_.pop_front();
    ++busy_workers_;
    if (job.is_destroy) {
      ExecuteDestroy(std::move(job));
    } else {
      ExecuteClone(std::move(job));
    }
  }
}

void CloneEngine::ExecuteClone(Job job) {
  CloneTiming timing;
  timing.requested = job.requested;
  timing.started = loop_->Now();
  // The clone left the control-plane queue and started executing; the queue
  // wait is visible in the timeline as (started - kCloneRequested time).
  obs_.ledger.Append(LedgerEvent::kCloneStarted, job.session,
                     timing.started.nanos(), job.ip.value(),
                     static_cast<uint64_t>(host_->id()));

  const ReferenceImage* image = host_->image(job.image);
  if (image == nullptr) {
    timing.finished = loop_->Now();
    if (job.callback) {
      job.callback(nullptr, timing);
    }
    ++clones_failed_;
    FinishWorker();
    return;
  }
  const uint32_t pages = image->num_pages();

  // Charge the control-plane phases.
  Duration elapsed = Duration::Zero();
  for (int p = 0; p < static_cast<int>(ClonePhase::kNumPhases); ++p) {
    const Duration cost = config_.latency.PhaseCost(static_cast<ClonePhase>(p), pages);
    timing.phase[static_cast<size_t>(p)] = cost;
    elapsed += cost;
  }
  if (config_.kind == CloneKind::kFullCopy) {
    timing.memory_copy = config_.latency.full_copy_per_page * static_cast<double>(pages);
    elapsed += timing.memory_copy;
  }
  if (job.options.use_working_set) {
    // Charge the prediction's batched pre-materialisation, using the
    // prediction as it stands at request time (a session retiring on another
    // worker before CreateClone runs can shift the count slightly; the charge
    // is a model, not an invariant).
    const size_t predicted =
        image->working_set().PredictFirst(job.options.prefetch_pages).size();
    if (predicted > 0) {
      timing.ws_prefetch = config_.latency.ws_prefetch_per_page *
                           static_cast<double>(predicted);
      elapsed += timing.ws_prefetch;
    }
  }

  if (latency_scale_ != 1.0) {
    elapsed = elapsed * latency_scale_;
  }
  loop_->ScheduleAfter(elapsed, [this, job = std::move(job), timing]() mutable {
    timing.finished = loop_->Now();
    VirtualMachine* vm =
        host_->CreateClone(job.image, config_.kind, job.vm_name, job.options);
    if (vm != nullptr) {
      vm->BindAddress(job.ip, job.mac);
      vm->set_state(VmState::kRunning);
      vm->set_last_activity(timing.finished);
      ++clones_completed_;
      m_completed_.Inc();
      for (size_t p = 0; p < timing.phase.size(); ++p) {
        m_phase_ns_[p].Record(static_cast<uint64_t>(timing.phase[p].nanos()));
      }
      m_total_ns_.Record(static_cast<uint64_t>(timing.Total().nanos()));
    } else {
      ++clones_failed_;
      m_failed_.Inc();
    }
    if (job.callback) {
      job.callback(vm, timing);
    }
    FinishWorker();
  });
}

void CloneEngine::ExecuteDestroy(Job job) {
  loop_->ScheduleAfter(config_.latency.domain_destroy * latency_scale_,
                       [this, job = std::move(job)]() {
    host_->DestroyVm(job.victim);
    ++destroys_completed_;
    m_destroyed_.Inc();
    if (job.destroy_callback) {
      job.destroy_callback();
    }
    FinishWorker();
  });
}

void CloneEngine::FinishWorker() {
  PK_CHECK(busy_workers_ > 0);
  --busy_workers_;
  MaybeStartWork();
}

}  // namespace potemkin
