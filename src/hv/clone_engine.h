// The flash-clone engine: schedules VM creation/destruction through a host's
// control plane over virtual time, charging the calibrated per-phase latencies.
//
// The paper's prototype funneled all clone operations through one `xend` control
// plane per host, serializing them; the engine models that with a configurable
// number of control-plane workers (1 = the paper's prototype, >1 = the projected
// parallel control plane), which is what the clone-concurrency experiment (F6)
// sweeps.
#ifndef SRC_HV_CLONE_ENGINE_H_
#define SRC_HV_CLONE_ENGINE_H_

#include <array>
#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "src/base/event_loop.h"
#include "src/base/session.h"
#include "src/hv/physical_host.h"
#include "src/obs/observability.h"

namespace potemkin {

struct CloneTiming {
  TimePoint requested;
  TimePoint started;
  TimePoint finished;
  std::array<Duration, static_cast<size_t>(ClonePhase::kNumPhases)> phase;
  Duration memory_copy;   // nonzero only for full-copy clones
  Duration ws_prefetch;   // nonzero only when working-set prefetch ran
  Duration QueueWait() const { return started - requested; }
  Duration Total() const { return finished - started; }
};

// Completion callback: vm is nullptr if the clone failed admission or ran out of
// memory mid-copy.
using CloneCallback = std::function<void(VirtualMachine* vm, const CloneTiming&)>;

struct CloneEngineConfig {
  CloneLatencyModel latency;
  CloneKind kind = CloneKind::kFlash;
  int control_plane_workers = 1;
  // Proactive pressure relief: when a clone request arrives while the host is
  // over its pressure watermark, reclaim up to this many of the most-idle
  // clones ahead of it in the control-plane queue (their teardown completes
  // while the clone's phases are charged, so the allocation no longer fails).
  // 0 disables; it is also inert unless the host configures watermarks. A
  // Honeyfarm requires 0: its own sweep reclaims through the gateway.
  uint32_t pressure_reclaim_batch = 0;
  // Telemetry bundle; null falls back to Observability::Default().
  Observability* obs = nullptr;
};

class CloneEngine {
 public:
  CloneEngine(EventLoop* loop, PhysicalHost* host, const CloneEngineConfig& config);

  // Enqueues a clone. The callback fires (in virtual time) when the clone engine
  // finishes; on success the VM is in kRunning state with `ip`/`mac` bound.
  // `session` is the forensic session of the first-contact packet that
  // triggered the clone (kNoSession for clones not driven by traffic); the
  // engine stamps it on its ledger events so the clone's control-plane story
  // joins the attack timeline.
  void RequestClone(ImageId image, const std::string& vm_name, Ipv4Address ip,
                    MacAddress mac, SessionId session, CloneCallback callback);
  void RequestClone(ImageId image, const std::string& vm_name, Ipv4Address ip,
                    MacAddress mac, CloneCallback callback) {
    RequestClone(image, vm_name, ip, mac, kNoSession, std::move(callback));
  }
  // Variant with per-clone memory options (working-set prefetch / recording);
  // the overloads above pass CloneOptions{}.
  void RequestClone(ImageId image, const std::string& vm_name, Ipv4Address ip,
                    MacAddress mac, SessionId session,
                    const CloneOptions& options, CloneCallback callback);

  // Enqueues a teardown through the control plane.
  void RequestDestroy(VmId vm, std::function<void()> callback = nullptr);

  // ---- Memory-pressure recycling ----

  // How a pressure victim is retired. Installed by the clone server so guest
  // state, forensics and worm deactivation ride the normal retire path; the
  // default quiesces the VM and queues a control-plane destroy.
  using PressureReclaimHandler = std::function<void(VmId)>;
  void set_pressure_reclaim_handler(PressureReclaimHandler handler) {
    pressure_reclaim_ = std::move(handler);
  }
  // If the host is over its pressure watermark, retires up to `max_victims`
  // most-idle clones (skipping ones still cloning or already quiescing).
  // Returns the number of reclaims issued. Also invoked automatically from
  // RequestClone when config().pressure_reclaim_batch > 0.
  size_t ReclaimUnderPressure(size_t max_victims);
  uint64_t pressure_reclaims() const { return pressure_reclaims_; }

  const CloneEngineConfig& config() const { return config_; }

  // Multiplies every charged control-plane latency (clone phases and domain
  // destroy). 1.0 = the calibrated model; the chaos harness inflates it to
  // simulate a slow host (overloaded dom0, thrashing disk) without touching
  // the latency model itself. Applies to work scheduled after the change;
  // in-flight jobs keep the scale they were charged with.
  void set_latency_scale(double scale) { latency_scale_ = scale; }

  uint64_t clones_completed() const { return clones_completed_; }
  uint64_t clones_failed() const { return clones_failed_; }
  uint64_t destroys_completed() const { return destroys_completed_; }

 private:
  struct Job {
    bool is_destroy = false;
    // Clone fields:
    ImageId image = 0;
    std::string vm_name;
    Ipv4Address ip;
    MacAddress mac;
    SessionId session = kNoSession;
    CloneOptions options;
    CloneCallback callback;
    // Destroy fields:
    VmId victim = kInvalidVm;
    std::function<void()> destroy_callback;
    TimePoint requested;
  };

  void MaybeStartWork();
  void ExecuteClone(Job job);
  void ExecuteDestroy(Job job);
  void FinishWorker();

  EventLoop* loop_;
  PhysicalHost* host_;
  CloneEngineConfig config_;
  Observability& obs_;
  Counter m_completed_;
  Counter m_failed_;
  Counter m_destroyed_;
  Counter m_pressure_reclaims_;
  // Per-phase and end-to-end (start -> finish) clone durations in ns,
  // recorded from each completed clone's CloneTiming; log-linear so the
  // paper's sub-second tail claims are checkable at p99/p999. Names are
  // farm-wide: every engine aggregates into one distribution per phase.
  std::array<LatencyHistogram, static_cast<size_t>(ClonePhase::kNumPhases)>
      m_phase_ns_;
  LatencyHistogram m_total_ns_;
  PressureReclaimHandler pressure_reclaim_;
  std::deque<Job> queue_;
  double latency_scale_ = 1.0;
  int busy_workers_ = 0;
  uint64_t clones_completed_ = 0;
  uint64_t clones_failed_ = 0;
  uint64_t destroys_completed_ = 0;
  uint64_t pressure_reclaims_ = 0;
};

}  // namespace potemkin

#endif  // SRC_HV_CLONE_ENGINE_H_
