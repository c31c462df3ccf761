// Farm controller: the control-plane loop over a running Honeyfarm.
//
// The data plane (gateway shards, clone servers) answers packets; the
// controller decides which backends should be answering at all. It owns a
// BackendPool tracking every clone server's lifecycle state and capacity
// snapshot, and a periodic tick that:
//
//   * detects crashed hosts and fails them over — their bindings are
//     invalidated (not retired through the dead backend) so the next inbound
//     packet re-routes to a healthy host instead of blackholing;
//   * progresses drains — a draining host stops taking new bindings (the
//     pool's admission veto), live sessions are migrated to healthy hosts a
//     batch per tick, and whatever remains at the drain deadline is retired;
//   * promotes warming hosts to active after their warmup period;
//   * periodically rotates reference images to a new generation (in-flight
//     clones stay pinned to the generation they booted from; only new clones
//     see the rotated image).
//
// Every decision lands in the farm's event ledger (kCtrl* events) so
// tools/forensics can reconstruct why the pool looked the way it did.
#ifndef SRC_CTRL_CONTROLLER_H_
#define SRC_CTRL_CONTROLLER_H_

#include <cstdint>
#include <vector>

#include "src/base/event_loop.h"
#include "src/base/rng.h"
#include "src/base/time_types.h"
#include "src/core/honeyfarm.h"
#include "src/ctrl/backend_pool.h"

namespace potemkin {

struct ControllerConfig {
  Duration tick = Duration::Millis(500);
  // A drain that hasn't emptied by the deadline force-retires the remainder.
  Duration drain_deadline = Duration::Seconds(30);
  // kWarming -> kActive promotion delay (0 activates immediately).
  Duration warmup = Duration::Seconds(2);
  // Periodic image rotation interval; zero disables the schedule (rotation
  // can still be forced via RotateImages).
  Duration rotation_interval = Duration::Zero();
};

class Controller {
 public:
  struct Stats {
    uint64_t drains_started = 0;
    uint64_t drains_completed = 0;
    uint64_t drains_forced = 0;  // hit the deadline and force-retired
    uint64_t failovers = 0;
    uint64_t migrations = 0;  // sessions moved off draining hosts
    uint64_t rotations = 0;   // image generations published
  };

  Controller(Honeyfarm* farm, ControllerConfig config);
  ~Controller();
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  // Registers every farm host with the pool, installs the admission veto and
  // placement score on the farm, registers ctrl.* probes, and schedules the
  // periodic tick. Call once, before (or after) farm.Start().
  void Start();

  // ---- Operator verbs ----
  // Begins draining `host`: no new bindings, sessions migrate off per tick,
  // stragglers are retired at the deadline. No-op unless the host is active.
  void DrainHost(HostId host);
  // Test seam, reached by no program: marks `host` failed and invalidates its
  // bindings now (the tick would detect a crash on its own).
  void FailHost(HostId host);
  // Revives a down host into warming (restores it if crashed).
  void ReviveHost(HostId host);
  // Rotates every image on every serving host to a new generation. Returns
  // images rotated.
  size_t RotateImages();

  BackendPool& pool() { return pool_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Drain {
    HostId host = 0;
    TimePoint started;
    bool forced = false;  // deadline passed; remainder was force-retired
  };

  void Tick();
  void DetectCrashes();
  void ProgressDrains();
  void PromoteWarming();
  void MaybeRotate();
  void SetState(HostId host, BackendState next);

  Honeyfarm* farm_;
  ControllerConfig config_;
  BackendPool pool_;
  Rng rotation_rng_;
  std::vector<Drain> drains_;
  TimePoint last_rotation_;
  bool started_ = false;
  Stats stats_;
};

}  // namespace potemkin

#endif  // SRC_CTRL_CONTROLLER_H_
