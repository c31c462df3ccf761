// Per-host clone server daemon.
//
// One runs on every physical host of the farm: it owns the host's hypervisor
// state, serves the gateway's spawn/retire/deliver requests, instantiates the
// guest OS model on each new clone, and wires every VM's vNIC back toward the
// gateway. It is the glue between the control plane (gateway decisions) and the
// hypervisor substrate.
#ifndef SRC_CORE_CLONE_SERVER_H_
#define SRC_CORE_CLONE_SERVER_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/event_loop.h"
#include "src/base/rng.h"
#include "src/base/session.h"
#include "src/guest/guest_os.h"
#include "src/hv/clone_engine.h"
#include "src/hv/cpu_model.h"
#include "src/hv/physical_host.h"

namespace potemkin {

// One host's personality: every clone it serves maps the same reference image
// and runs the same guest behaviour, as the paper's hosts serve every flash
// clone from one booted snapshot.
struct CloneServerConfig {
  PhysicalHostConfig host;
  CloneEngineConfig engine;
  ReferenceImageConfig image;
  // Inert: clones have no disk. Stays only because perfbench/replays.cc reads
  // it, until the next benchmark change drops it (ROADMAP item 1(b)).
  uint64_t disk_blocks = 1024;
  GuestOsConfig guest;
  // Predictive-memory behavior for every clone this server spawns; clones
  // record into and are predicted from the image's one working-set profile.
  // The zero value keeps the legacy demand-fault path.
  CloneOptions clone_memory;
  // Fabric hop from the gateway to a VM on this host.
  Duration delivery_latency = Duration::Micros(50);
  // When set, infected VMs are snapshotted into this directory at retire time.
  std::string forensics_dir;
};

class CloneServer {
 public:
  // Outbound hook: every packet any VM on this host transmits.
  using OutboundHandler = std::function<void(HostId, VmId, Packet)>;
  using InfectionHandler = std::function<void(GuestOs&, const PacketView&)>;
  using RetireHandler = std::function<void(VmId)>;

  CloneServer(EventLoop* loop, const CloneServerConfig& config, uint64_t seed);

  PhysicalHost& host() { return host_; }
  CloneEngine& engine() { return engine_; }

  void set_outbound_handler(OutboundHandler handler) { outbound_ = std::move(handler); }
  void set_infection_handler(InfectionHandler handler) {
    infection_ = std::move(handler);
  }
  void set_retire_handler(RetireHandler handler) { retired_ = std::move(handler); }

  // ---- Gateway-facing operations ----
  bool CanAdmit() const {
    return !crashed_ && host_.CanAdmit(image_, engine_.config().kind);
  }
  size_t LiveVms() const { return host_.live_vm_count(); }
  // Flash-clones a VM bound to `ip`; `done` receives kInvalidVm on failure.
  // `session` is the forensic session of the triggering first contact
  // (kNoSession for administratively spawned VMs); threaded to the engine.
  void SpawnVm(Ipv4Address ip, SessionId session, std::function<void(VmId)> done);
  // Marks the VM dead immediately and schedules teardown through the engine.
  void RetireVm(VmId vm);
  // Delivers a packet to a VM's vNIC after the fabric latency. `view` is the
  // gateway's parse of `packet`; both wait in the server's in-flight FIFO
  // (views survive the packet move — the frame buffer address is stable), and
  // the scheduled event captures only the server, so a delivery allocates
  // nothing once the FIFO has grown to the farm's peak. A packet for a VM
  // retired (or a host crashed) while it is in flight is dropped when due.
  void DeliverToVm(VmId vm, Packet packet, const PacketView& view);

  // ---- Control-plane / chaos operations ----
  // Hard-kills the host: every live VM is deactivated (retire handler fires so
  // worms stop, guests are torn down) and its frames are freed instantly — no
  // engine latency is charged, the machine just went away. Until Restore, the
  // server admits nothing and in-flight clone completions are discarded.
  void Crash();
  // Brings the crashed host back empty (fresh hypervisor boot).
  void Restore();
  bool crashed() const { return crashed_; }
  // Slow-host fault injection: scales the clone engine's charged latencies.
  void set_latency_scale(double scale) { engine_.set_latency_scale(scale); }
  // The reference image every clone maps, for generational rotation via
  // host().mutable_image().
  ImageId image_id() const { return image_; }

  GuestOs* FindGuest(VmId vm);
  uint64_t snapshots_written() const { return snapshots_written_; }

  // Aggregate guest statistics across live VMs.
  GuestStats AggregateGuestStats() const;

  const CpuAccountant& cpu() const { return cpu_; }

 private:
  void OnCloneComplete(VirtualMachine* vm, std::function<void(VmId)> done);
  void MaybeArchiveForensics(VirtualMachine& vm);
  // Hands the oldest in-flight packet to its VM.
  void DeliverNext();

  // A packet on the fabric from the gateway to a VM. `delivery_latency` is the
  // same for every packet, so deliveries fall due in the order they were sent
  // and one FIFO holds them all.
  struct InFlight {
    VmId vm = kInvalidVm;
    TimePoint due;
    Packet packet;
    PacketView view;
  };

  EventLoop* loop_;
  CloneServerConfig config_;
  PhysicalHost host_;
  CloneEngine engine_;
  ImageId image_;
  GuestOsConfig guest_config_;
  Rng rng_;
  std::unordered_map<VmId, std::unique_ptr<GuestOs>> guests_;
  OutboundHandler outbound_;
  InfectionHandler infection_;
  RetireHandler retired_;
  uint64_t snapshots_written_ = 0;
  // Ring of in-flight deliveries; its size is zero or a power of two, and it
  // doubles when full. Cursors count up and are masked into the ring.
  std::vector<InFlight> in_flight_;
  uint64_t in_flight_head_ = 0;  // next delivery to make
  uint64_t in_flight_tail_ = 0;  // next free entry
  bool crashed_ = false;
  // CPU accounting at the default cost model (telemetry only; does not
  // throttle).
  CpuAccountant cpu_;
};

}  // namespace potemkin

#endif  // SRC_CORE_CLONE_SERVER_H_
