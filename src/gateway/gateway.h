// The Potemkin gateway.
//
// All honeyfarm traffic crosses this component. Inbound: route packets for the
// emulated prefix to the VM bound to the destination address, flash-cloning one on
// first contact (late binding) and queueing packets while the clone completes.
// Outbound: let honeypots *respond* to the external peers that contacted them,
// proxy DNS internally, and subject everything a VM initiates to the containment
// policy — forwarding, dropping, rate-limiting or reflecting it back into the farm
// with full NAT bookkeeping so reflected conversations stay coherent.
#ifndef SRC_GATEWAY_GATEWAY_H_
#define SRC_GATEWAY_GATEWAY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>

#include "src/base/event_loop.h"
#include "src/base/flat_index.h"
#include "src/base/rng.h"
#include "src/base/slab.h"
#include "src/gateway/binding_table.h"
#include "src/gateway/containment.h"
#include "src/gateway/dns_proxy.h"
#include "src/gateway/recycler.h"
#include "src/gateway/scan_detector.h"
#include "src/net/flow.h"
#include "src/obs/observability.h"

namespace potemkin {

// How the gateway spreads new bindings across physical hosts.
enum class PlacementKind {
  kRoundRobin,
  // Picks the admitting host with the highest HostPlacementScore (ties go to
  // the lowest host id). With no score hook every host scores the same, so
  // it picks the first host that admits the VM.
  kScored,
};

// The clone-server cluster as the gateway sees it (implemented by src/core).
class GatewayBackend {
 public:
  virtual ~GatewayBackend() = default;
  virtual size_t NumHosts() const = 0;
  virtual bool HostCanAdmit(HostId host) const = 0;
  // Flash-clones a VM bound to `ip` on `host`; calls `done` with the VM id, or
  // kInvalidVm on failure. Completion happens in virtual time. `session` is
  // the forensic session minted for the first-contact packet that triggered
  // the clone; backends thread it to the clone engine so the clone's ledger
  // events join the attack's timeline.
  virtual void SpawnVm(HostId host, Ipv4Address ip, SessionId session,
                       std::function<void(VmId)> done) = 0;
  virtual void RetireVm(HostId host, VmId vm) = 0;
  // Placement desirability of `host` under PlacementKind::kScored; higher is
  // better. The control plane overrides this with a capacity-aware score
  // (frame headroom, live clones, recent allocation denials); the default
  // makes every host equal, so kScored picks the first host that admits.
  virtual double HostPlacementScore(HostId host) const {
    (void)host;
    return 0.0;
  }
  // MUST deliver asynchronously (via the event loop): the gateway assumes no
  // re-entrant HandleOutbound call happens inside DeliverToVm. `view` is a live
  // parse of `packet` (parse-once: the gateway already decoded the frame);
  // implementations that defer delivery must copy the view alongside the packet
  // — it stays valid across Packet moves but not past the packet's lifetime.
  virtual void DeliverToVm(HostId host, VmId vm, Packet packet,
                           const PacketView& view) = 0;
};

struct GatewayConfig {
  Ipv4Prefix farm_prefix = Ipv4Prefix(Ipv4Address(10, 1, 0, 0), 16);
  ContainmentConfig containment;
  RecyclePolicy recycle;
  ScanDetectorConfig scan_detector;
  PlacementKind placement = PlacementKind::kRoundRobin;
  // Queue packets while the destination VM is cloning (vs dropping them).
  bool queue_while_cloning = true;
  // Inbound load-shedding ablation: once a source is flagged as a scanner, its
  // first-contact packets no longer spawn VMs (packets to already-live VMs still
  // flow). Trades coverage of aggressive scanners for clone-engine headroom.
  bool filter_known_scanners = false;
  // Shard topology. A sharded deployment runs `shard_count` Gateway instances,
  // each owning the farm addresses whose low bits equal `shard_id`
  // (shard_count must be a power of two). The defaults make a standalone
  // gateway a 1-shard deployment with every shard branch compiled out of the
  // hit path behind a single predictable comparison. When shard_count > 1 the
  // gateway hands packets it does not own to the handoff sink (see
  // set_shard_handoff) instead of routing them, and mints session ids on a
  // per-shard stride so ids stay farm-unique without cross-shard coordination:
  // session s belongs to shard (s - 1) % shard_count.
  uint32_t shard_id = 0;
  uint32_t shard_count = 1;
  uint64_t seed = 42;
  // Telemetry bundle; null falls back to Observability::Default(). The farm
  // passes its own so per-farm metrics stay isolated.
  Observability* obs = nullptr;
};

struct GatewayStats {
  uint64_t inbound_packets = 0;
  uint64_t inbound_nonfarm = 0;
  uint64_t inbound_delivered = 0;
  uint64_t inbound_queued = 0;
  uint64_t inbound_dropped_cloning = 0;
  uint64_t inbound_filtered_scanners = 0;
  uint64_t clones_triggered = 0;
  uint64_t clone_failures = 0;
  uint64_t no_capacity_drops = 0;
  uint64_t outbound_packets = 0;
  uint64_t responses_allowed_out = 0;
  uint64_t icmp_errors_allowed_out = 0;
  uint64_t ttl_expired_drops = 0;
  uint64_t emergency_reclaims = 0;
  uint64_t internal_forwards = 0;
  uint64_t reflections_injected = 0;
  uint64_t dns_responses = 0;
  uint64_t egress_packets = 0;
  uint64_t vms_retired = 0;
  // Recycler churn attributed by RetireReason (emergency reclaims counted
  // separately above).
  uint64_t retired_idle = 0;
  uint64_t retired_lifetime = 0;
  uint64_t retired_infected_expired = 0;
  // Cross-shard traffic (zero in a 1-shard deployment).
  uint64_t handoffs_out = 0;  // packets passed to the handoff sink
  uint64_t handoffs_in = 0;   // packets received via HandleHandoff
};

class Gateway {
 public:
  // Sink for packets the gateway releases to the real Internet.
  using EgressSink = std::function<void(Packet)>;
  // Routing context carried alongside a packet across a shard handoff. A
  // nonzero `nat_key` is a reverse-NAT install request: the receiving shard
  // owns the reflection victim, so *it* must hold the (victim, scanner) ->
  // external mapping — the victim's replies shard by source and would never
  // find an entry left on the producing shard.
  struct HandoffContext {
    uint64_t nat_key = 0;      // victim << 32 | scanner; 0 = no install
    Ipv4Address nat_external;  // address the victim's replies impersonate
  };
  // Sink for packets whose farm destination belongs to another shard. The
  // sharded gateway wires this to the handoff ring toward `dst_shard`.
  using ShardHandoff = std::function<void(Packet packet, uint32_t dst_shard,
                                          const HandoffContext& ctx)>;

  Gateway(EventLoop* loop, const GatewayConfig& config, GatewayBackend* backend);
  ~Gateway();

  // ---- External (Internet) side ----
  void HandleInbound(Packet packet);
  void set_egress_sink(EgressSink sink) { egress_ = std::move(sink); }

  // ---- Shard fabric ----
  void set_shard_handoff(ShardHandoff handoff) { handoff_ = std::move(handoff); }
  // Entry point for packets another shard handed off to this one: the frame
  // was already classified there (containment, NAT rewrite, flow accounting),
  // so this parses and routes into this shard's partition only — installing
  // the reverse-NAT entry first when the context requests one.
  void HandleHandoff(Packet packet, const HandoffContext& ctx);
  // Owning shard of a farm destination under this gateway's topology.
  uint32_t ShardOf(Ipv4Address ip) const {
    return ip.value() & (config_.shard_count - 1);
  }

  // ---- Farm side ----
  // Called by the clone servers for every packet a VM transmits.
  void HandleOutbound(HostId host, VmId vm, Packet packet);

  // Infection notifications (from the guest layer, via the honeyfarm) so the
  // recycler can apply the infected-hold policy and stats can attribute escapes.
  void NotifyInfected(Ipv4Address vm_ip);

  // Begins periodic recycling sweeps; runs until the loop stops.
  void StartRecycling();
  // One sweep, immediately: retires due VMs, expires idle flow and scan state,
  // and frees the reflect-NAT mappings of every victim that has no binding
  // (including mappings installed while it had none). Returns how many VMs
  // were retired.
  size_t SweepOnce();
  // Retires up to `batch` of the most-idle active VMs immediately (the
  // emergency-reclaim path, callable by the farm's memory-pressure sweep).
  // Returns the number retired.
  size_t ReclaimMostIdle(size_t batch);

  // ---- Host lifecycle (control plane) ----
  // Bindings currently placed on `host` (any state).
  size_t CountHostBindings(HostId host);
  // Drain step: retires every *active* binding on `host` (backend RetireVm +
  // binding removal, ledger kVmRetired marked kRetiredDrain). Bindings
  // still cloning are left alone — removing them would orphan the VM the
  // in-flight OnCloneDone is about to hand back; the drain loop simply runs
  // again after they activate. Returns the number retired.
  size_t RetireHostBindings(HostId host);
  // Failover step: removes ALL bindings on `host` WITHOUT calling back into
  // the backend — the host crashed and its VMs are already gone. Affected
  // farm addresses re-route (fresh clone elsewhere) on their next packet
  // instead of blackholing into a dead binding. Stale reflect-NAT mappings are
  // GC'd by the next sweep, and a clone still in flight for an invalidated
  // binding is retired when it completes. Returns the number invalidated.
  size_t InvalidateHostBindings(HostId host);
  // Live-migration step: rebinds up to `max` active, non-infected bindings
  // off `host` by flash-cloning a replacement on a host ChooseHost still
  // admits (the control plane's admission filter excludes draining/down
  // hosts) and retiring the old VM once the replacement is live. Infected
  // bindings are retired instead of moved (an infected VM's state must not
  // outlive its host's drain). Per-VM TCP state does not survive — the
  // rebind preserves the address->farm mapping and session id, and the guest
  // restarts its conversation, which the paper's short-lived attack sessions
  // tolerate. Returns how many migrations were *started*.
  size_t MigrateHostBindings(HostId host, size_t max);
  // Chaos-harness invariant probe: reflect-NAT mappings whose victim address
  // this shard does not own (must be 0 at all times in a sharded deployment).
  // Walks victim records, not mappings. Applies queued installs first.
  size_t CountMisplacedReflectNat();
  // Live reflect-NAT (victim, scanner) mappings on this gateway, queued
  // installs included (they are applied first). Read from a counter, not a
  // walk; exported as the `reflect_nat.entries` probe.
  size_t reflect_nat_entries() {
    FlushReflectNat();
    return nat_entries_;
  }

  BindingTable& bindings() { return bindings_; }
  const GatewayStats& stats() const { return stats_; }
  const ContainmentEngine& containment() const { return containment_; }
  const ScanDetector& scan_detector() const { return scan_detector_; }
  // Test oracle, reached by no program.
  const FlowTable& flows() const { return flows_; }
  const GatewayConfig& config() const { return config_; }

 private:
  // Routes a packet destined to a farm address to its (possibly new) VM.
  // `view` is the ingress parse of `packet`; it is threaded (and kept in sync
  // by the rewrite helpers) all the way to the backend instead of re-parsing
  // per layer.
  // A nonzero `nat_key` is a reflection reverse-NAT install that must land
  // wherever the destination (the victim) is routed: locally when this shard
  // owns it, carried in the HandoffContext otherwise.
  void RouteToFarm(Packet packet, PacketView& view, uint64_t nat_key = 0,
                   Ipv4Address nat_external = {});
  // Queues the reverse-NAT install for `nat_key` (victim << 32 | scanner);
  // a full queue is applied at once.
  void QueueReflectNat(uint64_t nat_key, Ipv4Address external);
  // Applies every queued install in queue order, prefetching the cell of the
  // install kNatPrefetchAhead places later. Every reader of the reverse NAT
  // calls this first, so what it reads is exactly what installing at once
  // would have left: the same mappings, Grow points and cell placement.
  void FlushReflectNat();
  // Find-or-create the reverse-NAT mapping for `nat_key`, pointing it at
  // `external`: the last write wins.
  void InstallReflectNat(uint64_t nat_key, Ipv4Address external);
  // Retires `vm` through the backend and forgets its rate-limit bucket. Every
  // path that hands a VM back to the backend goes through here, so the
  // containment engine's per-VM state dies with the VM.
  void RetireVm(HostId host, VmId vm);
  // Picks a host for a new binding; returns false if no host can admit.
  bool ChooseHost(HostId* out);
  // Completion of the first-contact clone spawned on `host` for the binding of
  // `ip` minted with `session`; a completion whose binding is gone or was
  // replaced retires its VM instead of activating another binding.
  void OnCloneDone(Ipv4Address ip, SessionId session, HostId host, VmId vm);
  void OnMigrateDone(Ipv4Address ip, HostId from, HostId to, VmId old_vm,
                     VmId vm);
  // `wait_ns` is the virtual time the packet spent between ingress and this
  // delivery: 0 on the direct hit path, the first-contact clone wait for
  // packets flushed from a binding's pending queue.
  void DeliverToBinding(Binding& binding, Packet packet, PacketView& view,
                        int64_t wait_ns = 0);
  void HandleDnsQuery(const PacketView& view, Binding* source_binding);
  void ScheduleSweep();
  // Retires the most-idle active VMs to relieve memory pressure.
  void EmergencyReclaim();

  EventLoop* loop_;
  GatewayConfig config_;
  GatewayBackend* backend_;
  Observability& obs_;
  // Hot-path metric handles: each Inc/Record is one plain add against
  // registry-owned storage — no allocation, no lock, no map lookup per packet.
  Counter m_rx_packets_;
  Counter m_rx_hit_;
  Counter m_rx_first_contact_;
  Counter m_rx_nonfarm_;
  Counter m_rx_queued_;
  Counter m_tx_outbound_;
  Counter m_tx_egress_;
  // Registered only when shard_count > 1; default handles hit the registry's
  // shared sink so a 1-shard gateway pays nothing for the sharding seams.
  Counter m_handoff_out_;
  Counter m_handoff_in_;
  LatencyHistogram m_rx_frame_bytes_;
  // Ingress→delivery latency in virtual ns (see DeliverToBinding); shards
  // share the farm-wide name, so the percentiles aggregate like the counters.
  LatencyHistogram m_datapath_latency_ns_;
  BindingTable bindings_;
  ContainmentEngine containment_;
  DnsProxy dns_proxy_;
  ScanDetector scan_detector_;
  FlowTable flows_;
  EgressSink egress_;
  ShardHandoff handoff_;
  GatewayStats stats_;
  HostId next_host_ = 0;
  // Next forensic session id; minted per first contact. Shard s starts at
  // 1 + s and strides by shard_count, so ids stay farm-unique with no
  // cross-shard coordination and kNoSession (0) stays reserved for
  // farm-internal traffic. A 1-shard gateway mints 1, 2, 3, ... exactly as
  // before sharding existed.
  SessionId next_session_ = 1;
  bool recycling_started_ = false;
  // Reflection NAT, owned per victim: (victim, scanner) -> external, the
  // address the victim's replies to that scanner impersonate. Replies shard by
  // source, so a shard only ever holds mappings for victims it owns.
  // `nat_index_` finds a victim's record in `nat_victims_`; the record holds an
  // open-addressing table of 8-byte cells keyed by scanner (linear probing,
  // doubled at 3/4 load, no tombstones because cells are only ever freed with
  // the whole record). The first mapping fits in two cells inside the record,
  // so a victim one scanner reflects onto costs no allocation; the second
  // moves the table to a heap array. A cell is vacant when its external is the
  // victim's own address: reflection fires only for destinations outside the
  // farm, so a victim never impersonates itself, and every scanner (0.0.0.0
  // included) and every external (255.255.255.255 included) stays a legal
  // value. That is why the cells are not a FlatIndex, which reserves slot
  // values an external can take and allocates its table on construction.
  struct ReflectNatCell {
    uint32_t scanner;
    uint32_t external;
  };
  struct ReflectNatVictim {
    uint32_t victim = 0;
    uint32_t mappings = 0;  // occupied cells
    uint32_t mask = 0;      // cell count - 1
    std::unique_ptr<ReflectNatCell[]> heap_cells;  // null while inline
    ReflectNatCell inline_cells[2];

    // An empty table for `victim_ip` in the inline cells.
    void Reset(uint32_t victim_ip);
    ReflectNatCell* cells() {
      return heap_cells ? heap_cells.get() : inline_cells;
    }
    const ReflectNatCell* cells() const {
      return heap_cells ? heap_cells.get() : inline_cells;
    }
    bool Vacant(const ReflectNatCell& cell) const {
      return cell.external == victim;
    }
    // Where the probe for `scanner` starts.
    uint32_t Home(uint32_t scanner) const {
      return static_cast<uint32_t>(FlatIndexHash{}(scanner)) & mask;
    }
    // Index of the cell holding `scanner`, or of the vacant cell where it
    // would go.
    uint32_t Probe(uint32_t scanner) const;
    // Doubles the table into a heap array and re-probes every mapping.
    void Grow();
  };
  // The mapping `victim`'s replies to `scanner` use, or nullptr. Callers
  // flush queued installs first.
  const ReflectNatCell* FindReflectNat(uint32_t victim, uint32_t scanner) const;
  FlatIndex<uint32_t> nat_index_;
  Slab<ReflectNatVictim> nat_victims_;
  // Live (victim, scanner) mappings over all records, kept by install and
  // sweep so the size probe never walks the table.
  size_t nat_entries_ = 0;
  // Installs not yet applied. Each one misses on its victim's cells, which
  // for a farm of reflection victims are megabytes; applying them a batch at
  // a time lets the prefetch of one overlap the installs before it.
  static constexpr uint32_t kNatBatch = 64;
  static constexpr uint32_t kNatPrefetchAhead = 8;
  struct QueuedNat {
    uint64_t key;
    Ipv4Address external;
  };
  QueuedNat nat_queue_[kNatBatch];
  uint32_t nat_queued_ = 0;
  // Addresses with a replacement clone in flight (MigrateHostBindings): keeps
  // a drain tick that outpaces clone latency from double-spawning replacements
  // for the same binding.
  std::unordered_set<uint32_t> migrating_;
};

}  // namespace potemkin

#endif  // SRC_GATEWAY_GATEWAY_H_
