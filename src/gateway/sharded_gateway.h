// Sharded gateway: N per-shard datapaths behind one gateway-shaped facade.
//
// ShardedGateway runs `shard_count` independent Gateway instances, each owning
// the farm addresses whose low bits equal its shard id — binding table, flow
// table, containment state, scan detector and reflection NAT are all
// partitioned, so the hit path of one shard never touches another shard's
// tables. Traffic that crosses the partition (reflection and farm-internal
// forwards whose rewritten destination hashes elsewhere) is enqueued on a
// bounded ring per ordered shard pair instead of routed inline.
//
// Every shard runs on the caller's EventLoop, Observability, and backend, on
// one thread. Handoff rings are pumped inline in shard order, so the event
// schedule is a pure function of the input. With shard_count == 1 this is a
// byte-identical passthrough to a bare Gateway: same metric names, same
// session ids, same stdout.
//
// Telemetry: counters keep their farm-wide names (same-name registration
// shares one cell, so shards aggregate for free). Probes cannot share a name,
// so sharded-mode shards publish under "gateway.s<i>." and this facade
// re-registers farm-wide rollups under the original names — watchdog rules
// and health snapshots keep working unchanged.
#ifndef SRC_GATEWAY_SHARDED_GATEWAY_H_
#define SRC_GATEWAY_SHARDED_GATEWAY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/bounded_ring.h"
#include "src/base/event_loop.h"
#include "src/gateway/gateway.h"
#include "src/obs/observability.h"

namespace potemkin {

struct ShardedGatewayConfig {
  // Per-shard template; shard_id/shard_count are overwritten for each
  // instance. When shard_count > 1 the scan detector's distinct_threshold is
  // scaled down by the shard count (floor 1): each shard only sees the
  // distinct destinations it owns, so a source spraying the farm accumulates
  // ~1/N of its distinct-dst count per shard — without the rescale it would be
  // flagged ~N× later than unsharded. The trade-off: a source targeting a
  // single shard's addresses flags up to N× earlier (see DESIGN.md §10).
  GatewayConfig gateway;
  // Must be a power of two (address bits partition evenly).
  uint32_t shard_count = 1;
};

class ShardedGateway {
 public:
  // Slots in each directed (producer, consumer) handoff ring, in packets.
  static constexpr size_t kHandoffRingCapacity = 4096;

  // All shards share `loop`, `backend`, and the template's Observability.
  ShardedGateway(EventLoop* loop, const ShardedGatewayConfig& config,
                 GatewayBackend* backend);
  ~ShardedGateway();
  ShardedGateway(const ShardedGateway&) = delete;
  ShardedGateway& operator=(const ShardedGateway&) = delete;

  // ---- Datapath (gateway-shaped facade) ----
  // Inbound dispatch peeks the destination straight out of the frame bytes
  // (no full parse) to pick the owning shard.
  void HandleInbound(Packet packet);
  // Outbound traffic shards by the transmitting VM's address (the source),
  // which is where its binding lives.
  void HandleOutbound(HostId host, VmId vm, Packet packet);
  void NotifyInfected(Ipv4Address vm_ip);
  void StartRecycling();
  // Test seam, reached by no program (the recycler's periodic sweep calls
  // each shard's own); goes with the shards (ROADMAP item 2).
  size_t SweepOnce();
  // Retires up to `batch` most-idle VMs farm-wide, splitting the batch evenly
  // across shards (each shard ranks idleness within its own partition).
  // Returns the number retired.
  size_t ReclaimMostIdle(size_t batch);
  // The sink is copied to every shard and invoked inline (the Honeyfarm's
  // seed-handshake hook depends on seeing the packet synchronously).
  void set_egress_sink(Gateway::EgressSink sink);

  // ---- Host lifecycle (control plane; fan-out over every shard) ----
  size_t CountHostBindings(HostId host);
  size_t RetireHostBindings(HostId host);
  size_t InvalidateHostBindings(HostId host);
  size_t MigrateHostBindings(HostId host, size_t max);
  // Chaos invariant: reflect-NAT entries sitting on a shard that does not own
  // their victim address, summed farm-wide (must always be 0).
  size_t CountMisplacedReflectNat();

  // ---- Fault injection (chaos harness) ----
  // Cuts (or heals) the directed handoff path from shard `from` to shard
  // `to`. While cut, queued handoffs stall in the ring and pushes that find
  // the ring full are dropped (counted in partition_drops); healing lets the
  // stalled queue flow on the next pump.
  void SetHandoffPartition(uint32_t from, uint32_t to, bool cut);
  uint64_t partition_drops() const { return partition_drops_; }

  // ---- Topology ----
  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }
  uint32_t ShardOf(Ipv4Address ip) const {
    return ip.value() & (shard_count() - 1);
  }
  Gateway& shard(uint32_t i) { return *shards_[i]; }

  // ---- Execution ----
  // Drains every handoff ring, consumer by consumer and within a consumer
  // producer by producer, until all rings are empty (a cut path stays
  // queued). Returns packets delivered. Re-entrant calls no-op: the outermost
  // pump finishes the job.
  size_t PumpHandoffs();

  // ---- Telemetry ----
  // Field-wise sum of every shard's GatewayStats.
  GatewayStats AggregateStats() const;
  // Farm-wide live binding count (the gateway.bindings.live row).
  size_t live_bindings() const;

 private:
  struct Handoff {
    Packet packet;
    // Routing context, including any reverse-NAT install the consuming
    // (victim-owning) shard must apply before routing.
    Gateway::HandoffContext ctx;
  };

  void InstallHandoff(uint32_t from);
  // Farm-wide rollup probes under the unsharded names (N > 1).
  void RegisterAggregateProbes(MetricRegistry& m);
  BoundedRing<Handoff>& RingTo(uint32_t from, uint32_t to) {
    return rings_[from * shards_.size() + to];
  }
  bool PartitionCut(uint32_t from, uint32_t to) const {
    return partition_[from * shards_.size() + to];
  }
  // Pops everything queued for shard `to` on uncut paths, in producer order,
  // and delivers it.
  size_t DrainIncoming(uint32_t to);

  // The caller's loop (aggregate probes read its clock).
  EventLoop* loop_;
  std::vector<std::unique_ptr<Gateway>> shards_;
  // Directed-pair rings, row-major [from][to]; the diagonal is never used
  // (ownership is checked before a handoff is produced).
  std::vector<BoundedRing<Handoff>> rings_;
  // Directed-pair partition flags, row-major [from][to] like rings_; true =
  // the chaos harness cut this path.
  std::vector<bool> partition_;
  uint64_t partition_drops_ = 0;
  // The registry aggregate probes were registered with (N > 1 only).
  MetricRegistry* aggregate_registry_ = nullptr;
  // Handoff fabric distributions (N > 1 only): ring depth observed when a
  // drain finds work, and packets popped per drain pass.
  LatencyHistogram m_ring_occupancy_;
  LatencyHistogram m_ring_batch_;
  // Re-entrancy guard for PumpHandoffs.
  bool pumping_ = false;
};

}  // namespace potemkin

#endif  // SRC_GATEWAY_SHARDED_GATEWAY_H_
