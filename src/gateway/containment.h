// Containment policy engine.
//
// Everything leaving a honeyfarm VM crosses the gateway, which must prevent the
// farm from attacking the real Internet while preserving enough fidelity that
// captured malware keeps behaving. The paper's options, all implemented here:
//
//   * open      — forward outbound traffic (no containment; baseline only)
//   * drop-all  — silently drop outbound traffic (safe, kills fidelity)
//   * reflect   — rewrite the destination of outbound attack traffic back into
//                 unused farm addresses, so worms propagate *inside* the farm
//
// orthogonally: an internal DNS proxy answers lookups, per-VM token buckets rate-
// limit outbound packets, and an allow-list can pass selected ports.
#ifndef SRC_GATEWAY_CONTAINMENT_H_
#define SRC_GATEWAY_CONTAINMENT_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "src/base/time_types.h"
#include "src/base/token_bucket.h"
#include "src/hv/types.h"
#include "src/net/ipv4.h"
#include "src/net/packet.h"

namespace potemkin {

enum class OutboundMode {
  kOpen,
  kDropAll,
  kReflect,
};

const char* OutboundModeName(OutboundMode mode);

enum class OutboundAction {
  kAllow,      // pass to the real Internet
  kDrop,       // discard
  kReflect,    // rewrite destination into the farm
  kRateLimit,  // dropped by the per-VM rate limiter
  kDnsProxy,   // answered by the internal DNS proxy
  kInternal,   // destination is already inside the farm prefix
};

struct ContainmentConfig {
  OutboundMode mode = OutboundMode::kReflect;
  bool dns_proxy = true;
  // 0 disables rate limiting; otherwise per-VM outbound packets per second.
  double rate_limit_pps = 0.0;
  double rate_limit_burst = 32.0;
  // Destinations ports allowed to pass regardless of mode (paper: a narrow
  // allow-list, e.g. for controlled malware updates). Empty by default.
  std::unordered_set<uint16_t> allowed_ports;
  // Keyed reflection maps an external address to a stable internal victim, so a
  // worm revisiting the same target reaches the same VM (fidelity). The ablation
  // uses random reflection instead.
  bool keyed_reflection = true;
};

struct ContainmentStats {
  uint64_t allowed = 0;
  uint64_t dropped = 0;
  uint64_t reflected = 0;
  uint64_t rate_limited = 0;
  uint64_t dns_proxied = 0;
  uint64_t allow_list_hits = 0;
  // Packets from *infected* VMs that reached the real Internet — the containment
  // failure metric; must be zero in drop/reflect modes.
  uint64_t escapes_from_infected = 0;
};

class ContainmentEngine {
 public:
  ContainmentEngine(const ContainmentConfig& config, Ipv4Prefix farm_prefix,
                    uint64_t seed);

  // Classifies an outbound packet from `source_vm` (infected status supplied by
  // the caller). Does not mutate the packet.
  OutboundAction Classify(const PacketView& view, VmId source_vm, bool infected,
                          TimePoint now);

  // Picks the internal victim address for reflecting a packet to `external_dst`.
  // Never returns `source_ip` (a worm must not be reflected onto itself).
  Ipv4Address ReflectTarget(Ipv4Address external_dst, Ipv4Address source_ip,
                            uint64_t salt = 0);

  // Drops `vm`'s rate-limit bucket. The gateway calls this when it retires the
  // VM; ids are never reused, so a later VM never inherits the bucket.
  void ForgetVm(VmId vm) { rate_limiters_.erase(vm); }
  // Test oracle, reached by no program: VMs holding a rate-limit bucket (one
  // per VM that sent while limited).
  size_t rate_limiter_count() const { return rate_limiters_.size(); }

  const ContainmentStats& stats() const { return stats_; }

 private:
  ContainmentConfig config_;
  Ipv4Prefix farm_prefix_;
  uint64_t seed_;
  uint64_t random_counter_ = 0;
  std::unordered_map<VmId, TokenBucket> rate_limiters_;
  ContainmentStats stats_;
};

}  // namespace potemkin

#endif  // SRC_GATEWAY_CONTAINMENT_H_
