#include "src/gateway/containment.h"

#include "src/net/dns.h"

namespace potemkin {

const char* OutboundModeName(OutboundMode mode) {
  switch (mode) {
    case OutboundMode::kOpen:
      return "open";
    case OutboundMode::kDropAll:
      return "drop-all";
    case OutboundMode::kReflect:
      return "reflect";
  }
  return "?";
}

ContainmentEngine::ContainmentEngine(const ContainmentConfig& config,
                                     Ipv4Prefix farm_prefix, uint64_t seed)
    : config_(config), farm_prefix_(farm_prefix), seed_(seed) {}

OutboundAction ContainmentEngine::Classify(const PacketView& view, VmId source_vm,
                                           bool infected, TimePoint now) {
  // Farm-internal destinations never leave; no containment decision applies.
  if (farm_prefix_.Contains(view.ip().dst)) {
    return OutboundAction::kInternal;
  }

  // DNS queries are served by the proxy (before rate limiting: cheap and the
  // answers keep malware on its normal code path).
  if (config_.dns_proxy && view.is_udp() && view.udp().dst_port == kDnsPort) {
    ++stats_.dns_proxied;
    return OutboundAction::kDnsProxy;
  }

  // Allow-listed ports pass regardless of mode.
  if (!config_.allowed_ports.empty() &&
      config_.allowed_ports.count(view.dst_port()) > 0) {
    ++stats_.allow_list_hits;
    ++stats_.allowed;
    if (infected) {
      ++stats_.escapes_from_infected;
    }
    return OutboundAction::kAllow;
  }

  // Per-VM rate limiting applies to anything that would otherwise leave or be
  // reflected.
  if (config_.rate_limit_pps > 0.0) {
    auto [it, inserted] = rate_limiters_.try_emplace(
        source_vm, config_.rate_limit_pps, config_.rate_limit_burst);
    if (!it->second.TryConsume(now)) {
      ++stats_.rate_limited;
      return OutboundAction::kRateLimit;
    }
  }

  switch (config_.mode) {
    case OutboundMode::kOpen:
      ++stats_.allowed;
      if (infected) {
        ++stats_.escapes_from_infected;
      }
      return OutboundAction::kAllow;
    case OutboundMode::kDropAll:
      ++stats_.dropped;
      return OutboundAction::kDrop;
    case OutboundMode::kReflect:
      ++stats_.reflected;
      return OutboundAction::kReflect;
  }
  ++stats_.dropped;
  return OutboundAction::kDrop;
}

Ipv4Address ContainmentEngine::ReflectTarget(Ipv4Address external_dst,
                                             Ipv4Address source_ip, uint64_t salt) {
  const uint64_t space = farm_prefix_.NumAddresses();
  uint64_t key;
  if (config_.keyed_reflection) {
    key = static_cast<uint64_t>(external_dst.value()) * 0x9e3779b97f4a7c15ull + seed_ +
          salt;
  } else {
    key = (seed_ + 0x2545f4914f6cdd1dull * ++random_counter_) ^
          (static_cast<uint64_t>(external_dst.value()) << 1);
  }
  key ^= key >> 29;
  key *= 0xbf58476d1ce4e5b9ull;
  key ^= key >> 32;
  uint64_t index = key % space;
  Ipv4Address target = farm_prefix_.AddressAt(index);
  if (target == source_ip) {
    index = (index + 1) % space;
    target = farm_prefix_.AddressAt(index);
  }
  return target;
}

}  // namespace potemkin
