#include "src/gateway/dns_proxy.h"

namespace potemkin {

DnsProxy::DnsProxy(Ipv4Prefix farm_prefix, uint64_t seed)
    : farm_prefix_(farm_prefix), seed_(seed) {}

Ipv4Address DnsProxy::AddressForName(const std::string& name) {
  auto it = cache_.find(name);
  if (it != cache_.end()) {
    return it->second;
  }
  uint64_t h = seed_ ^ 1469598103934665603ull;
  for (char c : name) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  }
  const Ipv4Address addr = farm_prefix_.AddressAt(h % farm_prefix_.NumAddresses());
  cache_.emplace(name, addr);
  return addr;
}

DnsResponse DnsProxy::Resolve(const DnsQuery& query) {
  DnsResponse response;
  response.id = query.id;
  response.name = query.name;
  if (query.qtype != kDnsTypeA || query.name.empty()) {
    response.rcode = 3;  // NXDOMAIN
    return response;
  }
  response.addresses.push_back(AddressForName(query.name));
  return response;
}

}  // namespace potemkin
