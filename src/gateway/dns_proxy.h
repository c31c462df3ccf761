// Internal DNS proxy.
//
// Malware routinely resolves names (update servers, C&C hosts, mail exchangers)
// before making connections. Letting those lookups out leaks information and gives
// the malware a real-world dependency; dropping them stalls it. The paper's
// gateway answers lookups itself with addresses it controls — here, deterministic
// addresses inside the farm prefix, so follow-up connections are then reflected to
// honeypot VMs and the malware proceeds normally.
#ifndef SRC_GATEWAY_DNS_PROXY_H_
#define SRC_GATEWAY_DNS_PROXY_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/net/dns.h"
#include "src/net/ipv4.h"

namespace potemkin {

class DnsProxy {
 public:
  DnsProxy(Ipv4Prefix farm_prefix, uint64_t seed);

  // Produces the authoritative-looking answer for a query. A-record queries get a
  // stable farm-internal address per name; other types get NXDOMAIN.
  DnsResponse Resolve(const DnsQuery& query);

 private:
  Ipv4Address AddressForName(const std::string& name);

  Ipv4Prefix farm_prefix_;
  uint64_t seed_;
  std::unordered_map<std::string, Ipv4Address> cache_;
};

}  // namespace potemkin

#endif  // SRC_GATEWAY_DNS_PROXY_H_
