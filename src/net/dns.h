// Minimal DNS message support (A-record queries and responses), enough for the
// gateway's internal DNS proxy: malware inside the farm frequently resolves names
// before spreading or phoning home, and the paper's gateway answers such lookups
// internally instead of letting them reach real resolvers.
#ifndef SRC_NET_DNS_H_
#define SRC_NET_DNS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/net/ipv4.h"

namespace potemkin {

inline constexpr uint16_t kDnsPort = 53;
inline constexpr uint16_t kDnsTypeA = 1;
inline constexpr uint16_t kDnsClassIn = 1;

struct DnsQuery {
  uint16_t id = 0;
  std::string name;  // dotted form, e.g. "update.example.com"
  uint16_t qtype = kDnsTypeA;
};

struct DnsResponse {
  uint16_t id = 0;
  std::string name;
  std::vector<Ipv4Address> addresses;
  uint8_t rcode = 0;  // 0 = NOERROR, 3 = NXDOMAIN
};

// Serializes a query to UDP payload bytes.
std::vector<uint8_t> EncodeDnsQuery(const DnsQuery& query);

// Parses a query from UDP payload bytes; nullopt on malformed input.
std::optional<DnsQuery> ParseDnsQuery(const uint8_t* data, size_t length);

// Serializes a response (echoes the question, then A records).
std::vector<uint8_t> EncodeDnsResponse(const DnsResponse& response);

// Test oracle, reached by no program: reads back what EncodeDnsResponse wrote.
std::optional<DnsResponse> ParseDnsResponse(const uint8_t* data, size_t length);

}  // namespace potemkin

#endif  // SRC_NET_DNS_H_
