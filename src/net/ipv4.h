// IPv4 addressing primitives: addresses, CIDR prefixes, MAC addresses.
//
// Addresses are held in host byte order internally; conversion to network order
// happens at packet serialization time (see src/net/packet.h).
#ifndef SRC_NET_IPV4_H_
#define SRC_NET_IPV4_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace potemkin {

class Ipv4Address {
 public:
  constexpr Ipv4Address() : value_(0) {}
  explicit constexpr Ipv4Address(uint32_t host_order) : value_(host_order) {}
  constexpr Ipv4Address(uint8_t a, uint8_t b, uint8_t c, uint8_t d)
      : value_((static_cast<uint32_t>(a) << 24) | (static_cast<uint32_t>(b) << 16) |
               (static_cast<uint32_t>(c) << 8) | d) {}

  static std::optional<Ipv4Address> Parse(std::string_view text);

  constexpr uint32_t value() const { return value_; }
  std::string ToString() const;

  constexpr bool operator==(const Ipv4Address&) const = default;

 private:
  uint32_t value_;
};

// A CIDR prefix, e.g. 10.1.0.0/16. The honeyfarm emulates all addresses in one such
// prefix (the paper used an entire /16).
class Ipv4Prefix {
 public:
  constexpr Ipv4Prefix() : base_(), length_(32) {}
  Ipv4Prefix(Ipv4Address base, int length);

  static std::optional<Ipv4Prefix> Parse(std::string_view text);

  uint64_t NumAddresses() const { return 1ull << (32 - length_); }

  bool Contains(Ipv4Address addr) const;
  // The i-th address in the prefix (0 <= i < NumAddresses()).
  Ipv4Address AddressAt(uint64_t index) const;

  std::string ToString() const;

 private:
  Ipv4Address base_;
  int length_;
};

class MacAddress {
 public:
  constexpr MacAddress() : bytes_{} {}
  explicit constexpr MacAddress(std::array<uint8_t, 6> bytes) : bytes_(bytes) {}
  // Deterministic locally administered MAC derived from an integer id.
  static MacAddress FromId(uint64_t id);

  const std::array<uint8_t, 6>& bytes() const { return bytes_; }

  auto operator<=>(const MacAddress&) const = default;

 private:
  std::array<uint8_t, 6> bytes_;
};

}  // namespace potemkin

template <>
struct std::hash<potemkin::Ipv4Address> {
  size_t operator()(const potemkin::Ipv4Address& a) const noexcept {
    // Fibonacci hash of the 32-bit value.
    return static_cast<size_t>(a.value() * 0x9e3779b97f4a7c15ull >> 32);
  }
};

#endif  // SRC_NET_IPV4_H_
