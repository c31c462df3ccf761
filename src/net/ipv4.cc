#include "src/net/ipv4.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace potemkin {

std::optional<Ipv4Address> Ipv4Address::Parse(std::string_view text) {
  const auto parts = StrSplit(text, '.');
  if (parts.size() != 4) {
    return std::nullopt;
  }
  uint32_t value = 0;
  for (const auto& part : parts) {
    const auto octet = ParseUint64(part);
    if (!octet || *octet > 255) {
      return std::nullopt;
    }
    value = (value << 8) | static_cast<uint32_t>(*octet);
  }
  return Ipv4Address(value);
}

std::string Ipv4Address::ToString() const {
  return StrFormat("%u.%u.%u.%u", (value_ >> 24) & 0xff, (value_ >> 16) & 0xff,
                   (value_ >> 8) & 0xff, value_ & 0xff);
}

Ipv4Prefix::Ipv4Prefix(Ipv4Address base, int length) : length_(length) {
  PK_CHECK(length >= 0 && length <= 32) << "bad prefix length " << length;
  const uint32_t mask =
      length == 0 ? 0 : static_cast<uint32_t>(0xffffffffull << (32 - length));
  base_ = Ipv4Address(base.value() & mask);
}

std::optional<Ipv4Prefix> Ipv4Prefix::Parse(std::string_view text) {
  const size_t slash = text.find('/');
  if (slash == std::string_view::npos) {
    return std::nullopt;
  }
  const auto base = Ipv4Address::Parse(text.substr(0, slash));
  const auto length = ParseUint64(text.substr(slash + 1));
  if (!base || !length || *length > 32) {
    return std::nullopt;
  }
  return Ipv4Prefix(*base, static_cast<int>(*length));
}

bool Ipv4Prefix::Contains(Ipv4Address addr) const {
  if (length_ == 0) {
    return true;
  }
  const uint32_t mask = static_cast<uint32_t>(0xffffffffull << (32 - length_));
  return (addr.value() & mask) == base_.value();
}

Ipv4Address Ipv4Prefix::AddressAt(uint64_t index) const {
  PK_CHECK(index < NumAddresses()) << "address index out of prefix";
  return Ipv4Address(base_.value() + static_cast<uint32_t>(index));
}

std::string Ipv4Prefix::ToString() const {
  return StrFormat("%s/%d", base_.ToString().c_str(), length_);
}

MacAddress MacAddress::FromId(uint64_t id) {
  std::array<uint8_t, 6> bytes;
  bytes[0] = 0x02;  // locally administered, unicast
  bytes[1] = 0x50;  // 'P' for Potemkin
  bytes[2] = static_cast<uint8_t>(id >> 24);
  bytes[3] = static_cast<uint8_t>(id >> 16);
  bytes[4] = static_cast<uint8_t>(id >> 8);
  bytes[5] = static_cast<uint8_t>(id);
  return MacAddress(bytes);
}

}  // namespace potemkin
