#include "src/net/gre.h"

#include <cstring>

#include "src/net/checksum.h"

namespace potemkin {

namespace {

constexpr size_t kIpOffset = kEthernetHeaderSize;

void WriteU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v >> 8);
  p[1] = static_cast<uint8_t>(v);
}

void WriteU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

uint16_t ReadU16(const uint8_t* p) {
  return static_cast<uint16_t>((p[0] << 8) | p[1]);
}

uint32_t ReadU32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | p[3];
}

}  // namespace

bool IsGrePacket(const Packet& packet) {
  const auto& b = packet.bytes();
  if (b.size() < kIpOffset + kIpv4MinHeaderSize) {
    return false;
  }
  if (ReadU16(&b[12]) != kEthertypeIpv4 || (b[kIpOffset] >> 4) != 4) {
    return false;
  }
  return b[kIpOffset + 9] == kIpProtoGre;
}

Packet GreEncapsulate(const Packet& inner, Ipv4Address tunnel_src,
                      Ipv4Address tunnel_dst, MacAddress src_mac, MacAddress dst_mac,
                      std::optional<uint32_t> key) {
  const auto& in = inner.bytes();
  // Inner payload: the IP packet (strip the Ethernet header).
  const size_t inner_ip_size = in.size() > kIpOffset ? in.size() - kIpOffset : 0;
  const size_t gre_header = key.has_value() ? 8 : 4;
  const size_t ip_total = kIpv4MinHeaderSize + gre_header + inner_ip_size;

  PacketPool& pool = PacketPool::Default();
  std::vector<uint8_t> b = pool.Acquire(kEthernetHeaderSize + ip_total);
  std::memcpy(&b[0], dst_mac.bytes().data(), 6);
  std::memcpy(&b[6], src_mac.bytes().data(), 6);
  WriteU16(&b[12], kEthertypeIpv4);

  // Outer IPv4.
  b[kIpOffset] = 0x45;
  WriteU16(&b[kIpOffset + 2], static_cast<uint16_t>(ip_total));
  b[kIpOffset + 8] = 64;  // TTL
  b[kIpOffset + 9] = kIpProtoGre;
  WriteU32(&b[kIpOffset + 12], tunnel_src.value());
  WriteU32(&b[kIpOffset + 16], tunnel_dst.value());
  WriteU16(&b[kIpOffset + 10], 0);
  const uint16_t ip_sum = ComputeInternetChecksum(&b[kIpOffset], kIpv4MinHeaderSize);
  WriteU16(&b[kIpOffset + 10], ip_sum);

  // GRE header: flags+version (key bit if present), protocol type.
  const size_t gre = kIpOffset + kIpv4MinHeaderSize;
  WriteU16(&b[gre], key.has_value() ? 0x2000 : 0x0000);
  WriteU16(&b[gre + 2], kGreProtoIpv4);
  if (key.has_value()) {
    WriteU32(&b[gre + 4], *key);
  }

  // Inner IP packet.
  if (inner_ip_size > 0) {
    std::memcpy(&b[gre + gre_header], &in[kIpOffset], inner_ip_size);
  }
  return Packet(&pool, std::move(b));
}

std::optional<GreDecapResult> GreDecapsulate(const Packet& outer,
                                             MacAddress inner_src_mac,
                                             MacAddress inner_dst_mac) {
  if (!IsGrePacket(outer)) {
    return std::nullopt;
  }
  const auto& b = outer.bytes();
  const size_t ihl = static_cast<size_t>(b[kIpOffset] & 0x0f) * 4;
  const size_t gre = kIpOffset + ihl;
  if (gre + 4 > b.size()) {
    return std::nullopt;
  }
  const uint16_t flags = ReadU16(&b[gre]);
  if ((flags & 0x0007) != 0) {  // version must be zero
    return std::nullopt;
  }
  if (ReadU16(&b[gre + 2]) != kGreProtoIpv4) {
    return std::nullopt;
  }
  size_t header = 4;
  std::optional<uint32_t> key;
  if (flags & 0x8000) {  // checksum present
    header += 4;
  }
  if (flags & 0x2000) {  // key present
    if (gre + header + 4 > b.size()) {
      return std::nullopt;
    }
    key = ReadU32(&b[gre + header]);
    header += 4;
  }
  if (flags & 0x1000) {  // sequence present
    header += 4;
  }
  if (gre + header >= b.size()) {
    return std::nullopt;
  }

  GreDecapResult result;
  result.outer_src = Ipv4Address(ReadU32(&b[kIpOffset + 12]));
  result.outer_dst = Ipv4Address(ReadU32(&b[kIpOffset + 16]));
  result.key = key;

  const size_t inner_size = b.size() - gre - header;
  PacketPool& pool = PacketPool::Default();
  std::vector<uint8_t> inner = pool.Acquire(kEthernetHeaderSize + inner_size);
  std::memcpy(&inner[0], inner_dst_mac.bytes().data(), 6);
  std::memcpy(&inner[6], inner_src_mac.bytes().data(), 6);
  WriteU16(&inner[12], kEthertypeIpv4);
  std::memcpy(&inner[kEthernetHeaderSize], &b[gre + header], inner_size);
  result.inner = Packet(&pool, std::move(inner));
  return result;
}

GreTunnel::GreTunnel(Ipv4Address local, Ipv4Address remote, std::optional<uint32_t> key)
    : local_(local), remote_(remote), key_(key) {}

std::optional<Packet> GreTunnel::Receive(const Packet& outer) {
  auto result = GreDecapsulate(outer, MacAddress::FromId(remote_.value()),
                               MacAddress::FromId(local_.value()));
  if (!result || result->outer_src != remote_ || result->outer_dst != local_ ||
      result->key != key_) {
    return std::nullopt;
  }
  return std::move(result->inner);
}

Packet GreTunnel::Send(const Packet& inner) {
  return GreEncapsulate(inner, local_, remote_, MacAddress::FromId(local_.value()),
                        MacAddress::FromId(remote_.value()), key_);
}

}  // namespace potemkin
