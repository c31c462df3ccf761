#include "src/net/packet.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/base/strings.h"
#include "src/net/checksum.h"
#include "src/net/packet_pool.h"

namespace potemkin {

namespace {

uint16_t ReadU16(const uint8_t* p) {
  return static_cast<uint16_t>((p[0] << 8) | p[1]);
}

uint32_t ReadU32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | p[3];
}

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

// Offsets within the frame.
constexpr size_t kIpOffset = kEthernetHeaderSize;

size_t IpHeaderLength(const std::vector<uint8_t>& bytes) {
  return static_cast<size_t>(bytes[kIpOffset] & 0x0f) * 4;
}

size_t L4Offset(const std::vector<uint8_t>& bytes) {
  return kIpOffset + IpHeaderLength(bytes);
}

// Recomputes the IPv4 header checksum in place.
void FixIpChecksum(std::vector<uint8_t>& bytes) {
  const size_t ihl = IpHeaderLength(bytes);
  WriteU16(&bytes[kIpOffset + 10], 0);
  const uint16_t sum = ComputeInternetChecksum(&bytes[kIpOffset], ihl);
  WriteU16(&bytes[kIpOffset + 10], sum);
}

// Recomputes the TCP/UDP/ICMP checksum in place (pseudo-header for TCP/UDP).
void FixL4Checksum(std::vector<uint8_t>& bytes) {
  const size_t l4 = L4Offset(bytes);
  if (l4 >= bytes.size()) {
    return;
  }
  const auto proto = static_cast<IpProto>(bytes[kIpOffset + 9]);
  const size_t l4_len = bytes.size() - l4;
  size_t checksum_offset;
  switch (proto) {
    case IpProto::kTcp:
      checksum_offset = l4 + 16;
      break;
    case IpProto::kUdp:
      checksum_offset = l4 + 6;
      break;
    case IpProto::kIcmp:
      checksum_offset = l4 + 2;
      break;
    default:
      return;
  }
  if (checksum_offset + 2 > bytes.size()) {
    return;
  }
  WriteU16(&bytes[checksum_offset], 0);
  InternetChecksum sum;
  if (proto == IpProto::kTcp || proto == IpProto::kUdp) {
    // Pseudo-header: src, dst, zero+proto, length.
    sum.Add(&bytes[kIpOffset + 12], 8);
    sum.AddU16(static_cast<uint16_t>(proto));
    sum.AddU16(static_cast<uint16_t>(l4_len));
  }
  sum.Add(&bytes[l4], l4_len);
  WriteU16(&bytes[checksum_offset], sum.Finish());
}

}  // namespace

const char* IpProtoName(IpProto proto) {
  switch (proto) {
    case IpProto::kIcmp:
      return "ICMP";
    case IpProto::kTcp:
      return "TCP";
    case IpProto::kUdp:
      return "UDP";
  }
  return "IP";
}

std::optional<PacketView> PacketView::Parse(const Packet& packet) {
  const auto& b = packet.bytes();
  if (b.size() < kEthernetHeaderSize + kIpv4MinHeaderSize) {
    return std::nullopt;
  }
  PacketView view;
  view.data_ = b.data();
  view.size_ = b.size();
  std::array<uint8_t, 6> mac;
  std::memcpy(mac.data(), &b[0], 6);
  view.eth_.dst = MacAddress(mac);
  std::memcpy(mac.data(), &b[6], 6);
  view.eth_.src = MacAddress(mac);
  view.eth_.ethertype = ReadU16(&b[12]);
  if (view.eth_.ethertype != kEthertypeIpv4) {
    return std::nullopt;
  }
  const uint8_t version = b[kIpOffset] >> 4;
  if (version != 4) {
    return std::nullopt;
  }
  const size_t ihl = IpHeaderLength(b);
  if (ihl < kIpv4MinHeaderSize || kIpOffset + ihl > b.size()) {
    return std::nullopt;
  }
  view.ip_.header_length = static_cast<uint8_t>(ihl);
  view.ip_.tos = b[kIpOffset + 1];
  view.ip_.total_length = ReadU16(&b[kIpOffset + 2]);
  view.ip_.id = ReadU16(&b[kIpOffset + 4]);
  view.ip_.ttl = b[kIpOffset + 8];
  view.ip_.proto = static_cast<IpProto>(b[kIpOffset + 9]);
  view.ip_.checksum = ReadU16(&b[kIpOffset + 10]);
  view.ip_.src = Ipv4Address(ReadU32(&b[kIpOffset + 12]));
  view.ip_.dst = Ipv4Address(ReadU32(&b[kIpOffset + 16]));

  const size_t l4 = kIpOffset + ihl;
  const size_t remaining = b.size() - l4;
  switch (view.ip_.proto) {
    case IpProto::kTcp: {
      if (remaining < kTcpMinHeaderSize) {
        return view;
      }
      view.tcp_.src_port = ReadU16(&b[l4]);
      view.tcp_.dst_port = ReadU16(&b[l4 + 2]);
      view.tcp_.seq = ReadU32(&b[l4 + 4]);
      view.tcp_.ack = ReadU32(&b[l4 + 8]);
      view.tcp_.header_length = static_cast<uint8_t>((b[l4 + 12] >> 4) * 4);
      view.tcp_.flags = b[l4 + 13];
      view.tcp_.window = ReadU16(&b[l4 + 14]);
      view.tcp_.checksum = ReadU16(&b[l4 + 16]);
      if (view.tcp_.header_length < kTcpMinHeaderSize ||
          l4 + view.tcp_.header_length > b.size()) {
        return view;
      }
      view.has_l4_ = true;
      view.payload_ = std::span<const uint8_t>(b).subspan(l4 + view.tcp_.header_length);
      break;
    }
    case IpProto::kUdp: {
      if (remaining < kUdpHeaderSize) {
        return view;
      }
      view.udp_.src_port = ReadU16(&b[l4]);
      view.udp_.dst_port = ReadU16(&b[l4 + 2]);
      view.udp_.length = ReadU16(&b[l4 + 4]);
      view.udp_.checksum = ReadU16(&b[l4 + 6]);
      view.has_l4_ = true;
      view.payload_ = std::span<const uint8_t>(b).subspan(l4 + kUdpHeaderSize);
      break;
    }
    case IpProto::kIcmp: {
      if (remaining < kIcmpHeaderSize) {
        return view;
      }
      view.icmp_.type = b[l4];
      view.icmp_.code = b[l4 + 1];
      view.icmp_.checksum = ReadU16(&b[l4 + 2]);
      view.icmp_.id = ReadU16(&b[l4 + 4]);
      view.icmp_.seq = ReadU16(&b[l4 + 6]);
      view.has_l4_ = true;
      view.payload_ = std::span<const uint8_t>(b).subspan(l4 + kIcmpHeaderSize);
      break;
    }
    default:
      break;
  }
  return view;
}

uint16_t PacketView::src_port() const {
  if (is_tcp()) {
    return tcp_.src_port;
  }
  if (is_udp()) {
    return udp_.src_port;
  }
  return 0;
}

uint16_t PacketView::dst_port() const {
  if (is_tcp()) {
    return tcp_.dst_port;
  }
  if (is_udp()) {
    return udp_.dst_port;
  }
  return 0;
}

std::string PacketView::Describe() const {
  std::string flags;
  if (is_tcp()) {
    if (tcp_.flags & TcpFlags::kSyn) {
      flags += 'S';
    }
    if (tcp_.flags & TcpFlags::kAck) {
      flags += 'A';
    }
    if (tcp_.flags & TcpFlags::kFin) {
      flags += 'F';
    }
    if (tcp_.flags & TcpFlags::kRst) {
      flags += 'R';
    }
    if (tcp_.flags & TcpFlags::kPsh) {
      flags += 'P';
    }
  }
  return StrFormat("%s %s:%u > %s:%u%s%s%s len=%zu", IpProtoName(ip_.proto),
                   ip_.src.ToString().c_str(), src_port(), ip_.dst.ToString().c_str(),
                   dst_port(), flags.empty() ? "" : " [", flags.c_str(),
                   flags.empty() ? "" : "]", payload_.size());
}

std::optional<Ipv4Address> PeekIpv4Dst(const Packet& packet) {
  const auto& b = packet.bytes();
  if (b.size() < kEthernetHeaderSize + kIpv4MinHeaderSize ||
      ReadU16(&b[12]) != kEthertypeIpv4) {
    return std::nullopt;
  }
  return Ipv4Address(ReadU32(&b[kIpOffset + 16]));
}

std::optional<Ipv4Address> PeekIpv4Src(const Packet& packet) {
  const auto& b = packet.bytes();
  if (b.size() < kEthernetHeaderSize + kIpv4MinHeaderSize ||
      ReadU16(&b[12]) != kEthertypeIpv4) {
    return std::nullopt;
  }
  return Ipv4Address(ReadU32(&b[kIpOffset + 12]));
}

Packet BuildPacket(const PacketSpec& spec) {
  size_t l4_header;
  switch (spec.proto) {
    case IpProto::kTcp:
      l4_header = kTcpMinHeaderSize;
      break;
    case IpProto::kUdp:
      l4_header = kUdpHeaderSize;
      break;
    case IpProto::kIcmp:
      l4_header = kIcmpHeaderSize;
      break;
    default:
      l4_header = 0;
      break;
  }
  const size_t ip_total = kIpv4MinHeaderSize + l4_header + spec.payload.size();
  PacketPool& pool = PacketPool::Default();
  std::vector<uint8_t> b = pool.Acquire(kEthernetHeaderSize + ip_total);

  // Ethernet.
  std::memcpy(&b[0], spec.dst_mac.bytes().data(), 6);
  std::memcpy(&b[6], spec.src_mac.bytes().data(), 6);
  WriteU16(&b[12], kEthertypeIpv4);

  // IPv4.
  b[kIpOffset] = 0x45;  // version 4, IHL 5
  WriteU16(&b[kIpOffset + 2], static_cast<uint16_t>(ip_total));
  WriteU16(&b[kIpOffset + 4], spec.ip_id);
  b[kIpOffset + 8] = spec.ttl;
  b[kIpOffset + 9] = static_cast<uint8_t>(spec.proto);
  WriteU32(&b[kIpOffset + 12], spec.src_ip.value());
  WriteU32(&b[kIpOffset + 16], spec.dst_ip.value());

  // L4.
  const size_t l4 = kIpOffset + kIpv4MinHeaderSize;
  switch (spec.proto) {
    case IpProto::kTcp:
      WriteU16(&b[l4], spec.src_port);
      WriteU16(&b[l4 + 2], spec.dst_port);
      WriteU32(&b[l4 + 4], spec.seq);
      WriteU32(&b[l4 + 8], spec.ack);
      b[l4 + 12] = (kTcpMinHeaderSize / 4) << 4;
      b[l4 + 13] = spec.tcp_flags;
      WriteU16(&b[l4 + 14], spec.window);
      break;
    case IpProto::kUdp:
      WriteU16(&b[l4], spec.src_port);
      WriteU16(&b[l4 + 2], spec.dst_port);
      WriteU16(&b[l4 + 4], static_cast<uint16_t>(kUdpHeaderSize + spec.payload.size()));
      break;
    case IpProto::kIcmp:
      b[l4] = spec.icmp_type;
      b[l4 + 1] = spec.icmp_code;
      WriteU16(&b[l4 + 4], spec.icmp_id);
      WriteU16(&b[l4 + 6], spec.icmp_seq);
      break;
    default:
      break;
  }
  if (!spec.payload.empty()) {
    std::memcpy(&b[l4 + l4_header], spec.payload.data(), spec.payload.size());
  }

  FixIpChecksum(b);
  FixL4Checksum(b);
  return Packet(&pool, std::move(b));
}

namespace {

struct AddressRewrite {
  bool applied = false;
  uint16_t ip_sum = 0;       // new IP header checksum
  uint16_t l4_sum = 0;       // new transport checksum (if l4_updated)
  bool l4_updated = false;
  IpProto proto = IpProto::kTcp;
};

// Applies the RFC 1624 delta for a rewritten IPv4 address at header offset
// `addr_offset` (12 = src, 16 = dst) to the IP checksum and, for TCP/UDP, to
// the transport checksum (whose pseudo-header covers the addresses). ICMP
// checksums exclude the IP header, so they need no touch-up — exactly like the
// seed's full recompute, which reproduced the same value from the unchanged
// ICMP bytes. Returns the new sums so the (friended) callers can keep a
// PacketView in sync.
AddressRewrite RewriteIpv4Address(Packet& packet, size_t addr_offset,
                                  Ipv4Address new_addr) {
  AddressRewrite result;
  auto& b = packet.mutable_bytes();
  if (b.size() < kIpOffset + kIpv4MinHeaderSize) {
    return result;
  }
  const uint32_t old_value = ReadU32(&b[kIpOffset + addr_offset]);
  const uint32_t new_value = new_addr.value();
  result.ip_sum =
      ChecksumUpdate32(ReadU16(&b[kIpOffset + 10]), old_value, new_value);
  WriteU16(&b[kIpOffset + 10], result.ip_sum);
  WriteU32(&b[kIpOffset + addr_offset], new_value);
  result.applied = true;

  result.proto = static_cast<IpProto>(b[kIpOffset + 9]);
  size_t checksum_offset = 0;
  if (result.proto == IpProto::kTcp) {
    checksum_offset = L4Offset(b) + 16;
  } else if (result.proto == IpProto::kUdp) {
    checksum_offset = L4Offset(b) + 6;
  }
  if (checksum_offset != 0 && checksum_offset + 2 <= b.size()) {
    result.l4_sum =
        ChecksumUpdate32(ReadU16(&b[checksum_offset]), old_value, new_value);
    WriteU16(&b[checksum_offset], result.l4_sum);
    result.l4_updated = true;
  }
  return result;
}

}  // namespace

void RewriteIpv4Src(Packet& packet, Ipv4Address new_src, PacketView* view) {
  assert(view == nullptr || view->ValidFor(packet));
  const AddressRewrite r = RewriteIpv4Address(packet, 12, new_src);
  if (view != nullptr && r.applied) {
    view->ip_.src = new_src;
    view->ip_.checksum = r.ip_sum;
    if (r.l4_updated) {
      if (r.proto == IpProto::kTcp) {
        view->tcp_.checksum = r.l4_sum;
      } else {
        view->udp_.checksum = r.l4_sum;
      }
    }
  }
}

void RewriteIpv4Dst(Packet& packet, Ipv4Address new_dst, PacketView* view) {
  assert(view == nullptr || view->ValidFor(packet));
  const AddressRewrite r = RewriteIpv4Address(packet, 16, new_dst);
  if (view != nullptr && r.applied) {
    view->ip_.dst = new_dst;
    view->ip_.checksum = r.ip_sum;
    if (r.l4_updated) {
      if (r.proto == IpProto::kTcp) {
        view->tcp_.checksum = r.l4_sum;
      } else {
        view->udp_.checksum = r.l4_sum;
      }
    }
  }
}

bool DecrementTtl(Packet& packet, PacketView* view) {
  auto& b = packet.mutable_bytes();
  if (b.size() < kIpOffset + kIpv4MinHeaderSize) {
    return false;
  }
  assert(view == nullptr || view->ValidFor(packet));
  const uint8_t old_ttl = b[kIpOffset + 8];
  const uint8_t new_ttl = old_ttl <= 1 ? 0 : old_ttl - 1;
  // TTL shares its checksummed 16-bit word with the protocol byte.
  const uint8_t proto = b[kIpOffset + 9];
  const uint16_t sum = ChecksumUpdate16(
      ReadU16(&b[kIpOffset + 10]),
      static_cast<uint16_t>((old_ttl << 8) | proto),
      static_cast<uint16_t>((new_ttl << 8) | proto));
  b[kIpOffset + 8] = new_ttl;
  WriteU16(&b[kIpOffset + 10], sum);
  if (view != nullptr) {
    view->ip_.ttl = new_ttl;
    view->ip_.checksum = sum;
  }
  return new_ttl != 0;
}

bool IsIcmpError(const PacketView& view) {
  return view.is_icmp() && (view.icmp().type == kIcmpDestUnreachable ||
                            view.icmp().type == kIcmpTimeExceeded);
}

std::optional<std::pair<Ipv4Address, Ipv4Address>> IcmpEmbeddedAddresses(
    const PacketView& view) {
  if (!IsIcmpError(view)) {
    return std::nullopt;
  }
  const auto payload = view.l4_payload();
  if (payload.size() < kIpv4MinHeaderSize) {
    return std::nullopt;
  }
  if ((payload[0] >> 4) != 4) {
    return std::nullopt;
  }
  return std::make_pair(Ipv4Address(ReadU32(&payload[12])),
                        Ipv4Address(ReadU32(&payload[16])));
}

std::vector<uint8_t> IcmpQuoteOf(const Packet& offending) {
  const auto& b = offending.bytes();
  if (b.size() <= kIpOffset) {
    return {};
  }
  const size_t ip_size = b.size() - kIpOffset;
  const size_t ihl = IpHeaderLength(b);
  const size_t quote = std::min(ip_size, ihl + 8);  // header + first 8 bytes
  return std::vector<uint8_t>(b.begin() + static_cast<long>(kIpOffset),
                              b.begin() + static_cast<long>(kIpOffset + quote));
}

bool ValidateChecksums(const Packet& packet) {
  const auto& b = packet.bytes();
  if (b.size() < kIpOffset + kIpv4MinHeaderSize) {
    return false;
  }
  const size_t ihl = IpHeaderLength(b);
  if (ihl < kIpv4MinHeaderSize || kIpOffset + ihl > b.size()) {
    return false;
  }
  if (ComputeInternetChecksum(&b[kIpOffset], ihl) != 0) {
    return false;
  }
  const auto proto = static_cast<IpProto>(b[kIpOffset + 9]);
  const size_t l4 = kIpOffset + ihl;
  const size_t l4_len = b.size() - l4;
  if (proto == IpProto::kTcp || proto == IpProto::kUdp) {
    InternetChecksum sum;
    sum.Add(&b[kIpOffset + 12], 8);
    sum.AddU16(static_cast<uint16_t>(proto));
    sum.AddU16(static_cast<uint16_t>(l4_len));
    sum.Add(&b[l4], l4_len);
    return sum.Finish() == 0;
  }
  if (proto == IpProto::kIcmp) {
    return ComputeInternetChecksum(&b[l4], l4_len) == 0;
  }
  return true;
}

}  // namespace potemkin
