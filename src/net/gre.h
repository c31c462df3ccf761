// GRE tunneling (RFC 2784, with optional key per RFC 2890).
//
// The paper's deployment did not sit physically in front of a /16: border routers
// tunneled the telescope prefix's traffic to the gateway over GRE. We implement
// real GRE-in-IPv4 encapsulation so the gateway can terminate tunnels exactly the
// way the production system did: outer IPv4 header (proto 47) + GRE header +
// original IPv4 packet; the optional key field identifies the contributing
// telescope.
#ifndef SRC_NET_GRE_H_
#define SRC_NET_GRE_H_

#include <cstdint>
#include <optional>

#include "src/net/ipv4.h"
#include "src/net/packet.h"

namespace potemkin {

inline constexpr uint8_t kIpProtoGre = 47;
inline constexpr uint16_t kGreProtoIpv4 = 0x0800;

struct GreDecapResult {
  Ipv4Address outer_src;   // tunnel source (the contributing router)
  Ipv4Address outer_dst;   // tunnel destination (the gateway)
  std::optional<uint32_t> key;
  Packet inner;            // reconstructed inner frame (Ethernet + IPv4...)
};

// Encapsulates `inner` (a full Ethernet frame carrying IPv4) for transport from
// `tunnel_src` to `tunnel_dst`. The inner Ethernet header is stripped (GRE carries
// the IP packet); `key`, if set, is placed in a GRE key extension.
Packet GreEncapsulate(const Packet& inner, Ipv4Address tunnel_src,
                      Ipv4Address tunnel_dst, MacAddress src_mac, MacAddress dst_mac,
                      std::optional<uint32_t> key = std::nullopt);

// Decapsulates a GRE frame. Returns nullopt if the frame is not valid GRE-in-IPv4.
// The inner packet gets a synthetic Ethernet header using the provided MACs.
std::optional<GreDecapResult> GreDecapsulate(const Packet& outer,
                                             MacAddress inner_src_mac,
                                             MacAddress inner_dst_mac);

// True if the frame is an IPv4 packet with protocol GRE.
bool IsGrePacket(const Packet& packet);

// A tunnel endpoint: feeds decapsulated inner packets to a sink, and can wrap
// return traffic back toward the remote router.
class GreTunnel {
 public:
  GreTunnel(Ipv4Address local, Ipv4Address remote, std::optional<uint32_t> key);

  // Processes a received outer frame; returns the inner packet if it belongs to
  // this tunnel (matching outer addresses and key).
  std::optional<Packet> Receive(const Packet& outer);

  // Encapsulates an inner frame for the remote end.
  Packet Send(const Packet& inner);

 private:
  Ipv4Address local_;
  Ipv4Address remote_;
  std::optional<uint32_t> key_;
};

}  // namespace potemkin

#endif  // SRC_NET_GRE_H_
