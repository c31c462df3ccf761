#include "src/net/gre.h"

#include <gtest/gtest.h>

namespace potemkin {
namespace {

Packet InnerPacket() {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(10);
  spec.dst_mac = MacAddress::FromId(11);
  spec.src_ip = Ipv4Address(198, 51, 100, 5);
  spec.dst_ip = Ipv4Address(10, 1, 0, 77);
  spec.proto = IpProto::kTcp;
  spec.src_port = 4444;
  spec.dst_port = 445;
  spec.tcp_flags = TcpFlags::kSyn;
  spec.payload = {1, 2, 3};
  return BuildPacket(spec);
}

const Ipv4Address kRouter(192, 0, 2, 1);
const Ipv4Address kGateway(192, 0, 2, 2);

TEST(GreTest, EncapsulateProducesGrePacket) {
  const Packet outer = GreEncapsulate(InnerPacket(), kRouter, kGateway,
                                      MacAddress::FromId(1), MacAddress::FromId(2));
  EXPECT_TRUE(IsGrePacket(outer));
  EXPECT_FALSE(IsGrePacket(InnerPacket()));
}

TEST(GreTest, DecapsulationRecoversInnerPacket) {
  const Packet inner = InnerPacket();
  const Packet outer = GreEncapsulate(inner, kRouter, kGateway,
                                      MacAddress::FromId(1), MacAddress::FromId(2));
  const auto result =
      GreDecapsulate(outer, MacAddress::FromId(3), MacAddress::FromId(4));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outer_src, kRouter);
  EXPECT_EQ(result->outer_dst, kGateway);
  EXPECT_FALSE(result->key.has_value());

  const auto view = PacketView::Parse(result->inner);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->ip().src, Ipv4Address(198, 51, 100, 5));
  EXPECT_EQ(view->ip().dst, Ipv4Address(10, 1, 0, 77));
  EXPECT_EQ(view->tcp().dst_port, 445);
  ASSERT_EQ(view->l4_payload().size(), 3u);
  EXPECT_TRUE(ValidateChecksums(result->inner));
}

TEST(GreTest, KeyRoundTrips) {
  const Packet outer =
      GreEncapsulate(InnerPacket(), kRouter, kGateway, MacAddress::FromId(1),
                     MacAddress::FromId(2), 0xdeadbeef);
  const auto result =
      GreDecapsulate(outer, MacAddress::FromId(3), MacAddress::FromId(4));
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->key.has_value());
  EXPECT_EQ(*result->key, 0xdeadbeefu);
}

TEST(GreTest, OuterIpHeaderChecksumValid) {
  const Packet outer = GreEncapsulate(InnerPacket(), kRouter, kGateway,
                                      MacAddress::FromId(1), MacAddress::FromId(2));
  // Outer packet: IP proto GRE — ValidateChecksums checks the IP header for
  // non-TCP/UDP/ICMP protocols.
  EXPECT_TRUE(ValidateChecksums(outer));
}

TEST(GreTest, DecapsulateRejectsNonGre) {
  EXPECT_FALSE(GreDecapsulate(InnerPacket(), MacAddress::FromId(3),
                              MacAddress::FromId(4))
                   .has_value());
}

TEST(GreTest, DecapsulateRejectsTruncated) {
  Packet outer = GreEncapsulate(InnerPacket(), kRouter, kGateway,
                                MacAddress::FromId(1), MacAddress::FromId(2));
  outer.mutable_bytes().resize(kEthernetHeaderSize + kIpv4MinHeaderSize + 2);
  EXPECT_FALSE(GreDecapsulate(outer, MacAddress::FromId(3), MacAddress::FromId(4))
                   .has_value());
}

TEST(GreTunnelTest, AcceptsMatchingTunnelTraffic) {
  GreTunnel router_end(kRouter, kGateway, 7);
  GreTunnel gateway_end(kGateway, kRouter, 7);
  const Packet wire = router_end.Send(InnerPacket());
  const auto inner = gateway_end.Receive(wire);
  ASSERT_TRUE(inner.has_value());
  const auto view = PacketView::Parse(*inner);
  EXPECT_EQ(view->ip().dst, Ipv4Address(10, 1, 0, 77));
}

TEST(GreTunnelTest, RejectsWrongKey) {
  GreTunnel sender(kRouter, kGateway, 7);
  GreTunnel receiver(kGateway, kRouter, 8);  // different key
  const auto inner = receiver.Receive(sender.Send(InnerPacket()));
  EXPECT_FALSE(inner.has_value());
}

TEST(GreTunnelTest, RejectsWrongPeer) {
  GreTunnel sender(Ipv4Address(192, 0, 2, 99), kGateway, std::nullopt);
  GreTunnel receiver(kGateway, kRouter, std::nullopt);  // expects kRouter
  EXPECT_FALSE(receiver.Receive(sender.Send(InnerPacket())).has_value());
}

TEST(GreTunnelTest, BidirectionalRoundTrip) {
  GreTunnel a(kRouter, kGateway, std::nullopt);
  GreTunnel b(kGateway, kRouter, std::nullopt);
  const auto at_b = b.Receive(a.Send(InnerPacket()));
  ASSERT_TRUE(at_b.has_value());
  const auto back_at_a = a.Receive(b.Send(*at_b));
  ASSERT_TRUE(back_at_a.has_value());
  const auto view = PacketView::Parse(*back_at_a);
  EXPECT_EQ(view->tcp().dst_port, 445);
}

}  // namespace
}  // namespace potemkin
