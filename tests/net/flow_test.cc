#include "src/net/flow.h"

#include <gtest/gtest.h>

namespace potemkin {
namespace {

Packet MakeTcp(Ipv4Address src, Ipv4Address dst, uint16_t sport, uint16_t dport,
               uint8_t flags) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(1);
  spec.dst_mac = MacAddress::FromId(2);
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.proto = IpProto::kTcp;
  spec.src_port = sport;
  spec.dst_port = dport;
  spec.tcp_flags = flags;
  return BuildPacket(spec);
}

PacketView View(const Packet& p) { return *PacketView::Parse(p); }

const Ipv4Address kClient(1, 2, 3, 4);
const Ipv4Address kServer(10, 1, 0, 5);

TEST(FlowTableTest, BidirectionalPacketsShareOneFlow) {
  FlowTable table(Duration::Seconds(60));
  TimePoint t;
  table.Record(View(MakeTcp(kClient, kServer, 1000, 80, TcpFlags::kSyn)), t);
  t += Duration::Millis(1);
  table.Record(
      View(MakeTcp(kServer, kClient, 80, 1000, TcpFlags::kSyn | TcpFlags::kAck)), t);
  EXPECT_EQ(table.size(), 1u);
  const FlowRecord* record =
      table.Find(FlowKey{kClient, kServer, IpProto::kTcp, 1000, 80});
  ASSERT_NE(record, nullptr);
  // The reply refreshes the flow but leaves its initiator in key.src.
  EXPECT_EQ(record->key.src, kClient);
  EXPECT_EQ(record->last_seen, t);
  EXPECT_EQ(table.Find(FlowKey{kServer, kClient, IpProto::kTcp, 80, 1000}),
            record);
}

TEST(FlowTableTest, IdleFlowsExpire) {
  FlowTable table(Duration::Seconds(10));
  TimePoint t;
  table.Record(View(MakeTcp(kClient, kServer, 1000, 80, TcpFlags::kSyn)), t);
  table.Record(View(MakeTcp(kClient, kServer, 1001, 80, TcpFlags::kSyn)),
               t + Duration::Seconds(8.0));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.ExpireIdle(t + Duration::Seconds(15.0)), 1u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Find(FlowKey{kClient, kServer, IpProto::kTcp, 1000, 80}), nullptr);
  EXPECT_NE(table.Find(FlowKey{kClient, kServer, IpProto::kTcp, 1001, 80}), nullptr);
}

TEST(FlowTableTest, ActivityRefreshesExpiry) {
  FlowTable table(Duration::Seconds(10));
  TimePoint t;
  table.Record(View(MakeTcp(kClient, kServer, 1000, 80, TcpFlags::kSyn)), t);
  table.Record(View(MakeTcp(kClient, kServer, 1000, 80, TcpFlags::kAck)),
               t + Duration::Seconds(8.0));
  EXPECT_EQ(table.ExpireIdle(t + Duration::Seconds(15.0)), 0u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTableTest, CapacityEvictsOldest) {
  FlowTable table(Duration::Seconds(60), /*max_flows=*/3);
  TimePoint t;
  for (uint16_t port = 1; port <= 4; ++port) {
    table.Record(View(MakeTcp(kClient, kServer, port, 80, TcpFlags::kSyn)), t);
    t += Duration::Millis(1);
  }
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.Find(FlowKey{kClient, kServer, IpProto::kTcp, 1, 80}), nullptr);
  EXPECT_NE(table.Find(FlowKey{kClient, kServer, IpProto::kTcp, 4, 80}), nullptr);
}

}  // namespace
}  // namespace potemkin
