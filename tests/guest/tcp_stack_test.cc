#include "src/guest/tcp_stack.h"

#include <gtest/gtest.h>

#include "src/guest/guest_os.h"
#include "src/guest/service.h"
#include "src/hv/physical_host.h"

namespace potemkin {
namespace {

const Ipv4Address kPeer(198, 51, 100, 2);
const Ipv4Address kLocal(10, 1, 0, 4);

PacketView Seg(Packet& storage, uint8_t flags, uint16_t sport = 40000,
               uint16_t dport = 445, uint32_t seq = 1000, uint32_t ack = 0,
               std::vector<uint8_t> payload = {}) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(2);
  spec.dst_mac = MacAddress::FromId(4);
  spec.src_ip = kPeer;
  spec.dst_ip = kLocal;
  spec.proto = IpProto::kTcp;
  spec.src_port = sport;
  spec.dst_port = dport;
  spec.tcp_flags = flags;
  spec.seq = seq;
  spec.ack = ack;
  spec.payload = std::move(payload);
  storage = BuildPacket(spec);
  return *PacketView::Parse(storage);
}

TEST(GuestTcpStackTest, AcceptsSynWithCorrectNumbers) {
  GuestTcpStack stack(Rng(1));
  Packet p;
  const auto decision = stack.OnSegment(Seg(p, TcpFlags::kSyn), true, TimePoint());
  EXPECT_EQ(decision.action, SegmentAction::kReplySynAck);
  EXPECT_EQ(decision.reply_ack, 1001u);  // ISN + 1
  EXPECT_EQ(stack.connection_count(), 1u);
  EXPECT_EQ(stack.stats().connections_accepted, 1u);
}

TEST(GuestTcpStackTest, SynToClosedPortRst) {
  GuestTcpStack stack(Rng(1));
  Packet p;
  const auto decision = stack.OnSegment(Seg(p, TcpFlags::kSyn), false, TimePoint());
  EXPECT_EQ(decision.action, SegmentAction::kReplyRst);
  EXPECT_EQ(stack.connection_count(), 0u);
}

TEST(GuestTcpStackTest, FullHandshakeThenPayloadDelivered) {
  GuestTcpStack stack(Rng(1));
  Packet p;
  const auto synack = stack.OnSegment(Seg(p, TcpFlags::kSyn), true, TimePoint());
  // Final ACK of the handshake.
  auto ack = stack.OnSegment(
      Seg(p, TcpFlags::kAck, 40000, 445, 1001, synack.reply_seq + 1), true,
      TimePoint());
  // accept() fires on the bare handshake ACK (persona greeting hook).
  EXPECT_EQ(ack.action, SegmentAction::kEstablished);
  EXPECT_EQ(stack.stats().connections_established, 1u);
  // Data on the established connection.
  const auto data = stack.OnSegment(
      Seg(p, TcpFlags::kPsh | TcpFlags::kAck, 40000, 445, 1001,
          synack.reply_seq + 1, {'r', 'e', 'q'}),
      true, TimePoint());
  EXPECT_EQ(data.action, SegmentAction::kDeliverPayload);
  EXPECT_EQ(data.reply_ack, 1004u);  // 1001 + 3 payload bytes
  EXPECT_EQ(stack.stats().payload_segments_delivered, 1u);
}

TEST(GuestTcpStackTest, PayloadWithoutHandshakeDrawsRst) {
  GuestTcpStack stack(Rng(1));
  Packet p;
  const auto decision = stack.OnSegment(
      Seg(p, TcpFlags::kPsh | TcpFlags::kAck, 40000, 445, 1000, 0, {'x'}), true,
      TimePoint());
  EXPECT_EQ(decision.action, SegmentAction::kReplyRst);
  EXPECT_EQ(stack.stats().out_of_state_segments, 1u);
}

TEST(GuestTcpStackTest, DataOnHandshakeAckDeliversImmediately) {
  GuestTcpStack stack(Rng(1));
  Packet p;
  const auto synack = stack.OnSegment(Seg(p, TcpFlags::kSyn), true, TimePoint());
  const auto data = stack.OnSegment(
      Seg(p, TcpFlags::kAck | TcpFlags::kPsh, 40000, 445, 1001,
          synack.reply_seq + 1, {'a', 'b'}),
      true, TimePoint());
  EXPECT_EQ(data.action, SegmentAction::kDeliverPayload);
  EXPECT_EQ(stack.stats().connections_established, 1u);
}

TEST(GuestTcpStackTest, FinClosesAndIsAcked) {
  GuestTcpStack stack(Rng(1));
  Packet p;
  const auto synack = stack.OnSegment(Seg(p, TcpFlags::kSyn), true, TimePoint());
  stack.OnSegment(Seg(p, TcpFlags::kAck, 40000, 445, 1001, synack.reply_seq + 1),
                  true, TimePoint());
  const auto fin = stack.OnSegment(
      Seg(p, TcpFlags::kFin | TcpFlags::kAck, 40000, 445, 1001,
          synack.reply_seq + 1),
      true, TimePoint());
  EXPECT_EQ(fin.action, SegmentAction::kReplyFinAck);
  EXPECT_EQ(fin.reply_ack, 1002u);
  EXPECT_EQ(stack.connection_count(), 0u);
  EXPECT_EQ(stack.stats().connections_closed, 1u);
}

TEST(GuestTcpStackTest, PayloadRidingFinIsDeliveredAndFullyAcked) {
  GuestTcpStack stack(Rng(1));
  Packet p;
  const auto synack = stack.OnSegment(Seg(p, TcpFlags::kSyn), true, TimePoint());
  stack.OnSegment(Seg(p, TcpFlags::kAck, 40000, 445, 1001, synack.reply_seq + 1),
                  true, TimePoint());
  // Final request and FIN in one segment: the payload must reach the service
  // and the ack must cover payload bytes AND the FIN octet.
  const auto fin = stack.OnSegment(
      Seg(p, TcpFlags::kFin | TcpFlags::kPsh | TcpFlags::kAck, 40000, 445, 1001,
          synack.reply_seq + 1, {'l', 'a', 's', 't'}),
      true, TimePoint());
  EXPECT_EQ(fin.action, SegmentAction::kDeliverPayloadAndClose);
  EXPECT_EQ(fin.reply_ack, 1001u + 4u + 1u);  // seq + payload + FIN octet
  EXPECT_EQ(stack.stats().payload_segments_delivered, 1u);
  EXPECT_EQ(stack.stats().connections_closed, 1u);
  EXPECT_EQ(stack.connection_count(), 0u);
}

// RFC 793: a reset answering a no-ACK segment uses seq=0, ACK set, and an ack
// covering every sequence octet of the offender (SYN and FIN count one each).
TEST(GuestTcpStackTest, RstFormForNoAckSegments) {
  GuestTcpStack stack(Rng(1));
  Packet p;
  // SYN carrying data to a closed port: ack = seq + payload + SYN octet.
  const auto syn_rst = stack.OnSegment(
      Seg(p, TcpFlags::kSyn, 40000, 445, 1000, 0, {'x', 'y'}), false,
      TimePoint());
  EXPECT_EQ(syn_rst.action, SegmentAction::kReplyRst);
  EXPECT_TRUE(syn_rst.rst_has_ack);
  EXPECT_EQ(syn_rst.reply_seq, 0u);
  EXPECT_EQ(syn_rst.reply_ack, 1000u + 2u + 1u);
  // Out-of-state FIN without ACK: same form, FIN counts one octet.
  const auto fin_rst = stack.OnSegment(
      Seg(p, TcpFlags::kFin, 40001, 445, 2000, 0), true, TimePoint());
  EXPECT_EQ(fin_rst.action, SegmentAction::kReplyRst);
  EXPECT_TRUE(fin_rst.rst_has_ack);
  EXPECT_EQ(fin_rst.reply_seq, 0u);
  EXPECT_EQ(fin_rst.reply_ack, 2001u);
}

// RFC 793: a reset answering an ACK-bearing segment takes its seq from that
// ack and carries no ACK flag of its own.
TEST(GuestTcpStackTest, RstFormForAckSegments) {
  GuestTcpStack stack(Rng(1));
  Packet p;
  const auto rst = stack.OnSegment(
      Seg(p, TcpFlags::kPsh | TcpFlags::kAck, 40000, 445, 1000, 777, {'x'}),
      true, TimePoint());
  EXPECT_EQ(rst.action, SegmentAction::kReplyRst);
  EXPECT_FALSE(rst.rst_has_ack);
  EXPECT_EQ(rst.reply_seq, 777u);  // SEG.ACK
  EXPECT_EQ(rst.reply_ack, 0u);
}

TEST(GuestTcpStackTest, RstTearsDownSilently) {
  GuestTcpStack stack(Rng(1));
  Packet p;
  stack.OnSegment(Seg(p, TcpFlags::kSyn), true, TimePoint());
  const auto rst = stack.OnSegment(Seg(p, TcpFlags::kRst), true, TimePoint());
  EXPECT_EQ(rst.action, SegmentAction::kIgnore);
  EXPECT_EQ(stack.connection_count(), 0u);
}

TEST(GuestTcpStackTest, DistinctFourTuplesAreDistinctConnections) {
  GuestTcpStack stack(Rng(1));
  Packet p;
  stack.OnSegment(Seg(p, TcpFlags::kSyn, 40000), true, TimePoint());
  stack.OnSegment(Seg(p, TcpFlags::kSyn, 40001), true, TimePoint());
  stack.OnSegment(Seg(p, TcpFlags::kSyn, 40000, 80), true, TimePoint());
  EXPECT_EQ(stack.connection_count(), 3u);
}

TEST(GuestTcpStackTest, CapacityEvictsOldest) {
  GuestTcpStack stack(Rng(1), /*max_connections=*/2);
  Packet p;
  stack.OnSegment(Seg(p, TcpFlags::kSyn, 40000), true, TimePoint());
  stack.OnSegment(Seg(p, TcpFlags::kSyn, 40001), true,
                  TimePoint() + Duration::Seconds(1.0));
  stack.OnSegment(Seg(p, TcpFlags::kSyn, 40002), true,
                  TimePoint() + Duration::Seconds(2.0));
  EXPECT_EQ(stack.connection_count(), 2u);
  EXPECT_EQ(stack.stats().evictions, 1u);
}

TEST(GuestTcpStackTest, IdleConnectionsExpire) {
  GuestTcpStack stack(Rng(1));
  Packet p;
  stack.OnSegment(Seg(p, TcpFlags::kSyn, 40000), true, TimePoint());
  stack.OnSegment(Seg(p, TcpFlags::kSyn, 40001), true,
                  TimePoint() + Duration::Seconds(50.0));
  EXPECT_EQ(stack.ExpireIdle(TimePoint() + Duration::Seconds(70.0),
                             Duration::Seconds(60)),
            1u);
  EXPECT_EQ(stack.connection_count(), 1u);
}

// ---- Strict mode through the full guest ----

struct StrictGuestFixture {
  PhysicalHost host;
  VirtualMachine* vm = nullptr;
  std::unique_ptr<GuestOs> guest;
  std::vector<Packet> transmitted;

  StrictGuestFixture() : host(MakeHostConfig()) {
    ReferenceImageConfig image_config;
    image_config.num_pages = 2048;
    const ImageId image = host.RegisterImage(image_config);
    vm = host.CreateClone(image, CloneKind::kFlash, "strict");
    vm->BindAddress(kLocal, MacAddress::FromId(4));
    vm->set_state(VmState::kRunning);
    vm->set_tx_handler(
        [this](VirtualMachine&, Packet p) { transmitted.push_back(std::move(p)); });
    GuestOsConfig config;
    config.services = DefaultWindowsServices();
    config.strict_tcp = true;
    guest = std::make_unique<GuestOs>(vm, config, Rng(5));
  }

  static PhysicalHostConfig MakeHostConfig() {
    PhysicalHostConfig config;
    config.memory_mb = 32;
    config.domain_overhead_frames = 4;
    return config;
  }

  Packet Inbound(uint8_t flags, uint32_t seq, uint32_t ack,
                 std::vector<uint8_t> payload = {}) {
    PacketSpec spec;
    spec.src_mac = MacAddress::FromId(2);
    spec.dst_mac = vm->mac();
    spec.src_ip = kPeer;
    spec.dst_ip = kLocal;
    spec.proto = IpProto::kTcp;
    spec.src_port = 40000;
    spec.dst_port = 445;
    spec.tcp_flags = flags;
    spec.seq = seq;
    spec.ack = ack;
    spec.payload = std::move(payload);
    return BuildPacket(spec);
  }
};

TEST(StrictGuestTest, ExploitWithoutHandshakeDoesNotInfect) {
  StrictGuestFixture fx;
  std::vector<uint8_t> exploit = {'E', 'X', 'P', 'L', 'O', 'I', 'T', '-',
                                  'L', 'S', 'A', 'S', 'S'};
  fx.guest->HandleFrame(
      fx.Inbound(TcpFlags::kPsh | TcpFlags::kAck, 1000, 0, exploit), TimePoint());
  EXPECT_FALSE(fx.vm->infected());
  // The facade-free stack answers out-of-state data with a RST.
  ASSERT_EQ(fx.transmitted.size(), 1u);
  EXPECT_TRUE(PacketView::Parse(fx.transmitted[0])->tcp().flags & TcpFlags::kRst);
}

TEST(StrictGuestTest, ExploitAfterHandshakeInfects) {
  StrictGuestFixture fx;
  fx.guest->HandleFrame(fx.Inbound(TcpFlags::kSyn, 1000, 0), TimePoint());
  ASSERT_EQ(fx.transmitted.size(), 1u);
  const auto synack = PacketView::Parse(fx.transmitted[0]);
  ASSERT_EQ(synack->tcp().flags, TcpFlags::kSyn | TcpFlags::kAck);
  EXPECT_EQ(synack->tcp().ack, 1001u);

  std::vector<uint8_t> exploit = {'E', 'X', 'P', 'L', 'O', 'I', 'T', '-',
                                  'L', 'S', 'A', 'S', 'S'};
  fx.guest->HandleFrame(fx.Inbound(TcpFlags::kAck | TcpFlags::kPsh, 1001,
                                   synack->tcp().seq + 1, exploit),
                        TimePoint());
  EXPECT_TRUE(fx.vm->infected());
}

TEST(StrictGuestTest, BannerRequiresEstablishedConnection) {
  StrictGuestFixture fx;
  // Handshake, then an HTTP-ish request to the SMB port -> banner response.
  fx.guest->HandleFrame(fx.Inbound(TcpFlags::kSyn, 500, 0), TimePoint());
  const auto synack = PacketView::Parse(fx.transmitted[0]);
  fx.guest->HandleFrame(
      fx.Inbound(TcpFlags::kAck | TcpFlags::kPsh, 501, synack->tcp().seq + 1,
                 {'S', 'M', 'B', '?'}),
      TimePoint());
  ASSERT_EQ(fx.transmitted.size(), 2u);
  const auto banner = PacketView::Parse(fx.transmitted[1]);
  const auto payload = banner->l4_payload();
  EXPECT_EQ(std::string(payload.begin(), payload.end()), "SMB");
}

}  // namespace
}  // namespace potemkin
