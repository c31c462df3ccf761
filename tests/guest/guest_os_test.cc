#include "src/guest/guest_os.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/guest/service.h"
#include "src/hv/physical_host.h"

namespace potemkin {
namespace {

struct GuestFixture {
  PhysicalHost host;
  VirtualMachine* vm = nullptr;
  std::vector<Packet> transmitted;
  std::unique_ptr<GuestOs> guest;

  GuestFixture() : host(MakeHostConfig()) {
    ReferenceImageConfig image_config;
    image_config.num_pages = 4096;
    const ImageId image = host.RegisterImage(image_config);
    vm = host.CreateClone(image, CloneKind::kFlash, "guest-vm");
    vm->BindAddress(Ipv4Address(10, 1, 0, 5), MacAddress::FromId(5));
    vm->set_state(VmState::kRunning);
    vm->set_tx_handler(
        [this](VirtualMachine&, Packet p) { transmitted.push_back(std::move(p)); });
    GuestOsConfig config;
    config.services = DefaultWindowsServices();
    guest = std::make_unique<GuestOs>(vm, config, Rng(1));
  }

  static PhysicalHostConfig MakeHostConfig() {
    PhysicalHostConfig config;
    config.memory_mb = 64;
    config.content_mode = ContentMode::kStoreBytes;
    config.domain_overhead_frames = 8;
    return config;
  }

  Packet MakeInbound(IpProto proto, uint16_t dst_port, std::vector<uint8_t> payload,
                     uint8_t tcp_flags = TcpFlags::kPsh | TcpFlags::kAck) {
    PacketSpec spec;
    spec.src_mac = MacAddress::FromId(99);
    spec.dst_mac = vm->mac();
    spec.src_ip = Ipv4Address(1, 2, 3, 4);
    spec.dst_ip = vm->ip();
    spec.proto = proto;
    spec.src_port = 40000;
    spec.dst_port = dst_port;
    spec.tcp_flags = tcp_flags;
    spec.payload = std::move(payload);
    return BuildPacket(spec);
  }
};

TEST(GuestOsTest, SynToOpenPortGetsSynAck) {
  GuestFixture fx;
  fx.guest->HandleFrame(fx.MakeInbound(IpProto::kTcp, 445, {}, TcpFlags::kSyn),
                        TimePoint());
  ASSERT_EQ(fx.transmitted.size(), 1u);
  const auto view = PacketView::Parse(fx.transmitted[0]);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->tcp().flags, TcpFlags::kSyn | TcpFlags::kAck);
  EXPECT_EQ(view->ip().src, fx.vm->ip());
  EXPECT_EQ(view->ip().dst, Ipv4Address(1, 2, 3, 4));
  EXPECT_EQ(view->tcp().src_port, 445);
  EXPECT_TRUE(ValidateChecksums(fx.transmitted[0]));
}

TEST(GuestOsTest, SynToClosedPortGetsRst) {
  GuestFixture fx;
  fx.guest->HandleFrame(fx.MakeInbound(IpProto::kTcp, 9999, {}, TcpFlags::kSyn),
                        TimePoint());
  ASSERT_EQ(fx.transmitted.size(), 1u);
  const auto view = PacketView::Parse(fx.transmitted[0]);
  EXPECT_TRUE(view->tcp().flags & TcpFlags::kRst);
  EXPECT_EQ(fx.guest->stats().rst_sent, 1u);
}

TEST(GuestOsTest, RequestGetsBannerResponse) {
  GuestFixture fx;
  fx.guest->HandleFrame(fx.MakeInbound(IpProto::kTcp, 80, {'G', 'E', 'T'}),
                        TimePoint());
  ASSERT_EQ(fx.transmitted.size(), 1u);
  const auto view = PacketView::Parse(fx.transmitted[0]);
  const auto payload = view->l4_payload();
  const std::string text(payload.begin(), payload.end());
  EXPECT_NE(text.find("IIS"), std::string::npos);
  EXPECT_EQ(fx.guest->stats().requests_served, 1u);
}

TEST(GuestOsTest, RequestsDirtyPages) {
  GuestFixture fx;
  const uint32_t before = fx.vm->memory().private_pages();
  fx.guest->HandleFrame(fx.MakeInbound(IpProto::kTcp, 445, {'S', 'M', 'B'}),
                        TimePoint());
  const uint32_t after = fx.vm->memory().private_pages();
  // SMB touches 6 heap pages + 1 kernel page.
  EXPECT_GE(after - before, 7u);
}

TEST(GuestOsTest, IcmpEchoAnswered) {
  GuestFixture fx;
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(99);
  spec.dst_mac = fx.vm->mac();
  spec.src_ip = Ipv4Address(1, 2, 3, 4);
  spec.dst_ip = fx.vm->ip();
  spec.proto = IpProto::kIcmp;
  spec.icmp_type = 8;
  spec.icmp_id = 11;
  spec.icmp_seq = 22;
  spec.payload = {1, 2, 3};
  fx.guest->HandleFrame(BuildPacket(spec), TimePoint());
  ASSERT_EQ(fx.transmitted.size(), 1u);
  const auto view = PacketView::Parse(fx.transmitted[0]);
  ASSERT_TRUE(view->is_icmp());
  EXPECT_EQ(view->icmp().type, 0);
  EXPECT_EQ(view->icmp().id, 11);
  EXPECT_EQ(view->icmp().seq, 22);
  EXPECT_EQ(view->l4_payload().size(), 3u);
}

TEST(GuestOsTest, ExploitInfectsAndNotifies) {
  GuestFixture fx;
  bool notified = false;
  fx.guest->set_infection_observer(
      [&](GuestOs& g, const PacketView& exploit) {
        notified = true;
        EXPECT_EQ(&g, fx.guest.get());
        EXPECT_EQ(exploit.ip().src, Ipv4Address(1, 2, 3, 4));
      });
  std::vector<uint8_t> payload = {'x'};
  const char* sig = "EXPLOIT-LSASS";
  payload.insert(payload.end(), sig, sig + 13);
  fx.guest->HandleFrame(fx.MakeInbound(IpProto::kTcp, 445, payload), TimePoint());
  EXPECT_TRUE(notified);
  EXPECT_TRUE(fx.vm->infected());
  EXPECT_EQ(fx.guest->stats().exploits_received, 1u);
  // Compromised service does not answer normally.
  EXPECT_TRUE(fx.transmitted.empty());
}

TEST(GuestOsTest, SecondExploitDoesNotRenotify) {
  GuestFixture fx;
  int notifications = 0;
  fx.guest->set_infection_observer(
      [&](GuestOs&, const PacketView&) { ++notifications; });
  std::vector<uint8_t> payload(
      {'E', 'X', 'P', 'L', 'O', 'I', 'T', '-', 'L', 'S', 'A', 'S', 'S'});
  fx.guest->HandleFrame(fx.MakeInbound(IpProto::kTcp, 445, payload), TimePoint());
  fx.guest->HandleFrame(fx.MakeInbound(IpProto::kTcp, 445, payload), TimePoint());
  EXPECT_EQ(notifications, 1);
  EXPECT_EQ(fx.guest->stats().exploits_received, 2u);
}

TEST(GuestOsTest, WrongPortExploitHarmless) {
  GuestFixture fx;
  std::vector<uint8_t> payload(
      {'E', 'X', 'P', 'L', 'O', 'I', 'T', '-', 'L', 'S', 'A', 'S', 'S'});
  fx.guest->HandleFrame(fx.MakeInbound(IpProto::kTcp, 80, payload), TimePoint());
  EXPECT_FALSE(fx.vm->infected());
}

TEST(GuestOsTest, UdpServiceResponds) {
  GuestFixture fx;
  fx.guest->HandleFrame(fx.MakeInbound(IpProto::kUdp, 1434, {0x02}), TimePoint());
  ASSERT_EQ(fx.transmitted.size(), 1u);
  const auto view = PacketView::Parse(fx.transmitted[0]);
  ASSERT_TRUE(view->is_udp());
  EXPECT_EQ(view->udp().src_port, 1434);
}

TEST(GuestOsTest, NonRunningVmIgnoresTraffic) {
  GuestFixture fx;
  fx.vm->set_state(VmState::kPaused);
  fx.guest->HandleFrame(fx.MakeInbound(IpProto::kTcp, 445, {}, TcpFlags::kSyn),
                        TimePoint());
  EXPECT_TRUE(fx.transmitted.empty());
  EXPECT_EQ(fx.guest->stats().packets_handled, 0u);
}

TEST(GuestOsTest, ActivityTimestampUpdated) {
  GuestFixture fx;
  const TimePoint when = TimePoint() + Duration::Seconds(12.0);
  fx.guest->HandleFrame(fx.MakeInbound(IpProto::kTcp, 445, {}, TcpFlags::kSyn), when);
  EXPECT_EQ(fx.vm->last_activity(), when);
}

TEST(GuestOsTest, HeapCursorWrapsBoundingDelta) {
  GuestFixture fx;
  // Many requests; the delta must plateau at heap_pages + kKernelPages +
  // epsilon.
  for (int i = 0; i < 3000; ++i) {
    fx.guest->HandleFrame(fx.MakeInbound(IpProto::kTcp, 445, {'S'}), TimePoint());
  }
  GuestOsConfig defaults;
  EXPECT_LE(fx.vm->memory().private_pages(),
            defaults.heap_pages + GuestOs::kKernelPages + 4);
}

TEST(ServiceTest, ExploitSignatureMatching) {
  ExploitSignature sig{IpProto::kTcp, 445, {'A', 'B', 'C'}};
  const std::vector<uint8_t> hit = {'x', 'A', 'B', 'C', 'y'};
  const std::vector<uint8_t> miss = {'A', 'B', 'x', 'C'};
  EXPECT_TRUE(sig.Matches(IpProto::kTcp, 445, std::span(hit.data(), hit.size())));
  EXPECT_FALSE(sig.Matches(IpProto::kTcp, 445, std::span(miss.data(), miss.size())));
  EXPECT_FALSE(sig.Matches(IpProto::kUdp, 445, std::span(hit.data(), hit.size())));
  EXPECT_FALSE(sig.Matches(IpProto::kTcp, 446, std::span(hit.data(), hit.size())));
  const std::vector<uint8_t> tiny = {'A'};
  EXPECT_FALSE(sig.Matches(IpProto::kTcp, 445, std::span(tiny.data(), tiny.size())));
}

TEST(ServiceTest, DefaultServiceSetsHaveVulnerabilities) {
  const auto windows = DefaultWindowsServices();
  const auto linux = DefaultLinuxServices();
  int windows_vulns = 0;
  for (const auto& s : windows) {
    windows_vulns += s.vulnerability.has_value() ? 1 : 0;
  }
  EXPECT_GE(windows_vulns, 3);
  EXPECT_FALSE(linux.empty());
}

}  // namespace
}  // namespace potemkin
