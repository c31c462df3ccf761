#include "src/net/packet.h"

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/net/checksum.h"

namespace potemkin {
namespace {

PacketSpec BaseTcpSpec() {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(1);
  spec.dst_mac = MacAddress::FromId(2);
  spec.src_ip = Ipv4Address(1, 2, 3, 4);
  spec.dst_ip = Ipv4Address(10, 1, 0, 1);
  spec.proto = IpProto::kTcp;
  spec.src_port = 31337;
  spec.dst_port = 445;
  spec.seq = 1000;
  spec.tcp_flags = TcpFlags::kSyn;
  return spec;
}

TEST(ChecksumTest, Rfc1071Example) {
  // Classic example from RFC 1071 presentations.
  const uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(ComputeInternetChecksum(data, sizeof(data)), 0x220d);
}

TEST(ChecksumTest, OddLengthHandled) {
  const uint8_t data[] = {0x01, 0x02, 0x03};
  // 0x0102 + 0x0300 = 0x0402 -> ~ = 0xfbfd
  EXPECT_EQ(ComputeInternetChecksum(data, sizeof(data)), 0xfbfd);
}

TEST(ChecksumTest, IncrementalEqualsOneShot) {
  const uint8_t data[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  InternetChecksum incremental;
  incremental.Add(data, 3);
  incremental.Add(data + 3, 6);
  EXPECT_EQ(incremental.Finish(), ComputeInternetChecksum(data, sizeof(data)));
}

TEST(PacketTest, BuildTcpAndParseBack) {
  PacketSpec spec = BaseTcpSpec();
  spec.payload = {'h', 'i'};
  const Packet packet = BuildPacket(spec);
  const auto view = PacketView::Parse(packet);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->eth().src, spec.src_mac);
  EXPECT_EQ(view->eth().dst, spec.dst_mac);
  EXPECT_EQ(view->eth().ethertype, kEthertypeIpv4);
  EXPECT_EQ(view->ip().src, spec.src_ip);
  EXPECT_EQ(view->ip().dst, spec.dst_ip);
  EXPECT_EQ(view->ip().ttl, 64);
  ASSERT_TRUE(view->is_tcp());
  EXPECT_EQ(view->tcp().src_port, 31337);
  EXPECT_EQ(view->tcp().dst_port, 445);
  EXPECT_EQ(view->tcp().seq, 1000u);
  EXPECT_EQ(view->tcp().flags, TcpFlags::kSyn);
  ASSERT_EQ(view->l4_payload().size(), 2u);
  EXPECT_EQ(view->l4_payload()[0], 'h');
}

TEST(PacketTest, BuiltPacketsHaveValidChecksums) {
  for (IpProto proto : {IpProto::kTcp, IpProto::kUdp, IpProto::kIcmp}) {
    PacketSpec spec = BaseTcpSpec();
    spec.proto = proto;
    spec.payload = {1, 2, 3, 4, 5};
    const Packet packet = BuildPacket(spec);
    EXPECT_TRUE(ValidateChecksums(packet)) << IpProtoName(proto);
  }
}

TEST(PacketTest, OddPayloadChecksumValid) {
  PacketSpec spec = BaseTcpSpec();
  spec.proto = IpProto::kUdp;
  spec.payload = {9, 9, 9};  // odd length exercises the padding path
  EXPECT_TRUE(ValidateChecksums(BuildPacket(spec)));
}

TEST(PacketTest, CorruptedPacketFailsValidation) {
  Packet packet = BuildPacket(BaseTcpSpec());
  packet.mutable_bytes()[20] ^= 0xff;  // flip bits in the IP header
  EXPECT_FALSE(ValidateChecksums(packet));
}

TEST(PacketTest, UdpBuildAndParse) {
  PacketSpec spec = BaseTcpSpec();
  spec.proto = IpProto::kUdp;
  spec.src_port = 5353;
  spec.dst_port = 53;
  spec.payload = {0xde, 0xad};
  const auto view = PacketView::Parse(BuildPacket(spec));
  ASSERT_TRUE(view.has_value());
  ASSERT_TRUE(view->is_udp());
  EXPECT_EQ(view->udp().src_port, 5353);
  EXPECT_EQ(view->udp().dst_port, 53);
  EXPECT_EQ(view->udp().length, kUdpHeaderSize + 2);
}

TEST(PacketTest, IcmpEchoBuildAndParse) {
  PacketSpec spec = BaseTcpSpec();
  spec.proto = IpProto::kIcmp;
  spec.icmp_type = 8;
  spec.icmp_id = 77;
  spec.icmp_seq = 3;
  const auto view = PacketView::Parse(BuildPacket(spec));
  ASSERT_TRUE(view.has_value());
  ASSERT_TRUE(view->is_icmp());
  EXPECT_EQ(view->icmp().type, 8);
  EXPECT_EQ(view->icmp().id, 77);
  EXPECT_EQ(view->icmp().seq, 3);
}

TEST(PacketTest, ParseRejectsTruncated) {
  Packet tiny(std::vector<uint8_t>(10, 0));
  EXPECT_FALSE(PacketView::Parse(tiny).has_value());
}

TEST(PacketTest, ParseRejectsNonIpv4) {
  Packet packet = BuildPacket(BaseTcpSpec());
  packet.mutable_bytes()[12] = 0x86;  // ethertype -> IPv6
  packet.mutable_bytes()[13] = 0xdd;
  EXPECT_FALSE(PacketView::Parse(packet).has_value());
}

TEST(PacketTest, RewriteDstUpdatesChecksums) {
  Packet packet = BuildPacket(BaseTcpSpec());
  RewriteIpv4Dst(packet, Ipv4Address(10, 1, 7, 7));
  EXPECT_TRUE(ValidateChecksums(packet));
  const auto view = PacketView::Parse(packet);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->ip().dst, Ipv4Address(10, 1, 7, 7));
  EXPECT_EQ(view->ip().src, Ipv4Address(1, 2, 3, 4));  // src untouched
}

TEST(PacketTest, RewriteSrcUpdatesChecksums) {
  PacketSpec spec = BaseTcpSpec();
  spec.proto = IpProto::kUdp;
  Packet packet = BuildPacket(spec);
  RewriteIpv4Src(packet, Ipv4Address(8, 8, 8, 8));
  EXPECT_TRUE(ValidateChecksums(packet));
  const auto view = PacketView::Parse(packet);
  EXPECT_EQ(view->ip().src, Ipv4Address(8, 8, 8, 8));
}

TEST(PacketTest, DecrementTtl) {
  PacketSpec spec = BaseTcpSpec();
  spec.ttl = 2;
  Packet packet = BuildPacket(spec);
  EXPECT_TRUE(DecrementTtl(packet));
  EXPECT_TRUE(ValidateChecksums(packet));
  EXPECT_EQ(PacketView::Parse(packet)->ip().ttl, 1);
  EXPECT_FALSE(DecrementTtl(packet));  // hits zero
  EXPECT_EQ(PacketView::Parse(packet)->ip().ttl, 0);
}

TEST(PacketTest, DescribeMentionsEndpointsAndFlags) {
  const std::string text = PacketView::Parse(BuildPacket(BaseTcpSpec()))->Describe();
  EXPECT_NE(text.find("1.2.3.4"), std::string::npos);
  EXPECT_NE(text.find("445"), std::string::npos);
  EXPECT_NE(text.find("[S]"), std::string::npos);
}

TEST(PacketTest, TotalLengthMatchesBuffer) {
  PacketSpec spec = BaseTcpSpec();
  spec.payload.assign(100, 0xab);
  const Packet packet = BuildPacket(spec);
  const auto view = PacketView::Parse(packet);
  EXPECT_EQ(view->ip().total_length + kEthernetHeaderSize, packet.size());
}

// ---- Randomized equivalence: RFC 1624 deltas vs full recomputation ----

// Reference byte-pair internet checksum, written independently of the
// word-at-a-time production implementation.
uint16_t RefChecksum(const uint8_t* data, size_t length) {
  uint32_t sum = 0;
  size_t i = 0;
  for (; i + 1 < length; i += 2) {
    sum += (static_cast<uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < length) {
    sum += static_cast<uint32_t>(data[i]) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum & 0xffff);
}

TEST(ChecksumTest, WordAtATimeMatchesReferenceAcrossLengths) {
  Rng rng(77);
  std::vector<uint8_t> data(4096);
  for (auto& byte : data) {
    byte = static_cast<uint8_t>(rng.NextU64());
  }
  // Sweep every length 0..96 (covers the <32-byte scalar path, the 8-byte wide
  // loop, odd tails) plus larger sizes spanning full-packet sums.
  for (size_t length = 0; length <= 96; ++length) {
    EXPECT_EQ(ComputeInternetChecksum(data.data(), length),
              RefChecksum(data.data(), length))
        << "length=" << length;
  }
  for (const size_t length : {128u, 577u, 1400u, 1514u, 4096u}) {
    EXPECT_EQ(ComputeInternetChecksum(data.data(), length),
              RefChecksum(data.data(), length))
        << "length=" << length;
  }
}

TEST(ChecksumTest, Rfc1624Update16MatchesFullRecomputeRandomized) {
  Rng rng(88);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> data(20 + 2 * rng.NextBelow(30));
    for (auto& byte : data) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
    const uint16_t before = RefChecksum(data.data(), data.size());
    const size_t word = 2 * rng.NextBelow(data.size() / 2);
    const uint16_t old_word =
        static_cast<uint16_t>((data[word] << 8) | data[word + 1]);
    const uint16_t new_word = static_cast<uint16_t>(rng.NextU64());
    data[word] = static_cast<uint8_t>(new_word >> 8);
    data[word + 1] = static_cast<uint8_t>(new_word);
    EXPECT_EQ(ChecksumUpdate16(before, old_word, new_word),
              RefChecksum(data.data(), data.size()))
        << "trial=" << trial;
  }
}

TEST(ChecksumTest, Rfc1624Update32MatchesFullRecomputeRandomized) {
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> data(20 + 4 * rng.NextBelow(20));
    for (auto& byte : data) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
    const uint16_t before = RefChecksum(data.data(), data.size());
    const size_t at = 4 * rng.NextBelow(data.size() / 4);
    uint32_t old_word = 0;
    for (int i = 0; i < 4; ++i) {
      old_word = (old_word << 8) | data[at + static_cast<size_t>(i)];
    }
    const uint32_t new_word = static_cast<uint32_t>(rng.NextU64());
    for (int i = 0; i < 4; ++i) {
      data[at + static_cast<size_t>(i)] =
          static_cast<uint8_t>(new_word >> (24 - 8 * i));
    }
    EXPECT_EQ(ChecksumUpdate32(before, old_word, new_word),
              RefChecksum(data.data(), data.size()))
        << "trial=" << trial;
  }
}

// Reference full-recompute rewrite over a plain byte vector (the seed's
// strategy): write the field, zero the checksums, resum from scratch.
void RefFixChecksums(std::vector<uint8_t>& b) {
  const size_t ip = kEthernetHeaderSize;
  const size_t ihl = static_cast<size_t>(b[ip] & 0x0f) * 4;
  b[ip + 10] = 0;
  b[ip + 11] = 0;
  const uint16_t ip_sum = RefChecksum(&b[ip], ihl);
  b[ip + 10] = static_cast<uint8_t>(ip_sum >> 8);
  b[ip + 11] = static_cast<uint8_t>(ip_sum);

  const auto proto = static_cast<IpProto>(b[ip + 9]);
  const size_t l4 = ip + ihl;
  const size_t l4_len = b.size() - l4;
  size_t checksum_offset = 0;
  if (proto == IpProto::kTcp) {
    checksum_offset = l4 + 16;
  } else if (proto == IpProto::kUdp) {
    checksum_offset = l4 + 6;
  } else if (proto == IpProto::kIcmp) {
    checksum_offset = l4 + 2;
  } else {
    return;
  }
  b[checksum_offset] = 0;
  b[checksum_offset + 1] = 0;
  InternetChecksum sum;
  if (proto == IpProto::kTcp || proto == IpProto::kUdp) {
    sum.Add(&b[ip + 12], 8);
    sum.AddU16(static_cast<uint16_t>(proto));
    sum.AddU16(static_cast<uint16_t>(l4_len));
  }
  sum.Add(&b[l4], l4_len);
  const uint16_t l4_sum = sum.Finish();
  b[checksum_offset] = static_cast<uint8_t>(l4_sum >> 8);
  b[checksum_offset + 1] = static_cast<uint8_t>(l4_sum);
}

TEST(PacketTest, RandomizedRewritesMatchFullRecomputeAndKeepViewInSync) {
  Rng rng(4242);
  for (int trial = 0; trial < 500; ++trial) {
    PacketSpec spec = BaseTcpSpec();
    const uint64_t pick = rng.NextBelow(3);
    spec.proto = pick == 0 ? IpProto::kTcp
                           : (pick == 1 ? IpProto::kUdp : IpProto::kIcmp);
    spec.src_ip = Ipv4Address(static_cast<uint32_t>(rng.NextU64()));
    spec.dst_ip = Ipv4Address(static_cast<uint32_t>(rng.NextU64()));
    spec.src_port = static_cast<uint16_t>(rng.NextU64());
    spec.dst_port = static_cast<uint16_t>(rng.NextU64());
    spec.ttl = static_cast<uint8_t>(2 + rng.NextBelow(60));
    spec.payload.resize(rng.NextBelow(64));  // even and odd lengths
    for (auto& byte : spec.payload) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
    Packet packet = BuildPacket(spec);
    auto view = PacketView::Parse(packet);
    ASSERT_TRUE(view.has_value());
    std::vector<uint8_t> reference = packet.bytes();

    // Apply a random sequence of the three incremental rewrites, mirroring
    // each one on the reference copy with a full recompute.
    for (int op = 0; op < 8; ++op) {
      switch (rng.NextBelow(3)) {
        case 0: {
          const Ipv4Address addr(static_cast<uint32_t>(rng.NextU64()));
          RewriteIpv4Src(packet, addr, &*view);
          for (int i = 0; i < 4; ++i) {
            reference[kEthernetHeaderSize + 12 + static_cast<size_t>(i)] =
                static_cast<uint8_t>(addr.value() >> (24 - 8 * i));
          }
          break;
        }
        case 1: {
          const Ipv4Address addr(static_cast<uint32_t>(rng.NextU64()));
          RewriteIpv4Dst(packet, addr, &*view);
          for (int i = 0; i < 4; ++i) {
            reference[kEthernetHeaderSize + 16 + static_cast<size_t>(i)] =
                static_cast<uint8_t>(addr.value() >> (24 - 8 * i));
          }
          break;
        }
        default: {
          DecrementTtl(packet, &*view);
          uint8_t& ttl = reference[kEthernetHeaderSize + 8];
          ttl = ttl <= 1 ? 0 : static_cast<uint8_t>(ttl - 1);
          break;
        }
      }
      RefFixChecksums(reference);
      ASSERT_EQ(packet.bytes(), reference)
          << "trial=" << trial << " op=" << op;
      EXPECT_TRUE(ValidateChecksums(packet));
      // The threaded view must agree with a from-scratch parse after every op.
      const auto fresh = PacketView::Parse(packet);
      ASSERT_TRUE(fresh.has_value());
      ASSERT_TRUE(view->ValidFor(packet));
      EXPECT_EQ(view->ip().src, fresh->ip().src);
      EXPECT_EQ(view->ip().dst, fresh->ip().dst);
      EXPECT_EQ(view->ip().ttl, fresh->ip().ttl);
      EXPECT_EQ(view->ip().checksum, fresh->ip().checksum);
      if (fresh->is_tcp()) {
        EXPECT_EQ(view->tcp().checksum, fresh->tcp().checksum);
      } else if (fresh->is_udp()) {
        EXPECT_EQ(view->udp().checksum, fresh->udp().checksum);
      }
    }
  }
}

TEST(PacketTest, ViewSurvivesPacketMove) {
  Packet packet = BuildPacket(BaseTcpSpec());
  auto view = PacketView::Parse(packet);
  ASSERT_TRUE(view.has_value());
  Packet moved(std::move(packet));
  EXPECT_TRUE(view->ValidFor(moved));    // buffer address is stable under move
  EXPECT_FALSE(view->ValidFor(packet));  // moved-from packet no longer matches
  RewriteIpv4Dst(moved, Ipv4Address(10, 1, 9, 9), &*view);
  EXPECT_TRUE(ValidateChecksums(moved));
  EXPECT_EQ(view->ip().dst, Ipv4Address(10, 1, 9, 9));
}

}  // namespace
}  // namespace potemkin
