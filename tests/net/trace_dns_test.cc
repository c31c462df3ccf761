#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/net/dns.h"
#include "src/net/trace.h"

namespace potemkin {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TraceRecord SampleRecord(int i) {
  TraceRecord r;
  r.time = TimePoint::FromNanos(1000 * i);
  r.src = Ipv4Address(1, 2, 3, static_cast<uint8_t>(i));
  r.dst = Ipv4Address(10, 1, 0, static_cast<uint8_t>(i));
  r.proto = (i % 2 == 0) ? IpProto::kTcp : IpProto::kUdp;
  r.src_port = static_cast<uint16_t>(1000 + i);
  r.dst_port = 445;
  r.wire_size = static_cast<uint16_t>(60 + i);
  r.tcp_flags = TcpFlags::kSyn;
  return r;
}

TEST(TraceTest, WriteReadRoundTrip) {
  const std::string path = TempPath("roundtrip.pkt");
  {
    TraceWriter writer(path);
    for (int i = 0; i < 100; ++i) {
      writer.Append(SampleRecord(i));
    }
    writer.Close();
  }
  TraceReader reader(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.record_count(), 100u);
  TraceRecord record;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(reader.Next(&record));
    EXPECT_EQ(record, SampleRecord(i));
  }
  EXPECT_FALSE(reader.Next(&record));
  std::remove(path.c_str());
}

TEST(TraceTest, ReadAllConvenience) {
  const std::string path = TempPath("readall.pkt");
  {
    TraceWriter writer(path);
    writer.Append(SampleRecord(1));
    writer.Append(SampleRecord(2));
  }
  const auto records = TraceReader::ReadAll(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], SampleRecord(1));
  std::remove(path.c_str());
}

TEST(TraceTest, MissingFileReportsNotOk) {
  TraceReader reader("/nonexistent/path/trace.pkt");
  EXPECT_FALSE(reader.ok());
  TraceRecord record;
  EXPECT_FALSE(reader.Next(&record));
}

TEST(TraceTest, PacketFromRecordMatchesFields) {
  const TraceRecord record = SampleRecord(4);
  const Packet packet =
      PacketFromRecord(record, MacAddress::FromId(1), MacAddress::FromId(2));
  const auto view = PacketView::Parse(packet);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->ip().src, record.src);
  EXPECT_EQ(view->ip().dst, record.dst);
  EXPECT_EQ(view->dst_port(), record.dst_port);
  EXPECT_EQ(packet.size(), record.wire_size);
  EXPECT_TRUE(ValidateChecksums(packet));
}

TEST(DnsTest, QueryEncodeParseRoundTrip) {
  DnsQuery query;
  query.id = 0x1234;
  query.name = "update.windows.com";
  const auto bytes = EncodeDnsQuery(query);
  const auto parsed = ParseDnsQuery(bytes.data(), bytes.size());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->id, 0x1234);
  EXPECT_EQ(parsed->name, "update.windows.com");
  EXPECT_EQ(parsed->qtype, kDnsTypeA);
}

TEST(DnsTest, ResponseEncodeParseRoundTrip) {
  DnsResponse response;
  response.id = 7;
  response.name = "evil.example.net";
  response.addresses = {Ipv4Address(10, 1, 2, 3), Ipv4Address(10, 1, 2, 4)};
  const auto bytes = EncodeDnsResponse(response);
  const auto parsed = ParseDnsResponse(bytes.data(), bytes.size());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->id, 7);
  EXPECT_EQ(parsed->name, "evil.example.net");
  ASSERT_EQ(parsed->addresses.size(), 2u);
  EXPECT_EQ(parsed->addresses[0], Ipv4Address(10, 1, 2, 3));
  EXPECT_EQ(parsed->addresses[1], Ipv4Address(10, 1, 2, 4));
  EXPECT_EQ(parsed->rcode, 0);
}

TEST(DnsTest, NxdomainRoundTrip) {
  DnsResponse response;
  response.id = 9;
  response.name = "nosuch.host";
  response.rcode = 3;
  const auto bytes = EncodeDnsResponse(response);
  const auto parsed = ParseDnsResponse(bytes.data(), bytes.size());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->rcode, 3);
  EXPECT_TRUE(parsed->addresses.empty());
}

TEST(DnsTest, ParseQueryRejectsResponseBit) {
  DnsResponse response;
  response.id = 1;
  response.name = "x.y";
  const auto bytes = EncodeDnsResponse(response);
  EXPECT_FALSE(ParseDnsQuery(bytes.data(), bytes.size()).has_value());
}

TEST(DnsTest, ParseRejectsTruncated) {
  DnsQuery query;
  query.id = 1;
  query.name = "a.very.long.domain.name.example.com";
  const auto bytes = EncodeDnsQuery(query);
  for (size_t len : {0u, 5u, 12u, 14u}) {
    EXPECT_FALSE(ParseDnsQuery(bytes.data(), len).has_value()) << len;
  }
}

TEST(DnsTest, LabelsOverSixtyThreeBytesSkipped) {
  DnsQuery query;
  query.id = 2;
  query.name = std::string(100, 'a') + ".com";
  const auto bytes = EncodeDnsQuery(query);
  const auto parsed = ParseDnsQuery(bytes.data(), bytes.size());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->name, "com");  // oversized label dropped at encode time
}

}  // namespace
}  // namespace potemkin
