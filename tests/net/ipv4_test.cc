#include "src/net/ipv4.h"

#include <gtest/gtest.h>

namespace potemkin {
namespace {

TEST(Ipv4AddressTest, ParseAndFormatRoundTrip) {
  const auto addr = Ipv4Address::Parse("192.168.1.200");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->ToString(), "192.168.1.200");
  EXPECT_EQ(addr->value(), 0xc0a801c8u);
}

TEST(Ipv4AddressTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::Parse("").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("256.1.1.1").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("a.b.c.d").has_value());
}

TEST(Ipv4AddressTest, OctetConstructor) {
  const Ipv4Address addr(10, 1, 2, 3);
  EXPECT_EQ(addr.ToString(), "10.1.2.3");
}

TEST(Ipv4PrefixTest, ParseAndProperties) {
  const auto prefix = Ipv4Prefix::Parse("10.1.0.0/16");
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(prefix->NumAddresses(), 65536u);
  EXPECT_EQ(prefix->ToString(), "10.1.0.0/16");
}

TEST(Ipv4PrefixTest, BaseIsMasked) {
  const Ipv4Prefix prefix(Ipv4Address(10, 1, 2, 3), 16);
  EXPECT_EQ(prefix.ToString(), "10.1.0.0/16");
}

TEST(Ipv4PrefixTest, Containment) {
  const Ipv4Prefix prefix(Ipv4Address(10, 1, 0, 0), 16);
  EXPECT_TRUE(prefix.Contains(Ipv4Address(10, 1, 0, 0)));
  EXPECT_TRUE(prefix.Contains(Ipv4Address(10, 1, 255, 255)));
  EXPECT_FALSE(prefix.Contains(Ipv4Address(10, 2, 0, 0)));
  EXPECT_FALSE(prefix.Contains(Ipv4Address(11, 1, 0, 0)));
}

TEST(Ipv4PrefixTest, AddressAtStaysInPrefix) {
  const Ipv4Prefix prefix(Ipv4Address(10, 1, 0, 0), 24);
  for (uint64_t i : {0ull, 1ull, 100ull, 255ull}) {
    const Ipv4Address addr = prefix.AddressAt(i);
    EXPECT_TRUE(prefix.Contains(addr));
    EXPECT_EQ(addr.value() - Ipv4Address(10, 1, 0, 0).value(), i);
  }
}

TEST(Ipv4PrefixTest, ZeroLengthCoversEverything) {
  const Ipv4Prefix all(Ipv4Address(0, 0, 0, 0), 0);
  EXPECT_TRUE(all.Contains(Ipv4Address(255, 255, 255, 255)));
  EXPECT_EQ(all.NumAddresses(), 1ull << 32);
}

TEST(Ipv4PrefixTest, SlashThirtyTwoIsSingleAddress) {
  const Ipv4Prefix host(Ipv4Address(1, 2, 3, 4), 32);
  EXPECT_EQ(host.NumAddresses(), 1u);
  EXPECT_TRUE(host.Contains(Ipv4Address(1, 2, 3, 4)));
  EXPECT_FALSE(host.Contains(Ipv4Address(1, 2, 3, 5)));
}

TEST(Ipv4PrefixTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Prefix::Parse("10.0.0.0").has_value());
  EXPECT_FALSE(Ipv4Prefix::Parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Ipv4Prefix::Parse("bogus/16").has_value());
}

TEST(MacAddressTest, FromIdDeterministicAndUnique) {
  const MacAddress a = MacAddress::FromId(7);
  const MacAddress b = MacAddress::FromId(7);
  const MacAddress c = MacAddress::FromId(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.bytes()[0], 0x02);  // locally administered
}

TEST(Ipv4AddressTest, HashDistributes) {
  std::hash<Ipv4Address> hasher;
  EXPECT_NE(hasher(Ipv4Address(10, 0, 0, 1)), hasher(Ipv4Address(10, 0, 0, 2)));
}

}  // namespace
}  // namespace potemkin
