#include "src/base/strings.h"

#include <gtest/gtest.h>

namespace potemkin {
namespace {

TEST(StringsTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("x=%d", 42), "x=42");
  EXPECT_EQ(StrFormat("%s/%s", "a", "b"), "a/b");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, StrFormatLongOutput) {
  const std::string big(500, 'x');
  EXPECT_EQ(StrFormat("%s!", big.c_str()).size(), 501u);
}

TEST(StringsTest, StrSplit) {
  EXPECT_EQ(StrSplit("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(StrSplit("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(StrSplit(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, StrTrim) {
  EXPECT_EQ(StrTrim("  hello  "), "hello");
  EXPECT_EQ(StrTrim("\t\nx"), "x");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
  EXPECT_EQ(StrTrim("no-trim"), "no-trim");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("foo", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(StringsTest, ParseInt64) {
  EXPECT_EQ(ParseInt64("42"), 42);
  EXPECT_EQ(ParseInt64("-7"), -7);
  EXPECT_EQ(ParseInt64(" 13 "), 13);
  EXPECT_FALSE(ParseInt64("4x").has_value());
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("abc").has_value());
}

TEST(StringsTest, ParseUint64RejectsNegative) {
  EXPECT_EQ(ParseUint64("18446744073709551615"), 18446744073709551615ull);
  EXPECT_FALSE(ParseUint64("-1").has_value());
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-2e3").value(), -2000.0);
  EXPECT_FALSE(ParseDouble("nope").has_value());
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(4096), "4.0 KiB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0 MiB");
  EXPECT_EQ(HumanBytes(5ull << 30), "5.0 GiB");
}

TEST(StringsTest, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1000), "1,000");
  EXPECT_EQ(WithCommas(1234567), "1,234,567");
}

}  // namespace
}  // namespace potemkin
