#include "util/string_util.h"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

namespace tpm {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  auto fields = Split("a,b,c", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");

  fields = Split("a,,b", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "");

  fields = Split("", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "");

  fields = Split(",", ',');
  ASSERT_EQ(fields.size(), 2u);

  // The out-parameter form replaces what the vector held.
  Split("x,y,z", ',', &fields);
  EXPECT_EQ(fields, (std::vector<std::string_view>{"x", "y", "z"}));
}

TEST(TrimTest, Whitespace) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(JoinTest, Pieces) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(ParseInt64Test, ValidInputs) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-7"), -7);
  EXPECT_EQ(*ParseInt64(" 13 "), 13);
  EXPECT_EQ(*ParseInt64("0"), 0);
  EXPECT_EQ(*ParseInt64("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(*ParseInt64("+5"), 5);
  EXPECT_EQ(*ParseInt64("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(*ParseInt64(" \t7\t"), 7);
}

TEST(ParseInt64Test, InvalidInputs) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("x").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_TRUE(ParseInt64("99999999999999999999").status().IsOutOfRange());
  // One sign at most, digits right after it, nothing after the digits.
  for (const char* bad : {"+-5", "+", "-", "--1", "1 2", "+ 5", "- 5", "0x10"}) {
    const Status st = ParseInt64(bad).status();
    EXPECT_TRUE(st.IsInvalidArgument()) << bad << ": " << st.ToString();
    EXPECT_EQ(st.message(), std::string("not an integer: '") + bad + "'");
  }
  // The message quotes the trimmed field.
  EXPECT_EQ(ParseInt64(" 12x ").status().message(), "not an integer: '12x'");
  for (const char* big : {"9223372036854775808", "-9223372036854775809"}) {
    const Status st = ParseInt64(big).status();
    EXPECT_TRUE(st.IsOutOfRange()) << big << ": " << st.ToString();
    EXPECT_EQ(st.message(), std::string("integer out of range: '") + big + "'");
  }
}

TEST(ParseDoubleTest, ValidAndInvalid) {
  EXPECT_DOUBLE_EQ(*ParseDouble("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(StartsWith("hello", ""));
  EXPECT_FALSE(StartsWith("hello", "hello!"));
  EXPECT_FALSE(StartsWith("", "x"));
}

TEST(StringPrintfTest, Formats) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%.2f", 1.2345), "1.23");
  EXPECT_EQ(StringPrintf("empty"), "empty");
}

TEST(HumanBytesTest, Units) {
  EXPECT_EQ(HumanBytes(0), "0 B");
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(5ull * 1024 * 1024), "5.0 MiB");
  EXPECT_EQ(HumanBytes(3ull * 1024 * 1024 * 1024), "3.0 GiB");
}

}  // namespace
}  // namespace tpm
