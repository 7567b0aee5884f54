// core::parse_uint: the one parser for unsigned integers given on the
// command line and in the environment.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/parse_uint.hpp"

namespace gsight::core {
namespace {

TEST(ParseUint, AcceptsPlainDecimal) {
  EXPECT_EQ(parse_uint("0"), 0u);
  EXPECT_EQ(parse_uint("12"), 12u);
  EXPECT_EQ(parse_uint("007"), 7u);
  EXPECT_EQ(parse_uint("18446744073709551615"), UINT64_MAX);
}

TEST(ParseUint, RejectsWhatStrtoulAccepts) {
  // strtoul reads these as 2^64 - 1, 12, 0, 5, 5 and 0.
  for (const char* bad : {"-1", "12x", "abc", "+5", " 5", "", "0x10",
                          "1 ", "1.5", "18446744073709551616"}) {
    EXPECT_FALSE(parse_uint(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(ParseUint, CapsThreadCounts) {
  const std::string cap = std::to_string(kMaxThreads);
  const std::string over = std::to_string(kMaxThreads + 1);
  EXPECT_EQ(parse_uint(cap, kMaxThreads), kMaxThreads);
  EXPECT_FALSE(parse_uint(over, kMaxThreads).has_value());
  EXPECT_FALSE(parse_uint("18446744073709551615", kMaxThreads).has_value());
  EXPECT_EQ(parse_uint("0", kMaxThreads), 0u);
}

}  // namespace
}  // namespace gsight::core
