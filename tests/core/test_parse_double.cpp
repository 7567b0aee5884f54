// core::parse_double: the one parser for real numbers given on the
// command line.
#include <gtest/gtest.h>

#include <cmath>

#include "core/parse_double.hpp"

namespace gsight::core {
namespace {

TEST(ParseDouble, AcceptsDecimalAndExponentForms) {
  EXPECT_EQ(parse_double("0"), 0.0);
  EXPECT_EQ(parse_double("120"), 120.0);
  EXPECT_EQ(parse_double("0.05"), 0.05);
  EXPECT_EQ(parse_double("-2.5"), -2.5);
  EXPECT_EQ(parse_double("5e4"), 50000.0);
  EXPECT_EQ(parse_double(".5"), 0.5);
}

TEST(ParseDouble, RejectsWhatAtofAccepts) {
  // atof reads these as 0, 12, 0, NaN, inf, inf, 5, 5, 1 and inf.
  for (const char* bad : {"abc", "12x", "", "nan", "inf", "-infinity", "+5",
                          " 5", "1 ", "1e999"}) {
    EXPECT_FALSE(parse_double(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(ParseDouble, EnforcesBounds) {
  EXPECT_FALSE(parse_double("-1", 0.0).has_value());
  EXPECT_EQ(parse_double("0", 0.0), 0.0);
  EXPECT_FALSE(parse_double("0", kLeastPositive).has_value());
  EXPECT_FALSE(parse_double("-0", kLeastPositive).has_value());
  EXPECT_EQ(parse_double("1e-300", kLeastPositive), 1e-300);
  EXPECT_EQ(parse_double("1", 0.0, 1.0), 1.0);
  EXPECT_FALSE(parse_double("1.01", 0.0, 1.0).has_value());
}

}  // namespace
}  // namespace gsight::core
