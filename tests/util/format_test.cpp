#include "util/format.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdlib>
#include <limits>
#include <string>

namespace rat::util {
namespace {

TEST(SciFormat, MatchesPaperStyle) {
  EXPECT_EQ(sci(5.56e-6), "5.56E-6");
  EXPECT_EQ(sci(1.31e-4), "1.31E-4");
  EXPECT_EQ(sci(1.07e-1), "1.07E-1");
  EXPECT_EQ(sci(4.54e+1), "4.54E1");
  EXPECT_EQ(sci(2.30e+1), "2.30E1");
}

TEST(SciFormat, RoundsToSignificantFigures) {
  EXPECT_EQ(sci(5.4649e-2), "5.46E-2");
  EXPECT_EQ(sci(5.4651e-2), "5.47E-2");
  EXPECT_EQ(sci(9.999e-3), "1.00E-2");
}

TEST(SciFormat, HandlesSignsAndSpecials) {
  EXPECT_EQ(sci(-5.56e-6), "-5.56E-6");
  EXPECT_EQ(sci(0.0), "0.00E0");
  EXPECT_EQ(sci(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(sci(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(sci(-std::numeric_limits<double>::infinity()), "-inf");
}

TEST(SciFormat, SigFigsParameter) {
  EXPECT_EQ(sci(1.23456e3, 5), "1.2346E3");
  EXPECT_EQ(sci(1.23456e3, 1), "1E3");
}

TEST(PercentFormat, IntegerAndFractionalDigits) {
  EXPECT_EQ(percent(0.15), "15%");
  EXPECT_EQ(percent(0.004, 1), "0.4%");
  EXPECT_EQ(percent(0.993, 1), "99.3%");
  EXPECT_EQ(percent(1.0), "100%");
}

TEST(FixedFormat, Decimals) {
  EXPECT_EQ(fixed(10.57, 1), "10.6");
  EXPECT_EQ(fixed(7.8, 1), "7.8");
  EXPECT_EQ(fixed(3.0, 0), "3");
}

TEST(FixedFormat, WideValuesKeepEveryDigit) {
  // 301 integer digits, '.', one decimal: no fixed-size buffer cuts it.
  const std::string s = fixed(1e300, 1);
  EXPECT_EQ(s.size(), 303u);
  EXPECT_EQ(std::strtod(s.c_str(), nullptr), 1e300);
  EXPECT_EQ(fixed(-DBL_MAX, 0).size(), 310u);
  // Past the stack buffer's decimals, still printf's digits.
  EXPECT_EQ(fixed(0.1, 40), "0.1000000000000000055511151231257827021182");
}

TEST(PercentFormat, WideValuesKeepEveryDigit) {
  const std::string s = percent(1e300);
  ASSERT_EQ(s.size(), 304u);
  EXPECT_EQ(s.back(), '%');
  EXPECT_EQ(std::strtod(s.c_str(), nullptr), 1e302);
}

TEST(BytesFormat, Units) {
  EXPECT_EQ(bytes(512), "512.0 B");
  EXPECT_EQ(bytes(2048), "2.0 KB");
  EXPECT_EQ(bytes(1048576), "1.0 MB");
  EXPECT_EQ(bytes(1.5 * 1024 * 1024 * 1024), "1.5 GB");
}

TEST(SiFormat, Prefixes) {
  EXPECT_EQ(si(150e6, "Hz"), "150 MHz");
  EXPECT_EQ(si(1e9, "B/s"), "1 GB/s");
  EXPECT_EQ(si(42, "ops"), "42 ops");
}

TEST(Pad, LeftAndRight) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");
  EXPECT_EQ(pad_right("abcd", 2), "abcd");
}

TEST(ApproxEqual, Basics) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(approx_equal(1.0, 1.001, 1e-2));
  EXPECT_TRUE(approx_equal(0.0, 0.0));
  EXPECT_TRUE(approx_equal(-5.0, -5.0));
  EXPECT_FALSE(approx_equal(-5.0, 5.0));
}

}  // namespace
}  // namespace rat::util
