// Seeded property test: the std::to_chars number formatter against the
// C printf algorithms it replaced, byte for byte. The oracles below are
// the old implementations, kept only here: json_number's "%.*g" loop
// checked by sscanf, and "%.*f" into a buffer wide enough for any
// double.
#include "util/format.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace rat::util {
namespace {

using Limits = std::numeric_limits<double>;

/// The old io::json_number: the first of "%.15g", "%.16g", "%.17g" that
/// sscanf parses back to @p x.
std::string oracle_round_trip(double x) {
  char buf[64];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, x);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == x) break;
  }
  return buf;
}

/// printf("%.*f<suffix>"); the buffer holds '-', DBL_MAX's 309 integer
/// digits, '.', 9 decimals and the suffix.
std::string oracle_fixed(double x, int decimals, const char* suffix = "") {
  char buf[400];
  const int n =
      std::snprintf(buf, sizeof buf, "%.*f%s", decimals, x, suffix);
  EXPECT_LT(n, static_cast<int>(sizeof buf));
  return buf;
}

double from_bits(std::uint64_t bits) {
  double x;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

std::string round_trip(double x) {
  // Appending after a prefix also checks that nothing before is touched.
  std::string out = "k=";
  append_round_trip(out, x);
  return out.substr(2);
}

/// Special values, the decimal/exponent switch points of %g, and the
/// paper's worksheet inputs and outputs.
std::vector<double> edge_values() {
  std::vector<double> v = {
      0.0, -0.0, Limits::infinity(), -Limits::infinity(),
      Limits::quiet_NaN(), -Limits::quiet_NaN(),
      Limits::denorm_min(), -Limits::denorm_min(), DBL_MIN / 3.0,
      from_bits(0x000FFFFFFFFFFFFFull),  // largest subnormal
      DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, DBL_EPSILON,
      1e21, 1e-21, 1e15, 1e16, 1e17, 1e-4, 1e-5, 9.999999999999999e14,
      0.1, 0.2, 0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0, 0.5, 1.5, 2.5, 0.125,
      // Paper Tables 2, 5, 8 inputs and predicted outputs.
      512, 4, 1e9, 0.37, 0.16, 768, 20, 75e6, 100e6, 150e6, 0.578, 400,
      1024, 65536, 393216, 48, 158.8, 16384, 36, 5e8, 0.9, 164000, 50,
      5.78, 5.56e-6, 1.31e-4, 1.07e-1, 4.54e1, 2.30e1, 10.6, 7.8, 0.993};
  for (int e = -324; e <= 308; ++e) {
    const double p = std::pow(10.0, e);
    v.push_back(p);
    v.push_back(-p * 0.999999);
  }
  return v;
}

TEST(FormatOracle, RoundTripMatchesSnprintfOnEdgeValues) {
  for (double x : edge_values())
    EXPECT_EQ(round_trip(x), oracle_round_trip(x)) << oracle_round_trip(x);
}

TEST(FormatOracle, RoundTripMatchesSnprintfOnRandomBitPatterns) {
  std::mt19937_64 rng(20070101);
  std::size_t mismatches = 0;
  constexpr int kCases = 1'000'000;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t bits = rng();
    const std::string want = oracle_round_trip(from_bits(bits));
    const std::string got = round_trip(from_bits(bits));
    if (got != want && ++mismatches <= 5)
      ADD_FAILURE() << "bits " << std::hex << bits << ": want " << want
                    << ", got " << got;
  }
  EXPECT_EQ(mismatches, 0u) << "of " << kCases;
}

TEST(FormatOracle, FixedAndPercentMatchSnprintf) {
  std::vector<double> values = edge_values();
  // Random bit patterns cover the whole exponent range; log-uniform
  // human-scale values land on the decimals the tables actually show.
  std::mt19937_64 rng(20070102);
  std::uniform_real_distribution<double> log10_scale(-7.0, 10.0);
  for (int i = 0; i < 20'000; ++i) {
    values.push_back(from_bits(rng()));
    values.push_back(std::pow(10.0, log10_scale(rng)));
  }
  std::size_t mismatches = 0;
  for (double x : values) {
    // Up to 9 decimals: the rat.metrics.v1 *_sec fields.
    for (int d = 0; d <= 9; ++d) {
      const bool ok = fixed(x, d) == oracle_fixed(x, d) &&
                      percent(x, d) == oracle_fixed(x * 100.0, d, "%");
      if (!ok && ++mismatches <= 5)
        ADD_FAILURE() << "x=" << oracle_round_trip(x) << " d=" << d
                      << ": fixed " << fixed(x, d) << " vs "
                      << oracle_fixed(x, d);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << 10 * values.size();
}

}  // namespace
}  // namespace rat::util
