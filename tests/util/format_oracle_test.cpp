// Seeded property test: the std::to_chars number formatter against the
// C printf algorithms it replaced, byte for byte. The oracles below are
// the old implementations, kept only here: json_number's "%.*g" loop
// checked by sscanf, and "%.*f" into a buffer wide enough for any
// double. Beside random bit patterns, the round-trip oracle runs over
// value classes those patterns almost never draw: powers of two and
// their neighbours, k-digit decimals, integers near 2^53, and the
// numbers a miss renders for perturbed worksheets. The design-point labels and throughput-gate details, which an
// exploration writes for every candidate, are checked against the string
// expressions they were first written as, with the numbers from the same
// "%.*f" oracle.
#include "util/format.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/designspace.hpp"
#include "core/evaluation.hpp"
#include "core/parameters.hpp"
#include "core/throughput.hpp"
#include "core/units.hpp"
#include "io/diagnostics.hpp"
#include "load/mix.hpp"
#include "util/rng.hpp"

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

/// Every power of two from 2^-1074 to 2^1023, with both neighbours and
/// 3·2^e. A power of two's lower neighbour is half as far away as its
/// upper one, so its shortest 16-digit text can name the neighbour
/// while "%.16g" does not: the case append_round_trip keeps its loop
/// for, and one the random bit patterns almost never draw.
std::vector<double> power_of_two_values() {
  std::vector<double> v;
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    v.push_back(p);
    v.push_back(std::nextafter(p, 0.0));
    v.push_back(std::nextafter(p, Limits::infinity()));
    v.push_back(std::ldexp(3.0, e));
  }
  return v;
}

/// k-digit decimals for k = 1..17 at every normal decimal exponent, two
/// seeded significands each, with both neighbours: %.15g, %.16g and
/// %.17g part ways at 15, 16 and 17 digits.
std::vector<double> decimal_values() {
  std::mt19937_64 rng(20070104);
  std::vector<double> v;
  for (int k = 1; k <= 17; ++k) {
    for (int e = Limits::min_exponent10; e <= Limits::max_exponent10; ++e) {
      for (int draw = 0; draw < 2; ++draw) {
        std::string text(1, static_cast<char>('1' + rng() % 9));
        text += '.';
        for (int d = 1; d < k; ++d)
          text += static_cast<char>('0' + rng() % 10);
        text += 'e' + std::to_string(e);
        double x = 0.0;
        if (std::sscanf(text.c_str(), "%lf", &x) != 1 || !std::isfinite(x))
          continue;
        v.push_back(x);
        v.push_back(std::nextafter(x, 0.0));
        v.push_back(std::nextafter(x, Limits::infinity()));
      }
    }
  }
  return v;
}

/// Every integer within 10^5 of 2^53, where doubles stop holding every
/// integer and the 16th and 17th digits decide.
std::vector<double> near_two53_values() {
  const double two53 = std::ldexp(1.0, 53);
  std::vector<double> v;
  for (int d = -100'000; d <= 100'000; ++d) v.push_back(two53 + d);
  return v;
}

/// The numbers a miss renders (its inputs and every prediction) for 300
/// fixture worksheets perturbed as load::Mix perturbs routed_cold's
/// unique requests.
std::vector<double> perturbed_worksheet_values() {
  load::Mix mix = load::Mix::from_fixture_dir(
      std::filesystem::path(RAT_SOURCE_DIR) / "tests" / "fixtures" /
      "worksheets");
  util::Rng rng(20070105);
  std::vector<double> v;
  for (int i = 0; i < 300; ++i) {
    core::RatInputs in;
    try {
      in = core::RatInputs::parse(mix.next(rng, 0.0));
    } catch (const core::ParseError&) {
      continue;  // the broken fixture's variants
    }
    v.insert(v.end(), {in.dataset.bytes_per_element,
                       in.comm.ideal_bw_bytes_per_sec, in.comm.alpha_write,
                       in.comm.alpha_read, in.comp.ops_per_element,
                       in.comp.throughput_ops_per_cycle,
                       in.software.tsoft_sec});
    v.insert(v.end(), in.comp.fclock_hz.begin(), in.comp.fclock_hz.end());
    for (const core::ThroughputPrediction& p : core::predict_all(in))
      v.insert(v.end(),
               {p.fclock_hz, p.t_write_sec, p.t_read_sec, p.t_comm_sec,
                p.t_comp_sec, p.t_rc_sb_sec, p.t_rc_db_sec, p.speedup_sb,
                p.speedup_db, p.util_comp_sb, p.util_comm_sb,
                p.util_comp_db, p.util_comm_db});
  }
  return v;
}

TEST(FormatOracle, RoundTripMatchesSnprintfOnValueClassesRandomBitsMiss) {
  const std::pair<const char*, std::vector<double>> classes[] = {
      {"powers of two", power_of_two_values()},
      {"k-digit decimals", decimal_values()},
      {"integers near 2^53", near_two53_values()},
      {"perturbed worksheets", perturbed_worksheet_values()}};
  for (const auto& [name, values] : classes) {
    EXPECT_GT(values.size(), 1000u) << name;
    std::size_t mismatches = 0;
    for (double x : values) {
      const std::string want = oracle_round_trip(x);
      const std::string got = round_trip(x);
      if (got != want && ++mismatches <= 5)
        ADD_FAILURE() << name << ": want " << want << ", got " << got;
    }
    EXPECT_EQ(mismatches, 0u) << name << ", of " << values.size();
  }
}

/// Integral doubles: the small counts and clocks the tables print, both
/// sides of 2^53 (where every double becomes an integer), and the design
/// grids' MHz values.
std::vector<double> integral_values() {
  std::vector<double> v;
  for (int k = 0; k <= 4096; ++k) {
    v.push_back(k);
    v.push_back(-k);
  }
  const double two53 = std::ldexp(1.0, 53);
  for (int k = -4; k <= 4; ++k) {
    v.push_back(two53 + k);
    v.push_back(-(two53 + k));
  }
  for (double x : {1e15, 1e16, 1e22}) {
    v.push_back(x);
    v.push_back(-x);
  }
  for (int mhz = 80; mhz <= 400; mhz += 5) v.push_back(mhz);
  return v;
}

TEST(FormatOracle, FixedAndPercentMatchSnprintf) {
  std::vector<double> values = edge_values();
  const std::vector<double> integral = integral_values();
  values.insert(values.end(), integral.begin(), integral.end());
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
    // Up to 9 decimals: the rat.metrics.v1 *_sec fields. A negative
    // count means 6, as in printf.
    for (int d = -1; d <= 9; ++d) {
      const bool ok = fixed(x, d) == oracle_fixed(x, d) &&
                      percent(x, d) == oracle_fixed(x * 100.0, d, "%");
      if (!ok && ++mismatches <= 5)
        ADD_FAILURE() << "x=" << oracle_round_trip(x) << " d=" << d
                      << ": fixed " << fixed(x, d) << " vs "
                      << oracle_fixed(x, d);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << 11 * values.size();
}

/// A double for a clock, speedup or goal: special values, subnormals,
/// integral and half-way MHz clocks, random bit patterns and log-uniform
/// magnitudes, each with either sign.
double sample_value(std::mt19937_64& rng) {
  static const std::vector<double> edges = edge_values();
  std::uniform_real_distribution<double> log10_scale(-3.0, 12.0);
  double x = 0.0;
  switch (rng() % 6) {
    case 0: x = edges[rng() % edges.size()]; break;
    case 1: x = from_bits(rng()); break;
    case 2: x = core::mhz(static_cast<double>(rng() % 4096)); break;
    case 3: x = core::mhz(static_cast<double>(rng() % 4096) + 0.5); break;
    case 4: x = static_cast<double>(rng() % 100'000) / 10.0; break;
    default: x = std::pow(10.0, log10_scale(rng)); break;
  }
  return rng() % 4 == 0 ? -x : x;
}

TEST(FormatOracle, LabelAndGateDetailsMatchTheirExpressions) {
  // The values an exploration is least likely to meet, named once so
  // every run covers them.
  const std::vector<double> clocks = {
      0.0, -0.0, Limits::quiet_NaN(), -Limits::quiet_NaN(),
      Limits::infinity(), -Limits::infinity(), Limits::denorm_min(),
      DBL_MIN / 3.0, core::mhz(99.5), core::mhz(100.5), core::mhz(100),
      core::mhz(80), core::mhz(400)};
  const std::vector<double> speedups = {
      Limits::infinity(), -Limits::infinity(), Limits::quiet_NaN(),
      -Limits::quiet_NaN(), 0.0, -0.0, 10.0, 9.95, 10.05};
  std::mt19937_64 rng(20070103);
  std::size_t mismatches = 0;
  constexpr std::size_t kCases = 100'000;
  for (std::size_t i = 0; i < kCases; ++i) {
    core::DesignPoint p;
    switch (rng() % 3) {
      case 0: p.parallelism = 1 + rng() % 1024; break;
      case 1: p.parallelism = rng(); break;
      default: p.parallelism = rng() % 2 ? 0 : ~std::size_t{0}; break;
    }
    p.fclock_hz = i < clocks.size() ? clocks[i] : sample_value(rng);
    p.format_bits = rng() % 2 ? static_cast<int>(2 + rng() % 62)
                              : static_cast<int>(rng());
    const std::string label = p.label();
    const std::string want_label =
        std::to_string(p.parallelism) + "x @ " +
        oracle_fixed(core::to_mhz(p.fclock_hz), 0) + " MHz / " +
        std::to_string(p.format_bits) + "-bit";

    core::Requirements req;
    req.double_buffered = rng() % 2 == 0;
    req.min_speedup = i < speedups.size() ? speedups[speedups.size() - 1 - i]
                                          : sample_value(rng);
    core::ThroughputPrediction pred;
    pred.speedup_sb = i < speedups.size() ? speedups[i] : sample_value(rng);
    pred.speedup_db = i < speedups.size() ? speedups[i] : sample_value(rng);
    core::CandidateEvaluation ev;
    const bool passed = core::apply_throughput_gate(ev, i, label, req, pred);
    const double speedup =
        req.double_buffered ? pred.speedup_db : pred.speedup_sb;
    const bool want_passed = speedup >= req.min_speedup;
    const std::string want_detail = "predicted speedup " +
                                    oracle_fixed(speedup, 1) +
                                    " vs required " +
                                    oracle_fixed(req.min_speedup, 1);

    bool ok = label == want_label && passed == want_passed &&
              ev.trace.size() == (want_passed ? 1u : 2u) &&
              ev.trace[0].candidate_index == i &&
              ev.trace[0].candidate_name == want_label &&
              ev.trace[0].step == core::Step::kThroughputTest &&
              ev.trace[0].passed == want_passed &&
              ev.trace[0].detail == want_detail;
    if (ok && !want_passed)
      ok = ev.trace[1].candidate_index == i &&
           ev.trace[1].candidate_name == want_label &&
           ev.trace[1].step == core::Step::kRejected && !ev.trace[1].passed &&
           ev.trace[1].detail == "insufficient comm. or comp. throughput" &&
           ev.reject == core::RejectReason::kInsufficientThroughput;
    if (!ok && ++mismatches <= 5)
      ADD_FAILURE() << "case " << i << ": label " << label << " vs "
                    << want_label << "; detail "
                    << (ev.trace.empty() ? "" : ev.trace[0].detail) << " vs "
                    << want_detail;
  }
  EXPECT_EQ(mismatches, 0u) << "of " << kCases;
}

}  // namespace
}  // namespace rat::util
