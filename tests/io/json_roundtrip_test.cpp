// Writer <-> reader round trips over io's JSON layer, seeded: every byte
// string append_json_str writes, and every number append_json_number
// writes, comes back from parse_json as the same bytes and the same
// bits (a non-finite number as null), and a rat.metrics.v1 document
// returns the registry it was rendered from. Then the confirmed case
// behind the null rule: a worksheet that passes validation but whose
// predictions overflow renders as JSON that parses.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "io/batch.hpp"
#include "io/json.hpp"
#include "io/loader.hpp"
#include "svc/fingerprint.hpp"
#include "svc/protocol.hpp"
#include "util/rng.hpp"

namespace rat::io {
namespace {

using Limits = std::numeric_limits<double>;

constexpr std::uint64_t kSeed = 0x0150'2007'cafeull;

std::string random_bytes(util::Rng& rng, std::size_t max_size) {
  std::string s(rng.uniform_index(max_size + 1), '\0');
  for (char& c : s) c = static_cast<char>(rng.uniform_index(256));
  return s;
}

/// Finite: @p v is the number with @p x's exact bits. Otherwise: null.
bool same_number(const JsonValue& v, double x) {
  if (!std::isfinite(x)) return v.is_null();
  return v.is_number() &&
         std::bit_cast<std::uint64_t>(v.number) ==
             std::bit_cast<std::uint64_t>(x);
}

TEST(JsonRoundTrip, EveryByteStringComesBackIdentical) {
  std::vector<std::string> cases = {""};
  std::string every_byte;
  for (int b = 0; b < 256; ++b) {
    cases.emplace_back(1, static_cast<char>(b));
    every_byte += static_cast<char>(b);
  }
  cases.push_back(every_byte);
  util::Rng rng(kSeed);
  for (int i = 0; i < 5000; ++i) cases.push_back(random_bytes(rng, 64));

  for (const std::string& s : cases) {
    std::string doc;
    append_json_str(doc, s);
    const JsonValue v = parse_json(doc);
    ASSERT_TRUE(v.is_string()) << doc;
    ASSERT_EQ(v.string, s) << doc;
  }
}

TEST(JsonRoundTrip, NumbersComeBackBitIdenticalOrNull) {
  std::vector<double> values = {
      0.0, -0.0, Limits::infinity(), -Limits::infinity(),
      Limits::quiet_NaN(), -Limits::quiet_NaN(), Limits::signaling_NaN(),
      std::bit_cast<double>(0x7FF0'0000'0000'0001ull),  // NaN payloads
      std::bit_cast<double>(0xFFFF'FFFF'FFFF'FFFFull),
      Limits::denorm_min(), -Limits::denorm_min(), DBL_MIN, DBL_MAX,
      -DBL_MAX, DBL_EPSILON, 0.1 + 0.2, 1.0 / 3.0, 1e21, 1e-7};
  util::Rng rng(kSeed + 1);
  for (int i = 0; i < 200'000; ++i)
    values.push_back(std::bit_cast<double>(rng.next_u64()));

  std::size_t mismatches = 0;
  for (double x : values) {
    std::string doc;
    append_json_number(doc, x);
    const bool ok = same_number(parse_json(doc), x);
    if (!ok && ++mismatches <= 5)
      ADD_FAILURE() << "bits " << std::hex << std::bit_cast<std::uint64_t>(x)
                    << " wrote " << doc;
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size();
}

TEST(JsonRoundTrip, MetricsDocumentReturnsEveryCounterAndGauge) {
  util::Rng rng(kSeed + 2);
  obs::Registry registry;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  for (int i = 0; i < 300; ++i) {
    const std::string counter = random_bytes(rng, 24);
    // Below 2^51, so even a name drawn four times sums below 2^53,
    // where a JSON number (a double) still holds every integer.
    const std::uint64_t delta = rng.next_u64() >> 13;
    registry.add_counter(counter, delta);
    counters[counter] += delta;
    const std::string gauge = random_bytes(rng, 24);
    const double value = std::bit_cast<double>(rng.next_u64());
    registry.set_gauge(gauge, value);
    gauges[gauge] = value;
    // The other sections only need to stay parseable.
    registry.record_timer(gauge, rng.next_u64() >> 20);
    registry.record_hist(counter, rng.next_u64() >> 24);
    registry.record_span(counter, gauge, rng.next_u64() >> 2, i);
  }
  // Random bit patterns are rarely non-finite; these always are.
  for (const double x :
       {Limits::infinity(), -Limits::infinity(), Limits::quiet_NaN()}) {
    const std::string gauge = "non-finite." + std::to_string(gauges.size());
    registry.set_gauge(gauge, x);
    gauges[gauge] = x;
  }

  const JsonValue doc = parse_json(metrics_json(registry));
  ASSERT_TRUE(doc.find("schema") && doc.find("schema")->is_string());
  EXPECT_EQ(doc.find("schema")->string, "rat.metrics.v1");
  const JsonValue* counter_doc = doc.find("counters");
  ASSERT_TRUE(counter_doc && counter_doc->is_object());
  ASSERT_EQ(counter_doc->object.size(), counters.size());
  for (const auto& [name, value] : counter_doc->object) {
    ASSERT_EQ(counters.count(name), 1u) << name;
    ASSERT_TRUE(value.is_number()) << name;
    EXPECT_EQ(value.number, static_cast<double>(counters.at(name))) << name;
  }
  const JsonValue* gauge_doc = doc.find("gauges");
  ASSERT_TRUE(gauge_doc && gauge_doc->is_object());
  ASSERT_EQ(gauge_doc->object.size(), gauges.size());
  for (const auto& [name, value] : gauge_doc->object) {
    ASSERT_EQ(gauges.count(name), 1u) << name;
    EXPECT_TRUE(same_number(value, gauges.at(name))) << name;
  }
}

/// pdf1d (paper Table 2) with 16,384 elements of 1e308 bytes: it passes
/// validation, but Eq. 3 overflows (t_write_sec = inf) and Eq. 10
/// divides inf by inf (util_comm_sb = nan).
constexpr const char* kOverflowWorksheet =
    "name = overflow\n"
    "elements_in = 16384\n"
    "elements_out = 1\n"
    "bytes_per_element = 1e308\n"
    "ideal_bw_bytes_per_sec = 1e9\n"
    "alpha_write = 0.37\n"
    "alpha_read = 0.16\n"
    "ops_per_element = 768\n"
    "throughput_ops_per_cycle = 20\n"
    "fclock_hz = 75e6 100e6 150e6\n"
    "tsoft_sec = 0.578\n"
    "n_iterations = 400\n";

TEST(JsonNonFinite, OverflowingPredictionsRenderAsNullInBatchAndService) {
  const core::RatInputs in =
      parse_worksheet_text(kOverflowWorksheet, "<request>");
  const std::vector<core::ThroughputPrediction> predictions =
      core::predict_all(in);
  ASSERT_TRUE(std::isinf(predictions[0].t_write_sec));
  ASSERT_TRUE(std::isnan(predictions[0].util_comm_sb));

  BatchResult batch;
  batch.entries.push_back({{"overflow.rat", in, std::nullopt}, predictions});
  batch.n_ok = 1;
  const JsonValue batch_doc = parse_json(batch_json(batch));
  const JsonValue service_doc = parse_json(
      svc::evaluate_response("n", svc::fingerprint(in), in, predictions));

  const JsonValue* worksheets = batch_doc.find("worksheets");
  ASSERT_TRUE(worksheets && worksheets->items.size() == 1u);
  for (const JsonValue* doc : {&worksheets->items[0], &service_doc}) {
    const JsonValue* rendered = doc->find("predictions");
    ASSERT_TRUE(rendered && rendered->items.size() == predictions.size());
    for (std::size_t i = 0; i < predictions.size(); ++i) {
      const JsonValue& p = rendered->items[i];
      EXPECT_TRUE(p.find("t_write_sec")->is_null());
      EXPECT_TRUE(p.find("util_comm_sb")->is_null());
      EXPECT_TRUE(same_number(*p.find("t_read_sec"),
                              predictions[i].t_read_sec));
      EXPECT_TRUE(same_number(*p.find("speedup_sb"),
                              predictions[i].speedup_sb));
    }
  }
}

}  // namespace
}  // namespace rat::io
