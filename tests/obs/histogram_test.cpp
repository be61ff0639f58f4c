// LogHistogram: bucket layout at octave boundaries, percentile
// interpolation, merge associativity, the overflow bucket, and the
// Registry/metrics_json integration behind record_hist.
#include "obs/histogram.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace rat::obs {
namespace {

TEST(ObsHistogram, LinearRegionIsExact) {
  for (std::uint64_t v : {0ull, 1ull, 7ull, 100ull, 255ull}) {
    const std::size_t i = LogHistogram::bucket_index(v);
    EXPECT_EQ(i, v);
    EXPECT_EQ(LogHistogram::bucket_lo(i), v);
    EXPECT_EQ(LogHistogram::bucket_hi(i), v);
  }
}

TEST(ObsHistogram, OctaveBoundaries) {
  // First log octave [256, 512): 128 sub-buckets of width 2.
  EXPECT_EQ(LogHistogram::bucket_index(255), 255u);
  EXPECT_EQ(LogHistogram::bucket_index(256), 256u);
  EXPECT_EQ(LogHistogram::bucket_index(257), 256u);
  EXPECT_EQ(LogHistogram::bucket_lo(256), 256u);
  EXPECT_EQ(LogHistogram::bucket_hi(256), 257u);
  EXPECT_EQ(LogHistogram::bucket_index(511), 383u);
  EXPECT_EQ(LogHistogram::bucket_hi(383), 511u);
  // Next octave starts a fresh sub-bucket run of width 4.
  EXPECT_EQ(LogHistogram::bucket_index(512), 384u);
  EXPECT_EQ(LogHistogram::bucket_lo(384), 512u);
  EXPECT_EQ(LogHistogram::bucket_hi(384), 515u);
}

TEST(ObsHistogram, EveryValueLandsInsideItsBucket) {
  util::Rng rng(42);
  std::vector<std::uint64_t> values{255, 256, 257, 511, 512, 513,
                                    1023, 1024, 65535, 65536};
  for (int i = 0; i < 2000; ++i)
    values.push_back(rng.next_u64() >> (rng.uniform_index(50) + 8));
  for (const std::uint64_t v : values) {
    const std::size_t i = LogHistogram::bucket_index(v);
    EXPECT_LE(LogHistogram::bucket_lo(i), v) << v;
    EXPECT_GE(LogHistogram::bucket_hi(i), v) << v;
    // Bucket width bounds the relative error of any reconstruction.
    const double lo = static_cast<double>(LogHistogram::bucket_lo(i));
    const double hi = static_cast<double>(LogHistogram::bucket_hi(i));
    if (v >= 256) {
      EXPECT_LE((hi - lo) / lo, LogHistogram::max_relative_error()) << v;
    }
  }
}

TEST(ObsHistogram, PercentileInterpolation) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  // Values below 256 sit in exact unit buckets, so nearest-rank
  // percentiles are exact.
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(90.0), 90.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 99.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
}

TEST(ObsHistogram, PercentileRelativeErrorWithinBound) {
  LogHistogram h;
  constexpr std::uint64_t kValue = 1'000'000'007;  // deep in log territory
  h.record(kValue, 1000);
  for (double p : {1.0, 50.0, 99.0, 99.9}) {
    const double got = h.percentile(p);
    EXPECT_NEAR(got, static_cast<double>(kValue),
                static_cast<double>(kValue) *
                    LogHistogram::max_relative_error())
        << p;
  }
}

TEST(ObsHistogram, StatsTrackExactExtremes) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  h.record(300);
  h.record(1000, 3);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min(), 300u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), (300.0 + 3 * 1000.0) / 4.0);
}

TEST(ObsHistogram, MergeIsAssociative) {
  util::Rng rng(7);
  LogHistogram a, b, c;
  for (int i = 0; i < 500; ++i) a.record(rng.next_u64() >> 40);
  for (int i = 0; i < 300; ++i) b.record(rng.next_u64() >> 30);
  for (int i = 0; i < 200; ++i) c.record(rng.next_u64() >> 20);

  LogHistogram left(a);  // (a + b) + c
  left.merge(b);
  left.merge(c);
  LogHistogram bc(b);    // a + (b + c)
  bc.merge(c);
  LogHistogram right(a);
  right.merge(bc);

  EXPECT_EQ(left.count(), right.count());
  EXPECT_EQ(left.overflow_count(), right.overflow_count());
  EXPECT_EQ(left.min(), right.min());
  EXPECT_EQ(left.max(), right.max());
  EXPECT_DOUBLE_EQ(left.mean(), right.mean());
  for (double p = 0.5; p < 100.0; p += 0.5)
    EXPECT_DOUBLE_EQ(left.percentile(p), right.percentile(p)) << p;
}

TEST(ObsHistogram, OverflowBucket) {
  LogHistogram h(1000);
  h.record(500, 99);
  h.record(123456);  // above the ceiling
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.overflow_count(), 1u);
  EXPECT_EQ(h.max(), 123456u);
  // Ranks inside the tracked range interpolate normally; the rank that
  // falls in the overflow bucket reports the exact observed max.
  EXPECT_NEAR(h.percentile(50.0), 500.0, 500.0 / 128.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 123456.0);
}

TEST(ObsHistogram, MergeRejectsMismatchedCeilings) {
  LogHistogram a(1000), b(2000);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(ObsHistogram, RegistryRecordsAndExportsHists) {
  Registry r;
  r.record_hist("op.latency", 2'000'000);
  r.record_hist("op.latency", 4'000'000);
  const auto hists = r.hists();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists.at("op.latency").count(), 2u);

  const std::string json = io::metrics_json(r);
  EXPECT_NE(json.find("\"hists\":{\"op.latency\":{\"count\":2"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"p99_sec\":"), std::string::npos);

  r.reset();
  EXPECT_TRUE(r.hists().empty());
}

}  // namespace
}  // namespace rat::obs
