#include "core/designspace.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/units.hpp"

namespace rat::core {
namespace {

/// Factory: a PDF-like worksheet whose throughput scales with parallelism.
CandidateFactory simple_factory(int dsp_per_unit = 1) {
  return [dsp_per_unit](const DesignPoint& p)
             -> std::optional<DesignCandidate> {
    DesignCandidate c;
    c.inputs = pdf1d_inputs();
    c.inputs.name = p.label();
    c.inputs.comp.throughput_ops_per_cycle =
        2.5 * static_cast<double>(p.parallelism);
    c.resources = {ResourceItem{"units", dsp_per_unit, p.format_bits, 0,
                                400, static_cast<int>(p.parallelism)}};
    return c;
  };
}

TEST(DesignAxes, Validation) {
  DesignAxes axes;
  axes.parallelism.clear();
  EXPECT_THROW(axes.validate(), std::invalid_argument);
  axes = DesignAxes{};
  axes.parallelism = {0};
  EXPECT_THROW(axes.validate(), std::invalid_argument);
  axes = DesignAxes{};
  axes.fclock_hz = {-1.0};
  EXPECT_THROW(axes.validate(), std::invalid_argument);
  axes = DesignAxes{};
  axes.format_bits = {64};
  EXPECT_THROW(axes.validate(), std::invalid_argument);
  EXPECT_NO_THROW(DesignAxes{}.validate());
  EXPECT_EQ((DesignAxes{}.size()), 8u);  // 4 x 2 x 1
}

TEST(DesignAxes, RejectsDuplicateAndUnsortedAxes) {
  // Duplicates would double-evaluate points; unsorted axes break the
  // explorer's corner bounds. Both are caught per axis.
  DesignAxes axes;
  axes.parallelism = {1, 2, 2, 4};
  EXPECT_THROW(axes.validate(), std::invalid_argument);
  axes = DesignAxes{};
  axes.parallelism = {4, 2, 1};
  EXPECT_THROW(axes.validate(), std::invalid_argument);
  axes = DesignAxes{};
  axes.fclock_hz = {mhz(150), mhz(100)};
  EXPECT_THROW(axes.validate(), std::invalid_argument);
  axes = DesignAxes{};
  axes.fclock_hz = {mhz(100), mhz(100)};
  EXPECT_THROW(axes.validate(), std::invalid_argument);
  axes = DesignAxes{};
  axes.format_bits = {18, 12};
  EXPECT_THROW(axes.validate(), std::invalid_argument);
  axes = DesignAxes{};
  axes.format_bits = {12, 12};
  EXPECT_THROW(axes.validate(), std::invalid_argument);
}

TEST(DesignAxes, SizeOverflowIsAStructuredError) {
  // 2^21 * 2^21 * 2^22 = 2^64 wraps to 0 without the check.
  DesignAxes axes;
  axes.parallelism.assign(std::size_t{1} << 21, 1);
  axes.fclock_hz.assign(std::size_t{1} << 21, 1.0);
  axes.format_bits.assign(std::size_t{1} << 22, 18);
  EXPECT_THROW((void)axes.size(), std::overflow_error);
}

TEST(DesignSpace, EnumerateReportsThePointBehindEachCandidate) {
  DesignAxes axes;
  axes.parallelism = {1, 3, 4};
  axes.fclock_hz = {mhz(100), mhz(150)};
  std::vector<std::string> skipped;
  std::vector<DesignPoint> points;
  const auto candidates = enumerate_design_space(
      axes,
      [](const DesignPoint& p) -> std::optional<DesignCandidate> {
        if (p.parallelism == 3) return std::nullopt;
        return simple_factory()(p);
      },
      &skipped, &points);
  ASSERT_EQ(points.size(), candidates.size());
  EXPECT_EQ(skipped.size(), 2u);
  for (std::size_t i = 0; i < candidates.size(); ++i)
    EXPECT_EQ(candidates[i].inputs.name, points[i].label());
  EXPECT_EQ(points[0].parallelism, 1u);
  EXPECT_EQ(points[2].parallelism, 4u);
  EXPECT_DOUBLE_EQ(points[1].fclock_hz, mhz(150));
}

TEST(DesignSpace, EnumeratesCheapestFirst) {
  DesignAxes axes;
  axes.parallelism = {2, 8};
  axes.fclock_hz = {mhz(100), mhz(150)};
  axes.format_bits = {12, 18};
  const auto candidates = enumerate_design_space(axes, simple_factory());
  ASSERT_EQ(candidates.size(), 8u);
  EXPECT_EQ(candidates[0].inputs.name, "2x @ 100 MHz / 12-bit");
  EXPECT_EQ(candidates[1].inputs.name, "2x @ 100 MHz / 18-bit");
  EXPECT_EQ(candidates[2].inputs.name, "2x @ 150 MHz / 12-bit");
  EXPECT_EQ(candidates[4].inputs.name, "8x @ 100 MHz / 12-bit");
  EXPECT_DOUBLE_EQ(candidates[2].decision_clock_hz, mhz(150));
}

TEST(DesignSpace, FactoryCanSkipPoints) {
  DesignAxes axes;
  axes.parallelism = {1, 3, 4};
  axes.fclock_hz = {mhz(100)};
  const auto candidates = enumerate_design_space(
      axes, [](const DesignPoint& p) -> std::optional<DesignCandidate> {
        if (p.parallelism == 3) return std::nullopt;  // indivisible
        return simple_factory()(p);
      });
  EXPECT_EQ(candidates.size(), 2u);
}

TEST(DesignSpace, ExploreSettlesOnCheapestPassingDesign) {
  // 2.5 ops/cycle per unit, goal 7x at 100 MHz needs ~ 19.8 ops/cycle:
  // 8 units is the first passing parallelism.
  DesignAxes axes;
  axes.parallelism = {1, 2, 4, 8, 16};
  axes.fclock_hz = {mhz(100)};
  Requirements req;
  req.min_speedup = 7.0;
  const auto result = explore_design_space(axes, simple_factory(), req,
                                           rcsim::virtex4_lx100());
  ASSERT_TRUE(result.outcome.proceed) << result.outcome.render_trace();
  EXPECT_EQ(
      result.outcome.predictions[*result.outcome.accepted_index].fclock_hz,
      mhz(100));
  const auto& accepted_name =
      result.outcome.trace.back().candidate_name;
  EXPECT_EQ(accepted_name, "8x @ 100 MHz / 18-bit");
  EXPECT_EQ(result.points_skipped, 0u);
}

TEST(DesignSpace, ResourceGateCanExhaustTheSpace) {
  // Each unit eats 24 DSPs: 8x+ designs no longer fit the 96-DSP device,
  // and the smaller ones fail throughput — exhaustion without solution.
  DesignAxes axes;
  axes.parallelism = {1, 2, 4, 8, 16};
  axes.fclock_hz = {mhz(100)};
  Requirements req;
  req.min_speedup = 7.0;
  const auto result = explore_design_space(axes, simple_factory(24), req,
                                           rcsim::virtex4_lx100());
  EXPECT_FALSE(result.outcome.proceed);
}

// The two fingerprints that key the plan cache (explore/plan_cache.hpp).
TEST(DesignSpaceFingerprint, CandidateFingerprintIsBitSensitive) {
  DesignCandidate a;
  a.inputs = pdf1d_inputs();
  DesignCandidate b = a;
  EXPECT_EQ(candidate_fingerprint(a), candidate_fingerprint(b));
  b.inputs.comp.throughput_ops_per_cycle += 1e-12;
  EXPECT_NE(candidate_fingerprint(a), candidate_fingerprint(b));
  b = a;
  b.decision_clock_hz = a.decision_clock_hz + 1.0;
  EXPECT_NE(candidate_fingerprint(a), candidate_fingerprint(b));
  b = a;
  b.resources.push_back(ResourceItem{"extra", 1, 18, 0, 1, 1});
  EXPECT_NE(candidate_fingerprint(a), candidate_fingerprint(b));
}

TEST(DesignSpaceFingerprint, RequirementsFingerprintCoversDeviceAndGates) {
  Requirements req;
  const auto device = rcsim::virtex4_lx100();
  const std::uint64_t base = requirements_fingerprint(req, device);
  Requirements changed = req;
  changed.double_buffered = !req.double_buffered;
  EXPECT_NE(requirements_fingerprint(changed, device), base);
  changed = req;
  changed.min_energy_ratio = 1.5;
  EXPECT_NE(requirements_fingerprint(changed, device), base);
  auto other_device = device;
  other_device.inventory.dsp += 1;
  EXPECT_NE(requirements_fingerprint(req, other_device), base);
}

TEST(DesignSpace, Validation) {
  EXPECT_THROW(enumerate_design_space(DesignAxes{}, nullptr),
               std::invalid_argument);
  DesignAxes axes;
  Requirements req;
  EXPECT_THROW(
      explore_design_space(
          axes,
          [](const DesignPoint&) -> std::optional<DesignCandidate> {
            return std::nullopt;  // skips everything
          },
          req, rcsim::virtex4_lx100()),
      std::invalid_argument);
}

}  // namespace
}  // namespace rat::core
