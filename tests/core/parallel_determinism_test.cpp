// Determinism proofs for the parallel evaluation engine: every parallel
// entry point must produce results bit-identical to its serial run, at any
// thread count, and identical across repeated runs with the same seed. The
// explorer is compared with the serial reference core::explore_design_space,
// a separate implementation that takes no thread count.
#include <gtest/gtest.h>

#include <vector>

#include "core/designspace.hpp"
#include "core/montecarlo.hpp"
#include "core/units.hpp"
#include "explore/explorer.hpp"

namespace rat::core {
namespace {

const std::vector<std::size_t> kThreadCounts = {1, 2, 8};

/// PDF-like factory whose throughput scales with parallelism; skips the
/// indivisible 3x points so skipped-coverage is exercised too.
CandidateFactory scaling_factory() {
  return [](const DesignPoint& p) -> std::optional<DesignCandidate> {
    if (p.parallelism == 3) return std::nullopt;
    DesignCandidate c;
    c.inputs = pdf1d_inputs();
    c.inputs.name = p.label();
    c.inputs.comp.throughput_ops_per_cycle =
        2.5 * static_cast<double>(p.parallelism);
    c.resources = {ResourceItem{"units", 1, p.format_bits, 0, 400,
                                static_cast<int>(p.parallelism)}};
    return c;
  };
}

DesignAxes wide_axes() {
  DesignAxes axes;
  axes.parallelism = {1, 2, 3, 4, 6, 8, 12, 16};
  axes.fclock_hz = {mhz(75), mhz(100), mhz(150)};
  axes.format_bits = {12, 18, 24};
  return axes;
}

void expect_same_outcome(const DesignSpaceResult& a,
                         const DesignSpaceResult& b) {
  EXPECT_EQ(a.outcome.proceed, b.outcome.proceed);
  EXPECT_EQ(a.outcome.accepted_index, b.outcome.accepted_index);
  EXPECT_EQ(a.outcome.last_reject, b.outcome.last_reject);
  // Per-candidate logs must be byte-identical.
  EXPECT_EQ(a.outcome.render_trace(), b.outcome.render_trace());
  ASSERT_EQ(a.outcome.predictions.size(), b.outcome.predictions.size());
  for (std::size_t i = 0; i < a.outcome.predictions.size(); ++i) {
    EXPECT_EQ(a.outcome.predictions[i].speedup_sb,
              b.outcome.predictions[i].speedup_sb);
    EXPECT_EQ(a.outcome.predictions[i].t_comm_sec,
              b.outcome.predictions[i].t_comm_sec);
    EXPECT_EQ(a.outcome.predictions[i].t_comp_sec,
              b.outcome.predictions[i].t_comp_sec);
  }
  EXPECT_EQ(a.points_total, b.points_total);
  EXPECT_EQ(a.points_skipped, b.points_skipped);
  EXPECT_EQ(a.skipped_labels, b.skipped_labels);
}

/// The explorer's result on wide_axes() at @p threads threads.
DesignSpaceResult explore_at(const Requirements& req, std::size_t threads) {
  explore::ExploreOptions opt;
  opt.n_threads = threads;
  return explore::explore_design_space_pruned(wide_axes(), scaling_factory(),
                                              req, rcsim::virtex4_lx100(), opt)
      .design;
}

TEST(ParallelDeterminism, ExploreAcceptedDesignThreadCountInvariant) {
  Requirements req;
  req.min_speedup = 7.0;  // accepted mid-space: later points never evaluated
  const auto serial = explore_design_space(wide_axes(), scaling_factory(),
                                           req, rcsim::virtex4_lx100());
  ASSERT_TRUE(serial.outcome.proceed) << serial.outcome.render_trace();
  for (std::size_t threads : kThreadCounts)
    expect_same_outcome(serial, explore_at(req, threads));
}

TEST(ParallelDeterminism, ExploreExhaustedSpaceThreadCountInvariant) {
  Requirements req;
  req.min_speedup = 1e9;  // unreachable: every candidate is evaluated
  const auto serial = explore_design_space(wide_axes(), scaling_factory(),
                                           req, rcsim::virtex4_lx100());
  ASSERT_FALSE(serial.outcome.proceed);
  for (std::size_t threads : kThreadCounts)
    expect_same_outcome(serial, explore_at(req, threads));
}

TEST(ParallelDeterminism, ExploreRecordsSkippedLabelsInEnumerationOrder) {
  Requirements req;
  req.min_speedup = 7.0;
  const auto result = explore_at(req, 8);
  // 3x is skipped for every clock x format combination: 3 x 3 = 9 points.
  ASSERT_EQ(result.points_skipped, 9u);
  ASSERT_EQ(result.skipped_labels.size(), 9u);
  EXPECT_EQ(result.skipped_labels.front(), "3x @ 75 MHz / 12-bit");
  EXPECT_EQ(result.skipped_labels.back(), "3x @ 150 MHz / 24-bit");
}

TEST(ParallelDeterminism, MonteCarloThreadCountInvariant) {
  const RatInputs in = md_inputs();
  const auto model = UncertaintyModel::typical(in);
  // 5000 samples spans several 1024-sample chunks, with a partial tail.
  const auto serial = run_monte_carlo(in, model, 5000, 10.0, 42, 1);
  ASSERT_EQ(serial.speedup_sb_samples.size(), 5000u);
  for (std::size_t threads : kThreadCounts) {
    const auto parallel = run_monte_carlo(in, model, 5000, 10.0, 42, threads);
    EXPECT_EQ(serial.speedup_sb_samples, parallel.speedup_sb_samples)
        << "thread count " << threads;
    EXPECT_EQ(serial.probability_of_goal, parallel.probability_of_goal);
    EXPECT_EQ(serial.speedup_sb.p10, parallel.speedup_sb.p10);
    EXPECT_EQ(serial.speedup_sb.p50, parallel.speedup_sb.p50);
    EXPECT_EQ(serial.speedup_sb.p90, parallel.speedup_sb.p90);
    EXPECT_EQ(serial.speedup_db.mean, parallel.speedup_db.mean);
    EXPECT_EQ(serial.t_comm_sec.p50, parallel.t_comm_sec.p50);
  }
}

TEST(ParallelDeterminism, MonteCarloRepeatableAcrossRunsAndSeedsDiffer) {
  const RatInputs in = md_inputs();
  const auto model = UncertaintyModel::typical(in);
  const auto a = run_monte_carlo(in, model, 3000, 10.0, 7, 8);
  const auto b = run_monte_carlo(in, model, 3000, 10.0, 7, 8);
  EXPECT_EQ(a.speedup_sb_samples, b.speedup_sb_samples);
  EXPECT_EQ(a.probability_of_goal, b.probability_of_goal);
  const auto c = run_monte_carlo(in, model, 3000, 10.0, 8, 8);
  EXPECT_NE(a.speedup_sb_samples, c.speedup_sb_samples);
}

}  // namespace
}  // namespace rat::core
