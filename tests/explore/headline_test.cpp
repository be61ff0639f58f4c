// The explore headline as exact counts, on bench_explore_pruning's grid:
// 64 pipeline counts x 32 clock estimates x 8 fixed-point widths = 16,384
// permutations of a monotone pdf1d factory against an 8x goal. The
// explorer must return the serial reference's result byte for byte, the
// grid's pass/fail shape fixes how many candidates each gate decides, and
// a warm plan cache must replay every evaluation the cold run made.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>

#include "core/designspace.hpp"
#include "core/parameters.hpp"
#include "core/units.hpp"
#include "explore/explorer.hpp"
#include "explore/plan_cache.hpp"

namespace rat::explore {
namespace {

core::DesignAxes bench_axes() {
  core::DesignAxes axes;
  axes.parallelism.clear();
  axes.fclock_hz.clear();
  axes.format_bits.clear();
  for (int p = 1; p <= 64; ++p) axes.parallelism.push_back(p);
  for (int i = 0; i < 32; ++i)
    axes.fclock_hz.push_back(core::mhz(80.0 + 5.0 * i));
  for (int b = 10; b <= 24; b += 2) axes.format_bits.push_back(b);
  return axes;
}

// Speedup rises with parallelism and clock and falls with format width.
core::CandidateFactory bench_factory() {
  return [base = core::pdf1d_inputs()](const core::DesignPoint& p)
             -> std::optional<core::DesignCandidate> {
    core::DesignCandidate c;
    c.inputs = base;
    c.inputs.name = p.label();
    c.inputs.comp.throughput_ops_per_cycle =
        0.35 * static_cast<double>(p.parallelism);
    c.inputs.dataset.bytes_per_element =
        static_cast<double>((p.format_bits + 7) / 8);
    c.resources = {core::ResourceItem{"units", 1, p.format_bits, 0, 400,
                                      static_cast<int>(p.parallelism)}};
    return c;
  };
}

core::Requirements bench_requirements() {
  core::Requirements req;
  req.min_speedup = 8.0;
  return req;
}

/// Everything a caller observes of a result: trace, winner, skipped
/// labels and the exact prediction bits.
std::string render(const core::DesignSpaceResult& r) {
  std::string out = r.outcome.render_trace();
  out += r.outcome.accepted_index
             ? "|accepted " + std::to_string(*r.outcome.accepted_index)
             : std::string("|exhausted");
  out += "|skipped " + std::to_string(r.points_skipped);
  for (const auto& s : r.skipped_labels) out += "|" + s;
  for (const auto& p : r.outcome.predictions)
    out.append(reinterpret_cast<const char*>(&p), sizeof p);
  return out;
}

TEST(ExploreHeadline, BenchGridMatchesTheSerialReference) {
  const auto device = rcsim::virtex4_lx100();
  const auto reference = core::explore_design_space(
      bench_axes(), bench_factory(), bench_requirements(), device);
  ASSERT_TRUE(reference.outcome.proceed);
  EXPECT_EQ(reference.points_total, 16384u);
  EXPECT_EQ(reference.outcome.predictions.size(), 6905u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ExploreOptions opt;
    opt.n_threads = threads;
    const auto run = explore_design_space_pruned(
        bench_axes(), bench_factory(), bench_requirements(), device, opt);
    EXPECT_EQ(render(run.design), render(reference)) << threads << " threads";
    EXPECT_EQ(run.winner_index, reference.outcome.accepted_index);
    // The winner is the 6,905th candidate: every one before it fails the
    // throughput gate, so one full gate pipeline runs and nothing after
    // the winner is touched.
    const ExploreStats& st = run.stats;
    EXPECT_EQ(run.design.outcome.predictions.size(), 6905u);
    EXPECT_EQ(st.points_evaluated, 1u);
    EXPECT_EQ(st.points_bounded, 6904u);
    EXPECT_EQ(st.rejected_throughput, 6904u);
    EXPECT_EQ(st.points_pruned, 16384u - 6905u);
    EXPECT_EQ(st.points_restored, 0u);
  }
}

TEST(ExploreHeadline, WarmPlanCacheReplaysEveryEvaluation) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "explore_headline";
  fs::remove_all(dir);
  const auto device = rcsim::virtex4_lx100();
  ExploreStats cold, warm;
  {
    PlanCache cache(dir);
    ExploreOptions opt;
    opt.plan_cache = &cache;
    cold = explore_design_space_pruned(bench_axes(), bench_factory(),
                                       bench_requirements(), device, opt)
               .stats;
  }
  {
    PlanCache cache(dir);  // a fresh handle on the same directory
    ExploreOptions opt;
    opt.plan_cache = &cache;
    warm = explore_design_space_pruned(bench_axes(), bench_factory(),
                                       bench_requirements(), device, opt)
               .stats;
  }
  fs::remove_all(dir);
  EXPECT_EQ(cold.points_evaluated, 1u);
  EXPECT_EQ(cold.cache_puts, cold.points_evaluated);
  EXPECT_EQ(warm.cache_hits, cold.points_evaluated);
  EXPECT_EQ(warm.points_restored, cold.points_evaluated);
  EXPECT_EQ(warm.points_evaluated, 0u);
  EXPECT_EQ(warm.cache_puts, 0u);
}

}  // namespace
}  // namespace rat::explore
