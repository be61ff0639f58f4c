#include "explore/explorer.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/designspace.hpp"
#include "core/units.hpp"
#include "obs/metrics.hpp"

namespace rat::explore {
namespace {

using core::CandidateFactory;
using core::DesignAxes;
using core::DesignCandidate;
using core::DesignPoint;
using core::DesignSpaceResult;
using core::Requirements;
using core::ResourceItem;

/// Render everything the caller can observe (trace strings, exact
/// prediction bits, coverage counters) so "bit-identical to exhaustive"
/// is asserted on the whole result, not a summary of it.
std::string render_result(const DesignSpaceResult& r) {
  std::string out = r.outcome.render_trace();
  out += "proceed=" + std::to_string(r.outcome.proceed);
  out += " accepted=" + (r.outcome.accepted_index
                             ? std::to_string(*r.outcome.accepted_index)
                             : std::string("none"));
  out += " reject=" + std::to_string(static_cast<int>(r.outcome.last_reject));
  out += " total=" + std::to_string(r.points_total);
  out += " skipped=" + std::to_string(r.points_skipped);
  for (const auto& s : r.skipped_labels) out += "|" + s;
  for (const auto& p : r.outcome.predictions) {
    const char* bytes = reinterpret_cast<const char*>(&p);
    out.append(bytes, sizeof p);
  }
  return out;
}

/// The two partitions ExploreStats promises: every grid point has one
/// fate, and every candidate in the outcome was either accepted or
/// rejected by exactly one gate.
void check_invariant(const ExploreResult& r) {
  const ExploreStats& s = r.stats;
  EXPECT_EQ(s.points_skipped + s.points_bounded + s.points_evaluated +
                s.points_restored + s.points_pruned,
            s.points_total);
  EXPECT_EQ(s.rejected_throughput + s.rejected_precision +
                s.rejected_resource + s.rejected_power +
                (r.design.outcome.proceed ? 1u : 0u),
            r.design.outcome.predictions.size());
}

/// Monotone factory: speedup rises with parallelism and clock, falls with
/// format width (wider elements cost communication throughput) — exactly
/// the shape the corner bounds assume.
CandidateFactory monotone_factory(const core::RatInputs& base,
                                  double ops_per_unit,
                                  int multipliers_per_unit = 1) {
  return [base, ops_per_unit, multipliers_per_unit](const DesignPoint& p)
             -> std::optional<DesignCandidate> {
    DesignCandidate c;
    c.inputs = base;
    c.inputs.name = p.label();
    c.inputs.comp.throughput_ops_per_cycle =
        ops_per_unit * static_cast<double>(p.parallelism);
    c.inputs.dataset.bytes_per_element =
        static_cast<double>((p.format_bits + 7) / 8);
    c.resources = {ResourceItem{"units", multipliers_per_unit, p.format_bits,
                                0, 400, static_cast<int>(p.parallelism)}};
    return c;
  };
}

DesignAxes wide_axes() {
  DesignAxes axes;
  axes.parallelism = {1, 2, 4, 8, 16};
  axes.fclock_hz = {core::mhz(100), core::mhz(150)};
  axes.format_bits = {12, 18};
  return axes;
}

void expect_identical(const DesignAxes& axes, const CandidateFactory& factory,
                      const Requirements& req, const PruningPolicy& policy,
                      const char* what) {
  const auto device = rcsim::virtex4_lx100();
  const auto exhaustive =
      core::explore_design_space(axes, factory, req, device);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ExploreOptions opts;
    opts.policy = policy;
    opts.n_threads = threads;
    const auto pruned =
        explore_design_space_pruned(axes, factory, req, device, opts);
    EXPECT_EQ(render_result(pruned.design), render_result(exhaustive))
        << what << " (threads=" << threads << ")";
    EXPECT_EQ(pruned.winner_index, exhaustive.outcome.accepted_index)
        << what << " (threads=" << threads << ")";
    check_invariant(pruned);
  }
}

TEST(ExploreIdentity, MatchesExhaustiveOnCaseStudyWorksheets) {
  // The paper's three case-study worksheets (Tables 2, 5, 8) behind a
  // parallelism/clock/format factory: winner, trace and prediction bits
  // must match the exhaustive scan exactly, at 1 and 8 threads.
  struct Case {
    core::RatInputs inputs;
    double ops_per_unit;
    double goal;
  };
  const Case cases[] = {
      {core::pdf1d_inputs(), 2.5, 7.0},
      {core::pdf2d_inputs(), 1.5, 5.0},
      {core::md_inputs(), 0.5, 2.0},
  };
  for (const Case& cs : cases) {
    Requirements req;
    req.min_speedup = cs.goal;
    expect_identical(wide_axes(), monotone_factory(cs.inputs, cs.ops_per_unit),
                     req, PruningPolicy{}, cs.inputs.name.c_str());
  }
}

TEST(ExploreIdentity, SkippedPointsAndExhaustedSpace) {
  DesignAxes axes = wide_axes();
  const CandidateFactory base = monotone_factory(core::pdf1d_inputs(), 2.5);
  const CandidateFactory factory =
      [base](const DesignPoint& p) -> std::optional<DesignCandidate> {
    if (p.parallelism == 4) return std::nullopt;  // indivisible
    return base(p);
  };
  Requirements req;
  req.min_speedup = 1e6;  // nothing passes: full no-solution trace
  expect_identical(axes, factory, req, PruningPolicy{}, "exhausted");
  req.min_speedup = 7.0;
  expect_identical(axes, factory, req, PruningPolicy{}, "skips");
}

TEST(ExploreIdentity, FallbackModesStayIdentical) {
  Requirements req;
  req.min_speedup = 7.0;
  const CandidateFactory factory = monotone_factory(core::pdf1d_inputs(), 2.5);
  PruningPolicy no_prune;
  no_prune.prune = false;
  expect_identical(wide_axes(), factory, req, no_prune, "prune=false");
  no_prune.full_trace = false;
  expect_identical(wide_axes(), factory, req, no_prune,
                   "prune=false, full_trace=false");
}

TEST(ExploreIdentity, NonMonotoneFactoryMatchesExhaustive) {
  // Speedup peaks mid-axis, so corner bounds would be inadmissible. A
  // full-trace run never searches: it is the exhaustive scan's ordered
  // scan, so it matches that scan whatever the factory's shape.
  DesignAxes axes;
  axes.parallelism = {1, 2, 4, 8, 16, 32};
  axes.fclock_hz = {core::mhz(100), core::mhz(150)};
  axes.format_bits = {12, 18};
  const core::RatInputs base = core::pdf1d_inputs();
  const CandidateFactory factory =
      [base](const DesignPoint& p) -> std::optional<DesignCandidate> {
    DesignCandidate c;
    c.inputs = base;
    c.inputs.name = p.label();
    const double x = static_cast<double>(p.parallelism);
    c.inputs.comp.throughput_ops_per_cycle = 2.5 * x * (40.0 - x) / 40.0;
    c.resources = {ResourceItem{"units", 1, p.format_bits, 0, 400,
                                static_cast<int>(p.parallelism)}};
    return c;
  };
  for (const double goal : {4.0, 7.0, 20.0, 1e6}) {
    Requirements req;
    req.min_speedup = goal;
    expect_identical(axes, factory, req, PruningPolicy{}, "non-monotone");
  }
}

TEST(ExploreIdentity, InvalidCandidateThrowsAtTheSamePoint) {
  DesignAxes axes;
  axes.parallelism = {1, 2, 4, 8};
  axes.fclock_hz = {core::mhz(100)};
  axes.format_bits = {18};
  const CandidateFactory base = monotone_factory(core::pdf1d_inputs(), 2.5);
  const CandidateFactory factory =
      [base](const DesignPoint& p) -> std::optional<DesignCandidate> {
    auto c = base(p);
    if (p.parallelism == 2) c->inputs.dataset.elements_in = 0;  // invalid
    return c;
  };
  const auto device = rcsim::virtex4_lx100();

  // Goal low enough that candidate 0 wins: the invalid candidate sits
  // past the winner and must never be touched.
  Requirements req;
  req.min_speedup = 0.5;
  const auto exhaustive = core::explore_design_space(axes, factory, req,
                                                     device);
  const auto pruned =
      explore_design_space_pruned(axes, factory, req, device);
  EXPECT_EQ(render_result(pruned.design), render_result(exhaustive));

  // Goal no candidate reaches: the exhaustive scan throws when it reaches
  // the invalid candidate — so must the pruned run.
  req.min_speedup = 1e9;
  std::string exhaustive_error, pruned_error;
  try {
    (void)core::explore_design_space(axes, factory, req, device);
  } catch (const std::exception& e) {
    exhaustive_error = e.what();
  }
  try {
    (void)explore_design_space_pruned(axes, factory, req, device);
  } catch (const std::exception& e) {
    pruned_error = e.what();
  }
  ASSERT_FALSE(exhaustive_error.empty());
  EXPECT_EQ(pruned_error, exhaustive_error);
}

TEST(ExplorePruning, LargeGridSavesMostFullEvaluations) {
  // 32 x 8 x 4 = 1024 points with a deep winner: branch-and-bound must
  // prove the failing bulk from corner predictions alone.
  DesignAxes axes;
  axes.parallelism.clear();
  for (std::size_t p = 1; p <= 32; ++p) axes.parallelism.push_back(p);
  axes.fclock_hz.clear();
  for (int f = 0; f < 8; ++f) axes.fclock_hz.push_back(core::mhz(80 + 10 * f));
  axes.format_bits = {12, 14, 16, 18};
  Requirements req;
  req.min_speedup = 8.0;
  const auto device = rcsim::virtex4_lx100();
  const CandidateFactory factory = monotone_factory(core::pdf1d_inputs(), 1.0);

  const auto exhaustive =
      core::explore_design_space(axes, factory, req, device);
  ASSERT_TRUE(exhaustive.outcome.proceed);
  // Exhaustive runs the full gate pipeline on every pre-winner candidate.
  const std::size_t exhaustive_evals = exhaustive.outcome.predictions.size();
  ASSERT_GT(exhaustive_evals, 400u);

  const auto pruned = explore_design_space_pruned(axes, factory, req, device);
  EXPECT_EQ(render_result(pruned.design), render_result(exhaustive));
  check_invariant(pruned);
  EXPECT_GT(pruned.stats.points_bounded, 0u);
  EXPECT_GE(exhaustive_evals, 10 * pruned.stats.points_evaluated)
      << "evaluated " << pruned.stats.points_evaluated << " of "
      << exhaustive_evals;

  // The elided run is where the search runs: corner bounds prove the
  // failing bulk there.
  ExploreOptions elide;
  elide.policy.full_trace = false;
  const auto elided =
      explore_design_space_pruned(axes, factory, req, device, elide);
  EXPECT_EQ(elided.winner_index, exhaustive.outcome.accepted_index);
  EXPECT_GT(elided.stats.corner_evaluations, 0u);
}

TEST(ExplorePruning, FullTraceIsTheOrderedScanWithoutSearch) {
  // Figure 1 gates throughput first, so a failing point costs the same
  // whether a corner bound or its own prediction proves it: a full-trace
  // run never searches. An elided run on the same grid still bounds.
  Requirements req;
  req.min_speedup = 7.0;
  const auto device = rcsim::virtex4_lx100();
  const CandidateFactory factory = monotone_factory(core::pdf1d_inputs(), 2.5);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ExploreOptions opts;
    opts.n_threads = threads;
    const auto full =
        explore_design_space_pruned(wide_axes(), factory, req, device, opts);
    EXPECT_EQ(full.stats.corner_evaluations, 0u) << threads << " threads";
    EXPECT_EQ(full.stats.regions_examined, 0u) << threads << " threads";
    EXPECT_GT(full.stats.points_bounded, 0u) << threads << " threads";
    check_invariant(full);
  }
  ExploreOptions elide;
  elide.policy.full_trace = false;
  const auto elided =
      explore_design_space_pruned(wide_axes(), factory, req, device, elide);
  EXPECT_GT(elided.stats.regions_examined, 0u);
  EXPECT_GT(elided.stats.corner_evaluations, 0u);
  check_invariant(elided);
}

TEST(ExplorePareto, FrontIsTheIncreasingSubsequenceAndMatchesExhaustive) {
  Requirements req;
  req.min_speedup = 7.0;
  const auto device = rcsim::virtex4_lx100();
  const CandidateFactory factory = monotone_factory(core::pdf1d_inputs(), 2.5);
  const auto exhaustive =
      core::explore_design_space(wide_axes(), factory, req, device);
  const auto pruned =
      explore_design_space_pruned(wide_axes(), factory, req, device);

  const auto expected = pareto_front(exhaustive.outcome, req.double_buffered);
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(pruned.front.size(), expected.size());
  double prev = -1.0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(pruned.front[i].candidate_index, expected[i].candidate_index);
    EXPECT_EQ(pruned.front[i].name, expected[i].name);
    EXPECT_EQ(std::memcmp(&pruned.front[i].prediction,
                          &expected[i].prediction,
                          sizeof expected[i].prediction),
              0);
    EXPECT_GT(expected[i].prediction.speedup_sb, prev);
    prev = expected[i].prediction.speedup_sb;
  }
  // Cheapest-first enumeration: the front starts at the first candidate.
  EXPECT_EQ(expected.front().candidate_index, 0u);
}

TEST(ExploreElide, SparseTraceKeepsWinnerAndPredictionBits) {
  Requirements req;
  req.min_speedup = 7.0;
  const auto device = rcsim::virtex4_lx100();
  const CandidateFactory factory = monotone_factory(core::pdf1d_inputs(), 2.5);
  const auto exhaustive =
      core::explore_design_space(wide_axes(), factory, req, device);
  ASSERT_TRUE(exhaustive.outcome.proceed);

  ExploreOptions opts;
  opts.policy.full_trace = false;
  const auto elided =
      explore_design_space_pruned(wide_axes(), factory, req, device, opts);
  ASSERT_TRUE(elided.design.outcome.proceed);
  EXPECT_EQ(elided.winner_index, exhaustive.outcome.accepted_index);
  // Sparse: at most as many scored points, same winner prediction bits.
  EXPECT_LE(elided.design.outcome.predictions.size(),
            exhaustive.outcome.predictions.size());
  const auto& sparse_winner =
      elided.design.outcome.predictions[*elided.design.outcome.accepted_index];
  const auto& full_winner =
      exhaustive.outcome.predictions[*exhaustive.outcome.accepted_index];
  EXPECT_EQ(std::memcmp(&sparse_winner, &full_winner, sizeof full_winner), 0);
  EXPECT_EQ(elided.design.outcome.trace.back().candidate_name,
            exhaustive.outcome.trace.back().candidate_name);
  check_invariant(elided);
}

TEST(ExploreElide, InvalidCandidateIsSkippedNotThrown) {
  // pdf1d at 100 MHz and 18 bits, 1 to 512 lanes, with an invalid
  // worksheet at 2 lanes and a goal between the 8- and 16-lane speedups.
  // The exhaustive scan throws when it reaches the invalid candidate. An
  // elided run leaves a candidate that fails validation untouched at its
  // leaf, so it names the 16-lane winner and counts the invalid point as
  // pruned, beside the five past the winner.
  DesignAxes axes;
  axes.parallelism = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
  axes.fclock_hz = {core::mhz(100)};
  axes.format_bits = {18};
  const core::RatInputs base = core::pdf1d_inputs();
  const CandidateFactory factory =
      [base](const DesignPoint& p) -> std::optional<DesignCandidate> {
    DesignCandidate c;
    c.inputs = base;
    c.inputs.name = p.label();
    c.inputs.comp.throughput_ops_per_cycle =
        0.5 * static_cast<double>(p.parallelism);
    if (p.parallelism == 2) c.inputs.comm.alpha_write = 1.5;  // invalid
    return c;
  };
  auto speedup = [&](std::size_t lanes) {
    const DesignCandidate c = *factory({lanes, core::mhz(100), 18});
    return core::predict(c.inputs, core::mhz(100)).speedup_sb;
  };
  Requirements req;
  req.min_speedup = (speedup(8) + speedup(16)) / 2.0;
  const auto device = rcsim::virtex4_lx100();

  std::string exhaustive_error;
  try {
    (void)core::explore_design_space(axes, factory, req, device);
  } catch (const std::invalid_argument& e) {
    exhaustive_error = e.what();
  }
  EXPECT_EQ(exhaustive_error, "RatInputs: alpha_write outside (0,1]");

  ExploreOptions elide;
  elide.policy.full_trace = false;
  const auto elided =
      explore_design_space_pruned(axes, factory, req, device, elide);
  EXPECT_EQ(elided.winner_index, std::optional<std::size_t>(4));
  EXPECT_EQ(elided.stats.points_skipped, 0u);
  EXPECT_EQ(elided.stats.points_bounded, 3u);
  EXPECT_EQ(elided.stats.points_evaluated, 1u);
  EXPECT_EQ(elided.stats.points_pruned, 6u);
  check_invariant(elided);
}

TEST(ExploreStats, RejectionCountersNameTheGates) {
  // 24 multipliers per unit: the 1x-4x designs miss the 7x goal on
  // throughput, the 8x and 16x ones reach it but overflow the device's
  // DSPs. No design proceeds, and the counters say which gate stopped
  // each of the 20 points.
  DesignAxes axes = wide_axes();
  Requirements req;
  req.min_speedup = 7.0;
  const auto device = rcsim::virtex4_lx100();
  const CandidateFactory factory =
      monotone_factory(core::pdf1d_inputs(), 2.5, 24);

  obs::Registry::global().reset();
  obs::set_enabled(true);
  const auto full = explore_design_space_pruned(axes, factory, req, device);
  obs::set_enabled(false);
  ASSERT_FALSE(full.design.outcome.proceed);
  check_invariant(full);
  EXPECT_EQ(full.stats.rejected_throughput, 12u);
  EXPECT_EQ(full.stats.rejected_resource, 8u);
  EXPECT_EQ(full.stats.rejected_precision, 0u);
  EXPECT_EQ(full.stats.rejected_power, 0u);
  const auto counters = obs::Registry::global().counters();
  EXPECT_EQ(counters.at("explore.rejected.throughput"),
            full.stats.rejected_throughput);
  EXPECT_EQ(counters.at("explore.rejected.resource"),
            full.stats.rejected_resource);
  EXPECT_EQ(counters.at("explore.rejected.precision"), 0u);
  EXPECT_EQ(counters.at("explore.rejected.power"), 0u);

  // The elided trace drops proven-fail regions, so only throughput
  // rejections go missing; every resource rejection is a full evaluation.
  ExploreOptions elide;
  elide.policy.full_trace = false;
  const auto sparse =
      explore_design_space_pruned(axes, factory, req, device, elide);
  check_invariant(sparse);
  EXPECT_LE(sparse.stats.rejected_throughput, full.stats.rejected_throughput);
  EXPECT_EQ(sparse.stats.rejected_resource, full.stats.rejected_resource);
}

TEST(ExploreValidation, RejectsDegenerateRuns) {
  const auto device = rcsim::virtex4_lx100();
  Requirements req;
  req.min_speedup = 0.0;
  EXPECT_THROW((void)explore_design_space_pruned(
                   DesignAxes{}, monotone_factory(core::pdf1d_inputs(), 2.5),
                   req, device),
               std::invalid_argument);
  req.min_speedup = 2.0;
  EXPECT_THROW(
      (void)explore_design_space_pruned(
          DesignAxes{},
          [](const DesignPoint&) -> std::optional<DesignCandidate> {
            return std::nullopt;
          },
          req, device),
      std::invalid_argument);
}

}  // namespace
}  // namespace rat::explore
