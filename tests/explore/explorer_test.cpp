#include "explore/explorer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/designspace.hpp"
#include "core/sensitivity.hpp"
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
/// format width (wider elements cost communication throughput) — the
/// shape Eqs. 5-6 give the paper's case studies.
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

/// Every call a factory receives, in call order: the point's label and
/// the thread that made the call.
struct FactoryLog {
  std::mutex mu;
  std::vector<std::string> labels;
  std::vector<std::thread::id> threads;
};

CandidateFactory logged(CandidateFactory base, FactoryLog& log) {
  return [base = std::move(base), &log](const DesignPoint& p) {
    {
      std::lock_guard lock(log.mu);
      log.labels.push_back(p.label());
      log.threads.push_back(std::this_thread::get_id());
    }
    return base(p);
  };
}

/// Labels of every point of @p axes, in enumeration order.
std::vector<std::string> grid_labels(const DesignAxes& axes) {
  std::vector<std::string> out;
  for (std::size_t p : axes.parallelism)
    for (double f : axes.fclock_hz)
      for (int bits : axes.format_bits)
        out.push_back(DesignPoint{p, f, bits}.label());
  return out;
}

/// The message of what @p run throws, or "no error".
std::string error_of(const std::function<void()>& run) {
  try {
    run();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "no error";
}

TEST(ExploreIdentity, FactoryRunsOncePerPointInOrder) {
  // 32 x 2 x 2 = 128 points; every third parallelism is skipped, and the
  // winner lies in the first 16 candidates, one window at 4 threads. The
  // factory still sees every point once, in enumeration order, on the
  // calling thread, as the reference's enumeration does.
  DesignAxes axes;
  axes.parallelism.clear();
  for (std::size_t p = 1; p <= 32; ++p) axes.parallelism.push_back(p);
  axes.fclock_hz = {core::mhz(100), core::mhz(150)};
  axes.format_bits = {12, 18};
  const CandidateFactory base = monotone_factory(core::pdf1d_inputs(), 2.5);
  const CandidateFactory skipping =
      [base](const DesignPoint& p) -> std::optional<DesignCandidate> {
    if (p.parallelism % 3 == 0) return std::nullopt;
    return base(p);
  };
  const std::vector<std::string> expected = grid_labels(axes);
  // The 4-lane, 150 MHz, 12-bit design (candidate 10) reaches the goal.
  Requirements req;
  req.min_speedup =
      core::predict(skipping({4, core::mhz(150), 12})->inputs, core::mhz(150))
          .speedup_sb;
  const auto device = rcsim::virtex4_lx100();

  FactoryLog reference_log;
  const auto exhaustive = core::explore_design_space(
      axes, logged(skipping, reference_log), req, device);
  ASSERT_TRUE(exhaustive.outcome.proceed);
  ASSERT_LT(*exhaustive.outcome.accepted_index, 16u);
  ASSERT_EQ(exhaustive.points_skipped, 40u);
  EXPECT_EQ(reference_log.labels, expected);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    FactoryLog log;
    ExploreOptions opts;
    opts.n_threads = threads;
    const auto full = explore_design_space_pruned(
        axes, logged(skipping, log), req, device, opts);
    EXPECT_EQ(log.labels, expected) << threads << " threads";
    std::size_t off_thread = 0;
    for (const std::thread::id id : log.threads)
      off_thread += id != std::this_thread::get_id();
    EXPECT_EQ(off_thread, 0u) << threads << " threads";
    EXPECT_EQ(full.design.skipped_labels, exhaustive.skipped_labels)
        << threads << " threads";
    EXPECT_EQ(render_result(full.design), render_result(exhaustive))
        << threads << " threads";
    check_invariant(full);
  }
}

TEST(ExploreIdentity, FactoryErrorPrecedesEvaluationErrors) {
  // 40 x 4 x 2 = 320 points, more than one serial window. The 2-lane
  // candidates fail validation, and the factory throws at the last
  // point. The reference enumerates the whole grid before it evaluates
  // anything, so the factory's error escapes, not the validation error
  // the scan reaches first; and a factory that throws past the winner
  // fails the run too. A full trace must throw the same, at 1 and 4
  // threads.
  DesignAxes axes;
  axes.parallelism.clear();
  for (std::size_t p = 1; p <= 40; ++p) axes.parallelism.push_back(p);
  axes.fclock_hz = {core::mhz(100), core::mhz(120), core::mhz(140),
                    core::mhz(160)};
  axes.format_bits = {12, 18};
  const CandidateFactory base = monotone_factory(core::pdf1d_inputs(), 2.5);
  auto factory_throwing_at = [base](std::size_t last_lanes) {
    return [base, last_lanes](
               const DesignPoint& p) -> std::optional<DesignCandidate> {
      if (p.parallelism == last_lanes && p.fclock_hz == core::mhz(160) &&
          p.format_bits == 18)
        throw std::runtime_error("factory: cannot build " + p.label());
      auto c = base(p);
      if (p.parallelism == 2) c->inputs.dataset.elements_in = 0;  // invalid
      return c;
    };
  };
  const CandidateFactory throwing = factory_throwing_at(40);
  const CandidateFactory never_throwing = factory_throwing_at(0);
  const auto device = rcsim::virtex4_lx100();

  struct Case {
    double goal;
    CandidateFactory factory;
    const char* error;
  };
  const Case cases[] = {
      // No winner: the factory's error beats the validation error.
      {1e9, throwing, "factory: cannot build 40x @ 160 MHz / 18-bit"},
      // The control: without it, the validation error escapes.
      {1e9, never_throwing, "RatInputs: elements_in must be positive"},
      // Candidate 0 wins; the factory still throws at the last point.
      {0.5, throwing, "factory: cannot build 40x @ 160 MHz / 18-bit"},
  };
  for (const Case& c : cases) {
    Requirements req;
    req.min_speedup = c.goal;
    EXPECT_EQ(error_of([&] {
                (void)core::explore_design_space(axes, c.factory, req,
                                                 device);
              }),
              c.error)
        << "goal " << c.goal;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ExploreOptions opts;
      opts.n_threads = threads;
      EXPECT_EQ(error_of([&] {
                  (void)explore_design_space_pruned(axes, c.factory, req,
                                                    device, opts);
                }),
                c.error)
          << "goal " << c.goal << ", " << threads << " threads";
    }
  }
}

TEST(ExplorePruning, LargeGridSavesMostFullEvaluations) {
  // 32 x 8 x 4 = 1024 points with a deep winner: the throughput gate on
  // each point's own prediction spares the failing bulk the deeper gates.
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
}

TEST(ExplorePruning, FullTraceIsTheOrderedScanWithoutSearch) {
  // Figure 1 gates throughput first, so a failing point's own prediction
  // proves it: the run spends no model evaluations on bounds.
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
    EXPECT_GT(full.stats.points_bounded, 0u) << threads << " threads";
    check_invariant(full);
  }
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
}

TEST(ExploreStream, FullTraceHoldsOneWindowOfCandidates) {
  // Each candidate's precision kernel holds a copy of one token, so the
  // token's use count is the number of candidates alive. No requirement
  // asks for a precision test, so no kernel runs. A full trace builds one
  // window of candidates at a time: at each factory call, at most two
  // serial windows (512) are alive, not the 4,095 earlier candidates of
  // a grid materialized whole.
  DesignAxes axes;
  axes.parallelism.clear();
  for (std::size_t p = 1; p <= 16; ++p) axes.parallelism.push_back(p);
  axes.fclock_hz.clear();
  for (int k = 0; k < 64; ++k) axes.fclock_hz.push_back(core::mhz(80 + 5 * k));
  axes.format_bits = {12, 14, 16, 18};
  ASSERT_EQ(axes.size(), 4096u);
  const CandidateFactory base = monotone_factory(core::pdf1d_inputs(), 0.5);
  const auto token = std::make_shared<int>(0);
  const long baseline = token.use_count();
  long most_alive = 0;
  const CandidateFactory factory =
      [&base, &token, baseline, &most_alive](
          const DesignPoint& p) -> std::optional<DesignCandidate> {
    most_alive = std::max(most_alive, token.use_count() - baseline);
    auto c = base(p);
    c->precision_kernel = [token](fx::Format) { return std::vector<double>{}; };
    return c;
  };
  Requirements req;
  req.min_speedup = 1e9;
  const auto device = rcsim::virtex4_lx100();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    most_alive = 0;
    ExploreOptions opts;
    opts.n_threads = threads;
    const auto full =
        explore_design_space_pruned(axes, factory, req, device, opts);
    ASSERT_FALSE(full.winner_index);
    EXPECT_EQ(full.stats.points_bounded, 4096u);
    EXPECT_LE(most_alive, 512) << threads << " threads";
    EXPECT_EQ(token.use_count(), baseline) << threads << " threads";
  }
}

TEST(GoalGuards, NaNGoalIsNonPositive) {
  // NaN compares false with everything, so each "non-positive goal"
  // guard tests !(goal > 0) and rejects it with its usual message.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto device = rcsim::virtex4_lx100();
  Requirements req;
  req.min_speedup = nan;
  const CandidateFactory factory = monotone_factory(core::pdf1d_inputs(), 2.5);
  struct Case {
    const char* what;
    std::function<void()> call;
  };
  const Case cases[] = {
      {"run_methodology: min_speedup <= 0",
       [&] {
         (void)core::run_methodology({*factory({1, core::mhz(100), 18})}, req,
                                     device);
       }},
      {"explore_design_space_pruned: min_speedup <= 0",
       [&] {
         (void)explore_design_space_pruned(wide_axes(), factory, req, device);
       }},
      {"target speedup must be positive",
       [&] {
         (void)core::solve_throughput_proc(core::pdf1d_inputs(),
                                           core::mhz(100), nan,
                                           core::BufferingMode::kSingle);
       }},
      {"target speedup must be positive",
       [&] {
         (void)core::solve_fclock(core::pdf1d_inputs(), nan,
                                  core::BufferingMode::kSingle);
       }},
  };
  for (const Case& c : cases) {
    try {
      c.call();
      ADD_FAILURE() << "accepted a NaN goal: " << c.what;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), c.what);
    }
  }
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
