// Property: whatever the axes, requirements and factory look like, the
// explorer is indistinguishable from the exhaustive scan at 1-4 threads —
// including factories whose speedup is not monotone along the axes,
// factories that skip points, and spaces with no solution — and its
// per-point accounting always partitions the grid.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>

#include "core/designspace.hpp"
#include "core/units.hpp"
#include "explore/explorer.hpp"
#include "util/rng.hpp"

namespace rat::explore {
namespace {

using core::CandidateFactory;
using core::DesignAxes;
using core::DesignCandidate;
using core::DesignPoint;
using core::Requirements;
using core::ResourceItem;

std::string render_result(const core::DesignSpaceResult& r) {
  std::string out = r.outcome.render_trace();
  out += "proceed=" + std::to_string(r.outcome.proceed);
  out += " accepted=" + (r.outcome.accepted_index
                             ? std::to_string(*r.outcome.accepted_index)
                             : std::string("none"));
  out += " reject=" + std::to_string(static_cast<int>(r.outcome.last_reject));
  out += " skipped=" + std::to_string(r.points_skipped);
  for (const auto& s : r.skipped_labels) out += "|" + s;
  for (const auto& p : r.outcome.predictions) {
    const char* bytes = reinterpret_cast<const char*>(&p);
    out.append(bytes, sizeof p);
  }
  return out;
}

/// Deterministic per-point hash so the factory's skip decision is a pure
/// function of the point (factories run once per explorer).
std::uint64_t point_hash(const DesignPoint& p) {
  std::uint64_t h = 1469598103934665603ull;
  h = (h ^ p.parallelism) * 1099511628211ull;
  h = (h ^ static_cast<std::uint64_t>(p.format_bits)) * 1099511628211ull;
  h = (h ^ static_cast<std::uint64_t>(p.fclock_hz / 1e6)) * 1099511628211ull;
  return h;
}

TEST(ExploreProperty, FuzzedSpacesMatchExhaustiveBitForBit) {
  util::Rng rng(20260808);
  for (int iter = 0; iter < 40; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    DesignAxes axes;
    axes.parallelism.clear();
    std::size_t par = 1 + rng.uniform_index(2);
    for (std::size_t i = 1 + rng.uniform_index(6); i > 0; --i) {
      axes.parallelism.push_back(par);
      par += 1 + rng.uniform_index(4);
    }
    axes.fclock_hz.clear();
    double fclock = core::mhz(50.0 + 10.0 * rng.uniform_index(5));
    for (std::size_t i = 1 + rng.uniform_index(4); i > 0; --i) {
      axes.fclock_hz.push_back(fclock);
      fclock += core::mhz(10.0 + 10.0 * rng.uniform_index(4));
    }
    axes.format_bits.clear();
    int bits = 10 + static_cast<int>(rng.uniform_index(4));
    for (std::size_t i = 1 + rng.uniform_index(4); i > 0; --i) {
      axes.format_bits.push_back(bits);
      bits += 1 + static_cast<int>(rng.uniform_index(3));
    }

    const double ops = rng.uniform(0.3, 3.0);
    const bool non_monotone = rng.uniform() < 0.4;
    const std::uint64_t skip_pct =
        rng.uniform() < 0.5 ? 0 : rng.uniform_index(30);
    const int multipliers = 1 + static_cast<int>(rng.uniform_index(3)) * 12;
    const CandidateFactory factory =
        [ops, non_monotone, skip_pct,
         multipliers](const DesignPoint& p) -> std::optional<DesignCandidate> {
      if (point_hash(p) % 100 < skip_pct) return std::nullopt;
      DesignCandidate c;
      c.inputs = core::pdf1d_inputs();
      c.inputs.name = p.label();
      double scale = static_cast<double>(p.parallelism);
      if (non_monotone)
        scale *= 1.0 + 0.5 * std::sin(2.7 * scale +
                                      static_cast<double>(p.format_bits));
      c.inputs.comp.throughput_ops_per_cycle = ops * scale;
      c.inputs.dataset.bytes_per_element =
          static_cast<double>((p.format_bits + 7) / 8);
      c.resources = {ResourceItem{"units", multipliers, p.format_bits, 0, 400,
                                  static_cast<int>(p.parallelism)}};
      return c;
    };

    Requirements req;
    req.min_speedup = rng.uniform(0.5, 30.0);
    req.double_buffered = rng.uniform() < 0.3;
    const auto device = rcsim::virtex4_lx100();

    core::DesignSpaceResult exhaustive;
    bool exhaustive_threw = false;
    try {
      exhaustive = core::explore_design_space(axes, factory, req, device);
    } catch (const std::invalid_argument&) {
      exhaustive_threw = true;  // factory skipped every point
    }

    ExploreOptions opts;
    opts.n_threads = 1 + rng.uniform_index(4);
    if (exhaustive_threw) {
      EXPECT_THROW(
          (void)explore_design_space_pruned(axes, factory, req, device, opts),
          std::invalid_argument);
      continue;
    }
    const auto pruned =
        explore_design_space_pruned(axes, factory, req, device, opts);
    EXPECT_EQ(render_result(pruned.design), render_result(exhaustive));
    EXPECT_EQ(pruned.winner_index, exhaustive.outcome.accepted_index);
    const ExploreStats& s = pruned.stats;
    EXPECT_EQ(s.points_skipped + s.points_bounded + s.points_evaluated +
                  s.points_restored + s.points_pruned,
              s.points_total);
    EXPECT_EQ(s.rejected_throughput + s.rejected_precision +
                  s.rejected_resource + s.rejected_power +
                  (pruned.design.outcome.proceed ? 1u : 0u),
              pruned.design.outcome.predictions.size());
    EXPECT_EQ(s.points_total, axes.size());
    EXPECT_EQ(s.points_skipped, exhaustive.points_skipped);

    // The Pareto front is a pure function of the outcome, so pruned and
    // exhaustive fronts agree; it must be strictly increasing in the
    // gate-mode speedup.
    const auto front = pareto_front(exhaustive.outcome, req.double_buffered);
    ASSERT_EQ(pruned.front.size(), front.size());
    double prev = -1.0;
    for (const auto& point : front) {
      const double s_mode = req.double_buffered
                                ? point.prediction.speedup_db
                                : point.prediction.speedup_sb;
      EXPECT_GT(s_mode, prev);
      prev = s_mode;
    }
  }
}

}  // namespace
}  // namespace rat::explore
