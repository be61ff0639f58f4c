// Design-space enumeration for the Figure-1 iteration.
//
// The paper applies RAT "iteratively during the design process until a
// suitable version of the algorithm is formulated or all reasonable
// permutations are exhausted" (§3). This module generates those
// permutations systematically: the cartesian product of the axes the
// designer actually turns — parallelism, clock estimate, numeric format —
// materialized as ordered DesignCandidates via a caller-supplied factory,
// cheapest first so the methodology settles on the least resource-hungry
// passing design. explore_design_space runs them through the serial
// Figure-1 loop (run_methodology) as the reference; campaigns stream the
// same walk through the explorer in src/explore.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/methodology.hpp"

namespace rat::core {

/// One point of the design space.
struct DesignPoint {
  std::size_t parallelism = 1;   ///< pipelines / lanes / comparators
  double fclock_hz = 100e6;      ///< conservative achievable clock
  int format_bits = 18;          ///< datapath width (ignore if N/A)

  std::string label() const;
};

/// The axes to sweep. Each axis must be non-empty, sorted ascending and
/// duplicate-free (validate() throws otherwise): duplicates would
/// silently double-evaluate points and skew points_total, and the winner
/// and the Pareto front rest on the cheapest-first order that sorted axes
/// give the enumeration.
struct DesignAxes {
  std::vector<std::size_t> parallelism = {1, 2, 4, 8};
  std::vector<double> fclock_hz = {100e6, 150e6};
  std::vector<int> format_bits = {18};

  void validate() const;
  /// Number of grid points (the product of the axis lengths). Throws
  /// std::overflow_error instead of silently wrapping when the product
  /// does not fit std::size_t.
  std::size_t size() const;
};

/// Builds a methodology candidate from a design point; return nullopt to
/// skip points the design cannot realize (e.g. indivisible pipelines).
using CandidateFactory =
    std::function<std::optional<DesignCandidate>(const DesignPoint&)>;

/// The most candidates a run reserves room for up front, in
/// enumerate_design_space's vector and in a streamed exploration's
/// outcome: four times ratbench's 16,384-point explore grid. Past it the
/// vectors grow as they fill, so a factory that skips most of a huge grid
/// does not reserve memory it never uses.
inline constexpr std::size_t kMaxReservedCandidates = std::size_t{1} << 16;

/// The one walk over the grid, cheapest first: ordered by parallelism,
/// then clock, then format width (ascending). Validates @p axes, then
/// calls @p factory once per point, on the calling thread. A skipped
/// point's label is appended to @p skipped_labels when it is non-null. A
/// candidate, named by its point's label when the factory left its name
/// empty and decided at the point's clock, goes to
/// take(std::move(candidate)).
template <typename Take>
void walk_design_space(const DesignAxes& axes, const CandidateFactory& factory,
                       std::vector<std::string>* skipped_labels, Take&& take) {
  axes.validate();
  if (!factory)
    throw std::invalid_argument("enumerate_design_space: null factory");
  for (std::size_t p : axes.parallelism) {
    for (double f : axes.fclock_hz) {
      for (int bits : axes.format_bits) {
        const DesignPoint point{p, f, bits};
        std::optional<DesignCandidate> cand = factory(point);
        if (!cand) {
          if (skipped_labels) skipped_labels->push_back(point.label());
          continue;
        }
        if (cand->inputs.name.empty()) cand->inputs.name = point.label();
        cand->decision_clock_hz = f;
        take(std::move(*cand));
      }
    }
  }
}

/// Enumerate the cartesian product with walk_design_space, keeping every
/// candidate; the returned order is the evaluation order for
/// run_methodology. Points skipped by the factory have their labels
/// appended to @p skipped_labels (in enumeration order) when it is
/// non-null.
std::vector<DesignCandidate> enumerate_design_space(
    const DesignAxes& axes, const CandidateFactory& factory,
    std::vector<std::string>* skipped_labels = nullptr);

/// An exploration's outcome plus exactly which points the factory
/// skipped — so the explorer and the reference can assert identical
/// coverage.
struct DesignSpaceResult {
  MethodologyOutcome outcome;
  std::size_t points_total = 0;
  std::size_t points_skipped = 0;
  /// Labels of the skipped points, in enumeration order
  /// (size() == points_skipped).
  std::vector<std::string> skipped_labels;
};

/// The exhaustive reference scan: enumerate_design_space, then the serial
/// run_methodology loop over every candidate, no pruning, no persistence
/// and no threads. Campaigns run through
/// explore::explore_design_space_pruned (src/explore), which resumes via
/// its plan cache and takes a thread count; this scan is the independent
/// oracle the identity suites and bench_explore_pruning compare that
/// explorer against.
DesignSpaceResult explore_design_space(const DesignAxes& axes,
                                       const CandidateFactory& factory,
                                       const Requirements& requirements,
                                       const rcsim::Device& device);

}  // namespace rat::core
