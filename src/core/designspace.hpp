// Design-space enumeration for the Figure-1 iteration.
//
// The paper applies RAT "iteratively during the design process until a
// suitable version of the algorithm is formulated or all reasonable
// permutations are exhausted" (§3). This module generates those
// permutations systematically: the cartesian product of the axes the
// designer actually turns — parallelism, clock estimate, numeric format —
// materialized as ordered DesignCandidates via a caller-supplied factory,
// cheapest first so the methodology settles on the least resource-hungry
// passing design.
#pragma once

#include <functional>
#include <string>
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
/// silently double-evaluate points and skew points_total, and the
/// branch-and-bound explorer's corner bounds (docs/EXPLORATION.md) are
/// only admissible over monotonically ordered axes.
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

/// Enumerate the cartesian product, cheapest first: ordered by
/// parallelism, then clock, then format width (ascending). Points skipped
/// by the factory have their labels appended to @p skipped_labels (in
/// enumeration order) when it is non-null; the returned order is the
/// evaluation order for run_methodology. @p points, when non-null,
/// receives the design point behind each returned candidate (same order,
/// same length) — the explorer uses it to map candidates back onto the
/// axes grid without re-running the factory.
std::vector<DesignCandidate> enumerate_design_space(
    const DesignAxes& axes, const CandidateFactory& factory,
    std::vector<std::string>* skipped_labels = nullptr,
    std::vector<DesignPoint>* points = nullptr);

/// An exploration's outcome plus exactly which points the factory
/// skipped — so parallel and serial runs can assert identical coverage.
struct DesignSpaceResult {
  MethodologyOutcome outcome;
  std::size_t points_total = 0;
  std::size_t points_skipped = 0;
  /// Labels of the skipped points, in enumeration order
  /// (size() == points_skipped).
  std::vector<std::string> skipped_labels;
};

/// The exhaustive reference scan: enumerate_design_space +
/// run_methodology, no pruning and no persistence. Campaigns run through
/// explore::explore_design_space_pruned (src/explore), which resumes via
/// its plan cache; this scan is the oracle the identity suites and
/// benches compare that explorer against.
///
/// @p n_threads > 1 (or 0 = auto) evaluates the enumerated candidates
/// concurrently; results are merged in enumeration order, so the outcome
/// (cheapest passing design, trace, predictions) is byte-identical to the
/// serial run. Factories and precision kernels must then be thread-safe.
DesignSpaceResult explore_design_space(const DesignAxes& axes,
                                       const CandidateFactory& factory,
                                       const Requirements& requirements,
                                       const rcsim::Device& device,
                                       std::size_t n_threads = 1);

}  // namespace rat::core
