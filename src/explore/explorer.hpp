// Design-space exploration with an optional branch-and-bound search
// (docs/EXPLORATION.md).
//
// A full-trace run (the default) is core::scan_in_order over the
// enumerated candidates, the same scan core::explore_design_space runs:
// its result is bit-identical to the exhaustive explorer's (winner,
// trace, predictions, skipped labels) at any thread count. Each candidate
// pays one predict() and the throughput gate; only those that pass it
// are replayed from the plan cache or run through the deeper gates.
// Figure 1 runs the cheap throughput test first, so a failing design
// costs the same whether a bound or its own prediction proves it, and a
// full trace has nothing to gain from searching first.
//
// An elided run (full_trace = false) searches instead. For the factories
// the paper's case studies use, Eqs. 5-6 make predicted speedup monotone
// along each axis (parallelism raises throughput_proc, fclock raises the
// decision clock, wider formats raise bytes/element), so the maximum
// speedup over an axis-aligned subregion of the grid is attained at one
// of its corners. Best-first branch-and-bound over such subregions proves
// whole boxes fail the throughput gate from at most 2^3 corner
// predictions, splits only the boxes that straddle the pass/fail
// frontier, and leaves the proven-fail regions out of the trace. The
// winner and skipped labels match the exhaustive scan's for monotone
// factories.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/designspace.hpp"
#include "explore/plan_cache.hpp"

namespace rat::explore {

/// How an exploration runs.
struct PruningPolicy {
  /// Affects elided runs only: false makes them the full-trace scan too,
  /// the escape hatch for factories whose speedup is not monotone along
  /// the axes. A full-trace run never searches.
  bool prune = true;
  /// Reproduce the exhaustive trace and predictions byte-for-byte: the
  /// ordered scan over every candidate up to the winner. false runs the
  /// branch-and-bound search and leaves proven-fail regions out — the
  /// result's trace/predictions then cover only the points actually
  /// evaluated (ExploreResult::winner_index still names the enumeration
  /// index of the same winner).
  bool full_trace = true;
};

/// Where every grid point ended up, why the merged candidates were
/// rejected, plus search/cache effort counters. Invariants (asserted by
/// the explorer and property tests):
///   points_skipped + points_bounded + points_evaluated
///     + points_restored + points_pruned == points_total;
///   rejected_throughput + rejected_precision + rejected_resource
///     + rejected_power + (proceed ? 1 : 0) == outcome.predictions.size().
struct ExploreStats {
  std::size_t points_total = 0;
  std::size_t points_skipped = 0;    ///< factory returned nullopt
  std::size_t points_evaluated = 0;  ///< fresh full gate-pipeline runs
  /// Throughput rejections, proven by a corner bound or by the point's
  /// own prediction.
  std::size_t points_bounded = 0;
  std::size_t points_restored = 0;   ///< replayed from the plan cache
  /// Never touched: past the winner or, in an elided run, a candidate
  /// that failed validation at a leaf. (An invalid point inside a box
  /// proven to fail counts as bounded.)
  std::size_t points_pruned = 0;

  /// Candidates in the outcome, by the Figure-1 gate that rejected them.
  std::size_t rejected_throughput = 0;
  std::size_t rejected_precision = 0;
  std::size_t rejected_resource = 0;
  std::size_t rejected_power = 0;  ///< the optional energy gate

  /// The search's effort: zero on full-trace runs, which never search.
  std::size_t regions_examined = 0;
  std::size_t regions_split = 0;
  std::size_t regions_pruned_bound = 0;      ///< whole box proven to fail
  std::size_t regions_pruned_incumbent = 0;  ///< whole box past the winner
  std::size_t corner_evaluations = 0;  ///< model runs spent on bounds

  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_puts = 0;
};

/// One point of the cost/speedup Pareto front. Enumeration is cheapest
/// first, so the front is the strictly-increasing-speedup subsequence of
/// the evaluated predictions: every entry is the cheapest design reaching
/// its speedup.
struct ParetoPoint {
  std::size_t candidate_index = 0;  ///< enumeration index (cost rank)
  std::string name;
  core::ThroughputPrediction prediction;
};

struct ExploreOptions {
  PruningPolicy policy;
  /// Threads for the full-trace scan (same semantics and byte-identical
  /// results as core::explore_design_space's n_threads).
  std::size_t n_threads = 1;
  /// Optional content-addressed plan cache: crash-resume of this
  /// campaign and reuse across overlapping ones. A full-trace run stores
  /// an evaluation when the scan's in-order merge takes it, so it leaves
  /// the same entries at any thread count.
  PlanCache* plan_cache = nullptr;
};

struct ExploreResult {
  /// With full_trace: bit-identical to core::explore_design_space's
  /// result.
  /// Without: trace/predictions cover only the evaluated points (in
  /// enumeration order; accepted_index indexes that sparse vector).
  core::DesignSpaceResult design;
  ExploreStats stats;
  /// Enumeration index of the accepted candidate (the same index
  /// exhaustive search reports), regardless of full_trace.
  std::optional<std::size_t> winner_index;
  /// Cost/speedup front over the evaluated points (see ParetoPoint).
  std::vector<ParetoPoint> front;
};

/// The explorer behind core::explore_design_space's contract: same factory
/// contract, same skipped-label bookkeeping; a full-trace run throws the
/// same validation errors at the same points of the run.
ExploreResult explore_design_space_pruned(
    const core::DesignAxes& axes, const core::CandidateFactory& factory,
    const core::Requirements& req, const rcsim::Device& device,
    const ExploreOptions& options = {});

/// The cost/speedup Pareto front of any methodology outcome (exhaustive
/// or pruned): candidates are scored in cost-ascending order, so the
/// front is exactly the strictly-increasing subsequence of per-candidate
/// speedups (single- or double-buffered per @p double_buffered).
/// Candidate indices and names are recovered from the trace.
std::vector<ParetoPoint> pareto_front(const core::MethodologyOutcome& outcome,
                                      bool double_buffered);

}  // namespace rat::explore
