// Branch-and-bound design-space exploration (docs/EXPLORATION.md).
//
// core::explore_design_space, the exhaustive reference scan, scores every
// permutation of the axes grid. This module prunes instead: for the
// factories the paper's case studies use, Eqs. 5-6 make predicted
// speedup monotone along each axis (parallelism raises throughput_proc,
// fclock raises the decision clock, wider formats raise bytes/element),
// so the maximum speedup over an axis-aligned subregion of the grid is
// attained at one of its corners. Best-first
// branch-and-bound over such subregions proves whole boxes fail the
// throughput gate from at most 2^3 corner predictions (one predict()
// each, through core::WindowPredictions), then splits only the boxes that
// straddle the pass/fail frontier — the number of full gate-pipeline
// evaluations drops from O(points before the winner) to O(frontier
// surface).
//
// Correctness does not depend on the bounds. With full_trace (default)
// the result is unconditionally bit-identical to the exhaustive
// explorer's — winner, trace, predictions, skipped labels — because every
// bound-rejected point before the winner is still checked against its own
// window prediction when the trace is assembled; a bound violation (a
// non-monotone custom factory) demotes that point to a full evaluation on
// the spot, and can only move the winner *earlier*, exactly where the
// exhaustive scan would have found it. Bounds therefore only ever save
// work, never change answers. full_trace=false additionally elides the
// proven-fail regions from the trace (the wall-clock headline mode);
// winner and skipped labels remain identical for monotone factories.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/designspace.hpp"
#include "explore/plan_cache.hpp"

namespace rat::explore {

/// Knobs of the branch-and-bound search.
struct PruningPolicy {
  /// Master switch. false = per-point fallback: candidates are evaluated
  /// in enumeration order exactly like core::explore_design_space
  /// (plan-cache replay still applies) — the explicit escape hatch for
  /// factories whose speedup is not monotone along the axes.
  bool prune = true;
  /// Reproduce the exhaustive trace and predictions byte-for-byte: every
  /// pre-winner point appears, proven-fail points as synthesized
  /// throughput rejections. false skips materializing proven-fail
  /// regions entirely — the result's trace/predictions then cover only
  /// the points actually evaluated (ExploreResult::winner_index still
  /// names the enumeration index of the same winner).
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
  std::size_t points_bounded = 0;    ///< throughput-fail proven by a bound
  std::size_t points_restored = 0;   ///< replayed from the plan cache
  std::size_t points_pruned = 0;     ///< never touched (past the winner)

  /// Candidates in the outcome, by the Figure-1 gate that rejected them.
  std::size_t rejected_throughput = 0;
  std::size_t rejected_precision = 0;
  std::size_t rejected_resource = 0;
  std::size_t rejected_power = 0;  ///< the optional energy gate

  std::size_t regions_examined = 0;
  std::size_t regions_split = 0;
  std::size_t regions_pruned_bound = 0;      ///< whole box proven to fail
  std::size_t regions_pruned_incumbent = 0;  ///< whole box past the winner
  std::size_t corner_evaluations = 0;  ///< model runs spent on bounds
  /// Bounded points whose own prediction passed the gate after all (a
  /// non-monotone factory); each was demoted to a full evaluation.
  std::size_t bound_violations = 0;

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
  /// Threads for the trace-assembly evaluation windows (same semantics
  /// and byte-identical results as core::explore_design_space's
  /// n_threads).
  std::size_t n_threads = 1;
  /// Optional content-addressed plan cache: crash-resume of this
  /// campaign and reuse across overlapping ones.
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

/// Branch-and-bound twin of core::explore_design_space. Same factory
/// contract, same skipped-label bookkeeping; throws the same validation
/// errors at the same points of the run.
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
