// Design-space exploration (docs/EXPLORATION.md).
//
// One run streams the grid: it walks the points in enumeration order,
// builds one window of candidates at a time and drops each window once
// its ordered scan has taken it, serially or on n_threads pool threads.
// Its result is bit-identical to the serial reference
// core::explore_design_space (winner, trace, predictions, skipped labels)
// at any thread count, and it throws what that reference throws; the two
// share the per-candidate gate functions (core/evaluation.hpp), not the
// scan. Each candidate pays one factory call, one predict() and the
// throughput gate; only those that pass it are replayed from the plan
// cache or run through the deeper gates. Figure 1 runs the cheap
// throughput test first, so a design that fails it costs one prediction
// and two trace entries, and the trace needs those entries however the
// failure is proven.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/designspace.hpp"
#include "explore/plan_cache.hpp"

namespace rat::explore {

/// Kept for ratbench/driver.cpp, which sets both fields, until the next
/// benchmark change. No code reads them: every run is the ordered scan.
struct PruningPolicy {
  bool prune = true;
  bool full_trace = true;
};

/// Where every grid point ended up, why the merged candidates were
/// rejected, plus plan-cache effort counters. Invariants (asserted by the
/// explorer and property tests):
///   points_skipped + points_bounded + points_evaluated
///     + points_restored + points_pruned == points_total;
///   rejected_throughput + rejected_precision + rejected_resource
///     + rejected_power + (proceed ? 1 : 0) == outcome.predictions.size().
struct ExploreStats {
  std::size_t points_total = 0;
  std::size_t points_skipped = 0;    ///< factory returned nullopt
  std::size_t points_evaluated = 0;  ///< fresh full gate-pipeline runs
  /// Throughput rejections: the point's own prediction failed the gate.
  std::size_t points_bounded = 0;
  std::size_t points_restored = 0;   ///< replayed from the plan cache
  std::size_t points_pruned = 0;     ///< never touched: past the winner

  /// Candidates in the outcome, by the Figure-1 gate that rejected them.
  std::size_t rejected_throughput = 0;
  std::size_t rejected_precision = 0;
  std::size_t rejected_resource = 0;
  std::size_t rejected_power = 0;  ///< the optional energy gate

  /// Kept for ratbench/driver.cpp, which reads it, until the next
  /// benchmark change. Always 0.
  std::size_t corner_evaluations = 0;

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
  /// Kept for ratbench/driver.cpp, which sets it, until the next
  /// benchmark change. No code reads it.
  PruningPolicy policy;
  /// Threads for the scan: 1 is serial, 0 is auto
  /// (util::default_thread_count()). The result is byte-identical at any
  /// count. Factories run on the calling thread; precision kernels run
  /// on pool threads when this is not 1, so they must then be
  /// thread-safe.
  std::size_t n_threads = 1;
  /// Optional content-addressed plan cache: crash-resume of this
  /// campaign and reuse across overlapping ones. A run stores an
  /// evaluation when the scan's in-order merge takes it, so it leaves
  /// the same entries at any thread count. The merge runs as the grid is
  /// walked, so a factory that throws partway leaves the evaluations of
  /// the candidates taken before it stored.
  PlanCache* plan_cache = nullptr;
};

struct ExploreResult {
  /// Bit-identical to core::explore_design_space's result.
  core::DesignSpaceResult design;
  ExploreStats stats;
  /// Enumeration index of the accepted candidate (the same index
  /// exhaustive search reports).
  std::optional<std::size_t> winner_index;
  /// Cost/speedup front over the evaluated points (see ParetoPoint).
  std::vector<ParetoPoint> front;
};

/// The explorer behind core::explore_design_space's contract: same factory
/// contract (one call per grid point, in enumeration order, on the
/// calling thread), same skipped-label bookkeeping; it throws what the
/// exhaustive scan throws: an invalid axis or a null factory, then the
/// factory's own exception, then "factory skipped every point", then the
/// first evaluation error the in-order merge reaches.
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
