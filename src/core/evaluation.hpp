// Per-candidate evaluation of the Figure-1 gate pipeline, and the one
// ordered scan that walks a candidate list through it.
//
// Split out of run_methodology so the design-space explorer (src/explore)
// and its persistent plan cache can produce, serialize and replay
// evaluations that are byte-identical to the ones the methodology state
// machine computes. The per-candidate functions are pure: no shared
// state, safe on any thread.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "core/methodology.hpp"
#include "util/parallel_for.hpp"

namespace rat::core {

/// Everything one candidate contributes to the outcome, computed without
/// touching shared state so candidates can be evaluated on any thread.
struct CandidateEvaluation {
  std::vector<TraceEntry> trace;
  ThroughputPrediction prediction;
  bool passed = false;
  RejectReason reject = RejectReason::kNone;
};

/// The throughput gate alone: records @p pred and the gate's trace
/// entries on @p ev and returns whether the candidate may proceed to the
/// later tests. Shared by evaluate_candidate and the explorer's
/// bound-synthesized rejections, so a rejection proven by a subregion
/// bound carries the exact trace bytes a full evaluation would have.
bool apply_throughput_gate(CandidateEvaluation& ev, std::size_t i,
                           const std::string& name, const Requirements& req,
                           const ThroughputPrediction& pred);

/// Run the full gate pipeline (throughput → precision → resource →
/// optional power) for candidate @p i given its precomputed throughput
/// prediction @p pred (a predict() result, e.g. from WindowPredictions).
CandidateEvaluation evaluate_candidate(std::size_t i,
                                       const DesignCandidate& cand,
                                       const Requirements& req,
                                       const rcsim::Device& device,
                                       const ThroughputPrediction& pred);

/// Append candidate @p i's evaluation to @p out: its trace entries and
/// prediction, then either the acceptance (proceed, accepted_index = i)
/// or its rejection reason. Returns whether the candidate was accepted.
bool append_evaluation(MethodologyOutcome& out, std::size_t i,
                       CandidateEvaluation&& ev);

/// Throughput predictions for a list of candidates, one predict() call
/// each: an enumeration-order window (scan_in_order) or an arbitrary index
/// list (the explorer's box corners and leaves). A candidate whose
/// worksheet fails validation does not abort the fill: its error is
/// deferred and rethrown only if and when that candidate is actually
/// evaluated, so the serial early-exit semantics (an accepted design
/// before the bad candidate means the bad candidate is never touched) are
/// preserved exactly. Entry k of predictions/errors belongs to the k-th
/// listed candidate, and predictions[k] is meaningful only when errors[k]
/// is null. A reused instance keeps its capacity, so a warm fill
/// allocates nothing.
struct WindowPredictions {
  std::vector<ThroughputPrediction> predictions;
  std::vector<std::exception_ptr> errors;

  /// Candidates [start, start + count).
  void fill(const std::vector<DesignCandidate>& candidates,
            std::size_t start, std::size_t count);
  /// Candidates candidates[indices[0]], candidates[indices[1]], ...
  void fill(const std::vector<DesignCandidate>& candidates,
            const std::vector<std::size_t>& indices);

  /// A bounds-checked read of predictions[k]. Kept for ratbench/driver.cpp,
  /// which reads batch.prediction(k), until the next benchmark change
  /// moves it onto `predictions`. It points into this object, so copies
  /// are disabled.
  struct {
    const std::vector<ThroughputPrediction>* points;
    const ThroughputPrediction& prediction(std::size_t k) const {
      return points->at(k);
    }
  } batch{&predictions};

  WindowPredictions() = default;
  WindowPredictions(const WindowPredictions&) = delete;
  WindowPredictions& operator=(const WindowPredictions&) = delete;
};

/// The one ordered scan over an enumeration-ordered candidate list, behind
/// run_methodology and the explorer's full trace. Candidates are taken in
/// windows of 256 when serial and threads * 4 when parallel; each window
/// is predicted once by WindowPredictions::fill. evaluate(i, prediction)
/// then runs per candidate, serially or through util::parallel_map, and
/// take(i, result) consumes the results in enumeration order until it
/// returns true (the winner). A candidate whose worksheet failed
/// validation, or whose evaluate threw, holds its exception in its slot,
/// and the exception is rethrown only when the merge reaches that slot.
/// So the candidates taken, and which exception escapes, are the same at
/// any thread count; work past the winner is bounded by one window.
template <typename Evaluate, typename Take>
void scan_in_order(const std::vector<DesignCandidate>& candidates,
                   std::size_t n_threads, Evaluate&& evaluate, Take&& take) {
  const std::size_t n = candidates.size();
  const std::size_t threads =
      std::min(util::resolve_thread_count(n_threads), n);
  const std::size_t window = threads <= 1 ? 256 : threads * 4;
  WindowPredictions preds;
  auto run = [&](std::size_t start, std::size_t k) {
    if (preds.errors[k]) std::rethrow_exception(preds.errors[k]);
    return evaluate(start + k, preds.predictions[k]);
  };
  using Result = decltype(run(0, 0));
  struct Slot {
    Result result{};
    std::exception_ptr error;
  };
  for (std::size_t start = 0; start < n; start += window) {
    const std::size_t count = std::min(window, n - start);
    preds.fill(candidates, start, count);
    if (threads <= 1) {
      for (std::size_t k = 0; k < count; ++k)
        if (take(start + k, run(start, k))) return;
      continue;
    }
    std::vector<Slot> slots = util::parallel_map(
        count,
        [&](std::size_t k) {
          Slot slot;
          try {
            slot.result = run(start, k);
          } catch (...) {
            slot.error = std::current_exception();
          }
          return slot;
        },
        threads);
    for (std::size_t k = 0; k < count; ++k) {
      if (slots[k].error) std::rethrow_exception(slots[k].error);
      if (take(start + k, std::move(slots[k].result))) return;
    }
  }
}

}  // namespace rat::core
