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
/// later tests. Shared by evaluate_candidate and the explorer, which
/// gates each candidate before its plan-cache lookup, so the explorer's
/// rejection carries the exact trace bytes a full evaluation would have.
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

/// Throughput predictions for an enumeration-order window of candidates
/// (OrderedScan), one predict() call each. A candidate whose worksheet
/// fails validation does not abort the fill: its error is deferred and
/// rethrown only if and when that candidate is actually evaluated, so the
/// serial early-exit semantics (an accepted design before the bad
/// candidate means the bad candidate is never touched) are preserved
/// exactly. Entry k of predictions/errors belongs to the window's k-th
/// candidate, and predictions[k] is meaningful only when errors[k] is
/// null. A reused instance keeps its capacity, so a warm fill allocates
/// nothing.
struct WindowPredictions {
  std::vector<ThroughputPrediction> predictions;
  std::vector<std::exception_ptr> errors;

  /// Candidates [start, start + count).
  void fill(const std::vector<DesignCandidate>& candidates,
            std::size_t start, std::size_t count);

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

/// The one ordered scan behind run_methodology and the explorer's full
/// trace, one window at a time. A window holds 256 candidates when serial
/// and threads * 4 when parallel. step() predicts a window once by
/// WindowPredictions::fill, runs evaluate(i, candidate, prediction) per
/// candidate, serially or through util::parallel_map, and hands the
/// results to take(i, result) in enumeration order until it returns true
/// (the winner). A candidate whose worksheet failed validation, or whose
/// evaluate threw, holds its exception in its slot, and the exception is
/// rethrown only when the merge reaches that slot. So the candidates
/// taken, and which exception escapes, are the same at any thread count;
/// work past the winner is bounded by one window. scan_in_order feeds it
/// the windows of a materialized list, and the explorer feeds it each
/// window as its grid walk builds it.
class OrderedScan {
 public:
  /// @p n_threads as util::resolve_thread_count takes it, capped at
  /// @p n_candidates, the most the scan will see.
  OrderedScan(std::size_t n_threads, std::size_t n_candidates)
      : threads_(std::min(util::resolve_thread_count(n_threads),
                          n_candidates)),
        window_(threads_ <= 1 ? 256 : threads_ * 4) {}

  /// Candidates per window.
  std::size_t window() const { return window_; }

  /// Scan candidates[begin, begin + count), the next @p count candidates
  /// in enumeration order: the first has the index after the last
  /// candidate of the previous step. Returns whether take accepted the
  /// winner.
  template <typename Evaluate, typename Take>
  bool step(const std::vector<DesignCandidate>& candidates, std::size_t begin,
            std::size_t count, Evaluate&& evaluate, Take&& take) {
    const std::size_t first = next_;
    next_ += count;
    preds_.fill(candidates, begin, count);
    auto run = [&](std::size_t k) {
      if (preds_.errors[k]) std::rethrow_exception(preds_.errors[k]);
      return evaluate(first + k, candidates[begin + k],
                      preds_.predictions[k]);
    };
    if (threads_ <= 1) {
      for (std::size_t k = 0; k < count; ++k)
        if (take(first + k, run(k))) return true;
      return false;
    }
    using Result = decltype(run(0));
    struct Slot {
      Result result{};
      std::exception_ptr error;
    };
    std::vector<Slot> slots = util::parallel_map(
        count,
        [&](std::size_t k) {
          Slot slot;
          try {
            slot.result = run(k);
          } catch (...) {
            slot.error = std::current_exception();
          }
          return slot;
        },
        threads_);
    for (std::size_t k = 0; k < count; ++k) {
      if (slots[k].error) std::rethrow_exception(slots[k].error);
      if (take(first + k, std::move(slots[k].result))) return true;
    }
    return false;
  }

 private:
  std::size_t threads_;
  std::size_t window_;
  std::size_t next_ = 0;  ///< enumeration index of the next window's first
  WindowPredictions preds_;
};

/// The ordered scan over a materialized, enumeration-ordered candidate
/// list: every window of @p candidates through one OrderedScan, stopping
/// at the winner.
template <typename Evaluate, typename Take>
void scan_in_order(const std::vector<DesignCandidate>& candidates,
                   std::size_t n_threads, Evaluate&& evaluate, Take&& take) {
  const std::size_t n = candidates.size();
  OrderedScan scan(n_threads, n);
  for (std::size_t start = 0; start < n; start += scan.window())
    if (scan.step(candidates, start, std::min(scan.window(), n - start),
                  evaluate, take))
      return;
}

}  // namespace rat::core
