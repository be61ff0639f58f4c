// Per-candidate evaluation of the Figure-1 gate pipeline.
//
// Split out of run_methodology so the branch-and-bound explorer
// (src/explore) and its persistent plan cache can produce, serialize and
// replay evaluations that are byte-identical to the ones the methodology
// state machine computes inline. Everything here is pure per-candidate
// work: no shared state, safe on any thread.
#pragma once

#include <cstddef>
#include <exception>
#include <string>
#include <vector>

#include "core/methodology.hpp"

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

/// Throughput predictions for a list of candidates, one predict() call
/// each: an enumeration-order window (run_methodology, the explorer's
/// trace assembly) or an arbitrary index list (the explorer's box corners
/// and leaves). A candidate whose worksheet fails validation does not
/// abort the fill: its error is deferred and rethrown only if and when
/// that candidate is actually evaluated, so the serial early-exit
/// semantics (an accepted design before the bad candidate means the bad
/// candidate is never touched) are preserved exactly. Entry k of
/// predictions/errors belongs to the k-th listed candidate, and
/// predictions[k] is meaningful only when errors[k] is null. A reused
/// instance keeps its capacity, so a warm fill allocates nothing.
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

}  // namespace rat::core
