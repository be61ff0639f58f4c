// Per-candidate evaluation of the Figure-1 gate pipeline.
//
// Split out of run_methodology so the design-space explorer (src/explore)
// and its persistent plan cache can produce, serialize and replay
// evaluations that are byte-identical to the ones run_methodology's
// serial loop computes. The per-candidate functions are pure: no shared
// state, safe on any thread.
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
/// later tests. Shared by evaluate_candidate and the explorer, which
/// gates each candidate before its plan-cache lookup, so the explorer's
/// rejection carries the exact trace bytes a full evaluation would have.
bool apply_throughput_gate(CandidateEvaluation& ev, std::size_t i,
                           const std::string& name, const Requirements& req,
                           const ThroughputPrediction& pred);

/// Run the full gate pipeline (throughput → precision → resource →
/// optional power) for candidate @p i given its throughput prediction
/// @p pred (the candidate's predict() result).
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

/// A ratbench shim, kept for ratbench/driver.cpp (which times a fill over
/// a whole grid and reads batch.prediction(k)) until the next benchmark
/// change; nothing under src/ uses it; run_methodology and the explorer
/// call predict() once per candidate. A fill makes one predict() call for
/// each candidate it covers. A candidate whose worksheet fails validation
/// does not abort the fill: entry k of predictions/errors belongs to the
/// k-th candidate, and predictions[k] is meaningful only when errors[k]
/// is null. A reused instance keeps its capacity, so a warm fill
/// allocates nothing.
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

}  // namespace rat::core
