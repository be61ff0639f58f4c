#include "core/methodology.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/evaluation.hpp"
#include "util/parallel_for.hpp"

namespace rat::core {

namespace {
const char* step_name(Step s) {
  switch (s) {
    case Step::kThroughputTest: return "throughput";
    case Step::kPrecisionTest: return "precision";
    case Step::kResourceTest: return "resource";
    case Step::kPowerTest: return "power";
    case Step::kProceed: return "PROCEED";
    case Step::kRejected: return "rejected";
  }
  return "?";
}
}  // namespace

std::string MethodologyOutcome::render_trace() const {
  std::ostringstream os;
  for (const auto& e : trace) {
    os << '[' << e.candidate_index << "] " << e.candidate_name << ": "
       << step_name(e.step);
    if (e.step != Step::kProceed && e.step != Step::kRejected)
      os << (e.passed ? " PASS" : " FAIL");
    if (!e.detail.empty()) os << " — " << e.detail;
    os << '\n';
  }
  return os.str();
}

MethodologyOutcome run_methodology(
    const std::vector<DesignCandidate>& candidates, const Requirements& req,
    const rcsim::Device& device, std::size_t n_threads) {
  if (candidates.empty())
    throw std::invalid_argument("run_methodology: no candidates");
  if (req.min_speedup <= 0.0)
    throw std::invalid_argument("run_methodology: min_speedup <= 0");

  MethodologyOutcome out;
  // Append one candidate's results in enumeration order; true = accepted,
  // which ends the run exactly like the serial early exit.
  auto absorb = [&out](std::size_t i, CandidateEvaluation&& ev) {
    for (auto& e : ev.trace) out.trace.push_back(std::move(e));
    out.predictions.push_back(ev.prediction);
    if (ev.passed) {
      out.proceed = true;
      out.accepted_index = i;
      return true;
    }
    out.last_reject = ev.reject;
    return false;
  };

  const std::size_t threads =
      std::min(util::resolve_thread_count(n_threads), candidates.size());
  // Serial or parallel, candidates are processed in enumeration-order
  // windows whose throughput predictions are computed up front, one
  // predict() per candidate (validation deferred per candidate — see
  // WindowPredictions); the precision/resource/power gates then run per
  // candidate, in parallel when a pool is available. Wasted work past an
  // accepted design is bounded by one window, and absorbing in order
  // keeps the trace byte-identical to the serial run.
  WindowPredictions window_preds;
  // A candidate that failed validation surfaces the error predict() would
  // have thrown for it, at the same point in the run.
  auto evaluate = [&](std::size_t start, std::size_t k) {
    if (window_preds.errors[k]) std::rethrow_exception(window_preds.errors[k]);
    return evaluate_candidate(start + k, candidates[start + k], req, device,
                              window_preds.predictions[k]);
  };
  const std::size_t window = threads <= 1 ? 256 : threads * 4;
  for (std::size_t start = 0; start < candidates.size(); start += window) {
    const std::size_t count = std::min(window, candidates.size() - start);
    window_preds.fill(candidates, start, count);
    if (threads <= 1) {
      for (std::size_t k = 0; k < count; ++k)
        if (absorb(start + k, evaluate(start, k))) return out;
      continue;
    }
    auto evals = util::parallel_map(
        count, [&](std::size_t k) { return evaluate(start, k); }, threads);
    for (std::size_t k = 0; k < count; ++k)
      if (absorb(start + k, std::move(evals[k]))) return out;
  }
  return out;  // all permutations exhausted without a satisfactory solution
}

}  // namespace rat::core
