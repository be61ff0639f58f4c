#include "core/methodology.hpp"

#include <sstream>
#include <stdexcept>

#include "core/evaluation.hpp"
#include "util/require.hpp"

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
    const rcsim::Device& device) {
  if (candidates.empty())
    throw std::invalid_argument("run_methodology: no candidates");
  util::require_positive(req.min_speedup, "run_methodology: min_speedup <= 0");

  MethodologyOutcome out;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const DesignCandidate& cand = candidates[i];
    const ThroughputPrediction pred =
        predict(cand.inputs, cand.decision_clock_hz);
    if (append_evaluation(out, i,
                          evaluate_candidate(i, cand, req, device, pred)))
      return out;  // PROCEED
  }
  return out;  // all permutations exhausted without a satisfactory solution
}

}  // namespace rat::core
