#include "core/methodology.hpp"

#include <sstream>
#include <stdexcept>

#include "core/evaluation.hpp"

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
  if (!(req.min_speedup > 0.0))
    throw std::invalid_argument("run_methodology: min_speedup <= 0");

  MethodologyOutcome out;
  // Evaluated in enumeration-order windows, merged in order and stopped
  // at the first passing design (scan_in_order), so the outcome is the
  // serial run's at any thread count.
  scan_in_order(
      candidates, n_threads,
      [&](std::size_t i, const DesignCandidate& cand,
          const ThroughputPrediction& pred) {
        return evaluate_candidate(i, cand, req, device, pred);
      },
      [&out](std::size_t i, CandidateEvaluation&& ev) {
        return append_evaluation(out, i, std::move(ev));
      });
  return out;  // all permutations exhausted without a satisfactory solution
}

}  // namespace rat::core
