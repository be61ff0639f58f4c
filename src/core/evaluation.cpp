#include "core/evaluation.hpp"

#include <stdexcept>
#include <utility>

#include "util/format.hpp"

namespace rat::core {

namespace {

/// Capacity of the gate's detail string: its 31 fixed characters and two
/// numbers of up to 16 characters each.
constexpr std::size_t kGateDetailCapacity = 64;

}  // namespace

bool apply_throughput_gate(CandidateEvaluation& ev, std::size_t i,
                           const std::string& name, const Requirements& req,
                           const ThroughputPrediction& pred) {
  ev.prediction = pred;
  const double speedup =
      req.double_buffered ? pred.speedup_db : pred.speedup_sb;
  const bool tp_ok = speedup >= req.min_speedup;
  // Most candidates fail here, so a rejection's two entries and the
  // detail each take one allocation.
  ev.trace.reserve(ev.trace.size() + 2);
  std::string detail;
  detail.reserve(kGateDetailCapacity);
  detail += "predicted speedup ";
  util::append_fixed(detail, speedup, 1);
  detail += " vs required ";
  util::append_fixed(detail, req.min_speedup, 1);
  ev.trace.push_back(
      {i, name, Step::kThroughputTest, tp_ok, std::move(detail)});
  if (!tp_ok) {
    ev.reject = RejectReason::kInsufficientThroughput;
    ev.trace.push_back({i, name, Step::kRejected, false,
                        "insufficient comm. or comp. throughput"});
  }
  return tp_ok;
}

CandidateEvaluation evaluate_candidate(std::size_t i,
                                       const DesignCandidate& cand,
                                       const Requirements& req,
                                       const rcsim::Device& device,
                                       const ThroughputPrediction& pred) {
  CandidateEvaluation ev;
  const std::string& name = cand.inputs.name;

  // --- Throughput test -------------------------------------------------
  // The prediction was computed up front, one predict() per candidate of
  // the enumeration window (WindowPredictions).
  if (!apply_throughput_gate(ev, i, name, req, pred)) return ev;

  // --- Precision test ---------------------------------------------------
  if (req.precision) {
    if (!cand.precision_kernel)
      throw std::invalid_argument(
          "run_methodology: precision requested but candidate '" + name +
          "' has no precision kernel");
    const PrecisionResult pr = run_precision_test(
        cand.precision_kernel, cand.precision_reference, *req.precision);
    ev.trace.push_back(
        {i, name, Step::kPrecisionTest, pr.satisfied,
         pr.satisfied
             ? "minimum precision " + pr.choice->format.to_string() +
                   " (max err " +
                   util::fixed(pr.choice->report.max_error_percent, 2) + "%)"
             : "no format within tolerance"});
    if (!pr.satisfied) {
      ev.reject = RejectReason::kUnrealizablePrecision;
      ev.trace.push_back({i, name, Step::kRejected, false,
                          "unrealizable precision requirement"});
      return ev;
    }
  }

  // --- Resource test ----------------------------------------------------
  const ResourceTestResult rr =
      run_resource_test(cand.resources, device, req.practical_fill_limit);
  ev.trace.push_back(
      {i, name, Step::kResourceTest, rr.feasible,
       "binding resource " + rr.utilization.binding_resource() + " at " +
           util::percent(rr.utilization.max_fraction())});
  if (!rr.feasible) {
    ev.reject = RejectReason::kInsufficientResources;
    ev.trace.push_back(
        {i, name, Step::kRejected, false, "insufficient resources"});
    return ev;
  }

  // --- Power test (optional extension gate) ------------------------------
  if (req.min_energy_ratio) {
    const PowerEstimate pe =
        estimate_power(rr.usage, pred, cand.inputs.software.tsoft_sec,
                       req.power_model, req.host_power_model);
    const bool power_ok = pe.energy_ratio >= *req.min_energy_ratio;
    ev.trace.push_back(
        {i, name, Step::kPowerTest, power_ok,
         "energy ratio " + util::fixed(pe.energy_ratio, 1) +
             "x vs required " + util::fixed(*req.min_energy_ratio, 1) +
             "x (" + util::fixed(pe.fpga_watts, 1) + " W FPGA)"});
    if (!power_ok) {
      ev.reject = RejectReason::kInsufficientEnergySavings;
      ev.trace.push_back({i, name, Step::kRejected, false,
                          "insufficient energy savings"});
      return ev;
    }
  }

  ev.passed = true;
  ev.trace.push_back({i, name, Step::kProceed, true,
                      "build in HDL/HLL, verify on HW platform"});
  return ev;
}

bool append_evaluation(MethodologyOutcome& out, std::size_t i,
                       CandidateEvaluation&& ev) {
  for (auto& e : ev.trace) out.trace.push_back(std::move(e));
  out.predictions.push_back(ev.prediction);
  if (ev.passed) {
    out.proceed = true;
    out.accepted_index = i;
    return true;
  }
  out.last_reject = ev.reject;
  return false;
}

// --- Deferred-validation window fill ----------------------------------------

namespace {

/// Fill @p w with the candidates candidates[index_of(0..count-1)].
template <typename IndexOf>
void fill_predictions(WindowPredictions& w,
                      const std::vector<DesignCandidate>& candidates,
                      std::size_t count, IndexOf index_of) {
  w.predictions.clear();
  w.predictions.reserve(count);
  w.errors.assign(count, nullptr);
  for (std::size_t k = 0; k < count; ++k) {
    const DesignCandidate& cand = candidates[index_of(k)];
    ThroughputPrediction p;
    try {
      p = predict(cand.inputs, cand.decision_clock_hz);
    } catch (...) {
      w.errors[k] = std::current_exception();
    }
    w.predictions.push_back(p);
  }
}

}  // namespace

void WindowPredictions::fill(const std::vector<DesignCandidate>& candidates,
                             std::size_t start, std::size_t count) {
  fill_predictions(*this, candidates, count,
                   [start](std::size_t k) { return start + k; });
}

void WindowPredictions::fill(const std::vector<DesignCandidate>& candidates,
                             const std::vector<std::size_t>& indices) {
  fill_predictions(*this, candidates, indices.size(),
                   [&indices](std::size_t k) { return indices[k]; });
}

}  // namespace rat::core
