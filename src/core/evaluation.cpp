#include "core/evaluation.hpp"

#include <stdexcept>

#include "store/codec.hpp"
#include "store/error.hpp"
#include "util/format.hpp"

namespace rat::core {

bool apply_throughput_gate(CandidateEvaluation& ev, std::size_t i,
                           const std::string& name, const Requirements& req,
                           const ThroughputPrediction& pred) {
  ev.prediction = pred;
  const double speedup =
      req.double_buffered ? pred.speedup_db : pred.speedup_sb;
  const bool tp_ok = speedup >= req.min_speedup;
  ev.trace.push_back(
      {i, name, Step::kThroughputTest, tp_ok,
       "predicted speedup " + util::fixed(speedup, 1) + " vs required " +
           util::fixed(req.min_speedup, 1)});
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
  // The prediction was computed up front for the whole enumeration window
  // by the SoA batch kernel — bit-identical to the predict() call that
  // used to live here.
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

// --- Plan-cache codec ------------------------------------------------------

namespace {

constexpr std::uint8_t kMaxStep = static_cast<std::uint8_t>(Step::kRejected);
constexpr std::uint8_t kMaxReject =
    static_cast<std::uint8_t>(RejectReason::kInsufficientEnergySavings);
/// Smallest encoded trace entry: step, passed, empty detail string.
constexpr std::size_t kMinTraceEntryBytes = 1 + 1 + 4;

store::StoreError corrupt(const std::string& what) {
  return store::StoreError(store::StoreErrorCode::kCorrupt, "",
                           "evaluation payload: " + what);
}

}  // namespace

std::string encode_evaluation_unindexed(const CandidateEvaluation& ev) {
  std::string out;
  store::put_u32(out, static_cast<std::uint32_t>(ev.trace.size()));
  for (const TraceEntry& e : ev.trace) {
    store::put_u8(out, static_cast<std::uint8_t>(e.step));
    store::put_u8(out, e.passed ? 1 : 0);
    store::put_string(out, e.detail);
  }
  const ThroughputPrediction& p = ev.prediction;
  for (double v : {p.fclock_hz, p.t_write_sec, p.t_read_sec, p.t_comm_sec,
                   p.t_comp_sec, p.t_rc_sb_sec, p.t_rc_db_sec, p.speedup_sb,
                   p.speedup_db, p.util_comp_sb, p.util_comm_sb,
                   p.util_comp_db, p.util_comm_db})
    store::put_f64(out, v);
  store::put_u8(out, ev.passed ? 1 : 0);
  store::put_u8(out, static_cast<std::uint8_t>(ev.reject));
  return out;
}

CandidateEvaluation decode_evaluation_unindexed(std::string_view payload,
                                                std::size_t index,
                                                const std::string& name) {
  store::Cursor cur(payload);
  CandidateEvaluation ev;
  const std::uint32_t n_trace = cur.u32();
  // Validate the declared count against the byte budget before reserving:
  // a garbage count must surface as kCorrupt, not as an allocation failure.
  if (n_trace > cur.remaining() / kMinTraceEntryBytes)
    throw corrupt("declares " + std::to_string(n_trace) +
                  " trace entries but carries " +
                  std::to_string(cur.remaining()) + " byte(s)");
  ev.trace.reserve(n_trace);
  for (std::uint32_t t = 0; t < n_trace; ++t) {
    TraceEntry e;
    e.candidate_index = index;
    e.candidate_name = name;
    const std::uint8_t step = cur.u8();
    if (step > kMaxStep) throw corrupt("trace step out of range");
    e.step = static_cast<Step>(step);
    e.passed = cur.u8() != 0;
    e.detail = cur.string();
    ev.trace.push_back(std::move(e));
  }
  ThroughputPrediction& p = ev.prediction;
  for (double* v : {&p.fclock_hz, &p.t_write_sec, &p.t_read_sec,
                    &p.t_comm_sec, &p.t_comp_sec, &p.t_rc_sb_sec,
                    &p.t_rc_db_sec, &p.speedup_sb, &p.speedup_db,
                    &p.util_comp_sb, &p.util_comm_sb, &p.util_comp_db,
                    &p.util_comm_db})
    *v = cur.f64();
  ev.passed = cur.u8() != 0;
  const std::uint8_t reject = cur.u8();
  if (reject > kMaxReject) throw corrupt("reject reason out of range");
  ev.reject = static_cast<RejectReason>(reject);
  cur.expect_done();
  return ev;
}

// --- Deferred-validation batch fill ------------------------------------------

namespace {

/// Fill @p w with the candidates candidates[index_of(0..count-1)].
template <typename IndexOf>
void fill_predictions(WindowPredictions& w,
                      const std::vector<DesignCandidate>& candidates,
                      std::size_t count, IndexOf index_of) {
  w.batch.clear();
  w.batch.reserve(count);
  w.errors.assign(count, nullptr);
  // Benign placeholder keeping the columns aligned for a deferred-error
  // point; its (never read) outputs stay finite.
  static const RatInputs kPlaceholder = [] {
    RatInputs p;
    p.name = "<invalid>";
    p.dataset = DatasetParams{1, 1, 1.0};
    p.comm = CommunicationParams{1.0, 1.0, 1.0};
    p.comp = ComputationParams{1.0, 1.0, {1.0}};
    p.software = SoftwareParams{1.0, 1};
    return p;
  }();
  for (std::size_t k = 0; k < count; ++k) {
    const DesignCandidate& cand = candidates[index_of(k)];
    try {
      w.batch.push_back(cand.inputs, cand.decision_clock_hz);
    } catch (...) {
      w.errors[k] = std::current_exception();
      w.batch.push_back_unchecked(kPlaceholder, 1.0);
    }
  }
  predict_batch(w.batch);
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
