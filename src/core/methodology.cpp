#include "core/methodology.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/evaluation.hpp"
#include "store/checksum.hpp"
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

std::uint64_t candidate_fingerprint(const DesignCandidate& cand) {
  store::Fnv1a fp;
  fp.add_string("rat.candidate.v1");
  const RatInputs& in = cand.inputs;
  fp.add_string(in.name);
  fp.add_u64(in.dataset.elements_in);
  fp.add_u64(in.dataset.elements_out);
  fp.add_double(in.dataset.bytes_per_element);
  fp.add_double(in.comm.ideal_bw_bytes_per_sec);
  fp.add_double(in.comm.alpha_write);
  fp.add_double(in.comm.alpha_read);
  fp.add_double(in.comp.ops_per_element);
  fp.add_double(in.comp.throughput_ops_per_cycle);
  fp.add_u64(in.comp.fclock_hz.size());
  for (double f : in.comp.fclock_hz) fp.add_double(f);
  fp.add_double(in.software.tsoft_sec);
  fp.add_u64(in.software.n_iterations);
  fp.add_double(cand.decision_clock_hz);
  fp.add_u64(cand.resources.size());
  for (const ResourceItem& r : cand.resources) {
    fp.add_string(r.name);
    fp.add_u64(static_cast<std::uint64_t>(r.multiplier_count));
    fp.add_u64(static_cast<std::uint64_t>(r.multiplier_bits));
    fp.add_u64(static_cast<std::uint64_t>(r.buffer_bytes));
    fp.add_u64(static_cast<std::uint64_t>(r.logic_elements));
    fp.add_u64(static_cast<std::uint64_t>(r.instances));
  }
  fp.add_u64(cand.precision_reference.size());
  for (double v : cand.precision_reference) fp.add_double(v);
  // The kernel itself is opaque; its presence at least distinguishes
  // precision-tested candidates from throughput-only ones.
  fp.add_u64(cand.precision_kernel ? 1 : 0);
  return fp.value();
}

std::uint64_t requirements_fingerprint(const Requirements& req,
                                       const rcsim::Device& device) {
  store::Fnv1a fp;
  fp.add_string("rat.requirements.v1");
  fp.add_double(req.min_speedup);
  fp.add_u64(req.double_buffered ? 1 : 0);
  fp.add_u64(req.precision ? 1 : 0);
  if (req.precision) {
    fp.add_double(req.precision->max_error_percent);
    fp.add_u64(static_cast<std::uint64_t>(req.precision->min_total_bits));
    fp.add_u64(static_cast<std::uint64_t>(req.precision->max_total_bits));
    fp.add_u64(static_cast<std::uint64_t>(req.precision->int_bits));
  }
  fp.add_double(req.practical_fill_limit);
  fp.add_u64(req.min_energy_ratio ? 1 : 0);
  if (req.min_energy_ratio) fp.add_double(*req.min_energy_ratio);
  fp.add_double(req.power_model.static_watts);
  fp.add_double(req.power_model.watts_per_dsp_100mhz);
  fp.add_double(req.power_model.watts_per_bram_100mhz);
  fp.add_double(req.power_model.watts_per_klogic_100mhz);
  fp.add_double(req.power_model.io_watts);
  fp.add_double(req.host_power_model.busy_watts);
  fp.add_double(req.host_power_model.idle_watts);
  fp.add_string(device.name);
  fp.add_u64(static_cast<std::uint64_t>(device.family));
  fp.add_u64(static_cast<std::uint64_t>(device.inventory.dsp));
  fp.add_u64(static_cast<std::uint64_t>(device.inventory.bram));
  fp.add_u64(static_cast<std::uint64_t>(device.inventory.logic));
  return fp.value();
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
