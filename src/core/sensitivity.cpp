#include "core/sensitivity.hpp"

#include <algorithm>
#include <stdexcept>

namespace rat::core {

namespace {

/// Per-iteration time budget implied by a target speedup.
double per_iteration_budget(const RatInputs& inputs, double target_speedup) {
  if (!(target_speedup > 0.0))
    throw std::invalid_argument("target speedup must be positive");
  const double t_rc = inputs.software.tsoft_sec / target_speedup;
  return t_rc / static_cast<double>(inputs.software.n_iterations);
}

double comm_time(const RatInputs& inputs) {
  const auto& d = inputs.dataset;
  const auto& c = inputs.comm;
  return static_cast<double>(d.elements_in) * d.bytes_per_element /
             (c.alpha_write * c.ideal_bw_bytes_per_sec) +
         static_cast<double>(d.elements_out) * d.bytes_per_element /
             (c.alpha_read * c.ideal_bw_bytes_per_sec);
}

}  // namespace

std::optional<double> solve_throughput_proc(const RatInputs& inputs,
                                            double fclock_hz,
                                            double target_speedup,
                                            BufferingMode mode) {
  inputs.validate();
  if (!(fclock_hz > 0.0))
    throw std::invalid_argument("solve_throughput_proc: bad clock");
  const double budget = per_iteration_budget(inputs, target_speedup);
  const double tcomm = comm_time(inputs);

  // Single buffered: tcomp <= budget - tcomm.
  // Double buffered: tcomp <= budget, provided tcomm <= budget too.
  double tcomp_budget;
  if (mode == BufferingMode::kSingle) {
    tcomp_budget = budget - tcomm;
  } else {
    if (tcomm > budget) return std::nullopt;  // communication bound already
    tcomp_budget = budget;
  }
  if (tcomp_budget <= 0.0) return std::nullopt;

  // Invert Eq. (4): throughput_proc = Nelem*ops / (fclock * tcomp).
  return static_cast<double>(inputs.dataset.elements_in) *
         inputs.comp.ops_per_element / (fclock_hz * tcomp_budget);
}

std::optional<double> solve_fclock(const RatInputs& inputs,
                                   double target_speedup,
                                   BufferingMode mode) {
  inputs.validate();
  const double budget = per_iteration_budget(inputs, target_speedup);
  const double tcomm = comm_time(inputs);
  double tcomp_budget;
  if (mode == BufferingMode::kSingle) {
    tcomp_budget = budget - tcomm;
  } else {
    if (tcomm > budget) return std::nullopt;
    tcomp_budget = budget;
  }
  if (tcomp_budget <= 0.0) return std::nullopt;
  return static_cast<double>(inputs.dataset.elements_in) *
         inputs.comp.ops_per_element /
         (inputs.comp.throughput_ops_per_cycle * tcomp_budget);
}

double speedup_upper_bound(const RatInputs& inputs) {
  inputs.validate();
  const double tcomm = comm_time(inputs);
  // As tcomp -> 0 both modes are limited by communication alone.
  const double t_rc =
      static_cast<double>(inputs.software.n_iterations) * tcomm;
  return inputs.software.tsoft_sec / t_rc;
}

std::vector<ThroughputPrediction> sweep_parameter(
    const RatInputs& inputs, const ParamSetter& set,
    const std::vector<double>& values, double fclock_hz) {
  if (!set) throw std::invalid_argument("sweep_parameter: null setter");
  std::vector<ThroughputPrediction> out;
  out.reserve(values.size());
  RatInputs scratch;
  for (double v : values) {
    scratch = inputs;
    set(scratch, v);
    out.push_back(predict(scratch, fclock_hz));
  }
  return out;
}

std::vector<TornadoEntry> tornado(const RatInputs& inputs, double fclock_hz,
                                  double fraction) {
  if (fraction <= 0.0 || fraction >= 1.0)
    throw std::invalid_argument("tornado: fraction outside (0,1)");
  struct Param {
    std::string name;
    ParamSetter set;
    double base;
  };
  const std::vector<Param> params = {
      {"alpha_write",
       [](RatInputs& in, double v) {
         in.comm.alpha_write = std::min(v, 1.0);
       },
       inputs.comm.alpha_write},
      {"alpha_read",
       [](RatInputs& in, double v) {
         in.comm.alpha_read = std::min(v, 1.0);
       },
       inputs.comm.alpha_read},
      {"ops_per_element",
       [](RatInputs& in, double v) { in.comp.ops_per_element = v; },
       inputs.comp.ops_per_element},
      {"throughput_proc",
       [](RatInputs& in, double v) { in.comp.throughput_ops_per_cycle = v; },
       inputs.comp.throughput_ops_per_cycle},
      {"ideal_bandwidth",
       [](RatInputs& in, double v) { in.comm.ideal_bw_bytes_per_sec = v; },
       inputs.comm.ideal_bw_bytes_per_sec},
      {"bytes_per_element",
       [](RatInputs& in, double v) { in.dataset.bytes_per_element = v; },
       inputs.dataset.bytes_per_element},
  };

  // Two points per axis, evaluated param-major, low then high: that order
  // decides which out-of-domain perturbation raises its validation
  // diagnostic first.
  std::vector<TornadoEntry> out;
  out.reserve(params.size());
  for (const auto& p : params) {
    RatInputs lo_in = inputs, hi_in = inputs;
    p.set(lo_in, p.base * (1.0 - fraction));
    p.set(hi_in, p.base * (1.0 + fraction));
    const double s_lo = predict(lo_in, fclock_hz).speedup_sb;
    const double s_hi = predict(hi_in, fclock_hz).speedup_sb;
    TornadoEntry e;
    e.parameter = p.name;
    e.speedup_low = std::min(s_lo, s_hi);
    e.speedup_high = std::max(s_lo, s_hi);
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.swing() > b.swing();
  });
  return out;
}

}  // namespace rat::core
