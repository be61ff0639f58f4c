#include "core/throughput.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/require.hpp"

namespace rat::core {

ThroughputPrediction predict_unchecked(const RatInputs& inputs,
                                       double fclock_hz) noexcept {
  // Integer worksheet fields are cast once; every quantity below is one
  // mul, div, add or max, each exactly rounded. There is no a*b+c shape
  // in Eqs. 1-11, so FMA contraction cannot occur, and no reassociation
  // is possible without -ffast-math (which this repo never enables).
  const double elements_in = static_cast<double>(inputs.dataset.elements_in);
  const double elements_out =
      static_cast<double>(inputs.dataset.elements_out);
  const double bytes_per_elem = inputs.dataset.bytes_per_element;
  const double ideal_bw = inputs.comm.ideal_bw_bytes_per_sec;
  const double n_iterations =
      static_cast<double>(inputs.software.n_iterations);
  const double tsoft = inputs.software.tsoft_sec;

  ThroughputPrediction p;
  p.fclock_hz = fclock_hz;

  // Eqs. (3)/(2): numerator and denominator each round once, then divide.
  p.t_write_sec =
      elements_in * bytes_per_elem / (inputs.comm.alpha_write * ideal_bw);
  p.t_read_sec =
      elements_out * bytes_per_elem / (inputs.comm.alpha_read * ideal_bw);
  p.t_comm_sec = p.t_write_sec + p.t_read_sec;  // Eq. (1)

  // Eq. (4).
  p.t_comp_sec = elements_in * inputs.comp.ops_per_element /
                 (fclock_hz * inputs.comp.throughput_ops_per_cycle);

  // Both operands are finite and positive for validated inputs, so
  // std::max never meets a NaN.
  const double sum = p.t_comm_sec + p.t_comp_sec;
  const double mx = std::max(p.t_comm_sec, p.t_comp_sec);
  p.t_rc_sb_sec = n_iterations * sum;  // Eq. (5)
  p.t_rc_db_sec = n_iterations * mx;   // Eq. (6)

  p.speedup_sb = tsoft / p.t_rc_sb_sec;  // Eq. (7)
  p.speedup_db = tsoft / p.t_rc_db_sec;

  p.util_comp_sb = p.t_comp_sec / sum;  // Eq. (8)
  p.util_comm_sb = p.t_comm_sec / sum;  // Eq. (9)
  p.util_comp_db = p.t_comp_sec / mx;   // Eq. (10)
  p.util_comm_db = p.t_comm_sec / mx;   // Eq. (11)
  return p;
}

ThroughputPrediction predict(const RatInputs& inputs, double fclock_hz) {
  inputs.validate();
  util::require_positive(fclock_hz, "predict: non-positive clock");
  return predict_unchecked(inputs, fclock_hz);
}

std::vector<ThroughputPrediction> predict_all(const RatInputs& inputs) {
  // validate() guarantees every candidate clock is positive, so the
  // per-clock loop stays on the unchecked path instead of re-validating
  // the worksheet once per clock.
  inputs.validate();
  std::vector<ThroughputPrediction> out;
  out.reserve(inputs.comp.fclock_hz.size());
  for (double f : inputs.comp.fclock_hz)
    out.push_back(predict_unchecked(inputs, f));
  return out;
}

}  // namespace rat::core
