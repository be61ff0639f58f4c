#include "core/composition.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/units.hpp"
#include "util/format.hpp"
#include "util/require.hpp"

namespace rat::core {

namespace {

/// Per-direction transfer times from a worksheet (Eqs. 2/3).
double write_time(const RatInputs& in) {
  return static_cast<double>(in.dataset.elements_in) *
         in.dataset.bytes_per_element /
         (in.comm.alpha_write * in.comm.ideal_bw_bytes_per_sec);
}

double read_time(const RatInputs& in) {
  return static_cast<double>(in.dataset.elements_out) *
         in.dataset.bytes_per_element /
         (in.comm.alpha_read * in.comm.ideal_bw_bytes_per_sec);
}

double comp_time(const RatInputs& in, double fclock_hz) {
  return static_cast<double>(in.dataset.elements_in) *
         in.comp.ops_per_element /
         (fclock_hz * in.comp.throughput_ops_per_cycle);
}

}  // namespace

util::Table CompositePrediction::to_table() const {
  util::Table t({"stage", "t_write", "t_comp", "t_read", "t_stage",
                 "standalone speedup"});
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const auto& s = stages[i];
    t.add_row({std::to_string(i) + (i == bottleneck_stage ? " *" : ""),
               util::sci(s.t_write_sec), util::sci(s.prediction.t_comp_sec),
               util::sci(s.t_read_sec), util::sci(s.t_stage_sec),
               util::fixed(s.prediction.speedup_sb, 1)});
  }
  return t;
}

CompositePrediction predict_composite(const std::vector<StageSpec>& stages,
                                      CompositionMode mode) {
  if (stages.empty())
    throw std::invalid_argument("predict_composite: no stages");
  const std::size_t niter = stages.front().inputs.software.n_iterations;
  for (const auto& s : stages) {
    s.inputs.validate();
    util::require_positive(s.fclock_hz,
                           "predict_composite: non-positive clock");
    if (s.inputs.software.n_iterations != niter)
      throw std::invalid_argument(
          "predict_composite: stages disagree on Niter");
  }
  if (stages.back().output_stays_on_chip)
    throw std::invalid_argument(
        "predict_composite: final stage output must return to the host");

  CompositePrediction out;
  out.stages.reserve(stages.size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const auto& spec = stages[i];
    StagePrediction sp;
    sp.prediction = predict(spec.inputs, spec.fclock_hz);
    // On-chip hand-off: stage i-1 marked output_stays_on_chip suppresses
    // both its own read-back and this stage's write-in.
    const bool receives_on_chip =
        i > 0 && stages[i - 1].output_stays_on_chip;
    sp.t_write_sec = receives_on_chip ? 0.0 : write_time(spec.inputs);
    sp.t_read_sec = spec.output_stays_on_chip ? 0.0 : read_time(spec.inputs);
    sp.t_stage_sec =
        sp.t_write_sec + sp.t_read_sec + comp_time(spec.inputs, spec.fclock_hz);
    out.tsoft_total_sec += spec.inputs.software.tsoft_sec;
    out.stages.push_back(sp);
  }

  double sum = 0.0, worst = 0.0;
  for (std::size_t i = 0; i < out.stages.size(); ++i) {
    sum += out.stages[i].t_stage_sec;
    if (out.stages[i].t_stage_sec > worst) {
      worst = out.stages[i].t_stage_sec;
      out.bottleneck_stage = i;
    }
  }

  const double n = static_cast<double>(niter);
  if (mode == CompositionMode::kSequential) {
    out.t_total_sec = n * sum;
    out.bottleneck_share = worst / sum;
  } else {
    // Pipelined across FPGAs: after the fill (one pass through all
    // stages), one result block completes every `worst` seconds.
    out.t_total_sec = sum + (n - 1.0) * worst;
    out.bottleneck_share = worst * n / out.t_total_sec;
  }
  out.speedup = out.tsoft_total_sec / out.t_total_sec;
  return out;
}

std::vector<ScalingPoint> predict_scaling(const RatInputs& inputs,
                                          double fclock_hz, int max_fpgas) {
  inputs.validate();
  util::require_positive(fclock_hz, "predict_scaling: non-positive clock");
  if (max_fpgas < 1)
    throw std::invalid_argument("predict_scaling: max_fpgas < 1");

  std::vector<ScalingPoint> out;
  out.reserve(static_cast<std::size_t>(max_fpgas));
  double single_speedup = 0.0;
  for (int k = 1; k <= max_fpgas; ++k) {
    // Elements split as evenly as possible; the slowest board carries the
    // ceiling share of the computation. The host bus is shared, so all k
    // boards' transfers serialize.
    const auto elems_in = inputs.dataset.elements_in;
    const auto per_board_in = (elems_in + k - 1) / static_cast<std::size_t>(k);

    RatInputs board = inputs;
    board.dataset.elements_in = per_board_in;

    ScalingPoint p;
    p.n_fpgas = k;
    p.t_comm_sec = write_time(inputs) + read_time(inputs);  // full dataset
    p.t_comp_sec = comp_time(board, fclock_hz);             // slowest board
    // Double buffered per board (Eq. 6 generalized): iteration time is
    // whichever resource saturates first.
    const double per_iter = std::max(p.t_comm_sec, p.t_comp_sec);
    p.t_rc_sec =
        static_cast<double>(inputs.software.n_iterations) * per_iter;
    p.speedup = inputs.software.tsoft_sec / p.t_rc_sec;
    if (k == 1) single_speedup = p.speedup;
    p.efficiency = p.speedup / (static_cast<double>(k) * single_speedup);
    out.push_back(p);
  }
  return out;
}

int max_useful_fpgas(const RatInputs& inputs, double fclock_hz,
                     double min_parallel_efficiency, int search_limit) {
  if (!(0.0 < min_parallel_efficiency && min_parallel_efficiency <= 1.0))
    throw std::invalid_argument("max_useful_fpgas: bad efficiency bound");
  const auto curve = predict_scaling(inputs, fclock_hz, search_limit);
  int best = 1;
  for (const auto& p : curve)
    if (p.efficiency >= min_parallel_efficiency) best = p.n_fpgas;
  return best;
}

}  // namespace rat::core
