// Inverse-model and sensitivity analysis.
//
// For data-dependent algorithms the paper inverts the throughput model:
// "treat throughput_proc as an independent variable and select a desired
// speedup value. Then one can solve for the particular throughput_proc
// required to achieve that desired speedup" (§3.1). The MD case study used
// exactly this (50 ops/cycle for a ~10x goal). This module provides the
// closed-form inverses, one-parameter sweeps, and a tornado analysis that
// ranks which inputs the prediction is most sensitive to.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/parameters.hpp"
#include "core/throughput.hpp"

namespace rat::core {

// BufferingMode (kSingle/kDouble) lives in core/throughput.hpp.

/// Solve Eq. (4)+(5)/(6)+(7) for throughput_proc given a target speedup at
/// one clock. Returns nullopt when the target is unreachable at any
/// computation rate (communication alone already exceeds the time budget).
std::optional<double> solve_throughput_proc(const RatInputs& inputs,
                                            double fclock_hz,
                                            double target_speedup,
                                            BufferingMode mode);

/// Solve for the minimum clock frequency achieving a target speedup at the
/// worksheet's throughput_proc. Returns nullopt when unreachable.
std::optional<double> solve_fclock(const RatInputs& inputs,
                                   double target_speedup, BufferingMode mode);

/// Maximum speedup achievable as computation time -> 0 (communication
/// bound). Both buffering modes tend to Niter * tcomm there, so one bound
/// serves both.
double speedup_upper_bound(const RatInputs& inputs);

/// One-parameter sweep: mutate a copy of the worksheet with @p set for
/// each value and predict() at @p fclock_hz, in order, returning one
/// prediction per value. The first value that leaves the model domain
/// raises predict()'s diagnostic.
using ParamSetter = std::function<void(RatInputs&, double)>;
std::vector<ThroughputPrediction> sweep_parameter(
    const RatInputs& inputs, const ParamSetter& set,
    const std::vector<double>& values, double fclock_hz);

/// Tornado analysis: perturb each parameter by +/- @p fraction and record
/// the resulting single-buffered speedup range.
struct TornadoEntry {
  std::string parameter;
  double speedup_low = 0.0;   ///< speedup at the unfavourable perturbation
  double speedup_high = 0.0;  ///< speedup at the favourable perturbation
  double swing() const { return speedup_high - speedup_low; }
};

/// Entries sorted by descending swing (most influential parameter first).
/// Each of the twelve perturbed points is one predict() call.
std::vector<TornadoEntry> tornado(const RatInputs& inputs, double fclock_hz,
                                  double fraction = 0.2);

}  // namespace rat::core
