// Development-time break-even analysis.
//
// The paper's introduction frames the go/no-go decision economically:
// "Other scenarios might place the break-even point (time of development
// versus time saved at execution) at a more conservative factor of ten or
// less." This module makes that arithmetic explicit: given the predicted
// speedup, the software time per run, the expected run frequency and the
// estimated development effort, when does the migration pay for itself?
#pragma once

#include <optional>

#include "core/throughput.hpp"

namespace rat::core {

struct BreakEvenInputs {
  double development_hours = 0.0;   ///< estimated HDL/HLL effort
  double runs_per_month = 0.0;      ///< how often the application executes
  double months_horizon = 24.0;     ///< evaluation window
};

struct BreakEvenResult {
  double time_saved_per_run_sec = 0.0;
  double hours_saved_per_month = 0.0;
  /// Months until cumulative savings cover the development effort;
  /// nullopt when the design never breaks even (speedup <= 1 or no runs).
  std::optional<double> break_even_months;
  /// Net hours saved over the horizon (negative = the migration loses).
  double net_hours_over_horizon = 0.0;

  bool worth_it() const {
    return break_even_months.has_value() && net_hours_over_horizon > 0.0;
  }
};

/// Evaluate the economics of a predicted design (single-buffered speedup).
BreakEvenResult break_even(const ThroughputPrediction& prediction,
                           double tsoft_sec, const BreakEvenInputs& inputs);

/// Minimum speedup that breaks even within the horizon for the given
/// economics (the paper's "factor of ten or less" knob, derived instead of
/// asserted). Returns nullopt when even infinite speedup cannot recoup the
/// effort within the horizon, when runs_per_month or months_horizon is
/// not positive, and when an input is NaN.
std::optional<double> required_speedup(double tsoft_sec,
                                       const BreakEvenInputs& inputs);

}  // namespace rat::core
