#include "core/devtime.hpp"

#include <stdexcept>

#include "util/require.hpp"

namespace rat::core {

BreakEvenResult break_even(const ThroughputPrediction& prediction,
                           double tsoft_sec, const BreakEvenInputs& inputs) {
  util::require_positive(tsoft_sec, "break_even: non-positive tsoft");
  const char* const bad_economics = "break_even: bad economics inputs";
  if (inputs.development_hours < 0.0 || inputs.runs_per_month < 0.0)
    throw std::invalid_argument(bad_economics);
  util::require_positive(inputs.months_horizon, bad_economics);

  BreakEvenResult r;
  r.time_saved_per_run_sec = tsoft_sec - prediction.t_rc_sb_sec;
  r.hours_saved_per_month =
      r.time_saved_per_run_sec * inputs.runs_per_month / 3600.0;
  if (r.hours_saved_per_month > 0.0 && inputs.development_hours >= 0.0) {
    r.break_even_months = inputs.development_hours / r.hours_saved_per_month;
    if (*r.break_even_months > inputs.months_horizon)
      r.break_even_months = std::nullopt;  // not within the window
  }
  r.net_hours_over_horizon =
      r.hours_saved_per_month * inputs.months_horizon -
      inputs.development_hours;
  return r;
}

std::optional<double> required_speedup(double tsoft_sec,
                                       const BreakEvenInputs& inputs) {
  util::require_positive(tsoft_sec, "required_speedup: non-positive tsoft");
  if (!(inputs.runs_per_month > 0.0) || !(inputs.months_horizon > 0.0))
    return std::nullopt;
  // Break even at the horizon: saved = dev_hours
  //   (tsoft - tsoft/s) * runs * horizon / 3600 = dev_hours
  //   1 - 1/s = dev_hours * 3600 / (tsoft * runs * horizon)
  const double frac = inputs.development_hours * 3600.0 /
                      (tsoft_sec * inputs.runs_per_month *
                       inputs.months_horizon);
  if (!(frac < 1.0)) return std::nullopt;  // even s -> inf can't recoup
  if (frac <= 0.0) return 1.0;           // zero effort: any speedup > 1 pays
  return 1.0 / (1.0 - frac);
}

}  // namespace rat::core
