#include "core/validation.hpp"

#include <cmath>
#include <stdexcept>

#include "util/format.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"

namespace rat::core {

Measured measured_from_totals(double fclock_hz, double total_comm_sec,
                              double total_comp_sec, double total_sec,
                              std::size_t n_iterations, double tsoft_sec) {
  if (n_iterations == 0)
    throw std::invalid_argument("measured_from_totals: zero iterations");
  util::require_positive(total_sec, "measured_from_totals: non-positive total");
  util::require_positive(tsoft_sec, "measured_from_totals: non-positive tsoft");
  Measured m;
  m.fclock_hz = fclock_hz;
  const double n = static_cast<double>(n_iterations);
  m.t_comm_sec = total_comm_sec / n;
  m.t_comp_sec = total_comp_sec / n;
  m.t_rc_sec = total_sec;
  m.speedup = tsoft_sec / total_sec;
  const double sum = total_comm_sec + total_comp_sec;
  if (sum > 0.0) {
    m.util_comm = total_comm_sec / sum;
    m.util_comp = total_comp_sec / sum;
  }
  return m;
}

util::Table ValidationReport::to_table() const {
  // The paper's validation tables report error magnitude; the sign
  // (over- vs under-prediction) stays available in the struct fields.
  util::Table t({"Quantity", "error %", "same order?"});
  auto yn = [](bool b) { return b ? std::string("yes") : std::string("no"); };
  t.add_row({"tcomm", util::fixed(std::fabs(comm_error_percent), 1),
             yn(comm_same_order)});
  t.add_row({"tcomp", util::fixed(std::fabs(comp_error_percent), 1),
             yn(comp_same_order)});
  t.add_row({"tRC", util::fixed(std::fabs(t_rc_error_percent), 1), ""});
  t.add_row({"speedup", util::fixed(std::fabs(speedup_error_percent), 1),
             yn(speedup_same_order)});
  return t;
}

ValidationReport validate(const ThroughputPrediction& predicted,
                          const Measured& actual, BufferingMode mode) {
  const bool db = mode == BufferingMode::kDouble;
  const double predicted_t_rc = db ? predicted.t_rc_db_sec
                                   : predicted.t_rc_sb_sec;
  const double predicted_speedup = db ? predicted.speedup_db
                                      : predicted.speedup_sb;
  ValidationReport r;
  r.comm_error_percent =
      util::percent_error(predicted.t_comm_sec, actual.t_comm_sec);
  r.comp_error_percent =
      util::percent_error(predicted.t_comp_sec, actual.t_comp_sec);
  r.t_rc_error_percent =
      util::percent_error(predicted_t_rc, actual.t_rc_sec);
  r.speedup_error_percent =
      util::percent_error(predicted_speedup, actual.speedup);
  r.comm_same_order =
      util::same_order_of_magnitude(predicted.t_comm_sec, actual.t_comm_sec);
  r.comp_same_order =
      util::same_order_of_magnitude(predicted.t_comp_sec, actual.t_comp_sec);
  r.speedup_same_order =
      util::same_order_of_magnitude(predicted_speedup, actual.speedup);
  return r;
}

}  // namespace rat::core
