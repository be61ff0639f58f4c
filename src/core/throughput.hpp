// The RAT throughput test: Equations (1)-(11) of the paper.
//
// Given a worksheet of inputs, predict per-iteration communication and
// computation time, single- and double-buffered RC execution time, speedup
// against the software baseline, and comm/comp utilizations.
#pragma once

#include <vector>

#include "core/parameters.hpp"

namespace rat::core {

/// Buffering discipline of the modelled design: single buffered (Eq. 5,
/// transfers and computation serialized) or double buffered (Eq. 6,
/// overlapped). Shared by the inverse solvers and the validation scorer.
enum class BufferingMode { kSingle, kDouble };

/// All derived quantities for one candidate clock frequency.
struct ThroughputPrediction {
  double fclock_hz = 0.0;

  // Per-iteration terms.
  double t_write_sec = 0.0;  ///< Eq. (3): input transfer, host->FPGA
  double t_read_sec = 0.0;   ///< Eq. (2): output transfer, FPGA->host
  double t_comm_sec = 0.0;   ///< Eq. (1)
  double t_comp_sec = 0.0;   ///< Eq. (4)

  // Whole-application execution times.
  double t_rc_sb_sec = 0.0;  ///< Eq. (5), single buffered
  double t_rc_db_sec = 0.0;  ///< Eq. (6), double buffered

  // Eq. (7) for each buffering mode.
  double speedup_sb = 0.0;
  double speedup_db = 0.0;

  // Eqs. (8)-(11).
  double util_comp_sb = 0.0;
  double util_comm_sb = 0.0;
  double util_comp_db = 0.0;
  double util_comm_db = 0.0;

  /// True when communication dominates (tcomm > tcomp) — the regime where
  /// double buffering hides computation rather than communication.
  bool communication_bound() const { return t_comm_sec > t_comp_sec; }
};

/// Evaluate the model at one clock frequency. @p inputs is validated.
ThroughputPrediction predict(const RatInputs& inputs, double fclock_hz);

/// Pre-validated fast path and the one implementation of Eqs. 1-11:
/// predict() is validate(), the clock check, then this call, so results
/// are bit-identical. The caller guarantees inputs.validate() holds and
/// fclock_hz > 0; Monte-Carlo chunks and the quantized sweep validate once
/// per point set and then stay on this path.
ThroughputPrediction predict_unchecked(const RatInputs& inputs,
                                       double fclock_hz) noexcept;

/// Evaluate at every candidate clock in the worksheet (Tables 3/6/9 list
/// one prediction column per clock). Validates once, not once per clock.
std::vector<ThroughputPrediction> predict_all(const RatInputs& inputs);

}  // namespace rat::core
