// The RAT numerical-precision test (paper §3.2).
//
// The paper treats precision as a design input: the designer picks a
// candidate fixed-point format, verifies its end-to-end error against the
// software (double-precision) reference, and feeds the resulting
// bytes-per-element into the throughput test. This module packages that
// loop: run an application kernel across formats, report error-vs-width,
// and select the minimal format within tolerance.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/parameters.hpp"
#include "core/throughput.hpp"
#include "fixedpoint/error_analysis.hpp"
#include "util/table.hpp"

namespace rat::core {

/// Tolerance and search window for a precision test.
struct PrecisionRequirements {
  double max_error_percent = 2.0;  ///< the paper's 1-D PDF tolerance
  int min_total_bits = 8;
  int max_total_bits = 32;
  /// Integer bits of the signed format under test (paper's PDF signals
  /// live in [0,1), i.e. 0 integer bits).
  int int_bits = 0;
};

/// Outcome of a precision test.
struct PrecisionResult {
  bool satisfied = false;
  /// Chosen format + its error when satisfied.
  std::optional<fx::PrecisionChoice> choice;
  /// Error report for every width evaluated (for the sweep table/curve).
  std::vector<fx::PrecisionChoice> sweep;

  /// Bytes/element implied by the chosen format, rounded up to whole bytes
  /// as the communication channel transfers them (the paper rounds 18-bit
  /// data to 4-byte transfers because the channel is 32-bit). @p channel
  /// is the channel word size in bytes.
  double bytes_per_element(double channel_word_bytes = 4.0) const;

  /// "bits | max err% | rmse" table over the sweep.
  util::Table to_table() const;
};

/// Run the precision test: evaluate @p kernel (fixed-point implementation
/// of the application) against @p reference over the requirement window.
PrecisionResult run_precision_test(const fx::FixedKernel& kernel,
                                   std::span<const double> reference,
                                   const PrecisionRequirements& req);

/// Bytes/element implied by one format, rounded up to whole channel words
/// — the same rounding PrecisionResult::bytes_per_element applies to the
/// chosen format.
double format_bytes_per_element(const fx::Format& format,
                                double channel_word_bytes = 4.0);

/// One row of a quantization→throughput sweep: what the throughput test
/// would predict if the design adopted this format's channel-rounded
/// bytes/element.
struct QuantizedThroughputPoint {
  fx::Format format;
  double bytes_per_element = 0.0;
  ThroughputPrediction prediction;
};

/// Re-run the throughput test across every format of a precision sweep:
/// for each entry the worksheet's dataset.bytes_per_element is replaced
/// by the format's channel-rounded width and Eqs. 1-11 are evaluated with
/// one predict_unchecked() call per format, so the paper's
/// precision-vs-throughput trade-off curve costs no re-validation. Each
/// prediction is bit-identical to predict() on the per-format worksheet
/// (pinned by tests/core/batch_identity_test.cpp). @p inputs is validated
/// once; sweep order is preserved.
std::vector<QuantizedThroughputPoint> quantized_throughput_sweep(
    const RatInputs& inputs, double fclock_hz,
    const std::vector<fx::PrecisionChoice>& sweep,
    double channel_word_bytes = 4.0);

}  // namespace rat::core
