#include "core/precision.hpp"

#include <cmath>
#include <stdexcept>

#include "util/format.hpp"

namespace rat::core {

double format_bytes_per_element(const fx::Format& format,
                                double channel_word_bytes) {
  if (channel_word_bytes <= 0.0)
    throw std::invalid_argument("bytes_per_element: bad channel word");
  const double raw_bytes = static_cast<double>(format.total_bits) / 8.0;
  return std::ceil(raw_bytes / channel_word_bytes) * channel_word_bytes;
}

double PrecisionResult::bytes_per_element(double channel_word_bytes) const {
  if (!choice) throw std::logic_error("bytes_per_element: no format chosen");
  return format_bytes_per_element(choice->format, channel_word_bytes);
}

util::Table PrecisionResult::to_table() const {
  util::Table t({"total bits", "format", "max error %", "rmse"});
  for (const auto& c : sweep) {
    t.add_row({std::to_string(c.format.total_bits), c.format.to_string(),
               util::fixed(c.report.max_error_percent, 3),
               util::sci(c.report.rmse)});
  }
  return t;
}

PrecisionResult run_precision_test(const fx::FixedKernel& kernel,
                                   std::span<const double> reference,
                                   const PrecisionRequirements& req) {
  if (req.max_error_percent <= 0.0)
    throw std::invalid_argument("run_precision_test: tolerance <= 0");
  PrecisionResult result;
  result.sweep = fx::sweep_total_bits(kernel, reference, req.min_total_bits,
                                      req.max_total_bits, req.int_bits);
  for (const auto& c : result.sweep) {
    if (c.report.within_percent(req.max_error_percent)) {
      result.choice = c;
      result.satisfied = true;
      break;  // sweep is ordered by increasing width: first hit is minimal
    }
  }
  return result;
}

std::vector<QuantizedThroughputPoint> quantized_throughput_sweep(
    const RatInputs& inputs, double fclock_hz,
    const std::vector<fx::PrecisionChoice>& sweep,
    double channel_word_bytes) {
  inputs.validate();
  if (!(fclock_hz > 0.0))
    throw std::invalid_argument("quantized_throughput_sweep: fclock <= 0");
  std::vector<QuantizedThroughputPoint> out;
  out.reserve(sweep.size());
  RatInputs scratch = inputs;
  for (const fx::PrecisionChoice& c : sweep) {
    QuantizedThroughputPoint point;
    point.format = c.format;
    point.bytes_per_element =
        format_bytes_per_element(c.format, channel_word_bytes);
    // Only bytes_per_element varies; the worksheet was validated above
    // and the rounded width is positive, so the unchecked call is safe.
    scratch.dataset.bytes_per_element = point.bytes_per_element;
    point.prediction = predict_unchecked(scratch, fclock_hz);
    out.push_back(std::move(point));
  }
  return out;
}

}  // namespace rat::core

