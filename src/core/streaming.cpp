#include "core/streaming.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/require.hpp"

namespace rat::core {

double StreamingPrediction::time_for(std::size_t total_elements) const {
  util::require_positive<std::logic_error>(
      sustained_rate, "StreamingPrediction: zero sustained rate");
  return static_cast<double>(total_elements) / sustained_rate;
}

double StreamingPrediction::speedup_for(std::size_t total_elements,
                                        double tsoft_sec) const {
  util::require_positive(tsoft_sec, "speedup_for: non-positive tsoft");
  return tsoft_sec / time_for(total_elements);
}

double StreamingPrediction::input_headroom() const {
  return 1.0 - sustained_rate / rate_in;
}
double StreamingPrediction::compute_headroom() const {
  return 1.0 - sustained_rate / rate_comp;
}
double StreamingPrediction::output_headroom() const {
  return 1.0 - sustained_rate / rate_out;
}

StreamingPrediction predict_streaming(const RatInputs& inputs,
                                      double fclock_hz) {
  inputs.validate();
  util::require_positive(fclock_hz, "predict_streaming: non-positive clock");
  const auto& d = inputs.dataset;
  const auto& c = inputs.comm;

  StreamingPrediction p;
  p.rate_in = c.alpha_write * c.ideal_bw_bytes_per_sec / d.bytes_per_element;
  p.rate_comp =
      fclock_hz * inputs.comp.throughput_ops_per_cycle /
      inputs.comp.ops_per_element;
  // Output channel sustains rate_out output elements/sec; expressed in
  // input-element units via the out/in element ratio.
  const double out_per_in =
      d.elements_in
          ? static_cast<double>(d.elements_out) /
                static_cast<double>(d.elements_in)
          : 0.0;
  if (out_per_in > 0.0) {
    const double raw_out =
        c.alpha_read * c.ideal_bw_bytes_per_sec / d.bytes_per_element;
    p.rate_out = raw_out / out_per_in;
  } else {
    // No output stream (results retained on chip): never the bottleneck.
    p.rate_out = std::numeric_limits<double>::infinity();
  }

  p.sustained_rate = std::min({p.rate_in, p.rate_comp, p.rate_out});
  // Bottleneck classification must be deterministic under ties. The three
  // rates come from different formulas, so mathematically-equal rates can
  // differ by rounding ulps — exact float comparison would then classify
  // by accident of rounding direction. Any rate within a relative
  // kTieTolerance of the minimum counts as tied, and ties resolve by the
  // documented priority: compute > input > output (the compute fabric is
  // the resource the designer controls; channels are platform-fixed).
  constexpr double kTieTolerance = 1e-9;
  const double tie_limit = p.sustained_rate * (1.0 + kTieTolerance);
  if (p.rate_comp <= tie_limit) {
    p.bottleneck = StreamBottleneck::kCompute;
  } else if (p.rate_in <= tie_limit) {
    p.bottleneck = StreamBottleneck::kInput;
  } else {
    p.bottleneck = StreamBottleneck::kOutput;
  }
  return p;
}

}  // namespace rat::core
