#include "fixedpoint/lut.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/require.hpp"

namespace rat::fx {

FunctionLut::FunctionLut(const std::function<double(double)>& f, double lo,
                         double hi, int index_bits, Format input_format,
                         Format value_format, bool interpolate)
    : lo_(lo),
      hi_(hi),
      index_bits_(index_bits),
      input_fmt_(input_format),
      value_fmt_(value_format),
      interpolate_(interpolate),
      source_(f) {
  if (!f) throw std::invalid_argument("FunctionLut: null function");
  if (!(lo < hi)) throw std::invalid_argument("FunctionLut: lo >= hi");
  if (index_bits < 1 || index_bits > 20)
    throw std::invalid_argument("FunctionLut: index_bits outside [1,20]");
  input_fmt_.validate();
  value_fmt_.validate();
  const std::size_t n = std::size_t{1} << index_bits;
  table_.reserve(n + 1);
  // One extra entry so interpolation at the top segment has a neighbour.
  for (std::size_t i = 0; i <= n; ++i) {
    const double x =
        lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(n);
    table_.push_back(Fixed::from_double(f(x), value_fmt_));
  }
}

Fixed FunctionLut::evaluate(const Fixed& x) const {
  // Map the input to a normalized position in [0, 1).
  double pos = (x.to_double() - lo_) / (hi_ - lo_);
  pos = std::clamp(pos, 0.0, 1.0 - 1e-15);
  const std::size_t n = (table_.size() - 1);
  const double scaled = pos * static_cast<double>(n);
  const auto idx = static_cast<std::size_t>(scaled);
  if (!interpolate_) return table_[idx];

  // frac in [0,1) quantized into the input format's fractional grid —
  // exactly the bits the hardware would feed the interpolation multiplier.
  const double frac_exact = scaled - static_cast<double>(idx);
  const Fixed frac = Fixed::from_double(frac_exact, input_fmt_,
                                        Rounding::kTruncate);
  const Fixed& a = table_[idx];
  const Fixed& b = table_[idx + 1];
  // a + frac * (b - a), truncating like a DSP slice.
  const Fixed diff = Fixed::sub(b, a, value_fmt_, Rounding::kTruncate);
  const Fixed step = Fixed::mul(frac, diff, value_fmt_, Rounding::kTruncate);
  return Fixed::add(a, step, value_fmt_, Rounding::kTruncate);
}

double FunctionLut::evaluate(double x) const {
  return evaluate(Fixed::from_double(x, input_fmt_)).to_double();
}

std::int64_t FunctionLut::storage_bytes() const {
  const std::int64_t bytes_per_entry = (value_fmt_.total_bits + 7) / 8;
  return static_cast<std::int64_t>(table_.size()) * bytes_per_entry;
}

double FunctionLut::max_abs_error(int probes) const {
  if (probes < 2) throw std::invalid_argument("max_abs_error: probes < 2");
  double worst = 0.0;
  for (int i = 0; i < probes; ++i) {
    const double x = lo_ + (hi_ - lo_) * (static_cast<double>(i) + 0.5) /
                               static_cast<double>(probes);
    worst = std::fmax(worst, std::fabs(source_(x) - evaluate(x)));
  }
  return worst;
}

int min_index_bits_for(const std::function<double(double)>& f, double lo,
                       double hi, Format input_format, Format value_format,
                       double tolerance, int min_bits, int max_bits,
                       bool interpolate) {
  util::require_positive(tolerance, "min_index_bits_for: tolerance <= 0");
  for (int bits = min_bits; bits <= max_bits; ++bits) {
    const FunctionLut lut(f, lo, hi, bits, input_format, value_format,
                          interpolate);
    if (lut.max_abs_error() <= tolerance) return bits;
  }
  return -1;
}

}  // namespace rat::fx
