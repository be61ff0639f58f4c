#include "apps/pdf1d.hpp"

#include <cmath>
#include <stdexcept>

namespace rat::apps {

void Pdf1dConfig::validate() const {
  if (n_bins == 0) throw std::invalid_argument("Pdf1dConfig: n_bins == 0");
  if (!(0.0 < bandwidth && bandwidth < 1.0))
    throw std::invalid_argument("Pdf1dConfig: bandwidth outside (0,1)");
  if (batch == 0) throw std::invalid_argument("Pdf1dConfig: batch == 0");
}

double Pdf1dConfig::bin_center(std::size_t j) const {
  return (static_cast<double>(j) + 0.5) / static_cast<double>(n_bins);
}

std::vector<double> estimate_pdf1d_gaussian(std::span<const double> samples,
                                            const Pdf1dConfig& cfg) {
  cfg.validate();
  if (samples.empty())
    throw std::invalid_argument("estimate_pdf1d_gaussian: no samples");
  std::vector<double> acc(cfg.n_bins, 0.0);
  const double h = cfg.bandwidth;
  const double inv_2h2 = 1.0 / (2.0 * h * h);
  for (double x : samples) {
    for (std::size_t j = 0; j < cfg.n_bins; ++j) {
      const double d = cfg.bin_center(j) - x;
      acc[j] += std::exp(-d * d * inv_2h2);
    }
  }
  const double norm =
      1.0 / (static_cast<double>(samples.size()) * h * std::sqrt(2.0 * M_PI));
  for (double& a : acc) a *= norm;
  return acc;
}

namespace {

/// Shared quadratic-kernel accumulation; optionally instrumented.
std::vector<double> quadratic_impl(std::span<const double> samples,
                                   const Pdf1dConfig& cfg, OpCounter* ops) {
  cfg.validate();
  if (samples.empty())
    throw std::invalid_argument("estimate_pdf1d_quadratic: no samples");
  std::vector<double> acc(cfg.n_bins, 0.0);
  const double h = cfg.bandwidth;
  const double h2 = h * h;
  for (double x : samples) {
    for (std::size_t j = 0; j < cfg.n_bins; ++j) {
      // The paper's three operations per bin update:
      const double d = cfg.bin_center(j) - x;  // comparison (subtraction)
      const double d2 = d * d;                 // multiplication
      if (d2 < h2) acc[j] += h2 - d2;          // addition (predicated)
      if (ops) {
        ++ops->subs;
        ++ops->muls;
        ++ops->adds;
      }
    }
  }
  // Epanechnikov normalization: (h^2 - d^2) * 3 / (4 h^3) integrates to 1.
  const double norm = 3.0 / (4.0 * h * h * h * static_cast<double>(samples.size()));
  for (double& a : acc) a *= norm;
  return acc;
}

}  // namespace

std::vector<double> estimate_pdf1d_quadratic(std::span<const double> samples,
                                             const Pdf1dConfig& cfg) {
  return quadratic_impl(samples, cfg, nullptr);
}

std::vector<double> estimate_pdf1d_quadratic_counted(
    std::span<const double> samples, const Pdf1dConfig& cfg, OpCounter& ops) {
  return quadratic_impl(samples, cfg, &ops);
}

double pdf1d_ops_per_element(const Pdf1dConfig& cfg) {
  return 3.0 * static_cast<double>(cfg.n_bins);
}

Pdf1dDesign::Pdf1dDesign(Pdf1dConfig cfg, std::size_t n_pipelines,
                         fx::Format format)
    : cfg_(cfg), n_pipelines_(n_pipelines), format_(format) {
  cfg_.validate();
  format_.validate();
  if (n_pipelines_ == 0 || cfg_.n_bins % n_pipelines_ != 0)
    throw std::invalid_argument(
        "Pdf1dDesign: n_bins must be a positive multiple of n_pipelines");
}

rcsim::PipelineSpec Pdf1dDesign::pipeline_spec() const {
  rcsim::PipelineSpec spec;
  spec.name = "pdf1d";
  // Each of the 8 pipelines walks its 32 bins for the current element, one
  // bin per cycle; the element handshake costs ~9 stall cycles, and the
  // batch pays a fill latency of 64 cycles. Calibrated to the measured
  // 1.39E-4 s at 150 MHz (Table 3, actual column): ~18.7 effective ops/cyc
  // versus the 24 ideal and the 20 RAT assumed.
  spec.depth = 64;
  spec.initiation_interval =
      static_cast<double>(cfg_.n_bins / n_pipelines_);
  spec.stall_per_item = 9.0;
  spec.instances = 1;  // all pipelines cooperate on the same element stream
  spec.ops_per_item = pdf1d_ops_per_element(cfg_);
  return spec;
}

std::uint64_t Pdf1dDesign::cycles_per_iteration() const {
  return rcsim::pipeline_cycles(pipeline_spec(), cfg_.batch);
}

double Pdf1dDesign::ideal_ops_per_cycle() const {
  return 3.0 * static_cast<double>(n_pipelines_);
}

rcsim::IterationIo Pdf1dDesign::io(std::size_t iter,
                                   std::size_t n_iterations) const {
  rcsim::IterationIo io;
  io.input_chunks_bytes = {cfg_.batch * 4};
  io.output_chunks_bytes = {4};  // per-iteration completion/status word
  if (n_iterations > 0 && iter + 1 == n_iterations)
    io.output_chunks_bytes.push_back(cfg_.n_bins * 4);  // final result drain
  return io;
}

rcsim::Workload Pdf1dDesign::workload() const {
  rcsim::Workload w;
  w.n_iterations = rat_inputs().software.n_iterations;
  w.io = [d = *this, n = w.n_iterations](std::size_t i) { return d.io(i, n); };
  w.cycles = [c = cycles_per_iteration()](std::size_t) { return c; };
  return w;
}

std::vector<double> Pdf1dDesign::estimate(
    std::span<const double> samples) const {
  return estimate_with_format(samples, format_);
}

std::vector<double> Pdf1dDesign::estimate_with_format(
    std::span<const double> samples, fx::Format fmt) const {
  if (samples.empty())
    throw std::invalid_argument("Pdf1dDesign::estimate: no samples");
  fmt.validate();
  const double h2 = cfg_.bandwidth * cfg_.bandwidth;
  const fx::Fixed h2_fx = fx::Fixed::from_double(h2, fmt);
  // 48-bit MAC accumulator, same fractional point as the datapath (the
  // DSP48/MAC accumulates full products without rescaling).
  const fx::Format acc_fmt{48, fmt.frac_bits, true};

  std::vector<fx::Fixed> bins_fx;
  bins_fx.reserve(cfg_.n_bins);
  for (std::size_t j = 0; j < cfg_.n_bins; ++j)
    bins_fx.push_back(fx::Fixed::from_double(cfg_.bin_center(j), fmt));

  std::vector<fx::Fixed> acc(cfg_.n_bins, fx::Fixed(acc_fmt));
  // Hardware truncates when narrowing products back into the datapath.
  const auto rnd = fx::Rounding::kTruncate;
  for (double x : samples) {
    const fx::Fixed x_fx = fx::Fixed::from_double(x, fmt);
    for (std::size_t j = 0; j < cfg_.n_bins; ++j) {
      const fx::Fixed d = fx::Fixed::sub(bins_fx[j], x_fx, fmt, rnd);
      const fx::Fixed d2 = fx::Fixed::mul(d, d, fmt, rnd);
      if (d2.raw() < h2_fx.raw()) {
        const fx::Fixed w = fx::Fixed::sub(h2_fx, d2, fmt, rnd);
        acc[j] = fx::Fixed::add(acc[j], w, acc_fmt, rnd);
      }
    }
  }
  const double h = cfg_.bandwidth;
  const double norm =
      3.0 / (4.0 * h * h * h * static_cast<double>(samples.size()));
  std::vector<double> out;
  out.reserve(cfg_.n_bins);
  for (const auto& a : acc) out.push_back(a.to_double() * norm);
  return out;
}

std::vector<core::ResourceItem> Pdf1dDesign::resource_items() const {
  const int mult_bits = format_.total_bits;
  std::vector<core::ResourceItem> items;
  // One 18x18 MAC per pipeline (the reason 18-bit precision was chosen).
  items.push_back(core::ResourceItem{
      "pipeline MAC", /*multiplier_count=*/1, mult_bits,
      /*buffer_bytes=*/0, /*logic_elements=*/420,
      /*instances=*/static_cast<int>(n_pipelines_)});
  // Double-buffered input plus the result buffer.
  items.push_back(core::ResourceItem{
      "I/O buffers", 0, mult_bits,
      static_cast<std::int64_t>(2 * cfg_.batch * 4 + cfg_.n_bins * 4), 600,
      1});
  // Bin accumulators (48-bit each) live in block RAM.
  items.push_back(core::ResourceItem{
      "bin accumulators", 0, mult_bits,
      static_cast<std::int64_t>(cfg_.n_bins * 6), 300, 1});
  // Vendor interface wrapper: roughly constant (paper §3.3 notes wrappers
  // consume a significant, design-independent share of memories).
  items.push_back(core::ResourceItem{"vendor wrapper", 0, mult_bits,
                                     /*buffer_bytes=*/64 * 1024, 2400, 1});
  return items;
}

}  // namespace rat::apps
