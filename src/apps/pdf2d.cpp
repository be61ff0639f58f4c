#include "apps/pdf2d.hpp"

#include <cmath>
#include <stdexcept>

namespace rat::apps {

void Pdf2dConfig::validate() const {
  if (bins_per_dim == 0)
    throw std::invalid_argument("Pdf2dConfig: bins_per_dim == 0");
  if (!(0.0 < bandwidth && bandwidth < 1.0))
    throw std::invalid_argument("Pdf2dConfig: bandwidth outside (0,1)");
  if (batch_words == 0 || batch_words % 2 != 0)
    throw std::invalid_argument("Pdf2dConfig: batch_words must be even > 0");
}

double Pdf2dConfig::bin_center(std::size_t j) const {
  return (static_cast<double>(j) + 0.5) / static_cast<double>(bins_per_dim);
}

std::vector<double> estimate_pdf2d_gaussian(std::span<const Sample2d> samples,
                                            const Pdf2dConfig& cfg) {
  cfg.validate();
  if (samples.empty())
    throw std::invalid_argument("estimate_pdf2d_gaussian: no samples");
  const std::size_t b = cfg.bins_per_dim;
  std::vector<double> acc(b * b, 0.0);
  const double inv_2h2 = 1.0 / (2.0 * cfg.bandwidth * cfg.bandwidth);
  for (const auto& s : samples) {
    for (std::size_t j1 = 0; j1 < b; ++j1) {
      const double d1 = cfg.bin_center(j1) - s[0];
      const double e1 = d1 * d1;
      for (std::size_t j2 = 0; j2 < b; ++j2) {
        const double d2 = cfg.bin_center(j2) - s[1];
        acc[j1 * b + j2] += std::exp(-(e1 + d2 * d2) * inv_2h2);
      }
    }
  }
  const double norm = 1.0 / (static_cast<double>(samples.size()) * 2.0 * M_PI *
                             cfg.bandwidth * cfg.bandwidth);
  for (double& a : acc) a *= norm;
  return acc;
}

namespace {

std::vector<double> quadratic2d_impl(std::span<const Sample2d> samples,
                                     const Pdf2dConfig& cfg, OpCounter* ops) {
  cfg.validate();
  if (samples.empty())
    throw std::invalid_argument("estimate_pdf2d_quadratic: no samples");
  const std::size_t b = cfg.bins_per_dim;
  std::vector<double> acc(b * b, 0.0);
  const double h2 = cfg.bandwidth * cfg.bandwidth;
  for (const auto& s : samples) {
    for (std::size_t j1 = 0; j1 < b; ++j1) {
      const double d1 = cfg.bin_center(j1) - s[0];  // sub
      const double e1 = d1 * d1;                    // mul
      for (std::size_t j2 = 0; j2 < b; ++j2) {
        // Paper §5.1: (N1-n1)^2 + (N2-n2)^2 + c — six operations per bin.
        const double d2 = cfg.bin_center(j2) - s[1];  // sub
        const double e2 = d2 * d2;                    // mul
        const double r2 = e1 + e2;                    // add
        if (r2 < h2) acc[j1 * b + j2] += h2 - r2;     // add (predicated)
        if (ops) {
          ops->subs += 2;
          ops->muls += 2;
          ops->adds += 2;
        }
      }
    }
  }
  // 2-D Epanechnikov-style normalization: integral of (h^2 - r^2) over the
  // disc r < h is pi h^4 / 2.
  const double norm =
      2.0 / (M_PI * h2 * h2 * static_cast<double>(samples.size()));
  for (double& a : acc) a *= norm;
  return acc;
}

}  // namespace

std::vector<double> estimate_pdf2d_quadratic(std::span<const Sample2d> samples,
                                             const Pdf2dConfig& cfg) {
  return quadratic2d_impl(samples, cfg, nullptr);
}

std::vector<double> estimate_pdf2d_quadratic_counted(
    std::span<const Sample2d> samples, const Pdf2dConfig& cfg,
    OpCounter& ops) {
  return quadratic2d_impl(samples, cfg, &ops);
}

double pdf2d_ops_per_word(const Pdf2dConfig& cfg) {
  // Table 5 counts 6 ops x 65536 bins = 393216 per element where elements
  // are *words* (1024 per iteration, two per 2-D sample). Each word is
  // charged the full sample's bin sweep; throughput_proc in the same
  // worksheet uses the identical scope, so the model is self-consistent
  // (the paper's "what is an operation" discussion, §3.1).
  return 6.0 * static_cast<double>(cfg.n_bins());
}

Pdf2dDesign::Pdf2dDesign(Pdf2dConfig cfg, std::size_t n_pipelines,
                         fx::Format format, std::size_t strip_factor)
    : cfg_(cfg),
      n_pipelines_(n_pipelines),
      format_(format),
      strip_factor_(strip_factor) {
  cfg_.validate();
  format_.validate();
  if (n_pipelines_ == 0 || cfg_.n_bins() % n_pipelines_ != 0)
    throw std::invalid_argument(
        "Pdf2dDesign: n_bins must be a positive multiple of n_pipelines");
  if (strip_factor_ == 0 ||
      cfg_.n_bins() % (n_pipelines_ * strip_factor_) != 0)
    throw std::invalid_argument(
        "Pdf2dDesign: strip_factor must evenly divide the per-pipeline "
        "bin share");
}

rcsim::PipelineSpec Pdf2dDesign::pipeline_spec() const {
  rcsim::PipelineSpec spec;
  spec.name = "pdf2d";
  // Per input word: each pipeline sweeps its n_bins/n_pipelines bins at
  // 1.5 cycles per bin (one shared 18x18 multiplier alternating between
  // the two dimensions' squares, plus an accumulator port conflict every
  // other update). Equivalently 3 cycles per bin per 2-D sample. This
  // achieves ~64 ops/cycle in the worksheet's accounting versus the
  // conservative 48 RAT assumed — the overestimated computation that
  // balanced the underestimated communication (§5.1).
  spec.depth = 96;
  spec.initiation_interval =
      1.5 * static_cast<double>(cfg_.n_bins() / n_pipelines_);
  spec.stall_per_item = 0.0;
  spec.instances = 1;
  spec.ops_per_item = pdf2d_ops_per_word(cfg_);
  return spec;
}

std::uint64_t Pdf2dDesign::cycles_per_iteration() const {
  // Strip-mining re-pays the pipeline fill once per extra strip pass over
  // the buffered batch; the steady-state bin updates are identical.
  const auto spec = pipeline_spec();
  return rcsim::pipeline_cycles(spec, cfg_.batch_words) +
         (strip_factor_ - 1) * spec.depth;
}

rcsim::IterationIo Pdf2dDesign::io(std::size_t iter,
                                   std::size_t n_iterations) const {
  (void)iter;
  (void)n_iterations;
  rcsim::IterationIo io;
  const std::size_t half = cfg_.batch_words / 2;
  io.input_chunks_bytes = {half * 4, half * 4};  // one block per dimension
  const std::size_t result_bytes = cfg_.n_bins() * 4;
  const std::size_t chunk = output_chunk_bytes();
  for (std::size_t off = 0; off < result_bytes; off += chunk)
    io.output_chunks_bytes.push_back(std::min(chunk, result_bytes - off));
  return io;
}

rcsim::Workload Pdf2dDesign::workload() const {
  rcsim::Workload w;
  w.n_iterations = rat_inputs().software.n_iterations;
  w.io = [d = *this, n = w.n_iterations](std::size_t i) { return d.io(i, n); };
  w.cycles = [c = cycles_per_iteration()](std::size_t) { return c; };
  return w;
}

std::vector<double> Pdf2dDesign::estimate(
    std::span<const Sample2d> samples) const {
  return estimate_with_format(samples, format_);
}

std::vector<double> Pdf2dDesign::estimate_with_format(
    std::span<const Sample2d> samples, fx::Format fmt) const {
  if (samples.empty())
    throw std::invalid_argument("Pdf2dDesign::estimate: no samples");
  fmt.validate();
  const std::size_t b = cfg_.bins_per_dim;
  const double h2 = cfg_.bandwidth * cfg_.bandwidth;
  const fx::Fixed h2_fx = fx::Fixed::from_double(h2, fmt);
  const fx::Format acc_fmt{48, fmt.frac_bits, true};
  const auto rnd = fx::Rounding::kTruncate;

  std::vector<fx::Fixed> centers;
  centers.reserve(b);
  for (std::size_t j = 0; j < b; ++j)
    centers.push_back(fx::Fixed::from_double(cfg_.bin_center(j), fmt));

  std::vector<fx::Fixed> acc(b * b, fx::Fixed(acc_fmt));
  for (const auto& s : samples) {
    const fx::Fixed x1 = fx::Fixed::from_double(s[0], fmt);
    const fx::Fixed x2 = fx::Fixed::from_double(s[1], fmt);
    for (std::size_t j1 = 0; j1 < b; ++j1) {
      const fx::Fixed d1 = fx::Fixed::sub(centers[j1], x1, fmt, rnd);
      const fx::Fixed e1 = fx::Fixed::mul(d1, d1, fmt, rnd);
      for (std::size_t j2 = 0; j2 < b; ++j2) {
        const fx::Fixed d2 = fx::Fixed::sub(centers[j2], x2, fmt, rnd);
        const fx::Fixed e2 = fx::Fixed::mul(d2, d2, fmt, rnd);
        const fx::Fixed r2 = fx::Fixed::add(e1, e2, fmt, rnd);
        if (r2.raw() < h2_fx.raw()) {
          const fx::Fixed w = fx::Fixed::sub(h2_fx, r2, fmt, rnd);
          acc[j1 * b + j2] = fx::Fixed::add(acc[j1 * b + j2], w, acc_fmt, rnd);
        }
      }
    }
  }
  const double norm =
      2.0 / (M_PI * h2 * h2 * static_cast<double>(samples.size()));
  std::vector<double> out;
  out.reserve(b * b);
  for (const auto& a : acc) out.push_back(a.to_double() * norm);
  return out;
}

std::vector<core::ResourceItem> Pdf2dDesign::resource_items() const {
  const int mult_bits = format_.total_bits;
  std::vector<core::ResourceItem> items;
  items.push_back(core::ResourceItem{
      "pipeline MAC", 1, mult_bits, 0, 480,
      static_cast<int>(n_pipelines_)});
  items.push_back(core::ResourceItem{
      "I/O buffers", 0, mult_bits,
      static_cast<std::int64_t>(2 * cfg_.batch_words * 4 + 4096), 800, 1});
  // Bin accumulators: one 18-bit word per live bin. Strip-mining keeps
  // only 1/strip_factor of the grid resident; each strip drains before
  // the next pass over the buffered samples.
  items.push_back(core::ResourceItem{
      "bin accumulator banks (1/" + std::to_string(strip_factor_) +
          " strip)",
      0, mult_bits,
      static_cast<std::int64_t>(cfg_.n_bins() / strip_factor_ * 18 / 8),
      900, 1});
  items.push_back(core::ResourceItem{"vendor wrapper", 0, mult_bits,
                                     64 * 1024, 2400, 1});
  return items;
}

}  // namespace rat::apps
