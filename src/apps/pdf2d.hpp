// 2-D probability density function estimation (paper §5.1).
//
// The two-dimensional Parzen estimate over a 256x256 bin grid. The basic
// computation per element grows to ((N1-n1)^2 + (N2-n2)^2 + c) — six
// operations per bin update, 393,216 per element. The hardware design uses
// 16 pipelines; each time-shares one 18x18 multiplier between the two
// squared differences, giving an initiation interval of 1.5 cycles per bin
// (the conservative RAT worksheet assumed 48 ops/cycle; the achieved rate
// is ~64).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "apps/opcount.hpp"
#include "core/parameters.hpp"
#include "core/resources.hpp"
#include "fixedpoint/error_analysis.hpp"
#include "rcsim/executor.hpp"
#include "rcsim/pipeline.hpp"

namespace rat::apps {

struct Pdf2dConfig {
  std::size_t bins_per_dim = 256;
  double bandwidth = 0.07;
  /// Elements per FPGA iteration; the paper sends two blocks of 512 words
  /// (one per dimension), i.e. 1024 words describing 512 2-D samples, and
  /// counts Nelements = 1024.
  std::size_t batch_words = 1024;

  std::size_t n_bins() const { return bins_per_dim * bins_per_dim; }
  std::size_t samples_per_batch() const { return batch_words / 2; }
  double bin_center(std::size_t j) const;
  void validate() const;
};

using Sample2d = std::array<double, 2>;

/// Software references (normalized 2-D estimates, row-major
/// bins_per_dim x bins_per_dim).
std::vector<double> estimate_pdf2d_gaussian(std::span<const Sample2d> samples,
                                            const Pdf2dConfig& cfg);
std::vector<double> estimate_pdf2d_quadratic(std::span<const Sample2d> samples,
                                             const Pdf2dConfig& cfg);
std::vector<double> estimate_pdf2d_quadratic_counted(
    std::span<const Sample2d> samples, const Pdf2dConfig& cfg, OpCounter& ops);

/// Derived Nops per (word) element: 6 ops per bin / 2 words per sample
/// gives 3 * n_bins per word — Table 5's 393216 counts 6 * 65536 per
/// *sample pair*, i.e. per two words; see EXPERIMENTS.md.
double pdf2d_ops_per_word(const Pdf2dConfig& cfg);

/// Hardware design model for the 2-D estimator.
///
/// The 65,536 bin accumulators do not need to live on chip all at once:
/// because the 512-sample batch is buffered on chip anyway, the design can
/// strip-mine the bin grid — keep 1/strip_factor of the accumulators in
/// BRAM, sweep the buffered samples once per strip, and drain each strip
/// as it finalizes. Total bin updates (and hence cycles, up to one extra
/// fill per strip) are unchanged, while accumulator BRAM shrinks by the
/// strip factor. With the default factor of 4 the model lands on Table
/// 7's 21% BRAM figure.
class Pdf2dDesign {
 public:
  explicit Pdf2dDesign(Pdf2dConfig cfg = {}, std::size_t n_pipelines = 16,
                       fx::Format format = fx::Format{18, 17, true},
                       std::size_t strip_factor = 4);

  const Pdf2dConfig& config() const { return cfg_; }
  std::size_t n_pipelines() const { return n_pipelines_; }
  const fx::Format& format() const { return format_; }
  std::size_t strip_factor() const { return strip_factor_; }

  /// Each pipeline owns n_bins/n_pipelines bins; II = 1.5 cycles per bin
  /// per sample (multiplier time-sharing between the two dimensions).
  rcsim::PipelineSpec pipeline_spec() const;
  std::uint64_t cycles_per_iteration() const;

  /// I/O per iteration: two 512-word input blocks; the 65536-bin result
  /// grid streams back in 512-byte chunks (the design drains a bin strip
  /// as soon as it is final) — the chunking that made measured
  /// communication ~6x the prediction (§5.1).
  rcsim::IterationIo io(std::size_t iter, std::size_t n_iterations) const;
  std::size_t output_chunk_bytes() const { return 512; }

  /// The whole run: the worksheet's Niter iterations of io() and
  /// cycles_per_iteration().
  rcsim::Workload workload() const;

  /// Functional fixed-point estimate of one whole run.
  std::vector<double> estimate(std::span<const Sample2d> samples) const;
  std::vector<double> estimate_with_format(std::span<const Sample2d> samples,
                                           fx::Format fmt) const;

  std::vector<core::ResourceItem> resource_items() const;
  core::RatInputs rat_inputs() const { return core::pdf2d_inputs(); }

 private:
  Pdf2dConfig cfg_;
  std::size_t n_pipelines_;
  fx::Format format_;
  std::size_t strip_factor_;
};

}  // namespace rat::apps
