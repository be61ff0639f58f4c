// 1-D probability density function estimation (paper §4).
//
// The Parzen-window estimator: every sample contributes a kernel bump at
// every discrete probability level ("bin"); the PDF estimate is the
// normalized accumulation over all samples. Two kernels are provided:
//
//  * kGaussian   — the classical smooth kernel (software reference for
//    quality comparisons and the tsoft baseline).
//  * kQuadratic  — the Epanechnikov kernel max(0, h^2 - d^2), whose bin
//    update is exactly the paper's "3 operations: comparison (subtraction),
//    multiplication, and addition" (§4.2) and therefore the form the
//    hardware design implements.
//
// The hardware design (Fig. 3) streams batches of 512 samples through 8
// parallel pipelines, each owning 32 of the 256 bins, with 18-bit
// fixed-point arithmetic and one 18x18 MAC per pipeline.
#pragma once

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

struct Pdf1dConfig {
  std::size_t n_bins = 256;
  double bandwidth = 0.05;  ///< Parzen window half-width h
  std::size_t batch = 512;  ///< elements per FPGA iteration

  void validate() const;
  /// Bin center j: (j + 0.5) / n_bins.
  double bin_center(std::size_t j) const;
};

/// Software reference, Gaussian kernel, normalized so the estimate
/// integrates to ~1 over [0,1).
std::vector<double> estimate_pdf1d_gaussian(std::span<const double> samples,
                                            const Pdf1dConfig& cfg);

/// Software reference, quadratic (Epanechnikov) kernel — the functional
/// specification of the hardware design.
std::vector<double> estimate_pdf1d_quadratic(std::span<const double> samples,
                                             const Pdf1dConfig& cfg);

/// Instrumented quadratic estimator: tallies the inner-loop arithmetic so
/// ops_per_element can be derived from the code (3 * n_bins per element).
std::vector<double> estimate_pdf1d_quadratic_counted(
    std::span<const double> samples, const Pdf1dConfig& cfg, OpCounter& ops);

/// Derived Nops/element for the RAT worksheet (= 3 * n_bins).
double pdf1d_ops_per_element(const Pdf1dConfig& cfg);

/// The hardware design of Fig. 3: timing model, functional fixed-point
/// model, I/O pattern and resource demand.
class Pdf1dDesign {
 public:
  explicit Pdf1dDesign(Pdf1dConfig cfg = {}, std::size_t n_pipelines = 8,
                       fx::Format format = fx::Format{18, 17, true});

  const Pdf1dConfig& config() const { return cfg_; }
  std::size_t n_pipelines() const { return n_pipelines_; }
  const fx::Format& format() const { return format_; }

  /// Cycle model: each pipeline evaluates one element against one of its
  /// bins per cycle (II = bins/pipelines per element), with a handshake
  /// stall between elements and a fill latency per batch. These are the
  /// "latency and pipeline stalls" that made the authors derate 24 ops/cyc
  /// to 20 (§4.3).
  rcsim::PipelineSpec pipeline_spec() const;
  std::uint64_t cycles_per_iteration() const;
  double ideal_ops_per_cycle() const;  ///< 3 ops x n_pipelines (= 24)

  /// I/O per iteration: one input batch (batch * 4 B), a 4-byte status
  /// read every iteration, plus the final result drain on the last one.
  rcsim::IterationIo io(std::size_t iter, std::size_t n_iterations) const;

  /// The whole run: the worksheet's Niter iterations of io() and
  /// cycles_per_iteration().
  rcsim::Workload workload() const;

  /// Full-run fixed-point estimate (functional model of the VHDL design):
  /// processes samples in batches, accumulating in a 48-bit MAC register
  /// per bin, truncating like the hardware. Returns the normalized PDF.
  std::vector<double> estimate(std::span<const double> samples) const;

  /// Same, with the working format overridden (for the precision sweep).
  std::vector<double> estimate_with_format(std::span<const double> samples,
                                           fx::Format fmt) const;

  /// Design-level resource demand (Table 4's inventory).
  std::vector<core::ResourceItem> resource_items() const;

  /// The Table-2 worksheet for this design.
  core::RatInputs rat_inputs() const { return core::pdf1d_inputs(); }

 private:
  Pdf1dConfig cfg_;
  std::size_t n_pipelines_;
  fx::Format format_;
};

}  // namespace rat::apps
