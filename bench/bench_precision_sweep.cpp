// Reproduces the paper's §4.2 numerical-precision decision: sweep fixed-
// point widths for the 1-D PDF estimator against the double-precision
// reference, confirm the 18-bit format sits inside the ~2% error budget,
// and show the minimal format a 2% tolerance selects.
#include <cstdio>

#include "apps/pdf1d.hpp"
#include "apps/workload.hpp"
#include "core/parameters.hpp"
#include "core/precision.hpp"
#include "core/units.hpp"

namespace {

using namespace rat;

const auto& samples() {
  // Large enough that truncation bias accumulates as it would over the
  // paper's 204,800-sample run, small enough to sweep 20 widths quickly.
  static const auto s =
      apps::gaussian_mixture_1d(16384, apps::default_mixture_1d(), 2011);
  return s;
}

void print_report() {
  const apps::Pdf1dDesign design;
  const auto reference =
      apps::estimate_pdf1d_quadratic(samples(), design.config());

  core::PrecisionRequirements req;
  req.max_error_percent = 2.0;  // the paper's tolerance
  req.min_total_bits = 10;
  req.max_total_bits = 24;
  req.int_bits = 0;

  const fx::FixedKernel kernel = [&](fx::Format fmt) {
    return design.estimate_with_format(samples(), fmt);
  };
  const auto result = core::run_precision_test(kernel, reference, req);

  std::printf("\n==== 1-D PDF fixed-point error vs total bits ====\n%s\n",
              result.to_table().to_ascii().c_str());
  if (result.satisfied) {
    std::printf(
        "minimal format within 2%%: %s (max err %.3f%%)\n"
        "paper's choice: 18-bit fixed point, max error ~2%% — and \"slightly\n"
        "smaller bitwidths would have also possessed reasonable error\n"
        "constraints\" with no resource gain (one 18x18 MAC either way).\n"
        "bytes/element over the 32-bit channel: %.0f (Table 2's value)\n",
        result.choice->format.to_string().c_str(),
        result.choice->report.max_error_percent,
        result.bytes_per_element(4.0));
  } else {
    std::printf("NO format within tolerance — unexpected, see sweep above\n");
  }

  // The precision-vs-throughput trade-off: re-run Eqs. 1-11 for every
  // format of the sweep (quantized_throughput_sweep), showing what each
  // format's channel-rounded width does to predicted speedup.
  const auto quantized = core::quantized_throughput_sweep(
      core::pdf1d_inputs(), core::mhz(100), result.sweep);
  std::printf("\n==== format -> channel bytes -> predicted speedup ====\n");
  std::printf("%6s %8s %12s %12s\n", "bits", "bytes/el", "speedup_sb",
              "speedup_db");
  for (const auto& q : quantized)
    std::printf("%6d %8.0f %12.2f %12.2f\n", q.format.total_bits,
                q.bytes_per_element, q.prediction.speedup_sb,
                q.prediction.speedup_db);
}

}  // namespace

int main() {
  print_report();
  return 0;
}
