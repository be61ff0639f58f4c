// The paper's Section 4 walkthrough, executable end to end:
//
//   1. generate the 204,800-sample dataset
//   2. derive the communication alphas from a bus microbenchmark
//   3. derive Nops/element from instrumented legacy-code analysis
//   4. run the numerical-precision test (pick the fixed-point format)
//   5. run the throughput test at 75/100/150 MHz (Table 3 predicted)
//   6. run the resource test on the Virtex-4 LX100 (Table 4)
//   7. "build" the design and measure it on the simulated platform
//      (Table 3 actual), then validate prediction vs measurement
//
// Usage: pdf_walkthrough [--samples=204800] [--precision_samples=16384]
#include <cstdio>

#include "apps/hw_run.hpp"
#include "apps/pdf1d.hpp"
#include "apps/workload.hpp"
#include "core/precision.hpp"
#include "core/resources.hpp"
#include "core/throughput.hpp"
#include "core/units.hpp"
#include "core/validation.hpp"
#include "core/worksheet.hpp"
#include "rcsim/microbench.hpp"
#include "rcsim/platform.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace rat;
  const util::Cli cli(argc, argv);
  const auto n_samples =
      static_cast<std::size_t>(cli.get_int("samples", 204800));
  const auto n_prec =
      static_cast<std::size_t>(cli.get_int("precision_samples", 16384));

  const apps::Pdf1dDesign design;
  const rcsim::Platform platform = rcsim::nallatech_h101();

  std::printf("== Step 1: dataset ==\n");
  const auto samples =
      apps::gaussian_mixture_1d(n_samples, apps::default_mixture_1d(), 4242);
  std::printf("%zu samples, processed in %zu batches of %zu\n\n",
              samples.size(), samples.size() / design.config().batch,
              design.config().batch);

  std::printf("== Step 2: communication microbenchmark ==\n");
  rcsim::Microbench mb(platform.link);
  const auto alphas = mb.derive_alphas(design.config().batch * 4);
  std::printf("alpha_write %.2f, alpha_read %.2f at %zu-byte probes\n\n",
              alphas.alpha_write, alphas.alpha_read,
              design.config().batch * 4);

  std::printf("== Step 3: legacy-code analysis (instrumented) ==\n");
  apps::OpCounter ops;
  const std::span<const double> one_batch(samples.data(),
                                          design.config().batch);
  apps::estimate_pdf1d_quadratic_counted(one_batch, design.config(), ops);
  const double ops_per_element =
      static_cast<double>(ops.total_unit_weight()) /
      static_cast<double>(design.config().batch);
  std::printf("counted %s\n-> %.0f ops/element (Table 2: 768)\n\n",
              ops.to_string().c_str(), ops_per_element);

  std::printf("== Step 4: numerical precision test ==\n");
  const std::span<const double> prec_span(
      samples.data(), std::min(n_prec, samples.size()));
  const auto reference =
      apps::estimate_pdf1d_quadratic(prec_span, design.config());
  core::PrecisionRequirements preq{2.0, 10, 24, 0};
  const auto prec = core::run_precision_test(
      [&](fx::Format fmt) {
        return design.estimate_with_format(prec_span, fmt);
      },
      reference, preq);
  if (prec.satisfied) {
    std::printf("minimal format within 2%%: %s; the design keeps 18-bit for "
                "the single-MAC multiplier (paper Sec. 4.2)\n\n",
                prec.choice->format.to_string().c_str());
  } else {
    std::printf("precision requirement unrealizable — redesign needed\n\n");
  }

  std::printf("== Step 5+7: throughput test and simulated measurement ==\n");
  core::RatInputs in = design.rat_inputs();
  in.comm.alpha_write = alphas.alpha_write;
  in.comm.alpha_read = alphas.alpha_read;
  in.comp.ops_per_element = ops_per_element;

  const auto run = apps::simulate_on_platform(
      design.workload(), platform, core::mhz(150), rcsim::Buffering::kSingle,
      in.software.tsoft_sec);
  std::printf("%s\n", core::render_worksheet(
                          in, {run.measured},
                          core::WorksheetMode::kSingleBuffered)
                          .c_str());
  const auto rep = core::validate(core::predict(in, core::mhz(150)),
                                  run.measured);
  std::printf("validation:\n%s\n", rep.to_table().to_ascii().c_str());

  std::printf("== Step 6: resource test (Table 4) ==\n");
  const auto device = platform.device;
  const auto rr = core::run_resource_test(design.resource_items(), device,
                                          platform.practical_fill_limit);
  std::printf("%s", rr.to_table(device).to_ascii().c_str());
  std::printf("feasible on %s: %s\n", device.name.c_str(),
              rr.feasible ? "yes" : "NO");

  // Functional sanity: the fixed-point result really approximates the PDF.
  const auto hw_pdf = design.estimate(prec_span);
  double mass = 0.0;
  for (double p : hw_pdf) mass += p / static_cast<double>(hw_pdf.size());
  std::printf("\nfixed-point PDF integrates to %.3f (expect ~1.0)\n", mass);
  return 0;
}
