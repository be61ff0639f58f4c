// Reproduces paper Figure 1: the iterative RAT methodology flow, traced on
// the real case-study designs. Shows a redesign loop (under-parallelized
// candidate rejected on throughput, final design accepted) and a
// resource-gated rejection.
#include <cstdio>

#include "apps/pdf1d.hpp"
#include "apps/workload.hpp"
#include "core/methodology.hpp"
#include "core/units.hpp"

namespace {

using namespace rat;

core::DesignCandidate pdf1d_candidate(double ops_per_cycle) {
  const apps::Pdf1dDesign design;
  core::DesignCandidate c;
  c.inputs = design.rat_inputs();
  c.inputs.comp.throughput_ops_per_cycle = ops_per_cycle;
  c.decision_clock_hz = core::mhz(100);
  static const auto samples =
      apps::gaussian_mixture_1d(4096, apps::default_mixture_1d(), 2010);
  static const auto reference =
      apps::estimate_pdf1d_quadratic(samples, design.config());
  c.precision_reference = reference;
  c.precision_kernel = [design](fx::Format fmt) {
    return design.estimate_with_format(samples, fmt);
  };
  c.resources = design.resource_items();
  return c;
}

void print_report() {
  std::printf("\nFigure 1: RAT methodology trace, 1-D PDF design space\n\n");

  core::Requirements req;
  req.min_speedup = 5.0;
  req.precision = core::PrecisionRequirements{2.0, 12, 20, 0};

  // Candidate 0: single-pipeline sketch (3 ops/cycle) — fails throughput.
  // Candidate 1: the Fig. 3 eight-pipeline design — passes all tests.
  auto weak = pdf1d_candidate(3.0);
  weak.inputs.name = "1-D PDF, 1 pipeline sketch";
  auto final_design = pdf1d_candidate(20.0);
  const auto out = core::run_methodology({weak, final_design}, req,
                                         rcsim::virtex4_lx100());
  std::printf("%s\n", out.render_trace().c_str());
  std::printf("outcome: %s\n\n", out.proceed
                                     ? "PROCEED — build in HDL, verify on HW"
                                     : "exhausted without solution");

  // The same design against an over-ambitious 50x goal (the paper's
  // "middle management" bar): every permutation is rejected.
  core::Requirements ambitious;
  ambitious.min_speedup = 50.0;
  const auto rejected = core::run_methodology(
      {pdf1d_candidate(20.0)}, ambitious, rcsim::virtex4_lx100());
  std::printf("50x goal trace:\n%s", rejected.render_trace().c_str());
  std::printf("outcome: %s\n",
              rejected.proceed ? "PROCEED" : "exhausted without solution");
}

}  // namespace

int main() {
  print_report();
  return 0;
}
