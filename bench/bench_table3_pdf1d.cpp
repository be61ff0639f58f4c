// Reproduces paper Tables 2 and 3 (and the Fig. 3 architecture summary):
// the 1-D PDF estimation case study on the Nallatech H101 model. Prints
// the design's cycle-level occupancy and the RAT worksheet with the
// predicted 75/100/150 MHz columns and the simulated actual column.
#include <cstdio>

#include "apps/pdf1d.hpp"
#include "bench_common.hpp"
#include "rcsim/cycle_sim.hpp"

int main() {
  using namespace rat;
  const apps::Pdf1dDesign design;
  const auto breakdown = rcsim::simulate_pipeline(design.pipeline_spec(),
                                                  design.config().batch);
  std::printf(
      "\ncycle-level occupancy: %llu issue + %llu II + %llu stall + "
      "%llu drain = %llu cycles (%.0f%% issuing)\n",
      static_cast<unsigned long long>(breakdown.issue_cycles),
      static_cast<unsigned long long>(breakdown.ii_cycles),
      static_cast<unsigned long long>(breakdown.stall_cycles),
      static_cast<unsigned long long>(breakdown.drain_cycles),
      static_cast<unsigned long long>(breakdown.total_cycles),
      breakdown.issue_fraction() * 100.0);
  std::printf(
      "Fig. 3 architecture: %zu pipelines x %zu bins, %s datapath, "
      "%llu cycles/iteration (%.1f eff. ops/cycle vs %.0f ideal, "
      "worksheet assumed %.0f)\n\n",
      design.n_pipelines(),
      design.config().n_bins / design.n_pipelines(),
      design.format().to_string().c_str(),
      static_cast<unsigned long long>(design.cycles_per_iteration()),
      rcsim::effective_ops_per_cycle(design.pipeline_spec(),
                                     design.config().batch),
      design.ideal_ops_per_cycle(),
      design.rat_inputs().comp.throughput_ops_per_cycle);
  bench::print_case_study("Table 2+3: 1-D PDF estimation",
                          apps::case_study(apps::CaseStudyKind::kPdf1d));
  return 0;
}
