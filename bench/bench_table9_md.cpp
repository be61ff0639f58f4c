// Reproduces paper Tables 8 and 9: the molecular dynamics case study on
// the XD1000 model, including the inverse-model tuning step (§5.2: solve
// throughput_proc for the ~10x goal -> 50 ops/cycle) and the
// data-dependent shortfall that produced the actual 6.6x.
#include <cstdio>

#include "apps/md.hpp"
#include "bench_common.hpp"
#include "core/sensitivity.hpp"

int main() {
  using namespace rat;
  const apps::MdDesign design;
  const auto cs = apps::case_study(apps::CaseStudyKind::kMd);
  const auto& inputs = cs.inputs;

  // §5.2's tuning step: the worksheet's 50 ops/cycle is the inverse
  // solution for the ~10x goal.
  const auto tp = core::solve_throughput_proc(
      inputs, core::mhz(100), 10.7, core::BufferingMode::kSingle);
  std::printf(
      "\nInverse model (Sec. 5.2): throughput_proc required for 10.7x at "
      "100 MHz = %.1f ops/cycle (worksheet uses 50)\n",
      tp.value_or(-1.0));

  // One iteration: the whole dataset's cycles.
  const double eff = inputs.comp.ops_per_element *
                     static_cast<double>(inputs.dataset.elements_in) /
                     static_cast<double>(cs.workload.cycles(0));
  std::printf(
      "Data-dependent shortfall: dataset locality sustains only %.1f "
      "effective ops/cycle on the %d-lane array\n\n",
      eff, design.lanes());

  bench::print_case_study("Table 8+9: Molecular dynamics", cs);
  return 0;
}
