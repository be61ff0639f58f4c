// Molecular-dynamics amenability study (paper Sec. 5.2, executable).
//
// MD's per-molecule work depends on the dataset, so the computation
// parameters cannot be measured a priori. RAT's answer: invert the model —
// pick the speedup you need, solve for the throughput_proc it demands, and
// treat that number as a parallelism requirement for the design. This
// example runs that loop, shows the tornado sensitivity ranking, then
// simulates the resulting design and compares.
//
// Usage: md_amenability [--molecules=16384] [--goal=10] [--cutoff=0.34]
#include <cstdio>

#include "apps/hw_run.hpp"
#include "apps/md.hpp"
#include "apps/workload.hpp"
#include "core/sensitivity.hpp"
#include "core/throughput.hpp"
#include "core/units.hpp"
#include "core/worksheet.hpp"
#include "rcsim/platform.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace rat;
  const util::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("molecules", 16384));
  const double goal = cli.get_double("goal", 10.0);

  apps::MdConfig cfg;
  cfg.cutoff = cli.get_double("cutoff", 0.34);
  const apps::MdDesign design(cfg);
  const rcsim::Platform platform = rcsim::xd1000();

  core::RatInputs in = design.rat_inputs();
  in.dataset.elements_in = in.dataset.elements_out = n;

  std::printf("== Inverse model: what must the hardware sustain? ==\n");
  for (double f : in.comp.fclock_hz) {
    const auto tp = core::solve_throughput_proc(
        in, f, goal, core::BufferingMode::kSingle);
    if (tp) {
      std::printf("  %3.0f MHz: %.1f ops/cycle needed for %.0fx\n",
                  core::to_mhz(f), *tp, goal);
    } else {
      std::printf("  %3.0f MHz: goal unreachable (communication bound)\n",
                  core::to_mhz(f));
    }
  }
  std::printf("The paper rounded the 100 MHz answer up to 50 ops/cycle and "
              "read it as a\nrequirement for deep data parallelism.\n\n");

  std::printf("== Sensitivity (tornado, +/-20%% on each input) ==\n");
  for (const auto& e : core::tornado(in, core::mhz(100), 0.2)) {
    std::printf("  %-18s speedup %5.1f .. %5.1f (swing %.1f)\n",
                e.parameter.c_str(), e.speedup_low, e.speedup_high,
                e.swing());
  }
  std::printf("Computation parameters dominate; the bus barely matters — "
              "the design effort\nshould go into parallel force lanes, not "
              "the interconnect.\n\n");

  std::printf("== Simulated measurement on the %s ==\n",
              platform.name.c_str());
  const auto sys = apps::particle_box(n, 1.0, 1.0, 555);
  apps::ParticleSystem probe = sys;
  const auto forces = apps::compute_forces_f32(probe, cfg);
  const auto cycles = design.cycles_from_counts(forces.interactions, n);
  std::printf("dataset locality: %.1f in-cutoff neighbours/molecule -> "
              "%llu fabric cycles\n",
              2.0 * static_cast<double>(forces.interactions) /
                  static_cast<double>(n),
              static_cast<unsigned long long>(cycles));

  const auto run = apps::simulate_on_platform(
      design.workload(cycles, n), platform, core::mhz(100),
      rcsim::Buffering::kSingle, in.software.tsoft_sec);
  std::printf("%s\n", core::render_worksheet(
                          in, {run.measured},
                          core::WorksheetMode::kSingleBuffered)
                          .c_str());
  const double eff = in.comp.ops_per_element * static_cast<double>(n) /
                     static_cast<double>(cycles);
  std::printf("achieved %.1f effective ops/cycle against the tuned 50: "
              "speedup %.1f vs the %.0fx goal —\n\"moderate success\" after "
              "major architectural revisions, exactly the paper's reading.\n",
              eff, run.measured.speedup, goal);
  return 0;
}
