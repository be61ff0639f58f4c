// Quickstart: run a RAT analysis on your own kernel in ~40 lines.
//
// Scenario: you have a software FIR-like streaming filter and wonder
// whether an FPGA port is worth it. You fill in the Table-1 worksheet
// (dataset / communication / computation / software), call predict_all,
// and read the verdict — all before writing any HDL.
//
// Usage: quickstart [--taps=64] [--tsoft=2.0] [--goal=10]
#include <cstdio>

#include "core/sensitivity.hpp"
#include "core/throughput.hpp"
#include "core/units.hpp"
#include "core/worksheet.hpp"
#include "rcsim/microbench.hpp"
#include "rcsim/platform.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace rat;
  const util::Cli cli(argc, argv);
  const double taps = cli.get_double("taps", 64);
  const double tsoft = cli.get_double("tsoft", 2.0);
  const double goal = cli.get_double("goal", 10.0);

  // Target platform: the Nallatech H101 model from the catalog. The alpha
  // parameters come from a microbenchmark at our transfer size — the same
  // workflow the paper prescribes (Sec. 4.2).
  const rcsim::Platform platform = rcsim::nallatech_h101();
  const std::size_t block_elements = 4096;  // samples per FPGA buffer
  rcsim::Microbench mb(platform.link);
  const auto alphas = mb.derive_alphas(block_elements * 4);

  // The worksheet (paper Table 1): one row of honest estimates.
  core::RatInputs in;
  in.name = "streaming FIR filter";
  in.dataset = {block_elements, block_elements, 4.0};
  in.comm = {platform.link.documented_bw(), alphas.alpha_write,
             alphas.alpha_read};
  // taps multiply-accumulates per sample; a modest design sustains one
  // tap-pair per pipeline per cycle with 8 pipelines.
  in.comp = {2.0 * taps, 16.0, platform.candidate_clocks_hz};
  in.software = {tsoft, 256};

  std::printf("%s\n", core::render_worksheet(
                          in, {}, core::WorksheetMode::kDoubleBuffered)
                          .c_str());

  const auto best = core::predict(in, in.comp.fclock_hz.back());
  std::printf("verdict at %.0f MHz, double buffered: %.1fx %s the %.0fx "
              "goal\n",
              core::to_mhz(best.fclock_hz), best.speedup_db,
              best.speedup_db >= goal ? "MEETS" : "misses", goal);
  if (best.speedup_db < goal) {
    const auto need = core::solve_throughput_proc(
        in, best.fclock_hz, goal, core::BufferingMode::kDouble);
    if (need) {
      std::printf("to reach %.0fx you would need %.1f ops/cycle "
                  "(currently budgeting %.1f)\n",
                  goal, *need, in.comp.throughput_ops_per_cycle);
    } else {
      std::printf("the goal is communication-bound: no amount of "
                  "parallelism reaches %.0fx (cap %.1fx)\n",
                  goal, core::speedup_upper_bound(in));
    }
  }
  return 0;
}
