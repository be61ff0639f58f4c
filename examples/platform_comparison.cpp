// Platform porting study: the same 1-D PDF design evaluated against three
// platforms, with alphas derived per platform from microbenchmarks at the
// design's transfer size — the paper's "compare possible algorithmic
// design and FPGA platform choices" workflow, end to end.
//
// Usage: platform_comparison [--goal=10]
#include <cstdio>

#include "apps/hw_run.hpp"
#include "apps/pdf1d.hpp"
#include "core/ranking.hpp"
#include "core/units.hpp"
#include "rcsim/microbench.hpp"
#include "rcsim/platform.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace rat;
  const util::Cli cli(argc, argv);
  const double goal = cli.get_double("goal", 10.0);

  const apps::Pdf1dDesign design;
  const std::vector<std::string> names = {"nallatech_h101",
                                          "generic_pcie_x4", "xd1000"};

  std::vector<core::RankedCandidate> candidates;
  util::Table detail({"platform", "alpha_w@2KB", "alpha_r@2KB",
                      "pred speedup", "simulated speedup"});
  for (const auto& name : names) {
    const auto platform = rcsim::platform_by_name(name);
    rcsim::Microbench mb(platform.link);
    const auto alphas = mb.derive_alphas(design.config().batch * 4);

    core::RatInputs in = design.rat_inputs();
    in.name = "1-D PDF on " + platform.name;
    in.comm.ideal_bw_bytes_per_sec = platform.link.documented_bw();
    in.comm.alpha_write = std::min(1.0, alphas.alpha_write);
    in.comm.alpha_read = std::min(1.0, alphas.alpha_read);

    core::RankedCandidate c;
    c.label = platform.name;
    c.inputs = in;
    c.fclock_hz = core::mhz(150);
    c.resources = design.resource_items();
    c.device = platform.device;
    candidates.push_back(c);

    const auto run = apps::simulate_on_platform(
        design.workload(), platform, core::mhz(150),
        rcsim::Buffering::kSingle, in.software.tsoft_sec);
    detail.add_row({platform.name, util::fixed(alphas.alpha_write, 2),
                    util::fixed(alphas.alpha_read, 2),
                    util::fixed(core::predict(in, core::mhz(150)).speedup_sb,
                                1),
                    util::fixed(run.measured.speedup, 1)});
  }

  std::printf("Per-platform analysis (alphas microbenchmarked at the "
              "design's 2 KB block):\n%s\n",
              detail.to_ascii().c_str());
  const auto results = core::rank_designs(candidates);
  std::printf("Ranked:\n%s\n", core::ranking_table(results).to_ascii().c_str());
  std::printf("verdict: '%s' %s the %.0fx goal (best predicted %.1fx)\n",
              results.front().label.c_str(),
              results.front().speedup >= goal ? "meets" : "misses", goal,
              results.front().speedup);
  return 0;
}
