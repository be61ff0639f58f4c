// Power, energy, development-time economics, and the design-review ranking
// table. Extensions grounded in the paper's introduction: the "reduced
// power usage" motivation of the embedded community, and the "break-even
// point (time of development versus time saved at execution)" framing of
// the go/no-go decision. Also ranks the quadratic-vs-Gaussian 1-D PDF
// design permutations side by side.
#include <cstdio>

#include "apps/md.hpp"
#include "apps/pdf1d.hpp"
#include "apps/pdf1d_gaussian.hpp"
#include "apps/pdf2d.hpp"
#include "core/devtime.hpp"
#include "core/power.hpp"
#include "core/ranking.hpp"
#include "core/units.hpp"
#include "util/format.hpp"

namespace {

using namespace rat;

void print_power() {
  std::printf("==== Power & energy (paper intro: \"savings could come in "
              "the form of reduced power usage\") ====\n\n");
  util::Table t({"case", "FPGA W", "FPGA-system J", "host J",
                 "energy ratio", "saves energy?"});
  struct Row {
    const char* name;
    core::RatInputs in;
    std::vector<core::ResourceItem> items;
    rcsim::Device device;
    double clock;
  };
  const Row rows[] = {
      {"1-D PDF", core::pdf1d_inputs(), apps::Pdf1dDesign().resource_items(),
       rcsim::virtex4_lx100(), core::mhz(150)},
      {"2-D PDF", core::pdf2d_inputs(), apps::Pdf2dDesign().resource_items(),
       rcsim::virtex4_lx100(), core::mhz(150)},
      {"MD", core::md_inputs(), apps::MdDesign().resource_items(),
       rcsim::stratix2_ep2s180(), core::mhz(100)},
  };
  for (const auto& row : rows) {
    const auto usage =
        core::run_resource_test(row.items, row.device).usage;
    const auto pred = core::predict(row.in, row.clock);
    const auto e =
        core::estimate_power(usage, pred, row.in.software.tsoft_sec);
    t.add_row({row.name, util::fixed(e.fpga_watts, 1),
               util::fixed(e.fpga_system_energy_joules, 1),
               util::fixed(e.host_energy_joules, 1),
               util::fixed(e.energy_ratio, 1) + "x",
               e.saves_energy() ? "yes" : "NO"});
  }
  std::printf("%s\n", t.to_ascii().c_str());
}

void print_economics() {
  std::printf("==== Development-time break-even (paper intro: \"a more "
              "conservative factor of ten or less\") ====\n\n");
  const auto pred = core::predict(core::pdf2d_inputs(), core::mhz(150));
  util::Table t({"dev hours", "runs/month", "break-even (months)",
                 "net hours @24mo", "worth it?"});
  for (double dev : {40.0, 200.0, 1000.0}) {
    for (double runs : {50.0, 500.0}) {
      core::BreakEvenInputs e;
      e.development_hours = dev;
      e.runs_per_month = runs;
      const auto r = core::break_even(pred, 158.8, e);
      t.add_row({util::fixed(dev, 0), util::fixed(runs, 0),
                 r.break_even_months
                     ? util::fixed(*r.break_even_months, 1)
                     : std::string("never (in horizon)"),
                 util::fixed(r.net_hours_over_horizon, 0),
                 r.worth_it() ? "yes" : "NO"});
    }
  }
  std::printf("%s", t.to_ascii().c_str());
  const auto req = core::required_speedup(
      158.8, core::BreakEvenInputs{200.0, 100.0, 24.0});
  std::printf("\nrequired speedup for 200 dev-hours at 100 runs/month over "
              "24 months: %s\n\n",
              req ? (util::fixed(*req, 2) + "x").c_str() : "unreachable");
}

void print_ranking() {
  std::printf("==== Design review: all designs side by side ====\n\n");
  std::vector<core::RankedCandidate> candidates;
  {
    core::RankedCandidate c;
    c.label = "1-D PDF, quadratic kernel (shipped)";
    c.inputs = core::pdf1d_inputs();
    c.fclock_hz = core::mhz(150);
    c.resources = apps::Pdf1dDesign().resource_items();
    c.device = rcsim::virtex4_lx100();
    candidates.push_back(c);
  }
  {
    const apps::Pdf1dGaussianDesign g;
    core::RankedCandidate c;
    c.label = "1-D PDF, Gaussian LUT variant";
    c.inputs = g.rat_inputs();
    c.fclock_hz = core::mhz(150);
    c.resources = g.resource_items();
    c.device = rcsim::virtex4_lx100();
    candidates.push_back(c);
  }
  {
    core::RankedCandidate c;
    c.label = "2-D PDF";
    c.inputs = core::pdf2d_inputs();
    c.fclock_hz = core::mhz(150);
    c.resources = apps::Pdf2dDesign().resource_items();
    c.device = rcsim::virtex4_lx100();
    candidates.push_back(c);
  }
  {
    core::RankedCandidate c;
    c.label = "MD, 4-lane array";
    c.inputs = core::md_inputs();
    c.fclock_hz = core::mhz(100);
    c.resources = apps::MdDesign().resource_items();
    c.device = rcsim::stratix2_ep2s180();
    candidates.push_back(c);
  }
  const auto results = core::rank_designs(candidates);
  std::printf("%s\n", core::ranking_table(results).to_ascii().c_str());
  std::printf("The Gaussian variant trades ~60%% of the quadratic design's\n"
              "predicted speedup for kernel fidelity — the quantitative\n"
              "comparison RAT exists to put in front of the designer.\n");
}

}  // namespace

int main() {
  std::printf("\n");
  print_power();
  print_economics();
  print_ranking();
  return 0;
}
