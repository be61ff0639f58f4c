// Ablation: how much the authors' conservative throughput_proc estimates
// bought them. The 1-D PDF worksheet derated 24 ideal ops/cycle to 20; the
// 2-D worksheet used 48 against an achievable ~64. This bench sweeps the
// derating factor and reports prediction error against the simulated
// actuals — quantifying DESIGN.md's "conservatism as contingency" claim.
#include <cstdio>

#include "bench_common.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"

namespace {

using namespace rat;

void report_case(const char* name, apps::CaseStudyKind kind,
                 const std::vector<double>& proc_rates, double ideal_rate) {
  const auto cs = apps::case_study(kind);
  const core::RatInputs& base = cs.inputs;
  const double fclock = cs.actual_clock_hz;
  const auto actual = apps::simulate_on_platform(
      cs.workload, cs.platform, fclock, rcsim::Buffering::kSingle,
      base.software.tsoft_sec);
  std::printf("---- %s at %.0f MHz (simulated actual speedup %.1f) ----\n",
              name, core::to_mhz(fclock), actual.measured.speedup);
  util::Table t({"throughput_proc", "pred tcomp", "pred speedup",
                 "speedup err %"});
  for (double tp : proc_rates) {
    core::RatInputs in = base;
    in.comp.throughput_ops_per_cycle = tp;
    const auto p = core::predict(in, fclock);
    t.add_row({util::fixed(tp, 0) + (tp == ideal_rate ? " (ideal)" : "") +
                   (tp == base.comp.throughput_ops_per_cycle
                        ? " (worksheet)"
                        : ""),
               util::sci(p.t_comp_sec), util::fixed(p.speedup_sb, 1),
               util::fixed(util::percent_error(p.speedup_sb,
                                               actual.measured.speedup),
                           1)});
  }
  std::printf("%s\n", t.to_ascii().c_str());
}

}  // namespace

int main() {
  std::printf("\n==== Ablation: throughput_proc conservatism ====\n\n");
  report_case("1-D PDF (24 ideal, 20 assumed, ~18.7 achieved)",
              apps::CaseStudyKind::kPdf1d, {16, 18, 20, 22, 24}, 24);
  report_case("2-D PDF (96 ideal, 48 assumed, ~64 achieved)",
              apps::CaseStudyKind::kPdf2d, {32, 48, 64, 80, 96}, 96);
  std::printf(
      "Shape: the 1-D worksheet's derate (20 of 24) tracks the achieved\n"
      "~18.7 closely; the 2-D worksheet's deeper derate (48 of 96) over-\n"
      "predicts tcomp, which §5.1 credits with absorbing the 6x\n"
      "communication surprise — 'a victory in contingency planning'.\n");
  return 0;
}
