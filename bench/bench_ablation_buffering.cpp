// Ablation: single vs double buffering across all three case studies and
// clocks. Quantifies the paper's §4.3 remark that double buffering would
// have masked the communication misprediction behind the stable
// computation time, and shows where each design's DB benefit saturates.
#include <cstdio>
#include <utility>

#include "bench_common.hpp"
#include "util/format.hpp"

int main() {
  using namespace rat;
  const std::pair<const char*, apps::CaseStudyKind> cases[] = {
      {"1-D PDF", apps::CaseStudyKind::kPdf1d},
      {"2-D PDF", apps::CaseStudyKind::kPdf2d},
      {"MD", apps::CaseStudyKind::kMd}};
  std::printf("\n==== Ablation: buffering mode (simulated actuals) ====\n\n");
  util::Table t({"case", "fclk (MHz)", "pred SB", "pred DB", "actual SB",
                 "actual DB", "DB gain"});
  for (const auto& [name, kind] : cases) {
    const auto c = apps::case_study(kind);
    for (double f : c.inputs.comp.fclock_hz) {
      const auto pred = core::predict(c.inputs, f);
      const auto sb = apps::simulate_on_platform(
          c.workload, c.platform, f, rcsim::Buffering::kSingle,
          c.inputs.software.tsoft_sec);
      const auto db = apps::simulate_on_platform(
          c.workload, c.platform, f, rcsim::Buffering::kDouble,
          c.inputs.software.tsoft_sec);
      t.add_row({name, util::fixed(core::to_mhz(f), 0),
                 util::fixed(pred.speedup_sb, 1),
                 util::fixed(pred.speedup_db, 1),
                 util::fixed(sb.measured.speedup, 1),
                 util::fixed(db.measured.speedup, 1),
                 util::fixed(db.measured.speedup / sb.measured.speedup, 2) +
                     "x"});
    }
  }
  std::printf("%s\n", t.to_ascii().c_str());
  std::printf(
      "Shape: the 2-D PDF (19%% measured comm) gains the most from double\n"
      "buffering; MD (<1%% comm) gains nothing; the 1-D PDF's DB actual\n"
      "lands closer to its DB prediction than SB did to SB's (paper §4.3).\n");
  return 0;
}
