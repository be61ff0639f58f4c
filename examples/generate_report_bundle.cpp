// Regenerate the full analysis-report bundle for every case study: one
// Markdown document plus prediction/validation CSVs per application,
// written to a directory (default ./reports). The archival artifact the
// §4 worksheet workflow produces at the end of an analysis.
//
// Usage: generate_report_bundle [--out=reports]
#include <cstdio>
#include <utility>

#include "apps/case_study.hpp"
#include "apps/hw_run.hpp"
#include "core/report.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace rat;
  const util::Cli cli(argc, argv);
  const std::string out = cli.get_or("out", "reports");

  const std::pair<apps::CaseStudyKind, const char*> bundle[] = {
      {apps::CaseStudyKind::kPdf1d, "pdf1d"},
      {apps::CaseStudyKind::kPdf2d, "pdf2d"},
      {apps::CaseStudyKind::kMd, "md"}};
  for (const auto& [kind, stem] : bundle) {
    const auto cs = apps::case_study(kind);
    core::Report r;
    r.inputs = cs.inputs;
    const auto run = apps::simulate_on_platform(
        cs.workload, cs.platform, cs.actual_clock_hz,
        rcsim::Buffering::kSingle, cs.inputs.software.tsoft_sec);
    r.measurements.push_back(run.measured);
    r.finalize();
    r.device = cs.platform.device;
    r.resources = core::run_resource_test(cs.resource_items, cs.platform.device,
                                          cs.platform.practical_fill_limit);
    std::printf("wrote %s\n", r.write(out, stem).string().c_str());
  }
  std::printf("report bundle complete in %s/\n", out.c_str());
  return 0;
}
