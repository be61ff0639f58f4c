// Reproduces paper Tables 5 and 6: the 2-D PDF estimation case study,
// including the reconstructed actual column (the scan's actual column is
// partly illegible; §5.1's prose pins communication at ~6x the prediction
// and 19% of the execution time — see EXPERIMENTS.md).
#include <cstdio>

#include "apps/pdf2d.hpp"
#include "bench_common.hpp"

int main() {
  using namespace rat;
  const apps::Pdf2dDesign design;
  std::printf(
      "\nDesign: %zu pipelines x %zu bins each, output drained in %zu-byte "
      "chunks (%.1f eff. ops/cycle vs worksheet's conservative %.0f)\n\n",
      design.n_pipelines(),
      design.config().n_bins() / design.n_pipelines(),
      design.output_chunk_bytes(),
      rcsim::effective_ops_per_cycle(design.pipeline_spec(),
                                     design.config().batch_words),
      design.rat_inputs().comp.throughput_ops_per_cycle);
  bench::print_case_study("Table 5+6: 2-D PDF estimation",
                          apps::case_study(apps::CaseStudyKind::kPdf2d));
  return 0;
}
