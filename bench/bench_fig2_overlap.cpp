// Reproduces paper Figure 2: the three communication/computation overlap
// scenarios — single buffered, double buffered computation bound, and
// double buffered communication bound — as ASCII Gantt charts from the
// executor's event timeline, plus the Eq. (5)/(6) totals each implies.
#include <cstdio>

#include "core/units.hpp"
#include "rcsim/executor.hpp"

namespace {

using namespace rat;

rcsim::Link clean_link() {
  return rcsim::Link("fig2", 1e9, rcsim::LinkDirection{0.0, 1e9, 0.0},
                     rcsim::LinkDirection{0.0, 1e9, 0.0});
}

/// in/out bytes and cycles chosen so one scenario is computation bound
/// (compute ~3x comm) and the other communication bound (comm ~3x compute).
rcsim::Workload workload(std::size_t iters, std::size_t in_bytes,
                         std::size_t out_bytes, std::uint64_t cycles) {
  rcsim::Workload w;
  w.n_iterations = iters;
  w.io = [=](std::size_t) {
    rcsim::IterationIo io;
    io.input_chunks_bytes = {in_bytes};
    io.output_chunks_bytes = {out_bytes};
    return io;
  };
  w.cycles = [=](std::size_t) { return cycles; };
  return w;
}

void show(const char* title, const rcsim::Workload& w,
          rcsim::Buffering buffering) {
  rcsim::ExecutionConfig cfg;
  cfg.buffering = buffering;
  cfg.fclock_hz = 100e6;
  const auto r = rcsim::execute(w, clean_link(), cfg);
  std::printf("---- %s ----\n%s", title, r.timeline.to_gantt(96).c_str());
  std::printf("totals: comm %.2e s, comp %.2e s, wall %.2e s (lanes %s)\n\n",
              r.t_comm_sec, r.t_comp_sec, r.t_total_sec,
              r.timeline.lanes_consistent() ? "consistent" : "OVERLAP BUG");
}

void print_report() {
  std::printf("\nFigure 2: example overlap scenarios (3 iterations, legend "
              "R=input W=output C=compute)\n\n");
  // Balanced-ish workload, computation 2x communication.
  const auto comp_bound = workload(3, 30000, 30000, 12000);
  show("Single buffered", comp_bound, rcsim::Buffering::kSingle);
  show("Double buffered, computation bound", comp_bound,
       rcsim::Buffering::kDouble);
  const auto comm_bound = workload(3, 90000, 90000, 4000);
  show("Double buffered, communication bound", comm_bound,
       rcsim::Buffering::kDouble);
}

}  // namespace

int main() {
  print_report();
  return 0;
}
