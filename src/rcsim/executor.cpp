#include "rcsim/executor.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/require.hpp"

namespace rat::rcsim {

double ExecutionResult::per_iter_comm(std::size_t n) const {
  return n ? t_comm_sec / static_cast<double>(n) : 0.0;
}

double ExecutionResult::per_iter_comp(std::size_t n) const {
  return n ? t_comp_sec / static_cast<double>(n) : 0.0;
}

ExecutionResult execute(const Workload& workload, const Link& link,
                        const ExecutionConfig& config) {
  if (!workload.io || !workload.cycles)
    throw std::invalid_argument("execute: workload callbacks not set");
  if (workload.n_iterations == 0)
    throw std::invalid_argument("execute: zero iterations");
  util::require_positive(config.fclock_hz, "execute: non-positive clock");

  const std::size_t n = workload.n_iterations;
  const std::size_t buffers = config.buffering == Buffering::kSingle ? 1 : 2;
  util::Rng rng(config.seed);

  ExecutionResult result;
  Timeline& tl = result.timeline;

  // Completion times per iteration. compute_done[i] frees input buffer i;
  // output_done[i] frees output buffer i (and, single buffered, the shared
  // buffer set entirely).
  std::vector<double> input_done(n, 0.0);
  std::vector<double> compute_done(n, 0.0);
  std::vector<double> output_done(n, 0.0);

  double bus_free = 0.0;
  double fabric_free = 0.0;
  if (config.initial_setup_sec > 0.0) {
    tl.add(Event{EventKind::kHostSync, 0, 0.0, config.initial_setup_sec});
    result.t_sync_sec += config.initial_setup_sec;
    bus_free = config.initial_setup_sec;
    fabric_free = config.initial_setup_sec;
  }

  // Dependency-faithful in-order simulation. Transfers for iteration i are
  // issued on the bus as soon as their buffer dependency allows; because
  // every task of iteration i depends only on tasks of iterations <= i,
  // processing iterations in order with a running bus/fabric clock yields
  // the same schedule as a full event queue.
  //
  // One subtlety: with double buffering, input i+1 becomes ready while
  // compute i runs, and must be able to occupy the bus *before* output i
  // (Fig. 2: "R1 R2 W1 R3 W2 ..."). We therefore issue iteration i's input
  // eagerly right after iteration i-1's input, before i-1's output is
  // scheduled, whenever its buffer dependency is already satisfied.
  // Implementation: walk iterations, but interleave by issuing input(i+1)
  // between compute(i) start and output(i). That is exactly the FIFO order
  // of readiness for this dependency graph.
  std::vector<double> input_ready(n, 0.0);

  auto do_transfer = [&](std::size_t iter, std::size_t bytes, Direction dir,
                         double ready) {
    const double start = std::max(ready, bus_free);
    const double dur = link.app_transfer_time(bytes, dir, rng);
    const double end = start + dur;
    tl.add(Event{dir == Direction::kHostToFpga ? EventKind::kInputTransfer
                                               : EventKind::kOutputTransfer,
                 iter, start, end});
    result.t_comm_sec += dur;
    bus_free = end;
    return end;
  };

  auto do_sync = [&](std::size_t iter, double ready) {
    if (config.host_sync_sec <= 0.0) return std::max(ready, bus_free);
    const double start = std::max(ready, bus_free);
    const double end = start + config.host_sync_sec;
    tl.add(Event{EventKind::kHostSync, iter, start, end});
    result.t_sync_sec += config.host_sync_sec;
    bus_free = end;
    return end;
  };

  auto issue_input = [&](std::size_t i) {
    // Input buffer availability: with B buffers, iteration i reuses the
    // buffer freed when iteration i-B's compute consumed it; single
    // buffered additionally waits for i-1's output (shared buffer set).
    double ready = 0.0;
    if (i >= buffers) ready = std::max(ready, compute_done[i - buffers]);
    if (buffers == 1 && i >= 1) ready = std::max(ready, output_done[i - 1]);
    ready = do_sync(i, ready);
    const IterationIo io = workload.io(i);
    double end = ready;
    for (std::size_t bytes : io.input_chunks_bytes)
      end = do_transfer(i, bytes, Direction::kHostToFpga, ready);
    input_done[i] = end;
    return io;
  };

  std::vector<IterationIo> ios(n);
  std::vector<bool> input_issued(n, false);

  for (std::size_t i = 0; i < n; ++i) {
    if (!input_issued[i]) {
      ios[i] = issue_input(i);
      input_issued[i] = true;
    }

    // Fabric: compute i after its input, the previous compute, and (output
    // buffer reuse) output i-B.
    double comp_ready = input_done[i];
    if (i >= 1) comp_ready = std::max(comp_ready, compute_done[i - 1]);
    if (i >= buffers) comp_ready = std::max(comp_ready, output_done[i - buffers]);
    const double comp_start = std::max(comp_ready, fabric_free);
    const double comp_dur =
        static_cast<double>(workload.cycles(i)) / config.fclock_hz;
    const double comp_end = comp_start + comp_dur;
    tl.add(Event{EventKind::kCompute, i, comp_start, comp_end});
    result.t_comp_sec += comp_dur;
    fabric_free = comp_end;
    compute_done[i] = comp_end;

    // With double buffering the next iteration's input can stream during
    // this compute; issue it now so it wins the bus ahead of output i
    // (matching Fig. 2's R2-before-W1 ordering).
    if (buffers == 2 && i + 1 < n && !input_issued[i + 1]) {
      ios[i + 1] = issue_input(i + 1);
      input_issued[i + 1] = true;
    }

    double out_end = compute_done[i];
    for (std::size_t bytes : ios[i].output_chunks_bytes)
      out_end = do_transfer(i, bytes, Direction::kFpgaToHost, compute_done[i]);
    output_done[i] = out_end;
  }

  result.t_total_sec = tl.end_sec();
  const double denom = result.t_comm_sec + result.t_comp_sec;
  if (denom > 0.0) {
    result.util_comm = result.t_comm_sec / denom;
    result.util_comp = result.t_comp_sec / denom;
  }
  return result;
}

}  // namespace rat::rcsim
