#include "rcsim/multiboard.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/require.hpp"

namespace rat::rcsim {

MultiBoardResult execute_multiboard(const MultiBoardWorkload& workload,
                                    const Link& link, double fclock_hz) {
  if (workload.boards.empty())
    throw std::invalid_argument("execute_multiboard: no boards");
  if (workload.n_iterations == 0)
    throw std::invalid_argument("execute_multiboard: zero iterations");
  util::require_positive(fclock_hz, "execute_multiboard: non-positive clock");

  const std::size_t k = workload.boards.size();
  const std::size_t n = workload.n_iterations;
  MultiBoardResult result;
  Timeline& tl = result.timeline;

  double bus_free = 0.0;
  // Per-iteration, per-board completion times (double-buffered: input for
  // iteration i reuses the buffer freed by compute i-2).
  std::vector<std::vector<double>> input_done(n, std::vector<double>(k, 0.0));
  std::vector<std::vector<double>> compute_done(n,
                                                std::vector<double>(k, 0.0));
  std::vector<bool> inputs_issued(n, false);

  auto bus_transfer = [&](std::size_t iter, std::size_t bytes,
                          Direction dir, double ready) {
    const double start = std::max(ready, bus_free);
    const double dur = link.app_transfer_time(bytes, dir);
    tl.add(Event{dir == Direction::kHostToFpga ? EventKind::kInputTransfer
                                               : EventKind::kOutputTransfer,
                 iter, start, start + dur});
    result.t_bus_busy_sec += dur;
    bus_free = start + dur;
    return start + dur;
  };

  auto issue_inputs = [&](std::size_t iter) {
    for (std::size_t b = 0; b < k; ++b) {
      const double ready = iter >= 2 ? compute_done[iter - 2][b] : 0.0;
      input_done[iter][b] = bus_transfer(
          iter, workload.boards[b].input_bytes, Direction::kHostToFpga,
          ready);
    }
    inputs_issued[iter] = true;
  };

  std::vector<double> comp_busy(k, 0.0);
  for (std::size_t iter = 0; iter < n; ++iter) {
    if (!inputs_issued[iter]) issue_inputs(iter);

    for (std::size_t b = 0; b < k; ++b) {
      double start = input_done[iter][b];
      if (iter > 0) start = std::max(start, compute_done[iter - 1][b]);
      const double dur =
          static_cast<double>(workload.boards[b].cycles) / fclock_hz;
      // The shared timeline has a single compute lane; draw it only for
      // k = 1 where it is serial. Busy accounting is exact for any k.
      if (k == 1)
        tl.add(Event{EventKind::kCompute, iter, start, start + dur});
      comp_busy[b] += dur;
      compute_done[iter][b] = start + dur;
    }

    // Double-buffer prefetch: next iteration's inputs stream while the
    // boards compute, ahead of this iteration's outputs.
    if (iter + 1 < n) issue_inputs(iter + 1);

    for (std::size_t b = 0; b < k; ++b) {
      bus_transfer(iter, workload.boards[b].output_bytes,
                   Direction::kFpgaToHost, compute_done[iter][b]);
    }
  }

  result.t_comp_busy_max_sec =
      *std::max_element(comp_busy.begin(), comp_busy.end());
  double end = bus_free;
  for (double t : compute_done[n - 1]) end = std::max(end, t);
  result.t_total_sec = std::max(end, tl.end_sec());
  return result;
}

MultiBoardWorkload split_evenly(
    std::size_t elements_in, std::size_t elements_out,
    double bytes_per_element, int boards, std::size_t n_iterations,
    const std::function<std::uint64_t(std::size_t)>& cycles_fn) {
  if (boards < 1)
    throw std::invalid_argument("split_evenly: boards < 1");
  if (!cycles_fn)
    throw std::invalid_argument("split_evenly: null cycles_fn");
  MultiBoardWorkload w;
  w.n_iterations = n_iterations;
  const auto kb = static_cast<std::size_t>(boards);
  std::size_t remaining_in = elements_in;
  std::size_t remaining_out = elements_out;
  for (std::size_t b = 0; b < kb; ++b) {
    const std::size_t share_in =
        (remaining_in + (kb - b) - 1) / (kb - b);  // ceiling of remainder
    const std::size_t share_out = (remaining_out + (kb - b) - 1) / (kb - b);
    remaining_in -= share_in;
    remaining_out -= share_out;
    BoardShare s;
    s.input_bytes = static_cast<std::size_t>(
        std::ceil(static_cast<double>(share_in) * bytes_per_element));
    s.output_bytes = static_cast<std::size_t>(
        std::ceil(static_cast<double>(share_out) * bytes_per_element));
    s.cycles = cycles_fn(share_in);
    w.boards.push_back(s);
  }
  return w;
}

}  // namespace rat::rcsim
