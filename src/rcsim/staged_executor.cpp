#include "rcsim/staged_executor.hpp"

#include <stdexcept>

#include "util/require.hpp"

namespace rat::rcsim {

ExecutionResult execute_staged(const StagedWorkload& workload,
                               const Link& link,
                               const ExecutionConfig& config) {
  if (workload.stages.empty())
    throw std::invalid_argument("execute_staged: no stages");
  if (workload.n_iterations == 0)
    throw std::invalid_argument("execute_staged: zero iterations");
  util::require_positive(config.fclock_hz,
                         "execute_staged: non-positive clock");
  if (workload.stages.back().handoff_on_chip)
    throw std::invalid_argument(
        "execute_staged: final stage must return results over the bus");

  util::Rng rng(config.seed);
  ExecutionResult result;
  Timeline& tl = result.timeline;
  double now = 0.0;

  for (std::size_t iter = 0; iter < workload.n_iterations; ++iter) {
    if (config.host_sync_sec > 0.0) {
      tl.add(Event{EventKind::kHostSync, iter, now,
                   now + config.host_sync_sec});
      now += config.host_sync_sec;
      result.t_sync_sec += config.host_sync_sec;
    }
    bool received_on_chip = false;
    for (const auto& stage : workload.stages) {
      if (!received_on_chip && stage.input_bytes > 0) {
        const double dur = link.app_transfer_time(
            stage.input_bytes, Direction::kHostToFpga, rng);
        tl.add(Event{EventKind::kInputTransfer, iter, now, now + dur});
        now += dur;
        result.t_comm_sec += dur;
      }
      const double comp =
          static_cast<double>(stage.cycles) / config.fclock_hz;
      tl.add(Event{EventKind::kCompute, iter, now, now + comp});
      now += comp;
      result.t_comp_sec += comp;

      if (!stage.handoff_on_chip && stage.output_bytes > 0) {
        const double dur = link.app_transfer_time(
            stage.output_bytes, Direction::kFpgaToHost, rng);
        tl.add(Event{EventKind::kOutputTransfer, iter, now, now + dur});
        now += dur;
        result.t_comm_sec += dur;
      }
      received_on_chip = stage.handoff_on_chip;
    }
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
