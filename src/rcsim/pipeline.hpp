// Generic pipelined functional-unit cycle model.
//
// The "actual" computation times in the paper differ from RAT's Eq. (4)
// only through micro-architectural effects: pipeline fill/drain latency,
// per-item initiation intervals above 1, and stalls between items (paper
// §4.3: enough latency and pipeline stalls existed to warrant a 17%
// reduction of the throughput estimate). This model captures exactly those
// terms, so application kernels can express their hardware structure and
// the simulator can produce honest "measured" cycle counts.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/require.hpp"

namespace rat::rcsim {

struct PipelineSpec {
  std::string name;
  /// Fill/drain latency in cycles (paid once per batch).
  std::uint64_t depth = 1;
  /// Cycles between successive work items in steady state (>= 1; fractions
  /// model occasional extra cycles, e.g. a BRAM port conflict every other
  /// item giving 1.5).
  double initiation_interval = 1.0;
  /// Extra stall cycles between consecutive items (input handshake, etc.).
  double stall_per_item = 0.0;
  /// Parallel instances processing disjoint work.
  std::uint64_t instances = 1;
  /// Operations performed per work item (for effective ops/cycle reports).
  double ops_per_item = 1.0;

  void validate() const {
    if (depth == 0) throw std::invalid_argument("PipelineSpec: depth == 0");
    if (!(initiation_interval >= 1.0))
      throw std::invalid_argument("PipelineSpec: II < 1");
    if (!(stall_per_item >= 0.0))
      throw std::invalid_argument("PipelineSpec: negative stall");
    if (instances == 0)
      throw std::invalid_argument("PipelineSpec: instances == 0");
    util::require_positive(ops_per_item, "PipelineSpec: ops_per_item <= 0");
  }
};

/// Cycles for @p items work items distributed over the instances: each
/// instance processes ceil(items/instances) items at (II + stall) cycles
/// each, plus one fill of `depth` cycles.
std::uint64_t pipeline_cycles(const PipelineSpec& spec, std::uint64_t items);

/// Effective operations per cycle achieved on @p items (compare against
/// RAT's throughput_proc input).
double effective_ops_per_cycle(const PipelineSpec& spec, std::uint64_t items);

}  // namespace rat::rcsim
