// The Figure-1 methodology state machine.
//
// RAT is "applied iteratively during the design process until a suitable
// version of the algorithm is formulated or all reasonable permutations are
// exhausted" (paper §3). The flow per design candidate:
//
//   throughput test --(insufficient comm/comp throughput)--> new design
//        | desirable performance
//   precision test --(unrealizable precision requirement)--> new design
//        | acceptable balance of performance and precision
//   resource test  --(insufficient resources)--------------> new design
//        | fits
//   PROCEED (build in HDL/HLL, verify on the HW platform)
//
// A DesignCandidate packages one design's worksheet plus the artifacts the
// later tests need; MethodologyRun walks an ordered list of candidates and
// records a full decision trace.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/parameters.hpp"
#include "core/power.hpp"
#include "core/precision.hpp"
#include "core/resources.hpp"
#include "core/throughput.hpp"
#include "rcsim/device.hpp"

namespace rat::core {

/// What the designer requires of a migration for it to be worth doing
/// (the paper cites goals from break-even ~1x up to the 50-100x needed to
/// impress "middle management").
struct Requirements {
  double min_speedup = 10.0;
  /// Evaluate speedup with single or double buffering.
  bool double_buffered = false;
  /// Numerical tolerance for the precision test; nullopt skips the test
  /// (e.g. MD, whose HLL design kept single-precision floats).
  std::optional<PrecisionRequirements> precision;
  double practical_fill_limit = 0.9;
  /// Optional fourth gate (an extension past Fig. 1, for the paper's
  /// embedded-community motivation): require the migration to save energy
  /// by at least this factor versus the host baseline. nullopt skips it.
  std::optional<double> min_energy_ratio;
  PowerModel power_model;
  HostPowerModel host_power_model;
};

/// One design alternative under evaluation.
struct DesignCandidate {
  RatInputs inputs;
  /// Clock at which the pass/fail decision is made (a conservative
  /// achievable estimate; the paper uses 100 MHz mid-range).
  double decision_clock_hz = 100e6;
  /// Fixed-point kernel + reference for the precision test (both empty when
  /// Requirements::precision is nullopt).
  fx::FixedKernel precision_kernel;
  std::vector<double> precision_reference;
  /// Design-level resource demand for the resource test.
  std::vector<ResourceItem> resources;
};

enum class Step {
  kThroughputTest,
  kPrecisionTest,
  kResourceTest,
  kPowerTest,
  kProceed,
  kRejected,
};

enum class RejectReason {
  kNone,
  kInsufficientThroughput,     ///< predicted speedup below requirement
  kUnrealizablePrecision,      ///< no format within tolerance
  kInsufficientResources,      ///< design does not fit the device
  kInsufficientEnergySavings,  ///< energy ratio below the optional gate
};

/// One decision-trace record.
struct TraceEntry {
  std::size_t candidate_index = 0;
  std::string candidate_name;
  Step step = Step::kThroughputTest;
  bool passed = false;
  std::string detail;
};

/// Outcome of a full methodology run.
struct MethodologyOutcome {
  bool proceed = false;
  /// Index of the accepted candidate when proceed is true.
  std::optional<std::size_t> accepted_index;
  RejectReason last_reject = RejectReason::kNone;
  std::vector<TraceEntry> trace;

  /// Per-candidate results kept for reporting.
  std::vector<ThroughputPrediction> predictions;

  std::string render_trace() const;
};

/// Evaluate candidates in order against the requirements on the device;
/// stops at the first candidate that passes all applicable tests.
///
/// @p n_threads > 1 (or 0 = auto, i.e. util::default_thread_count())
/// evaluates candidates concurrently in enumeration-order windows while
/// producing a byte-identical outcome: the merged trace, predictions and
/// accepted index match the serial run exactly, because candidates are
/// independent and results are merged in order, truncated at the first
/// passing design. Parallel runs require the candidates' precision
/// kernels (when any) to be safe to call from different threads.
MethodologyOutcome run_methodology(const std::vector<DesignCandidate>& candidates,
                                   const Requirements& req,
                                   const rcsim::Device& device,
                                   std::size_t n_threads = 1);

/// Fingerprint of everything a cached evaluation depends on for one
/// candidate: worksheet inputs (exact double bit patterns), decision
/// clock, resource items and the precision *reference* vector. Half of
/// the plan-cache key (explore/plan_cache.hpp). The precision kernel is
/// an arbitrary functor and cannot be fingerprinted — a kernel whose
/// behaviour changes between runs defeats the key; delete the cache
/// after changing one.
std::uint64_t candidate_fingerprint(const DesignCandidate& candidate);

/// Fingerprint of the campaign-level evaluation context: requirements
/// (every gate and model parameter) and the device inventory. The other
/// half of the plan-cache key.
std::uint64_t requirements_fingerprint(const Requirements& req,
                                       const rcsim::Device& device);

}  // namespace rat::core
