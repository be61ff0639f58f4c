// Structure-of-arrays batch evaluation of the throughput test.
//
// The analytic model (Eqs. 1-11) is a handful of flops per design point,
// which is why RAT can afford to score every permutation of a design
// space (paper §3, Fig. 1). ThroughputBatch keeps one contiguous array
// per worksheet field: points are appended (validated, or unchecked by
// callers that validated up front), and predict_batch() then runs the
// scalar Eqs. 1-11 kernel over the columns, writing contiguous output
// columns. A batch that is reused keeps its capacity, so steady-state
// fills allocate nothing.
//
// Bit-identity contract: predict_batch() produces, for every point, the
// byte-identical ThroughputPrediction that predict() would return — both
// call the one kernel in core/throughput_kernel.hpp. See
// docs/VECTORIZATION.md and tests/core/batch_identity_test.cpp, which
// pins it with memcmp.
//
// Typical use (one batch per thread-pool chunk, reused across chunks):
//
//   thread_local ThroughputBatch batch;
//   batch.clear();                       // keeps capacity
//   for (...) batch.push_back(inputs, fclock);
//   predict_batch(batch);
//   ... batch.out.speedup_sb[i] or batch.prediction(i) ...
#pragma once

#include <cstddef>
#include <vector>

#include "core/throughput.hpp"

namespace rat::core {

struct ThroughputBatch {
  /// One contiguous array per worksheet field consumed by Eqs. 1-11.
  /// Integer fields (element counts, Niter) are stored as their exact
  /// double casts — the same cast the scalar path performs per call.
  struct InputColumns {
    std::vector<double> elements_in, elements_out, bytes_per_elem, ideal_bw,
        alpha_write, alpha_read, ops_per_elem, throughput_proc, n_iterations,
        tsoft, fclock;
  };

  /// One contiguous array per derived quantity; sized by predict_batch.
  struct OutputColumns {
    std::vector<double> t_write, t_read, t_comm, t_comp, t_rc_sb, t_rc_db,
        speedup_sb, speedup_db, util_comp_sb, util_comm_sb, util_comp_db,
        util_comm_db;
  };

  InputColumns in;
  OutputColumns out;

  std::size_t size() const { return in.elements_in.size(); }
  bool empty() const { return in.elements_in.empty(); }

  /// Pre-size every input column's capacity (outputs are sized on demand).
  void reserve(std::size_t n);

  /// Drop all points but keep every column's capacity, so a batch reused
  /// across chunks allocates only on its first, largest fill.
  void clear();

  /// Validate @p inputs (and @p fclock_hz > 0) exactly like predict(),
  /// then append one point.
  void push_back(const RatInputs& inputs, double fclock_hz);

  /// Append one point without validation: the caller guarantees
  /// inputs.validate() holds and fclock_hz > 0. This is the hot fill path
  /// for loops that validated once up front (Monte Carlo chunks) or that
  /// must defer validation errors (methodology windows). Defined inline:
  /// the per-point fill is half the batch evaluation cost, and keeping it
  /// in the header lets callers' loops absorb the eleven appends.
  void push_back_unchecked(const RatInputs& inputs, double fclock_hz) {
    in.elements_in.push_back(static_cast<double>(inputs.dataset.elements_in));
    in.elements_out.push_back(
        static_cast<double>(inputs.dataset.elements_out));
    in.bytes_per_elem.push_back(inputs.dataset.bytes_per_element);
    in.ideal_bw.push_back(inputs.comm.ideal_bw_bytes_per_sec);
    in.alpha_write.push_back(inputs.comm.alpha_write);
    in.alpha_read.push_back(inputs.comm.alpha_read);
    in.ops_per_elem.push_back(inputs.comp.ops_per_element);
    in.throughput_proc.push_back(inputs.comp.throughput_ops_per_cycle);
    in.n_iterations.push_back(
        static_cast<double>(inputs.software.n_iterations));
    in.tsoft.push_back(inputs.software.tsoft_sec);
    in.fclock.push_back(fclock_hz);
  }

  /// Gather point @p i's outputs into the scalar struct predict() returns.
  /// Only valid after predict_batch(); byte-identical to the scalar call.
  ThroughputPrediction prediction(std::size_t i) const;
};

/// Evaluate Eqs. 1-11 for every point in the batch, filling b.out.
void predict_batch(ThroughputBatch& b);

/// How the batch kernel evaluates: always "scalar", one point per step.
/// Kept for the benchmark records that report the build.
const char* simd_backend() noexcept;
std::size_t simd_width() noexcept;

}  // namespace rat::core
