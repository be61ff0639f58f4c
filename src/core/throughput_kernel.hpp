// The Eqs. (1)-(11) expression tree, written once so predict_unchecked()
// and predict_batch()'s column loop run the exact same sequence of
// IEEE-754 operations.
//
// Bit-identity contract: both callers evaluate every quantity with this
// one function — mul, div, add, max, each exactly rounded. There is no
// a*b+c shape anywhere in Eqs. 1-11, so FMA contraction cannot occur even
// on FMA hardware, and no reassociation is possible without -ffast-math
// (which this repo never enables). A point of predict_batch is therefore
// byte-identical to a call of predict() on the same point;
// tests/core/batch_identity_test.cpp pins this with memcmp.
#pragma once

#include <algorithm>

#include "core/throughput.hpp"

namespace rat::core::kernel {

/// The worksheet values Eqs. 1-11 read, every field already a double
/// (integer worksheet fields are cast with static_cast<double>, once per
/// point, by both callers).
struct Inputs {
  double elements_in;     ///< Nelements,input
  double elements_out;    ///< Nelements,output
  double bytes_per_elem;  ///< Nbytes/element
  double ideal_bw;        ///< throughput_ideal, bytes/sec
  double alpha_write;     ///< host->FPGA efficiency
  double alpha_read;      ///< FPGA->host efficiency
  double ops_per_elem;    ///< Nops/element
  double throughput_proc; ///< ops/cycle
  double n_iterations;    ///< Niter
  double tsoft;           ///< software baseline, sec
  double fclock;          ///< candidate clock, Hz
};

/// Evaluate Eqs. (1)-(11) for one point.
inline ThroughputPrediction evaluate(const Inputs& in) {
  ThroughputPrediction p;
  p.fclock_hz = in.fclock;

  // Eqs. (3)/(2): numerator and denominator each round once, then divide.
  p.t_write_sec =
      in.elements_in * in.bytes_per_elem / (in.alpha_write * in.ideal_bw);
  p.t_read_sec =
      in.elements_out * in.bytes_per_elem / (in.alpha_read * in.ideal_bw);
  p.t_comm_sec = p.t_write_sec + p.t_read_sec;  // Eq. (1)

  // Eq. (4).
  p.t_comp_sec =
      in.elements_in * in.ops_per_elem / (in.fclock * in.throughput_proc);

  // Both operands are finite and positive for validated inputs, so
  // std::max never meets a NaN.
  const double sum = p.t_comm_sec + p.t_comp_sec;
  const double mx = std::max(p.t_comm_sec, p.t_comp_sec);
  p.t_rc_sb_sec = in.n_iterations * sum;  // Eq. (5)
  p.t_rc_db_sec = in.n_iterations * mx;   // Eq. (6)

  p.speedup_sb = in.tsoft / p.t_rc_sb_sec;  // Eq. (7)
  p.speedup_db = in.tsoft / p.t_rc_db_sec;

  p.util_comp_sb = p.t_comp_sec / sum;  // Eq. (8)
  p.util_comm_sb = p.t_comm_sec / sum;  // Eq. (9)
  p.util_comp_db = p.t_comp_sec / mx;   // Eq. (10)
  p.util_comm_db = p.t_comm_sec / mx;   // Eq. (11)
  return p;
}

}  // namespace rat::core::kernel
