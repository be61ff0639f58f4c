// RAT worksheet input parameters (paper Table 1).
//
// The throughput test consumes four groups of inputs. The names and units
// follow the paper exactly:
//
//   Dataset:       Nelements,input / Nelements,output / Nbytes/element
//   Communication: throughput_ideal (MB/s), alpha_write, alpha_read
//   Computation:   Nops/element, throughput_proc (ops/cycle), fclock (MHz)
//   Software:      tsoft (sec), Niter (iterations)
//
// Naming note (paper convention): "write" is the host writing input data
// *to* the FPGA; "read" is the host reading results back. Fig. 2 labels
// the same transfers from the FPGA's perspective (R = input, W = output).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/table.hpp"

namespace rat::core {

struct DatasetParams {
  std::size_t elements_in = 0;      ///< elements transferred per iteration
  std::size_t elements_out = 0;     ///< result elements per iteration
  double bytes_per_element = 0.0;   ///< numerical precision in bytes
};

struct CommunicationParams {
  double ideal_bw_bytes_per_sec = 0.0;  ///< documented interconnect maximum
  double alpha_write = 0.0;             ///< host->FPGA efficiency, (0,1]
  double alpha_read = 0.0;              ///< FPGA->host efficiency, (0,1]
};

struct ComputationParams {
  double ops_per_element = 0.0;        ///< from algorithm analysis
  double throughput_ops_per_cycle = 0.0;  ///< predicted ops completed/cycle
  std::vector<double> fclock_hz;       ///< candidate clocks to examine
};

struct SoftwareParams {
  double tsoft_sec = 0.0;     ///< baseline software execution time
  std::size_t n_iterations = 1;  ///< Niter: comm/comp blocks for the problem
};

/// A complete RAT worksheet input set for one application design.
struct RatInputs {
  std::string name;
  DatasetParams dataset;
  CommunicationParams comm;
  ComputationParams comp;
  SoftwareParams software;

  /// Throws std::invalid_argument with a precise message when any field is
  /// outside its documented domain (alphas in (0,1], positive sizes, at
  /// least one candidate clock, ...).
  void validate() const;

  /// Render in the layout of paper Tables 2/5/8.
  util::Table to_table() const;

  /// Serialize to a "key = value" text block, and parse one back. The
  /// round-trip is exact for all numeric fields.
  ///
  /// parse is strict (grammar in docs/WORKSHEET_FORMAT.md): numbers go
  /// through locale-independent std::from_chars, malformed clock-list
  /// tokens, duplicate keys, unknown keys and non-finite values are all
  /// rejected at parse time, and every failure is thrown as a
  /// core::ParseError (io/diagnostics.hpp, derives std::invalid_argument)
  /// carrying origin:line:column, the offending key and an error code.
  /// @p origin labels diagnostics (a file path; "<string>" by default).
  /// It walks the text in place: a successful parse allocates only the
  /// name and the clock list, and diagnostic strings are built only when
  /// one is thrown.
  std::string serialize() const;
  static RatInputs parse(const std::string& text);
  static RatInputs parse(const std::string& text, const std::string& origin);
};

/// The paper's three case-study worksheets (Tables 2, 5 and 8 verbatim;
/// see EXPERIMENTS.md for the provenance of every constant).
RatInputs pdf1d_inputs();   ///< Table 2 — 1-D PDF estimation
RatInputs pdf2d_inputs();   ///< Table 5 — 2-D PDF estimation
RatInputs md_inputs();      ///< Table 8 — molecular dynamics

}  // namespace rat::core
