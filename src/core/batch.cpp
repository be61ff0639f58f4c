#include "core/batch.hpp"

#include <array>
#include <stdexcept>

#include "core/throughput_kernel.hpp"

namespace rat::core {

namespace {

/// Every column, for the operations that treat them alike.
std::array<std::vector<double>*, 11> input_columns(
    ThroughputBatch::InputColumns& c) {
  return {&c.elements_in,  &c.elements_out,    &c.bytes_per_elem,
          &c.ideal_bw,     &c.alpha_write,     &c.alpha_read,
          &c.ops_per_elem, &c.throughput_proc, &c.n_iterations,
          &c.tsoft,        &c.fclock};
}

std::array<std::vector<double>*, 12> output_columns(
    ThroughputBatch::OutputColumns& c) {
  return {&c.t_write,      &c.t_read,       &c.t_comm,       &c.t_comp,
          &c.t_rc_sb,      &c.t_rc_db,      &c.speedup_sb,   &c.speedup_db,
          &c.util_comp_sb, &c.util_comm_sb, &c.util_comp_db, &c.util_comm_db};
}

}  // namespace

void ThroughputBatch::reserve(std::size_t n) {
  for (auto* col : input_columns(in)) col->reserve(n);
}

void ThroughputBatch::clear() {
  for (auto* col : input_columns(in)) col->clear();
  for (auto* col : output_columns(out)) col->clear();
}

void ThroughputBatch::push_back(const RatInputs& inputs, double fclock_hz) {
  inputs.validate();
  if (fclock_hz <= 0.0)
    throw std::invalid_argument("predict: non-positive clock");
  push_back_unchecked(inputs, fclock_hz);
}

ThroughputPrediction ThroughputBatch::prediction(std::size_t i) const {
  if (i >= out.speedup_sb.size())
    throw std::out_of_range(
        "ThroughputBatch::prediction: index past evaluated range");
  ThroughputPrediction p;
  p.fclock_hz = in.fclock[i];
  p.t_write_sec = out.t_write[i];
  p.t_read_sec = out.t_read[i];
  p.t_comm_sec = out.t_comm[i];
  p.t_comp_sec = out.t_comp[i];
  p.t_rc_sb_sec = out.t_rc_sb[i];
  p.t_rc_db_sec = out.t_rc_db[i];
  p.speedup_sb = out.speedup_sb[i];
  p.speedup_db = out.speedup_db[i];
  p.util_comp_sb = out.util_comp_sb[i];
  p.util_comm_sb = out.util_comm_sb[i];
  p.util_comp_db = out.util_comp_db[i];
  p.util_comm_db = out.util_comm_db[i];
  return p;
}

void predict_batch(ThroughputBatch& b) {
  const std::size_t n = b.size();
  for (auto* col : output_columns(b.out)) col->resize(n);
  const ThroughputBatch::InputColumns& in = b.in;
  ThroughputBatch::OutputColumns& out = b.out;
  for (std::size_t i = 0; i < n; ++i) {
    const ThroughputPrediction p = kernel::evaluate(
        {in.elements_in[i], in.elements_out[i], in.bytes_per_elem[i],
         in.ideal_bw[i], in.alpha_write[i], in.alpha_read[i],
         in.ops_per_elem[i], in.throughput_proc[i], in.n_iterations[i],
         in.tsoft[i], in.fclock[i]});
    out.t_write[i] = p.t_write_sec;
    out.t_read[i] = p.t_read_sec;
    out.t_comm[i] = p.t_comm_sec;
    out.t_comp[i] = p.t_comp_sec;
    out.t_rc_sb[i] = p.t_rc_sb_sec;
    out.t_rc_db[i] = p.t_rc_db_sec;
    out.speedup_sb[i] = p.speedup_sb;
    out.speedup_db[i] = p.speedup_db;
    out.util_comp_sb[i] = p.util_comp_sb;
    out.util_comm_sb[i] = p.util_comm_sb;
    out.util_comp_db[i] = p.util_comp_db;
    out.util_comm_db[i] = p.util_comm_db;
  }
}

const char* simd_backend() noexcept { return "scalar"; }

std::size_t simd_width() noexcept { return 1; }

}  // namespace rat::core
