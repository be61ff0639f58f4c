#include "core/throughput.hpp"

#include <stdexcept>

#include "core/throughput_kernel.hpp"
#include "store/codec.hpp"

namespace rat::core {

namespace {

/// Apply @p f to every field of @p p in declaration order: the one
/// definition of the stored prediction layout.
template <typename Prediction, typename F>
void for_each_field(Prediction& p, F f) {
  for (auto* v : {&p.fclock_hz, &p.t_write_sec, &p.t_read_sec, &p.t_comm_sec,
                  &p.t_comp_sec, &p.t_rc_sb_sec, &p.t_rc_db_sec,
                  &p.speedup_sb, &p.speedup_db, &p.util_comp_sb,
                  &p.util_comm_sb, &p.util_comp_db, &p.util_comm_db})
    f(*v);
}

}  // namespace

void put_prediction(std::string& out, const ThroughputPrediction& p) {
  for_each_field(p, [&out](double v) { store::put_f64(out, v); });
}

ThroughputPrediction get_prediction(store::Cursor& cur) {
  ThroughputPrediction p;
  for_each_field(p, [&cur](double& v) { v = cur.f64(); });
  return p;
}

ThroughputPrediction predict_unchecked(const RatInputs& inputs,
                                       double fclock_hz) noexcept {
  // One width-1 lane of the shared kernel: the batch path runs the same
  // template at wider lanes, which is what makes scalar and SIMD results
  // bit-identical by construction.
  using S = util::simd::ScalarLane;
  kernel::InputsV<S> in;
  in.elements_in = {static_cast<double>(inputs.dataset.elements_in)};
  in.elements_out = {static_cast<double>(inputs.dataset.elements_out)};
  in.bytes_per_elem = {inputs.dataset.bytes_per_element};
  in.ideal_bw = {inputs.comm.ideal_bw_bytes_per_sec};
  in.alpha_write = {inputs.comm.alpha_write};
  in.alpha_read = {inputs.comm.alpha_read};
  in.ops_per_elem = {inputs.comp.ops_per_element};
  in.throughput_proc = {inputs.comp.throughput_ops_per_cycle};
  in.n_iterations = {static_cast<double>(inputs.software.n_iterations)};
  in.tsoft = {inputs.software.tsoft_sec};
  in.fclock = {fclock_hz};
  const kernel::OutputsV<S> o = kernel::evaluate(in);

  ThroughputPrediction p;
  p.fclock_hz = fclock_hz;
  p.t_write_sec = o.t_write.v;   // Eq. (3)
  p.t_read_sec = o.t_read.v;     // Eq. (2)
  p.t_comm_sec = o.t_comm.v;     // Eq. (1)
  p.t_comp_sec = o.t_comp.v;     // Eq. (4)
  p.t_rc_sb_sec = o.t_rc_sb.v;   // Eq. (5)
  p.t_rc_db_sec = o.t_rc_db.v;   // Eq. (6)
  p.speedup_sb = o.speedup_sb.v; // Eq. (7)
  p.speedup_db = o.speedup_db.v;
  p.util_comp_sb = o.util_comp_sb.v;  // Eq. (8)
  p.util_comm_sb = o.util_comm_sb.v;  // Eq. (9)
  p.util_comp_db = o.util_comp_db.v;  // Eq. (10)
  p.util_comm_db = o.util_comm_db.v;  // Eq. (11)
  return p;
}

ThroughputPrediction predict(const RatInputs& inputs, double fclock_hz) {
  inputs.validate();
  if (fclock_hz <= 0.0)
    throw std::invalid_argument("predict: non-positive clock");
  return predict_unchecked(inputs, fclock_hz);
}

std::vector<ThroughputPrediction> predict_all(const RatInputs& inputs) {
  // validate() guarantees every candidate clock is positive, so the
  // per-clock loop stays on the unchecked path instead of re-validating
  // the worksheet once per clock.
  inputs.validate();
  std::vector<ThroughputPrediction> out;
  out.reserve(inputs.comp.fclock_hz.size());
  for (double f : inputs.comp.fclock_hz)
    out.push_back(predict_unchecked(inputs, f));
  return out;
}

}  // namespace rat::core
