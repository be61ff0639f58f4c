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
  // The batch column loop calls the same kernel, which is what makes
  // predict() and predict_batch() bit-identical by construction.
  return kernel::evaluate(
      {static_cast<double>(inputs.dataset.elements_in),
       static_cast<double>(inputs.dataset.elements_out),
       inputs.dataset.bytes_per_element, inputs.comm.ideal_bw_bytes_per_sec,
       inputs.comm.alpha_write, inputs.comm.alpha_read,
       inputs.comp.ops_per_element, inputs.comp.throughput_ops_per_cycle,
       static_cast<double>(inputs.software.n_iterations),
       inputs.software.tsoft_sec, fclock_hz});
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
