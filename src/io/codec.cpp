#include "io/codec.hpp"

#include "store/checksum.hpp"
#include "store/codec.hpp"
#include "store/error.hpp"

namespace rat::io {

namespace {

constexpr std::size_t kPredictionBytes = 13 * 8;
constexpr std::uint8_t kMaxStep =
    static_cast<std::uint8_t>(core::Step::kRejected);
constexpr std::uint8_t kMaxReject = static_cast<std::uint8_t>(
    core::RejectReason::kInsufficientEnergySavings);
/// Smallest encoded trace entry: step, passed, empty detail string.
constexpr std::size_t kMinTraceEntryBytes = 1 + 1 + 4;

store::StoreError corrupt(const std::string& what) {
  return store::StoreError(store::StoreErrorCode::kCorrupt, "", what);
}

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

void put_prediction(std::string& out, const core::ThroughputPrediction& p) {
  for_each_field(p, [&out](double v) { store::put_f64(out, v); });
}

core::ThroughputPrediction get_prediction(store::Cursor& cur) {
  core::ThroughputPrediction p;
  for_each_field(p, [&cur](double& v) { v = cur.f64(); });
  return p;
}

}  // namespace

std::string encode_predictions(
    const std::vector<core::ThroughputPrediction>& predictions) {
  std::string out;
  out.reserve(4 + predictions.size() * kPredictionBytes);
  store::put_u32(out, static_cast<std::uint32_t>(predictions.size()));
  for (const auto& p : predictions) put_prediction(out, p);
  return out;
}

std::vector<core::ThroughputPrediction> decode_predictions(
    std::string_view payload) {
  store::Cursor cur(payload);
  const std::uint32_t count = cur.u32();
  // Validate the declared count against the actual byte budget before
  // reserving: a garbage count from corrupt bytes must surface as
  // kCorrupt, not as an allocation failure.
  if (cur.remaining() != static_cast<std::size_t>(count) * kPredictionBytes)
    throw corrupt("prediction payload declares " + std::to_string(count) +
                  " entries but carries " + std::to_string(cur.remaining()) +
                  " byte(s)");
  std::vector<core::ThroughputPrediction> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) out.push_back(get_prediction(cur));
  cur.expect_done();
  return out;
}

std::string encode_evaluation_unindexed(const core::CandidateEvaluation& ev) {
  std::string out;
  store::put_u32(out, static_cast<std::uint32_t>(ev.trace.size()));
  for (const core::TraceEntry& e : ev.trace) {
    store::put_u8(out, static_cast<std::uint8_t>(e.step));
    store::put_u8(out, e.passed ? 1 : 0);
    store::put_string(out, e.detail);
  }
  put_prediction(out, ev.prediction);
  store::put_u8(out, ev.passed ? 1 : 0);
  store::put_u8(out, static_cast<std::uint8_t>(ev.reject));
  return out;
}

core::CandidateEvaluation decode_evaluation_unindexed(
    std::string_view payload, std::size_t index, const std::string& name) {
  store::Cursor cur(payload);
  core::CandidateEvaluation ev;
  const std::uint32_t n_trace = cur.u32();
  // Validate the declared count against the byte budget before reserving:
  // a garbage count must surface as kCorrupt, not as an allocation failure.
  if (n_trace > cur.remaining() / kMinTraceEntryBytes)
    throw corrupt("evaluation payload: declares " + std::to_string(n_trace) +
                  " trace entries but carries " +
                  std::to_string(cur.remaining()) + " byte(s)");
  ev.trace.reserve(n_trace);
  for (std::uint32_t t = 0; t < n_trace; ++t) {
    core::TraceEntry e;
    e.candidate_index = index;
    e.candidate_name = name;
    const std::uint8_t step = cur.u8();
    if (step > kMaxStep)
      throw corrupt("evaluation payload: trace step out of range");
    e.step = static_cast<core::Step>(step);
    e.passed = cur.u8() != 0;
    e.detail = cur.string();
    ev.trace.push_back(std::move(e));
  }
  ev.prediction = get_prediction(cur);
  ev.passed = cur.u8() != 0;
  const std::uint8_t reject = cur.u8();
  if (reject > kMaxReject)
    throw corrupt("evaluation payload: reject reason out of range");
  ev.reject = static_cast<core::RejectReason>(reject);
  cur.expect_done();
  return ev;
}

std::uint64_t candidate_fingerprint(const core::DesignCandidate& cand) {
  store::Fnv1a fp;
  fp.add_string("rat.candidate.v1");
  const core::RatInputs& in = cand.inputs;
  fp.add_string(in.name);
  fp.add_u64(in.dataset.elements_in);
  fp.add_u64(in.dataset.elements_out);
  fp.add_double(in.dataset.bytes_per_element);
  fp.add_double(in.comm.ideal_bw_bytes_per_sec);
  fp.add_double(in.comm.alpha_write);
  fp.add_double(in.comm.alpha_read);
  fp.add_double(in.comp.ops_per_element);
  fp.add_double(in.comp.throughput_ops_per_cycle);
  fp.add_u64(in.comp.fclock_hz.size());
  for (double f : in.comp.fclock_hz) fp.add_double(f);
  fp.add_double(in.software.tsoft_sec);
  fp.add_u64(in.software.n_iterations);
  fp.add_double(cand.decision_clock_hz);
  fp.add_u64(cand.resources.size());
  for (const core::ResourceItem& r : cand.resources) {
    fp.add_string(r.name);
    fp.add_u64(static_cast<std::uint64_t>(r.multiplier_count));
    fp.add_u64(static_cast<std::uint64_t>(r.multiplier_bits));
    fp.add_u64(static_cast<std::uint64_t>(r.buffer_bytes));
    fp.add_u64(static_cast<std::uint64_t>(r.logic_elements));
    fp.add_u64(static_cast<std::uint64_t>(r.instances));
  }
  fp.add_u64(cand.precision_reference.size());
  for (double v : cand.precision_reference) fp.add_double(v);
  // The kernel itself is opaque; its presence at least distinguishes
  // precision-tested candidates from throughput-only ones.
  fp.add_u64(cand.precision_kernel ? 1 : 0);
  return fp.value();
}

std::uint64_t requirements_fingerprint(const core::Requirements& req,
                                       const rcsim::Device& device) {
  store::Fnv1a fp;
  fp.add_string("rat.requirements.v1");
  fp.add_double(req.min_speedup);
  fp.add_u64(req.double_buffered ? 1 : 0);
  fp.add_u64(req.precision ? 1 : 0);
  if (req.precision) {
    fp.add_double(req.precision->max_error_percent);
    fp.add_u64(static_cast<std::uint64_t>(req.precision->min_total_bits));
    fp.add_u64(static_cast<std::uint64_t>(req.precision->max_total_bits));
    fp.add_u64(static_cast<std::uint64_t>(req.precision->int_bits));
  }
  fp.add_double(req.practical_fill_limit);
  fp.add_u64(req.min_energy_ratio ? 1 : 0);
  if (req.min_energy_ratio) fp.add_double(*req.min_energy_ratio);
  fp.add_double(req.power_model.static_watts);
  fp.add_double(req.power_model.watts_per_dsp_100mhz);
  fp.add_double(req.power_model.watts_per_bram_100mhz);
  fp.add_double(req.power_model.watts_per_klogic_100mhz);
  fp.add_double(req.power_model.io_watts);
  fp.add_double(req.host_power_model.busy_watts);
  fp.add_double(req.host_power_model.idle_watts);
  fp.add_string(device.name);
  fp.add_u64(static_cast<std::uint64_t>(device.family));
  fp.add_u64(static_cast<std::uint64_t>(device.inventory.dsp));
  fp.add_u64(static_cast<std::uint64_t>(device.inventory.bram));
  fp.add_u64(static_cast<std::uint64_t>(device.inventory.logic));
  return fp.value();
}

}  // namespace rat::io
