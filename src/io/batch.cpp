#include "io/batch.hpp"

#include <sstream>

#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "store/codec.hpp"
#include "util/parallel_for.hpp"
#include "util/table.hpp"

namespace rat::io {

namespace {

/// Shortest decimal string that round-trips the double (io/json.hpp).
std::string num(double x) { return json_number(x); }

}  // namespace

void append_inputs_json(std::ostream& os, const core::RatInputs& in) {
  os << "{\"name\":" << json_str(in.name)
     << ",\"elements_in\":" << in.dataset.elements_in
     << ",\"elements_out\":" << in.dataset.elements_out
     << ",\"bytes_per_element\":" << num(in.dataset.bytes_per_element)
     << ",\"ideal_bw_bytes_per_sec\":" << num(in.comm.ideal_bw_bytes_per_sec)
     << ",\"alpha_write\":" << num(in.comm.alpha_write)
     << ",\"alpha_read\":" << num(in.comm.alpha_read)
     << ",\"ops_per_element\":" << num(in.comp.ops_per_element)
     << ",\"throughput_ops_per_cycle\":"
     << num(in.comp.throughput_ops_per_cycle) << ",\"fclock_hz\":[";
  for (std::size_t i = 0; i < in.comp.fclock_hz.size(); ++i) {
    if (i) os << ',';
    os << num(in.comp.fclock_hz[i]);
  }
  os << "],\"tsoft_sec\":" << num(in.software.tsoft_sec)
     << ",\"n_iterations\":" << in.software.n_iterations << '}';
}

void append_prediction_json(std::ostream& os,
                            const core::ThroughputPrediction& p) {
  os << "{\"fclock_hz\":" << num(p.fclock_hz)
     << ",\"t_write_sec\":" << num(p.t_write_sec)
     << ",\"t_read_sec\":" << num(p.t_read_sec)
     << ",\"t_comm_sec\":" << num(p.t_comm_sec)
     << ",\"t_comp_sec\":" << num(p.t_comp_sec)
     << ",\"t_rc_sb_sec\":" << num(p.t_rc_sb_sec)
     << ",\"t_rc_db_sec\":" << num(p.t_rc_db_sec)
     << ",\"speedup_sb\":" << num(p.speedup_sb)
     << ",\"speedup_db\":" << num(p.speedup_db)
     << ",\"util_comp_sb\":" << num(p.util_comp_sb)
     << ",\"util_comm_sb\":" << num(p.util_comm_sb)
     << ",\"util_comp_db\":" << num(p.util_comp_db)
     << ",\"util_comm_db\":" << num(p.util_comm_db) << '}';
}

std::string encode_predictions(
    const std::vector<core::ThroughputPrediction>& predictions) {
  std::string out;
  out.reserve(4 + predictions.size() * core::kPredictionBytes);
  store::put_u32(out, static_cast<std::uint32_t>(predictions.size()));
  for (const auto& p : predictions) core::put_prediction(out, p);
  return out;
}

std::vector<core::ThroughputPrediction> decode_predictions(
    std::string_view payload) {
  store::Cursor cur(payload);
  const std::uint32_t count = cur.u32();
  // Validate the declared count against the actual byte budget before
  // reserving: a garbage count from corrupt bytes must surface as
  // kCorrupt, not as an allocation failure.
  if (cur.remaining() !=
      static_cast<std::size_t>(count) * core::kPredictionBytes)
    throw store::StoreError(
        store::StoreErrorCode::kCorrupt, "",
        "prediction payload declares " + std::to_string(count) +
            " entries but carries " + std::to_string(cur.remaining()) +
            " byte(s)");
  std::vector<core::ThroughputPrediction> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i)
    out.push_back(core::get_prediction(cur));
  cur.expect_done();
  return out;
}

void append_diagnostic_json(std::ostream& os, const core::Diagnostic& d) {
  os << "{\"file\":" << json_str(d.file) << ",\"line\":" << d.line
     << ",\"column\":" << d.column
     << ",\"code\":" << json_str(core::error_code_name(d.code))
     << ",\"key\":" << json_str(d.key)
     << ",\"message\":" << json_str(d.message)
     << ",\"rendered\":" << json_str(d.to_string()) << '}';
}

BatchResult run_batch(const std::vector<std::filesystem::path>& files,
                      std::size_t n_threads) {
  obs::ScopedTimer batch_timer("batch.run");
  BatchResult result;
  result.entries = util::parallel_map(
      files.size(),
      [&files](std::size_t i) {
        // Per-file load+evaluate span; detail carries the worksheet path
        // so the exported timeline names every file.
        obs::ScopedTimer file_timer("batch.file", files[i].string(),
                                    /*record_span=*/true);
        BatchEntry entry;
        entry.load.path = files[i];
        try {
          core::RatInputs inputs = load_worksheet(files[i]);
          entry.predictions = core::predict_all(inputs);
          entry.load.inputs = std::move(inputs);
        } catch (const core::ParseError& e) {
          entry.load.diagnostic = e.diagnostic();
        } catch (const std::exception& e) {
          entry.load.diagnostic =
              core::Diagnostic{files[i].string(), 0, 0,
                               core::ParseErrorCode::kInternalError, "",
                               e.what()};
        }
        return entry;
      },
      n_threads);
  for (const auto& e : result.entries)
    (e.ok() ? result.n_ok : result.n_failed) += 1;
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.add_counter("batch.files", result.entries.size());
    reg.add_counter("batch.files_ok", result.n_ok);
    reg.add_counter("batch.files_failed", result.n_failed);
  }
  return result;
}

BatchResult run_batch_dir(const std::filesystem::path& dir,
                          std::size_t n_threads) {
  return run_batch(list_worksheets(dir), n_threads);
}

std::string batch_json(const BatchResult& result) {
  std::ostringstream os;
  os << "{\"schema\":\"rat.batch.v1\",\"n_worksheets\":"
     << result.entries.size() << ",\"n_ok\":" << result.n_ok
     << ",\"n_failed\":" << result.n_failed << ",\"worksheets\":[";
  for (std::size_t i = 0; i < result.entries.size(); ++i) {
    const BatchEntry& e = result.entries[i];
    if (i) os << ',';
    os << "{\"file\":" << json_str(e.load.path.string()) << ",\"status\":\""
       << (e.ok() ? "ok" : "error") << '"';
    if (e.ok()) {
      os << ",\"inputs\":";
      append_inputs_json(os, *e.load.inputs);
      os << ",\"predictions\":[";
      for (std::size_t j = 0; j < e.predictions.size(); ++j) {
        if (j) os << ',';
        append_prediction_json(os, e.predictions[j]);
      }
      os << ']';
    } else {
      os << ",\"diagnostic\":";
      append_diagnostic_json(os, *e.load.diagnostic);
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

std::string batch_csv(const BatchResult& result) {
  util::Table t({"file", "status", "name", "elements_in", "elements_out",
                 "bytes_per_element", "ideal_bw_bytes_per_sec", "alpha_write",
                 "alpha_read", "ops_per_element", "throughput_ops_per_cycle",
                 "tsoft_sec", "n_iterations", "fclock_hz", "t_write_sec",
                 "t_read_sec", "t_comm_sec", "t_comp_sec", "t_rc_sb_sec",
                 "t_rc_db_sec", "speedup_sb", "speedup_db", "util_comm_sb",
                 "util_comp_sb", "util_comm_db", "util_comp_db", "error"});
  for (const BatchEntry& e : result.entries) {
    if (!e.ok()) {
      std::vector<std::string> row(t.num_columns());
      row[0] = e.load.path.string();
      row[1] = "error";
      row.back() = e.load.diagnostic->to_string();
      t.add_row(std::move(row));
      continue;
    }
    const core::RatInputs& in = *e.load.inputs;
    for (const core::ThroughputPrediction& p : e.predictions) {
      t.add_row({e.load.path.string(), "ok", in.name,
                 std::to_string(in.dataset.elements_in),
                 std::to_string(in.dataset.elements_out),
                 num(in.dataset.bytes_per_element),
                 num(in.comm.ideal_bw_bytes_per_sec),
                 num(in.comm.alpha_write), num(in.comm.alpha_read),
                 num(in.comp.ops_per_element),
                 num(in.comp.throughput_ops_per_cycle),
                 num(in.software.tsoft_sec),
                 std::to_string(in.software.n_iterations), num(p.fclock_hz),
                 num(p.t_write_sec), num(p.t_read_sec), num(p.t_comm_sec),
                 num(p.t_comp_sec), num(p.t_rc_sb_sec), num(p.t_rc_db_sec),
                 num(p.speedup_sb), num(p.speedup_db), num(p.util_comm_sb),
                 num(p.util_comp_sb), num(p.util_comm_db),
                 num(p.util_comp_db), ""});
    }
  }
  return t.to_csv();
}

}  // namespace rat::io
