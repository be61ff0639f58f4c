#include "io/batch.hpp"

#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "store/codec.hpp"
#include "util/format.hpp"
#include "util/parallel_for.hpp"
#include "util/table.hpp"

namespace rat::io {

namespace {

/// Append @p key (a literal carrying its own punctuation, such as
/// ",\"alpha_read\":") and then @p x in json_number's spelling.
void append_number(std::string& out, const char* key, double x) {
  out += key;
  util::append_round_trip(out, x);
}

void append_count(std::string& out, const char* key, std::size_t n) {
  out += key;
  out += std::to_string(n);
}

}  // namespace

void append_inputs_json(std::string& out, const core::RatInputs& in) {
  out += "{\"name\":";
  append_json_str(out, in.name);
  append_count(out, ",\"elements_in\":", in.dataset.elements_in);
  append_count(out, ",\"elements_out\":", in.dataset.elements_out);
  append_number(out, ",\"bytes_per_element\":", in.dataset.bytes_per_element);
  append_number(out, ",\"ideal_bw_bytes_per_sec\":",
                in.comm.ideal_bw_bytes_per_sec);
  append_number(out, ",\"alpha_write\":", in.comm.alpha_write);
  append_number(out, ",\"alpha_read\":", in.comm.alpha_read);
  append_number(out, ",\"ops_per_element\":", in.comp.ops_per_element);
  append_number(out, ",\"throughput_ops_per_cycle\":",
                in.comp.throughput_ops_per_cycle);
  out += ",\"fclock_hz\":[";
  for (std::size_t i = 0; i < in.comp.fclock_hz.size(); ++i)
    append_number(out, i ? "," : "", in.comp.fclock_hz[i]);
  append_number(out, "],\"tsoft_sec\":", in.software.tsoft_sec);
  append_count(out, ",\"n_iterations\":", in.software.n_iterations);
  out += '}';
}

void append_prediction_json(std::string& out,
                            const core::ThroughputPrediction& p) {
  append_number(out, "{\"fclock_hz\":", p.fclock_hz);
  append_number(out, ",\"t_write_sec\":", p.t_write_sec);
  append_number(out, ",\"t_read_sec\":", p.t_read_sec);
  append_number(out, ",\"t_comm_sec\":", p.t_comm_sec);
  append_number(out, ",\"t_comp_sec\":", p.t_comp_sec);
  append_number(out, ",\"t_rc_sb_sec\":", p.t_rc_sb_sec);
  append_number(out, ",\"t_rc_db_sec\":", p.t_rc_db_sec);
  append_number(out, ",\"speedup_sb\":", p.speedup_sb);
  append_number(out, ",\"speedup_db\":", p.speedup_db);
  append_number(out, ",\"util_comp_sb\":", p.util_comp_sb);
  append_number(out, ",\"util_comm_sb\":", p.util_comm_sb);
  append_number(out, ",\"util_comp_db\":", p.util_comp_db);
  append_number(out, ",\"util_comm_db\":", p.util_comm_db);
  out += '}';
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

void append_diagnostic_json(std::string& out, const core::Diagnostic& d) {
  out += "{\"file\":";
  append_json_str(out, d.file);
  append_count(out, ",\"line\":", d.line);
  append_count(out, ",\"column\":", d.column);
  out += ",\"code\":";
  append_json_str(out, core::error_code_name(d.code));
  out += ",\"key\":";
  append_json_str(out, d.key);
  out += ",\"message\":";
  append_json_str(out, d.message);
  out += ",\"rendered\":";
  append_json_str(out, d.to_string());
  out += '}';
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
  std::string out;
  append_count(out, "{\"schema\":\"rat.batch.v1\",\"n_worksheets\":",
               result.entries.size());
  append_count(out, ",\"n_ok\":", result.n_ok);
  append_count(out, ",\"n_failed\":", result.n_failed);
  out += ",\"worksheets\":[";
  for (std::size_t i = 0; i < result.entries.size(); ++i) {
    const BatchEntry& e = result.entries[i];
    if (i) out += ',';
    out += "{\"file\":";
    append_json_str(out, e.load.path.string());
    out += e.ok() ? ",\"status\":\"ok\"" : ",\"status\":\"error\"";
    if (e.ok()) {
      out += ",\"inputs\":";
      append_inputs_json(out, *e.load.inputs);
      out += ",\"predictions\":[";
      for (std::size_t j = 0; j < e.predictions.size(); ++j) {
        if (j) out += ',';
        append_prediction_json(out, e.predictions[j]);
      }
      out += ']';
    } else {
      out += ",\"diagnostic\":";
      append_diagnostic_json(out, *e.load.diagnostic);
    }
    out += '}';
  }
  out += "]}";
  return out;
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
                 json_number(in.dataset.bytes_per_element),
                 json_number(in.comm.ideal_bw_bytes_per_sec),
                 json_number(in.comm.alpha_write),
                 json_number(in.comm.alpha_read),
                 json_number(in.comp.ops_per_element),
                 json_number(in.comp.throughput_ops_per_cycle),
                 json_number(in.software.tsoft_sec),
                 std::to_string(in.software.n_iterations),
                 json_number(p.fclock_hz), json_number(p.t_write_sec),
                 json_number(p.t_read_sec), json_number(p.t_comm_sec),
                 json_number(p.t_comp_sec), json_number(p.t_rc_sb_sec),
                 json_number(p.t_rc_db_sec), json_number(p.speedup_sb),
                 json_number(p.speedup_db), json_number(p.util_comm_sb),
                 json_number(p.util_comp_sb), json_number(p.util_comm_db),
                 json_number(p.util_comp_db), ""});
    }
  }
  return t.to_csv();
}

}  // namespace rat::io
