// Batch evaluation of worksheet files.
//
// Evaluates many worksheet files through the shared thread pool
// (util::parallel_map) with partial-failure semantics: a malformed file
// produces a per-file Diagnostic while every other file is still
// evaluated — one bad worksheet never kills the batch. Results are
// emitted machine-readably (JSON with the full input set and every
// Eq. 1-11 output for both buffering modes, or flat CSV) so the batch
// pipeline can be scripted; the rat_batch app adds the human tables.
//
// A batch keeps no state of its own: its output is a pure function of
// the worksheet files, so a crashed batch recovers by running again and
// produces byte-identical output.
#pragma once

#include <cstddef>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/throughput.hpp"
#include "io/loader.hpp"

namespace rat::io {

/// One file's load outcome: exactly one of inputs / diagnostic is set.
struct LoadResult {
  std::filesystem::path path;
  std::optional<core::RatInputs> inputs;
  std::optional<core::Diagnostic> diagnostic;

  bool ok() const { return inputs.has_value(); }
};

/// One worksheet file's batch outcome: the load result plus, on success,
/// the per-clock predictions (exactly core::predict_all on the inputs).
struct BatchEntry {
  LoadResult load;
  std::vector<core::ThroughputPrediction> predictions;

  bool ok() const { return load.ok(); }
};

struct BatchResult {
  /// Entries in the order the files were given (sorted for directories).
  std::vector<BatchEntry> entries;
  std::size_t n_ok = 0;
  std::size_t n_failed = 0;

  bool all_ok() const { return n_failed == 0; }
};

/// Evaluate each file (load_worksheet + predict_all), in parallel across
/// @p n_threads pool threads (0 = auto: RAT_THREADS / hardware). Never
/// throws for a bad file: an unreadable one gets an E_IO diagnostic, a
/// malformed one its grammar or E_INVALID_VALUE diagnostic, and any
/// other failure E_INTERNAL (BatchEntry::load.diagnostic).
BatchResult run_batch(const std::vector<std::filesystem::path>& files,
                      std::size_t n_threads = 0);

/// run_batch over list_worksheets(@p dir). Throws core::ParseError (E_IO)
/// only when the directory itself is missing or unreadable.
BatchResult run_batch_dir(const std::filesystem::path& dir,
                          std::size_t n_threads = 0);

/// Machine-readable emitters (schema documented in
/// docs/WORKSHEET_FORMAT.md). JSON carries inputs + predictions +
/// diagnostics; CSV is one row per (file, clock), with failed files as a
/// single row whose `error` column holds the rendered diagnostic.
std::string batch_json(const BatchResult& result);
std::string batch_csv(const BatchResult& result);

/// The shared JSON fragment renderers behind batch_json, public so the
/// prediction service emits byte-identical inputs / prediction /
/// diagnostic payloads. Each appends one object to @p out; its numbers
/// are io::json_number's spelling (the first of "%.15g", "%.16g" and
/// "%.17g" that parses back to the same double).
void append_inputs_json(std::string& out, const core::RatInputs& inputs);
void append_prediction_json(std::string& out,
                            const core::ThroughputPrediction& prediction);
void append_diagnostic_json(std::string& out, const core::Diagnostic& d);

/// rat.store.v1 predictions payload: u32 count, then each prediction in
/// the core::put_prediction layout. Exact IEEE-754 round-trip — the
/// basis for byte-identical cache warm-start (svc/persist.hpp). decode
/// throws store::StoreError(kCorrupt) on malformed payloads.
std::string encode_predictions(
    const std::vector<core::ThroughputPrediction>& predictions);
std::vector<core::ThroughputPrediction> decode_predictions(
    std::string_view payload);

}  // namespace rat::io
