// rat_batch — batch RAT evaluation over a set of worksheet files.
//
// Evaluates every worksheet in a directory (and/or files given as
// positional arguments) through the shared thread pool, with
// partial-failure semantics: a malformed worksheet produces one
// file:line:column diagnostic on stderr while every other worksheet is
// still evaluated and reported. Emits machine-readable JSON/CSV of the
// inputs and every Eq. 1-11 prediction (both buffering modes) alongside
// the paper-style printed tables.
//
// The output depends only on the worksheet files, and evaluating one
// takes microseconds, so a batch keeps no state: a crashed run recovers
// by running again, with byte-identical output.
//
// Usage:
//   rat_batch --dir=<worksheet dir> [files.rat ...]
//             [--out=<dir>]          write <dir>/batch.json + batch.csv
//             [--json=<path>] [--csv=<path>]
//             [--threads=N]          0 = auto (RAT_THREADS override)
//             [--mode=sb|db]         printed tables' buffering mode
//             [--quiet]              summary + diagnostics only
//             [--metrics=<path>]     collect observability metrics and
//                                    write a rat.metrics.v1 JSON document
//                                    (RAT_METRICS env var is an implicit
//                                    --metrics); summary table on stderr
//
// Exit codes (documented in docs/WORKSHEET_FORMAT.md):
//   0  every worksheet evaluated
//   1  fatal: bad flags, missing or unreadable directory, no worksheets
//      found, or an output file that cannot be written
//   2  partial failure: at least one worksheet had a diagnostic
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/units.hpp"
#include "core/worksheet.hpp"
#include "io/batch.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/parallel_for.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s --dir=<worksheet dir> [files.rat ...] "
               "[--out=<dir>] [--json=<path>] [--csv=<path>] "
               "[--threads=N] [--mode=sb|db] [--quiet] "
               "[--metrics=<path>]\n",
               program);
  return 1;
}

bool write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "rat_batch: cannot write %s\n",
                 path.string().c_str());
    return false;
  }
  f << text;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rat;
  const util::Cli cli(argc, argv);

  std::string mode_flag;
  std::size_t n_threads = 0;
  std::string metrics_path;
  // Read with the other flags, so a bare one is a usage error before
  // any work.
  std::optional<std::string> dir, out, json, csv;
  try {
    cli.require_known({"dir", "out", "json", "csv", "threads", "mode",
                       "quiet", "metrics", "help"});
    if (cli.has("help")) return usage(argv[0]);
    mode_flag = cli.get_or("mode", "sb");
    if (mode_flag != "sb" && mode_flag != "db")
      throw std::invalid_argument("--mode must be sb or db");
    n_threads = cli.get_size_t("threads", 0, 0, 4096);
    dir = cli.get("dir");
    out = cli.get("out");
    json = cli.get("json");
    csv = cli.get("csv");
    // Observability: --metrics=<path> (RAT_METRICS as the env fallback)
    // turns collection on before any evaluation runs.
    metrics_path = obs::enable_export(cli.get("metrics"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rat_batch: %s\n", e.what());
    return usage(argv[0]);
  }
  const auto mode = mode_flag == "sb" ? core::WorksheetMode::kSingleBuffered
                                      : core::WorksheetMode::kDoubleBuffered;
  if (!metrics_path.empty())
    obs::Registry::global().set_gauge(
        "batch.threads",
        static_cast<double>(util::resolve_thread_count(n_threads)));

  // Collect the work list: every *.rat in --dir, plus positional files.
  std::vector<std::filesystem::path> files;
  if (dir) {
    try {
      files = io::list_worksheets(*dir);
    } catch (const core::ParseError& e) {
      std::fprintf(stderr, "rat_batch: %s\n", e.what());
      return 1;
    }
  }
  for (const std::string& p : cli.positional()) files.emplace_back(p);
  if (files.empty()) {
    std::fprintf(stderr, "rat_batch: no worksheet files (*%s) to evaluate\n",
                 io::kWorksheetExtension);
    return usage(argv[0]);
  }

  const io::BatchResult result = io::run_batch(files, n_threads);

  // Per-file summary table on stdout, one diagnostic per line on stderr.
  util::Table summary({"file", "status", "name", "clocks",
                       mode_flag == "sb" ? "best speedup (SB)"
                                         : "best speedup (DB)"});
  for (const io::BatchEntry& e : result.entries) {
    if (!e.ok()) {
      summary.add_row({e.load.path.filename().string(), "ERROR", "", "", ""});
      continue;
    }
    double best = 0.0;
    for (const auto& p : e.predictions)
      best = std::max(best, mode == core::WorksheetMode::kSingleBuffered
                                ? p.speedup_sb
                                : p.speedup_db);
    summary.add_row({e.load.path.filename().string(), "ok",
                     e.load.inputs->name,
                     std::to_string(e.predictions.size()),
                     util::fixed(best, 1)});
  }
  std::printf("%s", summary.to_ascii().c_str());
  std::printf("%zu worksheet(s): %zu ok, %zu failed\n",
              result.entries.size(), result.n_ok, result.n_failed);

  for (const io::BatchEntry& e : result.entries)
    if (!e.ok())
      std::fprintf(stderr, "%s\n", e.load.diagnostic->to_string().c_str());

  if (!cli.has("quiet")) {
    for (const io::BatchEntry& e : result.entries) {
      if (!e.ok()) continue;
      std::printf("\nRAT worksheet: %s (%s)\n",
                  e.load.inputs->name.c_str(),
                  e.load.path.string().c_str());
      std::printf("%s",
                  core::performance_table(e.predictions, {}, mode)
                      .to_ascii()
                      .c_str());
    }
  }

  bool write_failed = false;
  if (out) {
    const std::filesystem::path out_dir = *out;
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    write_failed |= !write_file(out_dir / "batch.json", batch_json(result));
    write_failed |= !write_file(out_dir / "batch.csv", batch_csv(result));
  }
  if (json) write_failed |= !write_file(*json, batch_json(result));
  if (csv) write_failed |= !write_file(*csv, batch_csv(result));

  if (!metrics_path.empty()) {
    // Quiesce the pool first: a worker's trailing counters land after the
    // parallel region's completion signal, so exporting immediately could
    // miss them on a busy machine.
    if (util::ThreadPool* pool = util::ThreadPool::shared_if_created())
      pool->wait_idle();
    write_failed |= !io::write_metrics_file(metrics_path);
    // Summary on stderr: stdout stays reserved for the batch tables.
    std::fprintf(stderr, "metrics (%s):\n%s", metrics_path.c_str(),
                 obs::summary_table().c_str());
  }

  if (write_failed) return 1;
  return result.all_ok() ? 0 : 2;
}
