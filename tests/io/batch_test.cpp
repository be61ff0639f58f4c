// Batch evaluation runner: partial-failure semantics, exact agreement
// with predict_all, thread-count invariance, and the JSON/CSV emitters.
#include "io/batch.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/throughput.hpp"

namespace rat::io {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
}

/// The acceptance fixture: the three case studies plus one deliberately
/// malformed worksheet (bad clock token on line 2).
fs::path mixed_fixture(const std::string& name) {
  const fs::path dir = fresh_dir(name);
  write_file(dir / "pdf1d.rat", core::pdf1d_inputs().serialize());
  write_file(dir / "pdf2d.rat", core::pdf2d_inputs().serialize());
  write_file(dir / "md.rat", core::md_inputs().serialize());
  write_file(dir / "broken.rat", "name = broken\nfclock_hz = 75e6 oops\n");
  return dir;
}

void expect_same_predictions(const std::vector<core::ThroughputPrediction>& a,
                             const std::vector<core::ThroughputPrediction>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit-exact: the loaded worksheet round-trips exactly and the batch
    // runner calls the very same predict_all.
    EXPECT_EQ(a[i].fclock_hz, b[i].fclock_hz);
    EXPECT_EQ(a[i].t_write_sec, b[i].t_write_sec);
    EXPECT_EQ(a[i].t_read_sec, b[i].t_read_sec);
    EXPECT_EQ(a[i].t_comm_sec, b[i].t_comm_sec);
    EXPECT_EQ(a[i].t_comp_sec, b[i].t_comp_sec);
    EXPECT_EQ(a[i].t_rc_sb_sec, b[i].t_rc_sb_sec);
    EXPECT_EQ(a[i].t_rc_db_sec, b[i].t_rc_db_sec);
    EXPECT_EQ(a[i].speedup_sb, b[i].speedup_sb);
    EXPECT_EQ(a[i].speedup_db, b[i].speedup_db);
    EXPECT_EQ(a[i].util_comp_sb, b[i].util_comp_sb);
    EXPECT_EQ(a[i].util_comm_sb, b[i].util_comm_sb);
    EXPECT_EQ(a[i].util_comp_db, b[i].util_comp_db);
    EXPECT_EQ(a[i].util_comm_db, b[i].util_comm_db);
  }
}

TEST(Batch, EvaluatesGoodFilesAndDiagnosesTheBadOne) {
  const fs::path dir = mixed_fixture("batch_mixed");
  const BatchResult r = run_batch_dir(dir);
  ASSERT_EQ(r.entries.size(), 4u);
  EXPECT_EQ(r.n_ok, 3u);
  EXPECT_EQ(r.n_failed, 1u);
  EXPECT_FALSE(r.all_ok());

  // Sorted order: broken, md, pdf1d, pdf2d.
  const BatchEntry& broken = r.entries[0];
  ASSERT_FALSE(broken.ok());
  const core::Diagnostic& d = *broken.load.diagnostic;
  EXPECT_EQ(d.file, (dir / "broken.rat").string());
  EXPECT_EQ(d.line, 2u);
  EXPECT_EQ(d.column, 18u);  // the token "oops"
  EXPECT_EQ(d.code, core::ParseErrorCode::kBadList);
  EXPECT_EQ(d.key, "fclock_hz");
  EXPECT_TRUE(broken.predictions.empty());

  // The three good files match predict_all exactly.
  expect_same_predictions(r.entries[1].predictions,
                          core::predict_all(core::md_inputs()));
  expect_same_predictions(r.entries[2].predictions,
                          core::predict_all(core::pdf1d_inputs()));
  expect_same_predictions(r.entries[3].predictions,
                          core::predict_all(core::pdf2d_inputs()));
}

TEST(Batch, ResultIsThreadCountInvariant) {
  const fs::path dir = mixed_fixture("batch_threads");
  const std::string serial = batch_json(run_batch_dir(dir, 1));
  const std::string parallel = batch_json(run_batch_dir(dir, 4));
  EXPECT_EQ(serial, parallel);
}

TEST(Batch, JsonCarriesInputsPredictionsAndDiagnostics) {
  const fs::path dir = mixed_fixture("batch_json");
  const std::string json = batch_json(run_batch_dir(dir));
  EXPECT_NE(json.find("\"schema\":\"rat.batch.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"n_ok\":3"), std::string::npos);
  EXPECT_NE(json.find("\"n_failed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"code\":\"E_BAD_LIST\""), std::string::npos);
  EXPECT_NE(json.find("\"key\":\"fclock_hz\""), std::string::npos);
  EXPECT_NE(json.find("\"elements_in\":512"), std::string::npos);
  EXPECT_NE(json.find("\"speedup_sb\":"), std::string::npos);
  EXPECT_NE(json.find("\"line\":2"), std::string::npos);
  EXPECT_NE(json.find("\"column\":18"), std::string::npos);
}

TEST(Batch, JsonEscapesWorksheetNames) {
  const fs::path dir = fresh_dir("batch_escape");
  core::RatInputs in = core::pdf1d_inputs();
  in.name = "quote \" and \\ backslash";
  write_file(dir / "esc.rat", in.serialize());
  const std::string json = batch_json(run_batch_dir(dir));
  EXPECT_NE(json.find("quote \\\" and \\\\ backslash"), std::string::npos);
}

TEST(Batch, CsvHasOneRowPerClockPlusErrorRows) {
  const fs::path dir = mixed_fixture("batch_csv");
  const std::string csv = batch_csv(run_batch_dir(dir));
  std::size_t lines = 0;
  for (char ch : csv) lines += ch == '\n';
  // Header + 3 worksheets x 3 clocks + 1 error row.
  EXPECT_EQ(lines, 1u + 9u + 1u);
  EXPECT_NE(csv.find("broken.rat,error"), std::string::npos);
  EXPECT_NE(csv.find("E_BAD_LIST"), std::string::npos);
  EXPECT_NE(csv.find(",ok,"), std::string::npos);
}

TEST(Batch, CsvQuotesFieldsPerRfc4180) {
  // Worksheet names are free text, so commas and quotes can reach the
  // CSV name column; they must come back quoted/doubled, not raw.
  const fs::path dir = fresh_dir("batch_csv_rfc4180");
  core::RatInputs in = core::pdf1d_inputs();
  in.name = "pdf, \"tuned\"";
  write_file(dir / "named.rat", in.serialize());
  const std::string csv = batch_csv(run_batch_dir(dir));
  EXPECT_NE(csv.find(",\"pdf, \"\"tuned\"\"\","), std::string::npos);
  EXPECT_EQ(csv.find(",pdf, \"tuned\","), std::string::npos);
  // Every data row still has the full column count when parsed per
  // RFC 4180 (quotes honoured): count unquoted commas on the name row.
  const std::size_t row_start = csv.find("named.rat");
  ASSERT_NE(row_start, std::string::npos);
  const std::size_t row_end = csv.find('\n', row_start);
  std::size_t commas = 0;
  bool quoted = false;
  for (std::size_t i = row_start; i < row_end; ++i) {
    if (csv[i] == '"') quoted = !quoted;
    else if (csv[i] == ',' && !quoted) ++commas;
  }
  // 27 columns -> 26 separators (the row starts mid-path, after the
  // first column's unquoted text, which contains no comma).
  EXPECT_EQ(commas, 26u);
}

TEST(Batch, ExplicitFileListPreservesOrder) {
  const fs::path dir = mixed_fixture("batch_files");
  const BatchResult r =
      run_batch({dir / "pdf2d.rat", dir / "missing.rat", dir / "pdf1d.rat"});
  ASSERT_EQ(r.entries.size(), 3u);
  EXPECT_TRUE(r.entries[0].ok());
  EXPECT_EQ(r.entries[0].load.inputs->name, core::pdf2d_inputs().name);
  ASSERT_FALSE(r.entries[1].ok());
  EXPECT_EQ(r.entries[1].load.diagnostic->code,
            core::ParseErrorCode::kIoError);
  EXPECT_TRUE(r.entries[2].ok());
}

TEST(Batch, MissingDirectoryThrowsIoError) {
  EXPECT_THROW(run_batch_dir(fresh_dir("batch_gone") / "nope"),
               core::ParseError);
}

}  // namespace
}  // namespace rat::io
