// Worksheet file/directory loading: success round-trips, and every
// failure mode mapped to a structured Diagnostic with file:line:column.
#include "io/loader.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "core/throughput.hpp"
#include "io/batch.hpp"

namespace rat::io {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

fs::path write_file(const fs::path& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  return path;
}

TEST(LoadWorksheet, RoundTripsTheCaseStudies) {
  const fs::path dir = fresh_dir("load_roundtrip");
  for (const core::RatInputs& original :
       {core::pdf1d_inputs(), core::pdf2d_inputs(), core::md_inputs()}) {
    const fs::path p = write_file(dir / "case.rat", original.serialize());
    const core::RatInputs loaded = load_worksheet(p);
    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.serialize(), original.serialize());
  }
}

TEST(LoadWorksheet, MissingFileIsIoDiagnostic) {
  const fs::path p = fresh_dir("load_missing") / "nope.rat";
  try {
    load_worksheet(p);
    FAIL() << "expected ParseError";
  } catch (const core::ParseError& e) {
    EXPECT_EQ(e.diagnostic().code, core::ParseErrorCode::kIoError);
    EXPECT_EQ(e.diagnostic().file, p.string());
    EXPECT_NE(std::string(e.what()).find(p.string()), std::string::npos);
  }
}

TEST(LoadWorksheet, ReportsFileLineAndColumn) {
  const fs::path p = write_file(fresh_dir("load_badnum") / "bad.rat",
                                "name = x\nalpha_write = 0.5x\n");
  try {
    load_worksheet(p);
    FAIL() << "expected ParseError";
  } catch (const core::ParseError& e) {
    const core::Diagnostic& d = e.diagnostic();
    EXPECT_EQ(d.file, p.string());
    EXPECT_EQ(d.line, 2u);
    EXPECT_EQ(d.column, 15u);  // the value "0.5x" starts at column 15
    EXPECT_EQ(d.code, core::ParseErrorCode::kBadNumber);
    EXPECT_EQ(d.key, "alpha_write");
    EXPECT_NE(d.to_string().find(p.string() + ":2:15"), std::string::npos);
    EXPECT_NE(d.to_string().find("alpha_write"), std::string::npos);
  }
}

TEST(LoadWorksheet, ValidateFailureKeepsFileContext) {
  // Parses cleanly, but alpha_write is outside (0,1].
  core::RatInputs in = core::pdf1d_inputs();
  in.comm.alpha_write = 2.0;
  const fs::path p =
      write_file(fresh_dir("load_invalid") / "bad.rat", in.serialize());
  try {
    load_worksheet(p);
    FAIL() << "expected ParseError";
  } catch (const core::ParseError& e) {
    EXPECT_EQ(e.diagnostic().code, core::ParseErrorCode::kInvalidValue);
    EXPECT_EQ(e.diagnostic().file, p.string());
    EXPECT_NE(e.diagnostic().message.find("alpha_write"), std::string::npos);
  }
}

TEST(WorksheetDir, LoadsSortedAndIgnoresOtherExtensions) {
  const fs::path dir = fresh_dir("dir_sorted");
  write_file(dir / "b.rat", core::pdf2d_inputs().serialize());
  write_file(dir / "a.rat", core::pdf1d_inputs().serialize());
  write_file(dir / "notes.txt", "not a worksheet");
  fs::create_directories(dir / "nested.rat");  // not a regular file
  const std::vector<fs::path> files = list_worksheets(dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].filename(), "a.rat");
  EXPECT_EQ(files[1].filename(), "b.rat");
  EXPECT_EQ(load_worksheet(files[0]).name, core::pdf1d_inputs().name);
  EXPECT_EQ(load_worksheet(files[1]).name, core::pdf2d_inputs().name);
}

TEST(WorksheetDir, OneBadFileDoesNotKillTheBatch) {
  const fs::path dir = fresh_dir("dir_partial");
  write_file(dir / "good.rat", core::md_inputs().serialize());
  write_file(dir / "broken.rat", "name = broken\nelements_in = nope\n");
  const BatchResult r = run_batch_dir(dir);
  ASSERT_EQ(r.entries.size(), 2u);
  EXPECT_FALSE(r.entries[0].ok());  // broken.rat sorts first
  EXPECT_TRUE(r.entries[1].ok());
  ASSERT_TRUE(r.entries[0].load.diagnostic.has_value());
  EXPECT_EQ(r.entries[0].load.diagnostic->line, 2u);
  EXPECT_EQ(r.entries[0].load.diagnostic->key, "elements_in");
}

TEST(WorksheetDir, MissingDirectoryThrows) {
  const fs::path dir = fresh_dir("dir_gone") / "nope";
  try {
    (void)list_worksheets(dir);
    FAIL() << "a missing directory must throw";
  } catch (const core::ParseError& e) {
    EXPECT_EQ(e.diagnostic().code, core::ParseErrorCode::kIoError);
    EXPECT_EQ(e.diagnostic().file, dir.string());
  }
}

TEST(WorksheetDir, EmptyDirectoryYieldsNoResults) {
  EXPECT_TRUE(list_worksheets(fresh_dir("dir_empty")).empty());
}

}  // namespace
}  // namespace rat::io
