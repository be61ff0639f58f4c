// Golden bytes for rat_batch's machine-readable output over the
// checked-in fixture directory: batch_json and batch_csv must stay
// byte-identical to the pinned files, which are exactly what
//
//   rat_batch --dir=tests/fixtures/worksheets --json=... --csv=...
//
// writes when run from the repository root.
#include "io/batch.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace rat::io {
namespace {

namespace fs = std::filesystem;

std::string read_bytes(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f) << "cannot read " << path;
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

/// The fixture batch, run from the repository root so every file path
/// (and every diagnostic naming one) is the relative path rat_batch
/// prints.
BatchResult fixture_batch() {
  const fs::path saved = fs::current_path();
  fs::current_path(RAT_SOURCE_DIR);
  BatchResult result = run_batch_dir("tests/fixtures/worksheets", 1);
  fs::current_path(saved);
  return result;
}

const fs::path kGolden =
    fs::path(RAT_SOURCE_DIR) / "tests" / "fixtures" / "golden";

TEST(BatchGolden, JsonMatchesPinnedBytes) {
  EXPECT_EQ(batch_json(fixture_batch()), read_bytes(kGolden / "batch.json"));
}

TEST(BatchGolden, CsvMatchesPinnedBytes) {
  EXPECT_EQ(batch_csv(fixture_batch()), read_bytes(kGolden / "batch.csv"));
}

}  // namespace
}  // namespace rat::io
