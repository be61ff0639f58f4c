// Golden files of outcome lines (tests/fixtures/golden/*.jsonl), shared
// by the seeded corpus suites.
//
// A golden changes only through a printed diff: on a mismatch the check
// prints each changed line (the first 20 at most) and writes the full
// actual text to golden_actual/<golden's file name> in the test's
// working directory; copying that file over the golden accepts the
// change.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

namespace rat::golden {

inline std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f) << "cannot read " << path;
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

inline std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

/// Fails the test, with the diff and the actual file, unless @p actual
/// is byte for byte the file at @p golden_path.
inline void expect_matches_golden(const std::string& actual,
                                  const std::filesystem::path& golden_path) {
  const std::string golden = read_bytes(golden_path);
  if (actual == golden) return;

  const std::filesystem::path out_dir =
      std::filesystem::absolute("golden_actual");
  std::filesystem::create_directories(out_dir);
  const std::filesystem::path out = out_dir / golden_path.filename();
  std::ofstream(out, std::ios::binary) << actual;
  const std::vector<std::string> want = split_lines(golden);
  const std::vector<std::string> got = split_lines(actual);
  std::size_t changed = 0;
  std::ostringstream diff;
  for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string w = i < want.size() ? want[i] : "(none)";
    const std::string g = i < got.size() ? got[i] : "(none)";
    if (w != g && changed++ < 20)
      diff << "line " << i + 1 << ":\n- " << w << "\n+ " << g << '\n';
  }
  ADD_FAILURE() << changed << " outcome line(s) differ from " << golden_path
                << " (the first 20 at most below). Actual outcomes: " << out
                << "; copy that file over the golden to accept.\n"
                << diff.str();
}

}  // namespace rat::golden
