// Seeded mutation corpus over the worksheet parser. About 1,000 mutants
// of the four fixture worksheets (tests/fixtures/worksheets) go through
// io::parse_worksheet_text(text, "<request>"), the path every inline
// service request takes. Each outcome is one JSON line: the diagnostic
// (Diagnostic::to_string(), its key, line and column) of a rejection, or
// the fingerprint of an accepted worksheet. The lines are compared with
// tests/fixtures/golden/worksheet_corpus.jsonl, so a parser rewrite must
// keep every diagnostic byte and every accepted value.
//
// The golden changes only through a printed diff (tests/golden_lines.hpp):
// on a mismatch the test prints each changed case and writes the full
// actual outcomes to golden_actual/worksheet_corpus.jsonl in the test's
// working directory; copying that file over the golden accepts the change.
//
// Every rejection must also name one of the parser's E_* codes and point
// inside the text: a line within its line count and a column at most
// that line's length + 1, or line and column 0 for the whole-worksheet
// failures (a missing name, a validate() rejection). Every accepted
// worksheet must reach a fixed point: parse, serialize(), parse again
// gives the same canonical text.
#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "golden_lines.hpp"
#include "io/json.hpp"
#include "io/loader.hpp"
#include "svc/fingerprint.hpp"
#include "util/rng.hpp"

namespace rat::io {
namespace {

namespace fs = std::filesystem;
using golden::read_bytes;

const fs::path kFixtures = fs::path(RAT_SOURCE_DIR) / "tests" / "fixtures";

constexpr std::uint64_t kSeed = 0x5eed'c0de'2026ull;
constexpr std::size_t kCases = 1000;

/// What an insertion mutator inserts: grammar bytes, number spellings
/// at the edges of the token rule, and known and unknown keys.
const std::string_view kTokens[] = {
    "=",  "\r", "\r\n", std::string_view("\0", 1), "\t", "#", "1e999",
    "nan", "inf", "-0", "+1", "name", "elements_in", "elements_out",
    "bytes_per_element", "ideal_bw_bytes_per_sec", "alpha_write",
    "alpha_read", "ops_per_element", "throughput_ops_per_cycle",
    "fclock_hz", "tsoft_sec", "n_iterations", "bogus", "Name", "fclock",
    "n_iterations_", "name ="};

/// The text's lines as the parser splits them: on '\n', with no empty
/// line after a final '\n', and one trailing '\r' stripped.
std::vector<std::string_view> lines_of(std::string_view text) {
  std::vector<std::string_view> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    lines.push_back(line);
    pos = end + 1;
  }
  return lines;
}

/// Byte offsets where each line of @p text starts.
std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i)
    if (text[i] == '\n' && i + 1 < text.size()) starts.push_back(i + 1);
  return starts;
}

/// Where an insertion lands: any byte, a line start, or a value start
/// (past a line's first '=' and the blanks after it).
std::size_t insertion_point(const std::string& text, util::Rng& rng) {
  const std::vector<std::size_t> starts = line_starts(text);
  const std::size_t line = starts[rng.uniform_index(starts.size())];
  switch (rng.uniform_index(3)) {
    case 0: return rng.uniform_index(text.size() + 1);
    case 1: return line;
    default: {
      std::size_t p = text.find('=', line);
      if (p == std::string::npos) return line;
      ++p;
      while (p < text.size() && (text[p] == ' ' || text[p] == '\t')) ++p;
      return p;
    }
  }
}

void mutate(std::string& text, util::Rng& rng) {
  switch (rng.uniform_index(7)) {
    case 0:  // flip one bit of one byte
      if (!text.empty())
        text[rng.uniform_index(text.size())] ^=
            static_cast<char>(1u << rng.uniform_index(8));
      break;
    case 1: {  // delete a span of up to 16 bytes
      const std::size_t at = rng.uniform_index(text.size() + 1);
      text.erase(at, 1 + rng.uniform_index(16));
      break;
    }
    case 2:  // truncate
      text.resize(rng.uniform_index(text.size() + 1));
      break;
    case 3: {  // duplicate one line at another line start
      const std::vector<std::size_t> starts = line_starts(text);
      const std::size_t from = rng.uniform_index(starts.size());
      const std::size_t end = from + 1 < starts.size() ? starts[from + 1]
                                                       : text.size();
      std::string copy = text.substr(starts[from], end - starts[from]);
      if (copy.empty() || copy.back() != '\n') copy += '\n';
      text.insert(starts[rng.uniform_index(starts.size())], copy);
      break;
    }
    case 4: {  // replace a value with a token
      const std::size_t at = insertion_point(text, rng);
      std::size_t end = text.find('\n', at);
      if (end == std::string::npos) end = text.size();
      text.replace(at, end - at,
                   kTokens[rng.uniform_index(std::size(kTokens))]);
      break;
    }
    default: {  // insert a token
      const std::size_t at = insertion_point(text, rng);
      text.insert(at, kTokens[rng.uniform_index(std::size(kTokens))]);
      break;
    }
  }
}

/// The corpus: each fixture as written, then seeded mutants of them
/// (one to three mutations each).
std::vector<std::string> corpus() {
  std::vector<std::string> bases;
  for (const char* stem : {"broken", "md", "pdf1d", "pdf2d"})
    bases.push_back(
        read_bytes(kFixtures / "worksheets" / (std::string(stem) + ".rat")));
  std::vector<std::string> cases = bases;
  util::Rng rng(kSeed);
  while (cases.size() < kCases) {
    std::string text = bases[rng.uniform_index(bases.size())];
    const std::size_t n = 1 + rng.uniform_index(3);
    for (std::size_t i = 0; i < n; ++i) mutate(text, rng);
    cases.push_back(std::move(text));
  }
  return cases;
}

bool is_parser_code(core::ParseErrorCode code) {
  using C = core::ParseErrorCode;
  switch (code) {
    case C::kMissingEquals: case C::kUnknownKey: case C::kDuplicateKey:
    case C::kBadNumber: case C::kBadCount: case C::kBadList:
    case C::kMissingName: case C::kInvalidValue:
      return true;
    case C::kIoError: case C::kInternalError:
      return false;
  }
  return false;
}

/// Checks the rejection invariants of case @p index; returns its
/// outcome line.
std::string rejection_line(std::size_t index, const std::string& text,
                           const core::Diagnostic& d) {
  using C = core::ParseErrorCode;
  const std::string where = "case " + std::to_string(index) + ": " +
                            d.to_string();
  EXPECT_TRUE(is_parser_code(d.code)) << where;
  EXPECT_EQ(d.file, "<request>") << where;
  const std::vector<std::string_view> lines = lines_of(text);
  if (d.line == 0) {
    EXPECT_EQ(d.column, 0u) << where;
    EXPECT_TRUE(d.code == C::kMissingName || d.code == C::kInvalidValue)
        << where;
  } else {
    EXPECT_LE(d.line, lines.size()) << where;
    EXPECT_GE(d.column, 1u) << where;
    if (d.line <= lines.size()) {
      EXPECT_LE(d.column, lines[d.line - 1].size() + 1) << where;
    }
  }
  std::ostringstream os;
  os << "{\"case\":" << index << ",\"line\":" << d.line
     << ",\"column\":" << d.column << ",\"key\":" << json_str(d.key)
     << ",\"diagnostic\":" << json_str(d.to_string()) << '}';
  return os.str();
}

/// parse -> serialize() -> parse gives @p in's canonical text again.
void expect_fixed_point(const core::RatInputs& in, const std::string& where) {
  const core::RatInputs again = core::RatInputs::parse(in.serialize());
  EXPECT_EQ(svc::canonical_text(again), svc::canonical_text(in)) << where;
}

std::string outcome_line(std::size_t index, const std::string& text) {
  try {
    const core::RatInputs in = parse_worksheet_text(text, "<request>");
    expect_fixed_point(in, "case " + std::to_string(index));
    return "{\"case\":" + std::to_string(index) + ",\"fingerprint\":\"" +
           svc::fingerprint_hex(svc::fingerprint(in)) + "\"}";
  } catch (const core::ParseError& e) {
    return rejection_line(index, text, e.diagnostic());
  }
}

TEST(WorksheetCorpus, OutcomesMatchTheGoldenAndStayInsideTheText) {
  const std::vector<std::string> cases = corpus();
  ASSERT_EQ(cases.size(), kCases);
  std::string actual;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::string line = outcome_line(i, cases[i]);
    if (line.find("\"fingerprint\"") != std::string::npos) ++accepted;
    actual += line;
    actual += '\n';
  }
  // The corpus reaches both outcomes, not only rejections.
  EXPECT_GE(accepted, 25u);
  EXPECT_GE(cases.size() - accepted, 500u);

  golden::expect_matches_golden(
      actual, kFixtures / "golden" / "worksheet_corpus.jsonl");
}

// CR is a blank, so no value ends in one. Were it not, `x\r\r\n` would
// parse to "x\r", which serialize() writes as `x\r\n`, which parses as "x".
TEST(WorksheetCorpus, CarriageReturnsAroundAValueReachAFixedPoint) {
  const std::string pdf1d = read_bytes(kFixtures / "worksheets" / "pdf1d.rat");
  const std::string name_line = "name = 1-D PDF estimation\n";
  for (const char* line : {"name = x\r\r\n", "name = x\r \r\n"}) {
    std::string text = pdf1d;
    text.replace(text.find(name_line), name_line.size(), line);
    const core::RatInputs in = parse_worksheet_text(text, "<request>");
    EXPECT_EQ(in.name, "x");
    expect_fixed_point(in, text);
  }
}

}  // namespace
}  // namespace rat::io
