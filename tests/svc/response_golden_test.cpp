// Golden bytes for what the service writes about the checked-in
// fixtures (tests/fixtures/worksheets): the full evaluate response line
// for each case study, the diagnostic response for broken.rat, the stats
// response of a fresh service, and the canonical text of each good
// worksheet. The canonical text is the
// result-cache key and the --cache-dir key, so a formatting change that
// moves one byte there would silently turn every warm cache cold; the
// response lines are what clients parse. Each worksheet is parsed the
// way Service parses an inline request ("<request>" origin).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/throughput.hpp"
#include "io/loader.hpp"
#include "svc/fingerprint.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"

namespace rat::svc {
namespace {

const std::filesystem::path kFixtures =
    std::filesystem::path(RAT_SOURCE_DIR) / "tests" / "fixtures";

std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f) << "cannot read " << path;
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

std::string worksheet_text(const std::string& stem) {
  return read_bytes(kFixtures / "worksheets" / (stem + ".rat"));
}

std::string golden(const std::string& name) {
  return read_bytes(kFixtures / "golden" / name);
}

TEST(SvcResponseGolden, EvaluateResponsesMatchPinnedBytes) {
  for (const std::string stem : {"md", "pdf1d", "pdf2d"}) {
    const core::RatInputs inputs =
        io::parse_worksheet_text(worksheet_text(stem), "<request>");
    const std::string line = evaluate_response(
        stem, fingerprint(inputs), inputs, core::predict_all(inputs));
    EXPECT_EQ(line, golden("evaluate_" + stem + ".json")) << stem;
  }
}

TEST(SvcResponseGolden, DiagnosticResponseMatchesPinnedBytes) {
  try {
    io::parse_worksheet_text(worksheet_text("broken"), "<request>");
    FAIL() << "broken.rat parsed";
  } catch (const core::ParseError& e) {
    EXPECT_EQ(diagnostic_response("broken", e.diagnostic()),
              golden("diagnostic_broken.json"));
  }
}

TEST(SvcResponseGolden, FreshServiceStatsResponseMatchesPinnedBytes) {
  // A stats request is answered inline, on the submitting thread, and
  // counts itself among the requests.
  Service service;
  std::string line;
  service.submit("{\"id\":\"st\",\"op\":\"stats\"}",
                 [&line](std::string l) { line = std::move(l); });
  EXPECT_EQ(line, golden("stats_default.json"));
}

TEST(SvcResponseGolden, CanonicalTextMatchesPinnedBytes) {
  for (const std::string stem : {"md", "pdf1d", "pdf2d"}) {
    const core::RatInputs inputs =
        io::parse_worksheet_text(worksheet_text(stem), "<request>");
    EXPECT_EQ(canonical_text(inputs), golden("canonical_" + stem + ".txt"))
        << stem;
  }
}

}  // namespace
}  // namespace rat::svc
