// Seeded mutation corpus over the request parser. About 1,000 mutants
// of rat.svc.v1 request lines go through svc::parse_request, the first
// step of every line rat_serve and rat_router read. The bases are the
// evaluate lines of the three fixture worksheets, a file request, and
// ping and stats lines whose ids hold quotes, backslashes, \u escapes and
// a surrogate pair. Each outcome is one JSON line: the op, id, worksheet
// and file of an accepted request (the worksheet by its length and
// FNV-1a, as each is about 310 bytes), or the error code, id and message
// of a rejection. The lines are compared with
// tests/fixtures/golden/request_corpus.jsonl (tests/golden_lines.hpp), so
// a rewrite of the JSON reader must keep every accepted byte, every
// message and every offset.
//
// A rejection's offset must also lie inside its line, and an accepted
// request must survive the router's hop: encode_forward writes it again
// and parse_request reads back the same fields.
#include "svc/protocol.hpp"

#include <gtest/gtest.h>

#include <charconv>
#include <filesystem>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "golden_lines.hpp"
#include "io/json.hpp"
#include "svc/fingerprint.hpp"
#include "util/rng.hpp"

namespace rat::svc {
namespace {

namespace fs = std::filesystem;

const fs::path kFixtures = fs::path(RAT_SOURCE_DIR) / "tests" / "fixtures";

constexpr std::uint64_t kSeed = 0x5eed'11e5'2026ull;
constexpr std::size_t kCases = 1000;

/// Bytes a string must escape, and line breaks a reader may trip on.
const std::string_view kControls[] = {
    std::string_view("\0", 1), "\r", "\n", "\r\n", "\t", "\x01", "\x1f"};
/// What a string may hold: escapes a reader decodes, and raw bytes
/// (UTF-8, stray continuation and high bytes, DEL) it passes on.
const std::string_view kStringBytes[] = {
    "\\n", "\\/", "\\b", "\\f", "\\r", "\\t", "\\\"", "\\\\",
    "\\u0000", "\\u001f", "\\u0041", "\\u00e9", "\\u20AC", "\\uFFFF",
    "\\ud83d\\ude00", "\\uDBFF\\uDFFF", "\xc3\xa9", "\x80", "\xff", "\x7f",
    " ", "ok"};
/// Blanks a reader skips between tokens.
const std::string_view kBlanks[] = {" ", "\t", "\r\n", "\n"};
/// Escapes a reader refuses.
const std::string_view kBadEscapes[] = {"\\x", "\\'", "\\U0041", "\\",
                                        "\\0", "\\a"};
/// Surrogate escapes without their partner, or with the wrong one.
const std::string_view kSurrogates[] = {
    "\\ud800", "\\udbff", "\\udc00", "\\udfff", "\\ud800\\u0041",
    "\\ud83d\\ud83d", "\\ud800\\", "\\ud800\\n", "\\udc00\\ud800"};
/// What replaces a \u escape's hex digit.
constexpr std::string_view kNonHex = "gG/: \"}";

/// [begin, end) of each string literal in @p line, quotes included; an
/// unterminated one ends at the line's end.
std::vector<std::pair<std::size_t, std::size_t>> strings_of(
    const std::string& line) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] != '"') continue;
    const std::size_t begin = i++;
    while (i < line.size() && line[i] != '"') i += line[i] == '\\' ? 2 : 1;
    spans.emplace_back(begin, std::min(i + 1, line.size()));
  }
  return spans;
}

/// [begin, end) of each token: a string, a run of number or literal
/// characters, or one structural byte.
std::vector<std::pair<std::size_t, std::size_t>> tokens_of(
    const std::string& line) {
  auto word = [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
           (c >= 'A' && c <= 'Z') || c == '.' || c == '+' || c == '-';
  };
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  const auto strings = strings_of(line);
  auto s = strings.begin();
  for (std::size_t i = 0; i < line.size();) {
    if (s != strings.end() && s->first == i) {
      spans.push_back(*s);
      i = (s++)->second;
    } else if (word(line[i])) {
      const std::size_t begin = i;
      while (i < line.size() && word(line[i])) ++i;
      spans.emplace_back(begin, i);
    } else {
      spans.emplace_back(i, i + 1);
      ++i;
    }
  }
  return spans;
}

/// A position inside one of @p spans (each as likely as another, so the
/// short ids are hit as often as the worksheet), or anywhere in @p line
/// when there is none.
std::size_t position_in(
    const std::string& line,
    const std::vector<std::pair<std::size_t, std::size_t>>& spans,
    util::Rng& rng) {
  if (spans.empty()) return rng.uniform_index(line.size() + 1);
  const auto [begin, end] = spans[rng.uniform_index(spans.size())];
  return begin + 1 +
         rng.uniform_index(std::max<std::size_t>(end - begin - 1, 1));
}

std::size_t string_position(const std::string& line, util::Rng& rng) {
  return position_in(line, strings_of(line), rng);
}

/// The strings any text may fill: the values of "id", "worksheet" and
/// "file".
std::vector<std::pair<std::size_t, std::size_t>> free_strings_of(
    const std::string& line) {
  const auto strings = strings_of(line);
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t k = 1; k < strings.size(); ++k) {
    const auto [key_begin, key_end] = strings[k - 1];
    const std::string_view key(line.data() + key_begin, key_end - key_begin);
    if (line.find_first_not_of(" \t\r\n", key_end) + 1 == strings[k].first &&
        line[strings[k].first - 1] == ':' &&
        (key == "\"id\"" || key == "\"worksheet\"" || key == "\"file\""))
      spans.push_back(strings[k]);
  }
  return spans;
}

template <std::size_t N>
std::string_view pick(const std::string_view (&items)[N], util::Rng& rng) {
  return items[rng.uniform_index(N)];
}

/// An edit that keeps the line a valid request: bytes inside a string,
/// or blanks between tokens.
void edit(std::string& line, util::Rng& rng) {
  if (rng.uniform_index(4) != 0) {
    line.insert(position_in(line, free_strings_of(line), rng),
                pick(kStringBytes, rng));
    return;
  }
  std::vector<std::size_t> gaps;
  for (const auto& [begin, end] : tokens_of(line)) gaps.push_back(end);
  line.insert(gaps.empty() ? 0 : gaps[rng.uniform_index(gaps.size())],
              pick(kBlanks, rng));
}

/// A mutation that most often breaks the line.
void mutate(std::string& line, util::Rng& rng) {
  switch (rng.uniform_index(8)) {
    case 0:  // flip one bit of one byte
      if (!line.empty())
        line[rng.uniform_index(line.size())] ^=
            static_cast<char>(1u << rng.uniform_index(8));
      break;
    case 1:  // truncate
      line.resize(rng.uniform_index(line.size() + 1));
      break;
    case 2: {  // duplicate a token after itself or before another
      const auto tokens = tokens_of(line);
      if (tokens.empty()) break;
      const auto [begin, end] = tokens[rng.uniform_index(tokens.size())];
      std::size_t at = end;
      if (rng.uniform_index(2) != 0)
        at = tokens[rng.uniform_index(tokens.size())].first;
      line.insert(at, line.substr(begin, end - begin));
      break;
    }
    case 3: {  // insert a control byte, inside a string or anywhere
      const std::size_t at = rng.uniform_index(2) == 0
                                 ? string_position(line, rng)
                                 : rng.uniform_index(line.size() + 1);
      line.insert(at, pick(kControls, rng));
      break;
    }
    case 4: {  // break a \u escape's digits
      std::vector<std::size_t> escapes;
      for (std::size_t p = line.find("\\u"); p != std::string::npos;
           p = line.find("\\u", p + 2))
        escapes.push_back(p);
      if (escapes.empty()) {
        line.insert(string_position(line, rng), "\\u12");
        break;
      }
      const std::size_t digit =
          escapes[rng.uniform_index(escapes.size())] + 2 +
          rng.uniform_index(4);
      if (digit >= line.size()) break;
      switch (rng.uniform_index(3)) {
        case 0:
          line[digit] = kNonHex[rng.uniform_index(kNonHex.size())];
          break;
        case 1:  // a short escape
          line.erase(digit, 1 + rng.uniform_index(4));
          break;
        default:
          line.resize(digit);
          break;
      }
      break;
    }
    case 5:
      line.insert(string_position(line, rng), pick(kSurrogates, rng));
      break;
    case 6:
      line.insert(string_position(line, rng), pick(kBadEscapes, rng));
      break;
    default: {  // replace a byte inside a string with any byte
      const std::size_t at = string_position(line, rng);
      if (at < line.size())
        line[at] = static_cast<char>(rng.uniform_index(256));
      break;
    }
  }
}

std::vector<std::string> base_lines() {
  std::vector<std::string> lines;
  for (const char* stem : {"md", "pdf1d", "pdf2d"})
    lines.push_back(
        std::string("{\"schema\":\"rat.svc.v1\",\"id\":\"") + stem +
        "\",\"op\":\"evaluate\",\"worksheet\":" +
        io::json_str(golden::read_bytes(kFixtures / "worksheets" /
                                        (std::string(stem) + ".rat"))) +
        "}");
  lines.push_back(
      R"({"id":"f1","op":"evaluate",)"
      R"("file":"tests/fixtures/worksheets/pdf1d.rat",)"
      R"("deadline_ms":2.5e2,"no_cache":true})");
  lines.push_back(
      R"({"id":"q\"uote\\back\/slash \u00e9\u20AC\ud83d\ude00",)"
      R"("op":"ping"})");
  lines.push_back(
      R"({"op":"stats","schema":"rat.svc.v1",)"
      R"("id":"\u0000\b\f\n\r\t\"\\\uD834\uDD1E end"})");
  return lines;
}

/// The bases, then seeded mutants of them: one to three edits each,
/// then, in three of four, one mutation.
std::vector<std::string> corpus() {
  const std::vector<std::string> bases = base_lines();
  std::vector<std::string> cases = bases;
  util::Rng rng(kSeed);
  while (cases.size() < kCases) {
    std::string line = bases[rng.uniform_index(bases.size())];
    const std::size_t n = 1 + rng.uniform_index(3);
    for (std::size_t i = 0; i < n; ++i) edit(line, rng);
    if (rng.uniform_index(4) != 0) mutate(line, rng);
    cases.push_back(std::move(line));
  }
  return cases;
}

const char* op_name(Request::Op op) {
  switch (op) {
    case Request::Op::kEvaluate: return "evaluate";
    case Request::Op::kPing: return "ping";
    case Request::Op::kStats: return "stats";
    case Request::Op::kShutdown: return "shutdown";
  }
  return "?";
}

/// encode_forward, then parse_request, gives @p req back under the token.
void expect_forward_round_trip(const Request& req, const std::string& where) {
  Request back;
  ASSERT_NO_THROW(back = parse_request(encode_forward("t1", req))) << where;
  EXPECT_EQ(back.id, "t1") << where;
  EXPECT_EQ(back.op, req.op) << where;
  EXPECT_EQ(back.has_worksheet, req.has_worksheet) << where;
  EXPECT_EQ(back.worksheet, req.worksheet) << where;
  EXPECT_EQ(back.has_file, req.has_file) << where;
  EXPECT_EQ(back.file, req.file) << where;
  EXPECT_EQ(back.deadline_ms, req.deadline_ms) << where;
  EXPECT_EQ(back.no_cache, req.no_cache) << where;
}

/// A JSON error's "at offset N" names a byte of the line or its end.
void expect_offset_inside(const std::string& message, std::size_t size,
                          const std::string& where) {
  constexpr std::string_view kAt = " at offset ";
  const std::size_t at = message.rfind(kAt);
  if (at == std::string::npos) return;
  std::size_t offset = 0;
  const char* first = message.data() + at + kAt.size();
  const char* last = message.data() + message.size();
  const auto r = std::from_chars(first, last, offset);
  EXPECT_TRUE(r.ec == std::errc{} && r.ptr == last) << where;
  EXPECT_LE(offset, size) << where;
}

/// Case @p index's outcome line; @p accepted tells which kind it is.
std::string outcome_line(std::size_t index, const std::string& line,
                         bool& accepted) {
  const std::string where = "case " + std::to_string(index);
  std::string out = "{\"case\":" + std::to_string(index);
  Request req;
  accepted = false;
  try {
    req = parse_request(line);
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), SvcErrorCode::kBadRequest) << where;
    expect_offset_inside(e.what(), line.size(), where);
    out += ",\"code\":\"";
    out += svc_error_code_name(e.code());
    out += "\",\"id\":";
    io::append_json_str(out, e.id());
    out += ",\"message\":";
    io::append_json_str(out, e.what());
    out += '}';
    return out;
  }
  accepted = true;
  expect_forward_round_trip(req, where);
  out += ",\"op\":\"";
  out += op_name(req.op);
  out += "\",\"id\":";
  io::append_json_str(out, req.id);
  if (req.has_worksheet)
    out += ",\"worksheet\":{\"bytes\":" + std::to_string(req.worksheet.size()) +
           ",\"fnv1a64\":\"" + fingerprint_hex(fnv1a64(req.worksheet)) + "\"}";
  if (req.has_file) {
    out += ",\"file\":";
    io::append_json_str(out, req.file);
  }
  if (req.deadline_ms > 0.0) {
    out += ",\"deadline_ms\":";
    io::append_json_number(out, req.deadline_ms);
  }
  if (req.no_cache) out += ",\"no_cache\":true";
  out += '}';
  return out;
}

TEST(RequestCorpus, OutcomesMatchTheGoldenAndOffsetsStayInsideTheLine) {
  const std::vector<std::string> cases = corpus();
  ASSERT_EQ(cases.size(), kCases);
  std::string actual;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    bool ok = false;
    actual += outcome_line(i, cases[i], ok);
    accepted += ok ? 1 : 0;
    actual += '\n';
  }
  // The corpus reaches both outcomes, not only rejections.
  EXPECT_GE(accepted, 200u);
  EXPECT_GE(cases.size() - accepted, 400u);
  golden::expect_matches_golden(
      actual, kFixtures / "golden" / "request_corpus.jsonl");
}

}  // namespace
}  // namespace rat::svc
