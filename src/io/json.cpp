#include "io/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/format.hpp"

namespace rat::io {

void append_json_number(std::string& out, double x) {
  if (std::isfinite(x))
    util::append_round_trip(out, x);
  else
    out += "null";
}

std::string json_number(double x) {
  std::string out;
  append_json_number(out, x);
  return out;
}

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

std::string json_str(std::string_view s) {
  std::string out;
  append_json_str(out, s);
  return out;
}

void append_json_str(std::string& out, std::string_view s) {
  out += '"';
  append_escaped(out, s);
  out += '"';
}

namespace {

constexpr double kNsPerSec = 1e9;

/// @p key, then an object with one member per entry of @p map: its name,
/// then its value as @p put appends it.
template <typename Map, typename Put>
void append_section(std::string& out, const char* key, const Map& map,
                    Put put) {
  out += key;
  out += '{';
  for (const auto& [name, value] : map) {
    if (out.back() != '{') out += ',';
    append_json_str(out, name);
    out += ':';
    put(value);
  }
  out += '}';
}

/// @p key, then @p ns in seconds with 9 decimals (whole nanoseconds).
void append_sec_fixed(std::string& out, const char* key, std::uint64_t ns) {
  out += key;
  util::append_fixed(out, static_cast<double>(ns) / kNsPerSec, 9);
}

/// @p key, then @p ns in seconds in append_json_number's spelling.
void append_sec_number(std::string& out, const char* key, double ns) {
  out += key;
  append_json_number(out, ns / kNsPerSec);
}

}  // namespace

std::string metrics_json(const obs::Registry& registry) {
  std::string out = "{\"schema\":\"rat.metrics.v1\"";
  append_section(out, ",\"counters\":", registry.counters(),
                 [&out](std::uint64_t n) { out += std::to_string(n); });
  append_section(out, ",\"gauges\":", registry.gauges(),
                 [&out](double x) { append_json_number(out, x); });
  append_section(out, ",\"timers\":", registry.timers(),
                 [&out](const obs::TimerStat& t) {
    out += "{\"count\":" + std::to_string(t.count);
    append_sec_fixed(out, ",\"total_sec\":", t.total_ns);
    append_sec_fixed(out, ",\"mean_sec\":",
                     static_cast<std::uint64_t>(t.mean_ns()));
    append_sec_fixed(out, ",\"min_sec\":", t.min_ns);
    append_sec_fixed(out, ",\"max_sec\":", t.max_ns);
    out += '}';
  });
  append_section(out, ",\"hists\":", registry.hists(),
                 [&out](const obs::LogHistogram& h) {
    out += "{\"count\":" + std::to_string(h.count());
    out += ",\"overflow\":" + std::to_string(h.overflow_count());
    append_sec_fixed(out, ",\"min_sec\":", h.min());
    append_sec_fixed(out, ",\"max_sec\":", h.max());
    append_sec_number(out, ",\"mean_sec\":", h.mean());
    append_sec_number(out, ",\"p50_sec\":", h.percentile(50.0));
    append_sec_number(out, ",\"p90_sec\":", h.percentile(90.0));
    append_sec_number(out, ",\"p99_sec\":", h.percentile(99.0));
    append_sec_number(out, ",\"p999_sec\":", h.percentile(99.9));
    out += '}';
  });
  out += ",\"spans\":[";
  for (const obs::SpanEvent& s : registry.spans()) {
    if (out.back() != '[') out += ',';
    out += "{\"name\":";
    append_json_str(out, s.name);
    if (!s.detail.empty()) {
      out += ",\"detail\":";
      append_json_str(out, s.detail);
    }
    out += ",\"thread\":" + std::to_string(s.thread);
    append_sec_fixed(out, ",\"start_sec\":", s.start_ns);
    append_sec_fixed(out, ",\"dur_sec\":", s.dur_ns);
    out += '}';
  }
  out += "],\"spans_dropped\":" + std::to_string(registry.spans_dropped());
  out += '}';
  return out;
}

bool write_metrics_file(const std::filesystem::path& path,
                        const obs::Registry& registry) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "obs: cannot write metrics file %s\n",
                 path.string().c_str());
    return false;
  }
  f << metrics_json(registry) << '\n';
  return f.good();
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

namespace {

constexpr std::size_t kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at offset " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else fail("bad \\u escape digit");
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = peek();
      ++pos_;
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (!consume_literal("\\u")) fail("unpaired surrogate");
            const std::uint32_t lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t begin = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-'))
      ++pos_;
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const char* b = text_.data() + begin;
    const char* e = text_.data() + pos_;
    const auto r = std::from_chars(b, e, v.number);
    if (r.ec != std::errc{} || r.ptr != e) {
      pos_ = begin;
      fail("bad number");
    }
    if (!std::isfinite(v.number)) {
      pos_ = begin;
      fail("non-finite number");
    }
    return v;
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    JsonValue v;
    if (c == '{') {
      ++pos_;
      v.kind = JsonValue::Kind::kObject;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.object.emplace_back(std::move(key), parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v.items.push_back(parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      v.kind = JsonValue::Kind::kBool;
      v.boolean = false;
      return v;
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      v.kind = JsonValue::Kind::kNull;
      return v;
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).run(); }

}  // namespace rat::io
