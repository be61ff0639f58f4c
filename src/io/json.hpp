// Minimal JSON reading/writing: the one place where a value becomes
// JSON text. Every document the repository writes (rat.svc.v1,
// rat.batch.v1, rat.load.v1, and rat.metrics.v1, which obs records and
// this file renders) writes its strings with append_json_str and its
// numbers with append_json_number, so equal values get equal bytes in
// every layer. JSON has no token for inf or nan, so a non-finite number
// is written as null.
//
// Reading: a small strict recursive-descent parser for the service's
// newline-delimited request objects. Deliberately minimal but not
// sloppy: full string escapes (including \uXXXX with surrogate pairs),
// from_chars numbers, a nesting-depth cap, and a hard error on trailing
// content. Failures throw std::invalid_argument naming the byte offset.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace rat::io {

/// Append @p x as the first of printf "%.15g", "%.16g" and "%.17g" whose
/// text parses back to @p x (util::append_round_trip), or null when @p x
/// is not finite. Not always the shortest round-trip text: denorm_min is
/// "4.94065645841247e-324".
void append_json_number(std::string& out, double x);

/// append_json_number's text as a string.
std::string json_number(double x);

/// Backslash-escape @p s for inclusion inside a JSON string literal
/// (quotes, backslashes, control characters; no surrounding quotes).
std::string json_escape(std::string_view s);

/// @p s as a complete JSON string literal, quotes included.
std::string json_str(std::string_view s);

/// Append json_str(@p s) to @p out.
void append_json_str(std::string& out, std::string_view s);

/// A registry snapshot as the rat.metrics.v1 document
/// (docs/OBSERVABILITY.md).
std::string metrics_json(
    const obs::Registry& registry = obs::Registry::global());

/// metrics_json written to @p path; false (with a message on stderr) when
/// the file cannot be written.
bool write_metrics_file(
    const std::filesystem::path& path,
    const obs::Registry& registry = obs::Registry::global());

/// One parsed JSON value. Object members keep their source order so
/// re-rendering (tests) is deterministic.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> items;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  /// First member named @p key, or nullptr (objects only).
  const JsonValue* find(std::string_view key) const;
};

/// Parse one complete JSON document. Throws std::invalid_argument
/// ("json: <what> at offset <n>") on malformed input, unsupported
/// nesting depth (> 64) or trailing non-whitespace content.
JsonValue parse_json(std::string_view text);

}  // namespace rat::io
