#include "svc/protocol.hpp"

#include <cmath>
#include <iterator>

#include "io/batch.hpp"
#include "io/json.hpp"
#include "svc/cache.hpp"
#include "svc/fingerprint.hpp"

namespace rat::svc {

namespace {

/// Bytes reserved for an evaluate response: the head and inputs object
/// take about 450, each prediction object up to about 450 (13 keys and
/// 13 numbers of up to 24 characters).
constexpr std::size_t kEvaluateHeadBytes = 512;
constexpr std::size_t kPredictionJsonBytes = 480;
/// Bytes reserved for a forwarded request beyond its id and worksheet or
/// file text: members, quotes and the escapes of a worksheet's newlines.
constexpr std::size_t kForwardExtraBytes = 128;

/// Every response line starts with these bytes, then its id, then
/// kStatusKey and its status.
const std::string kHeadBeforeId =
    std::string("{\"schema\":\"") + kProtocolSchema + "\",\"id\":";
constexpr std::string_view kStatusKey = ",\"status\":\"";
constexpr std::string_view kCachePrefix = "cache.";

/// The index of @p name in kStatsNames (its size when absent).
constexpr std::size_t stat_index(std::string_view name) {
  std::size_t i = 0;
  while (i < std::size(kStatsNames) && kStatsNames[i] != name) ++i;
  return i;
}

/// An id as the head renders it: a JSON string, or null when empty, so a
/// response to an unparseable request is still well-formed.
void append_id(std::string& out, std::string_view id) {
  if (id.empty())
    out += "null";
  else
    io::append_json_str(out, id);
}

/// ,"status":"<status>"
void append_status(std::string& out, const char* status) {
  out += kStatusKey;
  out += status;
  out += '"';
}

/// {"schema":...,"id":...,"status":"<status>"
void append_head(std::string& out, std::string_view id, const char* status) {
  out += kHeadBeforeId;
  append_id(out, id);
  append_status(out, status);
}

/// evaluate_tail's bytes, appended to @p out.
void append_evaluate_tail(
    std::string& out, std::uint64_t fp, const core::RatInputs& inputs,
    const std::vector<core::ThroughputPrediction>& predictions) {
  append_status(out, "ok");
  out += ",\"op\":\"evaluate\",\"fingerprint\":\"";
  out += fingerprint_hex(fp);
  out += "\",\"inputs\":";
  io::append_inputs_json(out, inputs);
  out += ",\"predictions\":[";
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (i) out += ',';
    io::append_prediction_json(out, predictions[i]);
  }
  out += "]}";
}

/// Bytes reserved for an evaluate response or its tail.
std::size_t evaluate_bytes(std::size_t n_predictions) {
  return kEvaluateHeadBytes + n_predictions * kPredictionJsonBytes;
}

/// "<key>":<n>
void append_count(std::string& out, std::string_view key, std::uint64_t n) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(n);
}

/// Every op under its wire name, for parse_request and encode_forward.
constexpr std::pair<Request::Op, std::string_view> kOps[] = {
    {Request::Op::kEvaluate, "evaluate"},
    {Request::Op::kPing, "ping"},
    {Request::Op::kStats, "stats"},
    {Request::Op::kShutdown, "shutdown"}};

}  // namespace

Request parse_request(const std::string& line) {
  io::JsonValue doc;
  try {
    doc = io::parse_json(line);
  } catch (const std::invalid_argument& e) {
    throw ProtocolError(SvcErrorCode::kBadRequest, e.what());
  }
  if (!doc.is_object())
    throw ProtocolError(SvcErrorCode::kBadRequest,
                        "request must be a JSON object");

  // Recover the id first so every later failure can echo it.
  Request req;
  if (const io::JsonValue* id = doc.find("id")) {
    if (id->is_string())
      req.id = id->string;
    else if (!id->is_null())
      throw ProtocolError(SvcErrorCode::kBadRequest,
                          "\"id\" must be a string");
  }

  auto bad = [&req](const std::string& message) {
    return ProtocolError(SvcErrorCode::kBadRequest, message, req.id);
  };

  for (const auto& [key, value] : doc.object) {
    if (key == "id") {
      continue;
    } else if (key == "schema") {
      // Optional, but when present it must name this protocol exactly.
      if (!value.is_string() || value.string != kProtocolSchema)
        throw bad(std::string("\"schema\" must be \"") + kProtocolSchema +
                  "\" when present");
    } else if (key == "op") {
      if (!value.is_string()) throw bad("\"op\" must be a string");
      auto op = std::begin(kOps);
      while (op != std::end(kOps) && op->second != value.string) ++op;
      if (op == std::end(kOps)) throw bad("unknown op: '" + value.string + "'");
      req.op = op->first;
    } else if (key == "worksheet") {
      if (!value.is_string()) throw bad("\"worksheet\" must be a string");
      req.worksheet = value.string;
      req.has_worksheet = true;
    } else if (key == "file") {
      if (!value.is_string()) throw bad("\"file\" must be a string");
      req.file = value.string;
      req.has_file = true;
    } else if (key == "deadline_ms") {
      // The JSON layer already refuses non-finite literals, but the
      // deadline feeds a float->integer cast downstream, so enforce
      // finiteness here too rather than rely on that coincidence.
      if (!value.is_number() || !std::isfinite(value.number) ||
          !(value.number > 0.0))
        throw bad("\"deadline_ms\" must be a positive finite number");
      req.deadline_ms = value.number;
    } else if (key == "no_cache") {
      if (!value.is_bool()) throw bad("\"no_cache\" must be a boolean");
      req.no_cache = value.boolean;
    } else {
      throw bad("unknown request member: '" + key + "'");
    }
  }

  if (req.op == Request::Op::kEvaluate) {
    if (req.has_worksheet == req.has_file)
      throw bad(
          "evaluate needs exactly one of \"worksheet\" (inline text) or "
          "\"file\" (server-side path)");
  } else if (req.has_worksheet || req.has_file) {
    throw bad("\"worksheet\"/\"file\" only apply to op \"evaluate\"");
  }
  return req;
}

std::string evaluate_response(
    const std::string& id, std::uint64_t fp, const core::RatInputs& inputs,
    const std::vector<core::ThroughputPrediction>& predictions) {
  std::string out;
  out.reserve(evaluate_bytes(predictions.size()));
  out += kHeadBeforeId;
  append_id(out, id);
  append_evaluate_tail(out, fp, inputs, predictions);
  return out;
}

std::string evaluate_tail(
    std::uint64_t fp, const core::RatInputs& inputs,
    const std::vector<core::ThroughputPrediction>& predictions) {
  std::string out;
  out.reserve(evaluate_bytes(predictions.size()));
  append_evaluate_tail(out, fp, inputs, predictions);
  return out;
}

std::string evaluate_response(const std::string& id, std::string_view tail) {
  std::string out;
  // Room for a plain id's quotes or "null"; an id that needs escaping
  // grows the string once.
  out.reserve(kHeadBeforeId.size() + id.size() + 4 + tail.size());
  out += kHeadBeforeId;
  append_id(out, id);
  out += tail;
  return out;
}

std::string error_response(const std::string& id, SvcErrorCode code,
                           const std::string& message) {
  std::string out;
  append_head(out, id, "error");
  out += ",\"error\":{\"code\":\"";
  out += svc_error_code_name(code);
  out += "\",\"message\":";
  io::append_json_str(out, message);
  out += "}}";
  return out;
}

std::string diagnostic_response(const std::string& id,
                                const core::Diagnostic& diagnostic) {
  std::string out;
  append_head(out, id, "error");
  out += ",\"error\":{\"code\":\"";
  out += core::error_code_name(diagnostic.code);
  out += "\",\"message\":";
  io::append_json_str(out, diagnostic.message);
  out += ",\"diagnostic\":";
  io::append_diagnostic_json(out, diagnostic);
  out += "}}";
  return out;
}

std::string internal_error_response(const std::string& id,
                                    const std::string& message) {
  std::string out;
  append_head(out, id, "error");
  out += ",\"error\":{\"code\":\"E_INTERNAL\",\"message\":";
  io::append_json_str(out, message);
  out += "}}";
  return out;
}

std::string pong_response(const std::string& id) {
  std::string out;
  append_head(out, id, "ok");
  out += ",\"op\":\"ping\"}";
  return out;
}

std::string shutdown_response(const std::string& id) {
  std::string out;
  append_head(out, id, "ok");
  out += ",\"op\":\"shutdown\",\"draining\":true}";
  return out;
}

std::string stats_response(const std::string& id, const StatsCounters& stats,
                           std::span<const Count> router) {
  std::string out;
  append_head(out, id, "ok");
  out += ",\"op\":\"stats\",\"stats\":{";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    std::string_view key = kStatsNames[i];
    if (key == "cache.hits")
      out += ",\"cache\":{";
    else if (i > 0)
      out += ',';
    if (key == "cache.warmed") {  // derived, so not a counter of its own
      out += "\"hit_ratio\":";
      io::append_json_number(
          out, hit_ratio({.hits = stats[stat_index("cache.hits")],
                          .misses = stats[stat_index("cache.misses")]}));
      out += ',';
    }
    if (key.starts_with(kCachePrefix)) key.remove_prefix(kCachePrefix.size());
    append_count(out, key, stats[i]);
  }
  out += "}}";
  if (!router.empty()) {
    out += ",\"router\":{";
    for (std::size_t i = 0; i < router.size(); ++i) {
      if (i > 0) out += ',';
      append_count(out, router[i].first, router[i].second);
    }
    out += '}';
  }
  out += '}';
  return out;
}

void add_stats(StatsCounters& sums, const std::string& line) {
  auto add = [&sums](std::string_view name, const io::JsonValue& value) {
    const std::size_t i = stat_index(name);
    if (i < sums.size() && value.is_number() && value.number >= 0.0 &&
        value.number < 1.8e19)
      sums[i] += static_cast<std::uint64_t>(value.number);
  };
  try {
    const io::JsonValue doc = io::parse_json(line);
    const io::JsonValue* stats = doc.find("stats");
    if (!stats || !stats->is_object()) return;
    for (const auto& [key, value] : stats->object) {
      if (key == "cache" && value.is_object()) {
        for (const auto& [ck, cv] : value.object)
          add(std::string(kCachePrefix) + ck, cv);
      } else {
        add(key, value);
      }
    }
  } catch (const std::exception&) {
  }
}

std::string encode_forward(const std::string& token, const Request& req) {
  std::string out;
  out.reserve(token.size() + req.worksheet.size() + req.file.size() +
              kForwardExtraBytes);
  out += "{\"id\":";
  io::append_json_str(out, token);
  out += ",\"op\":\"";
  for (const auto& [op, name] : kOps)
    if (op == req.op) out += name;
  out += '"';
  if (req.has_worksheet) {
    out += ",\"worksheet\":";
    io::append_json_str(out, req.worksheet);
  }
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

std::string_view response_token(std::string_view line) {
  if (!line.starts_with(kHeadBeforeId)) return {};
  // The id's opening quote, the token, its closing quote, the status key.
  const std::string_view id = line.substr(kHeadBeforeId.size());
  if (id.empty() || id.front() != '"') return {};
  std::size_t end = 1;
  while (end < id.size() && io::json_verbatim(id[end])) ++end;
  if (end == 1 || end == id.size() || id[end] != '"' ||
      !id.substr(end + 1).starts_with(kStatusKey))
    return {};
  return id.substr(1, end - 1);
}

std::string restore_response_id(const std::string& line,
                                const std::string& orig_id) {
  const std::string_view token = response_token(line);
  if (token.empty()) return line;
  // Everything around the id is the renderers' own bytes, so the splice
  // reproduces a direct server's line exactly.
  std::string out;
  out.reserve(line.size() + orig_id.size() + 8);
  out.append(line, 0, kHeadBeforeId.size());
  append_id(out, orig_id);
  out.append(line, kHeadBeforeId.size() + token.size() + 2);
  return out;
}

}  // namespace rat::svc
