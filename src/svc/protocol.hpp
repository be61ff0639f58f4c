// The rat.svc.v1 wire protocol: newline-delimited JSON requests and
// responses (full schema in docs/SERVICE.md).
//
// One request per line, one response line per request — never zero,
// never two. Responses carry the client's "id" verbatim so requests may
// be pipelined and answered out of order. The evaluate payload ("inputs"
// + "predictions") is rendered by the same io/batch.hpp fragment
// writers as rat_batch's JSON, so a service response and a batch run
// over the same worksheet agree byte for byte. Everything an evaluate
// response carries after its id (evaluate_tail) depends only on the
// parsed inputs and the deterministic predictions, i.e. on the cache
// key: the result cache keeps that tail, a hit writes the head with its
// own id and copies it, and a miss renders the head, the id and the
// tail through the same writer, so hit and miss agree by construction.
//
// This file is the one codec of rat.svc.v1: every response line starts
// with the head its renderers write, and the router's id splice and the
// load runner's request ids go through the same bytes (encode_forward,
// response_token, restore_response_id).
//
// Request grammar is strict in the spirit of the worksheet parser:
// unknown members, wrong member types and malformed JSON are rejected
// with E_BAD_REQUEST rather than ignored. Worksheet failures reuse the
// core::ParseError taxonomy (E_BAD_NUMBER, E_BAD_LIST, ...) and carry
// the full structured diagnostic.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/throughput.hpp"
#include "io/diagnostics.hpp"

namespace rat::svc {

inline constexpr const char* kProtocolSchema = "rat.svc.v1";

/// Service-level error codes, extending the worksheet E_* taxonomy.
enum class SvcErrorCode {
  kBadRequest,       ///< malformed JSON, unknown/ill-typed members, bad op
  kOverloaded,       ///< admission queue full — retry later
  kDeadlineExpired,  ///< request outlived its deadline before running
  kShuttingDown,     ///< service is draining; no new work accepted
};

constexpr const char* svc_error_code_name(SvcErrorCode code) {
  switch (code) {
    case SvcErrorCode::kBadRequest: return "E_BAD_REQUEST";
    case SvcErrorCode::kOverloaded: return "E_OVERLOADED";
    case SvcErrorCode::kDeadlineExpired: return "E_DEADLINE_EXPIRED";
    case SvcErrorCode::kShuttingDown: return "E_SHUTTING_DOWN";
  }
  return "E_BAD_REQUEST";
}

/// One parsed request line.
struct Request {
  enum class Op { kEvaluate, kPing, kStats, kShutdown };

  std::string id;           ///< echoed verbatim; may be empty
  Op op = Op::kEvaluate;
  std::string worksheet;    ///< inline worksheet text (evaluate)
  std::string file;         ///< server-side worksheet path (evaluate)
  bool has_worksheet = false;
  bool has_file = false;
  double deadline_ms = 0.0; ///< 0 = use the service default
  bool no_cache = false;    ///< bypass the result cache (benchmarks)
};

/// Thrown by parse_request. Carries the client id when the line was
/// well-formed enough to recover it, so the error response still
/// correlates with the request.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(SvcErrorCode code, const std::string& message,
                std::string id = {})
      : std::runtime_error(message), code_(code), id_(std::move(id)) {}

  SvcErrorCode code() const { return code_; }
  const std::string& id() const { return id_; }

 private:
  SvcErrorCode code_;
  std::string id_;
};

/// Parse one NDJSON request line. Throws ProtocolError (E_BAD_REQUEST)
/// on malformed JSON, non-object documents, unknown members, ill-typed
/// members, unknown ops, or an evaluate without exactly one worksheet
/// source.
Request parse_request(const std::string& line);

// ---- Response rendering (one line, no trailing newline) ----

/// {"schema":...,"id":...,"status":"ok","op":"evaluate","fingerprint":...,
///  "inputs":{...},"predictions":[...]}: the head with @p id, then
/// evaluate_tail's bytes.
std::string evaluate_response(
    const std::string& id, std::uint64_t fp, const core::RatInputs& inputs,
    const std::vector<core::ThroughputPrediction>& predictions);

/// An evaluate response after its id: ,"status":"ok","op":"evaluate",
/// "fingerprint":... to the closing brace.
std::string evaluate_tail(
    std::uint64_t fp, const core::RatInputs& inputs,
    const std::vector<core::ThroughputPrediction>& predictions);

/// The head with @p id, then @p tail (an evaluate_tail): a cache hit's
/// response, the same bytes as the four-argument evaluate_response.
std::string evaluate_response(const std::string& id, std::string_view tail);

/// Service-level failure ({"status":"error","error":{"code":...}}).
std::string error_response(const std::string& id, SvcErrorCode code,
                           const std::string& message);

/// Worksheet failure: code is the diagnostic's E_* name and the full
/// structured diagnostic rides along, exactly as in rat_batch JSON.
std::string diagnostic_response(const std::string& id,
                                const core::Diagnostic& diagnostic);

/// Internal failure (unexpected exception while evaluating): E_INTERNAL.
std::string internal_error_response(const std::string& id,
                                    const std::string& message);

/// {"status":"ok","op":"ping"}
std::string pong_response(const std::string& id);

/// {"status":"ok","op":"shutdown","draining":true}
std::string shutdown_response(const std::string& id);

/// The counters of a stats response's "stats" object, in wire order. A
/// "cache." name is a member of the nested "cache" object, which also
/// carries hit_ratio (derived from hits and misses) before "warmed".
inline constexpr std::string_view kStatsNames[] = {
    "requests",        "responses_ok",        "responses_error",
    "rejected_overloaded", "rejected_draining", "deadline_expired",
    "in_flight",       "cache.hits",          "cache.misses",
    "cache.evictions", "cache.size",          "cache.bytes",
    "cache.capacity",  "cache.warmed"};

/// One value per kStatsNames entry: a service's counters, or, from
/// rat_router, their sums over its workers.
using StatsCounters = std::array<std::uint64_t, std::size(kStatsNames)>;

/// A named count in a response object.
using Count = std::pair<std::string_view, std::uint64_t>;

/// {"status":"ok","op":"stats","stats":{...}}; a non-empty @p router
/// adds a "router" object after "stats" (rat_router's own counts).
std::string stats_response(const std::string& id, const StatsCounters& stats,
                           std::span<const Count> router = {});

/// Add the "stats" counters of @p line, a worker's stats response, to
/// @p sums. A malformed line, or a value that is no counter (negative,
/// non-finite, out of range), adds nothing.
void add_stats(StatsCounters& sums, const std::string& line);

// ---- Correlation ids (rat_router's forwarding, rat_loadgen's requests) ----

/// @p req as a request line whose id is @p token: non-empty, and needing
/// no JSON escaping, so response_token finds it again. The worksheet or
/// file text, deadline and no_cache pass verbatim, so a worker's answer
/// matches a direct submission's.
std::string encode_forward(const std::string& token, const Request& req);

/// The token a response line carries as its id, as a view into @p line;
/// empty for a null or escaped id or a line without the response head
/// (corrupt or non-protocol output, which callers drop).
std::string_view response_token(std::string_view line);

/// @p line with its token id replaced by @p orig_id as the head renders
/// ids: the exact bytes a direct request with @p orig_id gets. A line
/// without a token comes back unchanged.
std::string restore_response_id(const std::string& line,
                                const std::string& orig_id);

}  // namespace rat::svc
