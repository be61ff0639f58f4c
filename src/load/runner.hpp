// Open-loop load runner: replays a scheduled request stream against one
// rat.svc.v1 TCP endpoint (rat_serve or rat_router — the protocol is the
// same) and measures the latency distribution the *clients* saw.
//
// The runner multiplexes every simulated client on one poll(2) loop, each
// one svc::LineChannel (svc/channel.hpp, the connection core the servers
// run too). Request i is enqueued on connection i % connections at
// exactly t0 + offsets[i], whether or not earlier responses have
// arrived, and its latency is
// measured from that scheduled send time — not from when write(2)
// happened to drain — so server stalls surface as tail latency instead
// of being absorbed by a waiting client (coordinated omission; see
// docs/LOADGEN.md). Responses correlate back to requests by the echoed
// "r<i>" id, so pipelining and out-of-order completion are fine.
//
// A StepResult carries exact counts (ok / per-E_* errors / lost /
// connection drops) and an obs::LogHistogram of latencies; sweep runs
// concatenate StepResults into one rat.load.v1 report mapping the
// throughput-latency frontier. SLO gates (p99, error rate) evaluate per
// step so CI can fail a serving regression.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "load/mix.hpp"
#include "load/schedule.hpp"
#include "obs/histogram.hpp"

namespace rat::load {

struct RunConfig {
  std::string host = "127.0.0.1";
  int port = 0;
  std::size_t connections = 64;   ///< simulated clients
  std::size_t requests = 1000;    ///< per step
  Arrival arrival = Arrival::kConstant;
  double rate_hz = 500.0;         ///< offered arrival rate
  std::uint64_t seed = 1;         ///< schedule + payload stream seed
  double duplicate_ratio = 0.5;   ///< fraction replaying a base verbatim
  double deadline_ms = 0.0;       ///< forwarded per request when > 0
  bool no_cache = false;          ///< bypass the server result cache
  double timeout_sec = 30.0;      ///< give up this long after the last send
};

/// Measured outcome of one run (one sweep step).
struct StepResult {
  double offered_rate_hz = 0.0;
  double achieved_rate_hz = 0.0;  ///< responses / wall duration
  double duration_sec = 0.0;      ///< first scheduled send -> loop exit
  std::uint64_t sent = 0;         ///< enqueued on a live connection
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;       ///< error responses (see error_codes)
  std::uint64_t lost = 0;         ///< never answered: dead conn or cutoff
  std::uint64_t connection_drops = 0;
  bool timed_out = false;         ///< hit the give-up cutoff
  std::map<std::string, std::uint64_t> error_codes;  ///< E_* -> count
  obs::LogHistogram latency;      ///< ns, scheduled send -> response
};

/// SLO gate; fields at their defaults are unchecked.
struct SloConfig {
  double p99_ms = 0.0;       ///< checked when > 0
  double error_rate = -1.0;  ///< (errors+lost)/scheduled, checked when >= 0
};

/// Human-readable violation messages; empty means the step passes.
std::vector<std::string> slo_violations(const StepResult& step,
                                        const SloConfig& slo);

/// Execute one open-loop step against host:port. Throws
/// std::runtime_error when the endpoint cannot be reached at all.
StepResult run_step(const RunConfig& config, Mix& mix);

/// The rat.load.v1 JSON document (schema in docs/LOADGEN.md): config,
/// one entry per step, and the SLO verdict.
std::string load_report_json(const RunConfig& config,
                             const std::vector<StepResult>& steps,
                             const SloConfig& slo,
                             const std::vector<std::string>& violations);

}  // namespace rat::load
