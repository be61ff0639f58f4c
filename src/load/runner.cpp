#include "load/runner.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string_view>

#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "svc/channel.hpp"
#include "svc/protocol.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace rat::load {

namespace {

constexpr double kNsPerSec = 1e9;
constexpr double kNsPerMs = 1e6;

/// Blocking connect to a loopback/IPv4 endpoint, retrying briefly so a
/// just-forked server that has not called listen(2) yet does not fail
/// the whole run. Returns -1 when the endpoint never comes up.
int connect_with_retry(const std::string& host, int port,
                       int attempts = 50) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;
  for (int i = 0; i < attempts; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      svc::set_cloexec(fd);
      return fd;
    }
    ::close(fd);
    if (errno != ECONNREFUSED && errno != ETIMEDOUT) return -1;
    ::poll(nullptr, 0, 20);  // portable short sleep
  }
  return -1;
}

/// The request index a response line's "r<i>" token names; SIZE_MAX
/// for a line the runner did not ask for.
std::size_t response_index(const std::string& line) {
  const std::string_view token = svc::response_token(line);
  if (token.size() < 2 || token.front() != 'r') return SIZE_MAX;
  std::size_t index = 0;
  const char* end = token.data() + token.size();
  const auto r = std::from_chars(token.data() + 1, end, index);
  return r.ec == std::errc{} && r.ptr == end ? index : SIZE_MAX;
}

/// E_* code of an error response; "E_UNKNOWN" when the line has none.
std::string parse_error_code(const std::string& line) {
  const std::size_t key = line.find("\"code\":\"");
  if (key == std::string::npos) return "E_UNKNOWN";
  const std::size_t start = key + 8;
  const std::size_t end = line.find('"', start);
  if (end == std::string::npos) return "E_UNKNOWN";
  return line.substr(start, end - start);
}

std::string hist_json_ms(const obs::LogHistogram& h) {
  std::string out = "{\"count\":" + std::to_string(h.count());
  out += ",\"overflow\":" + std::to_string(h.overflow_count());
  out += ",\"min\":" + io::json_number(static_cast<double>(h.min()) / kNsPerMs);
  out += ",\"mean\":" + io::json_number(h.mean() / kNsPerMs);
  out += ",\"p50\":" + io::json_number(h.percentile(50.0) / kNsPerMs);
  out += ",\"p90\":" + io::json_number(h.percentile(90.0) / kNsPerMs);
  out += ",\"p99\":" + io::json_number(h.percentile(99.0) / kNsPerMs);
  out += ",\"p999\":" + io::json_number(h.percentile(99.9) / kNsPerMs);
  out += ",\"max\":" + io::json_number(static_cast<double>(h.max()) / kNsPerMs);
  out += '}';
  return out;
}

}  // namespace

std::vector<std::string> slo_violations(const StepResult& step,
                                        const SloConfig& slo) {
  std::vector<std::string> out;
  if (slo.p99_ms > 0.0) {
    const double p99_ms = step.latency.percentile(99.0) / kNsPerMs;
    if (p99_ms > slo.p99_ms) {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "p99 %.3f ms exceeds SLO %.3f ms at %g req/s", p99_ms,
                    slo.p99_ms, step.offered_rate_hz);
      out.push_back(buf);
    }
  }
  if (slo.error_rate >= 0.0) {
    const std::uint64_t scheduled = step.sent + step.lost;
    const double rate =
        scheduled ? static_cast<double>(step.errors + step.lost) /
                        static_cast<double>(scheduled)
                  : 0.0;
    if (rate > slo.error_rate) {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "error rate %.6f exceeds SLO %.6f at %g req/s", rate,
                    slo.error_rate, step.offered_rate_hz);
      out.push_back(buf);
    }
  }
  return out;
}

std::uint64_t timeout_ns(const RunConfig& config) {
  constexpr double kMaxNs = 9223372036854775808.0;  // 2^63
  const double ns = config.timeout_sec * kNsPerSec;
  if (!(ns > 0.0 && ns < kMaxNs)) {
    std::string message = "timeout_sec must be > 0 and under 2^63 ns: ";
    util::append_round_trip(message, config.timeout_sec);  // printf: inf, nan
    throw std::invalid_argument(message);
  }
  return static_cast<std::uint64_t>(ns);
}

StepResult run_step(const RunConfig& config, Mix& mix) {
  const std::uint64_t timeout = timeout_ns(config);
  StepResult step;
  step.offered_rate_hz = config.rate_hz;
  const std::size_t total = config.requests;
  if (total == 0) return step;

  const std::vector<std::uint64_t> offsets =
      build_schedule(config.arrival, config.rate_hz, total, config.seed);
  // Payload stream gets its own generator so schedule and payload
  // choices never interleave draws (each is reproducible on its own).
  util::Rng payload_rng(config.seed ^ 0x9e3779b97f4a7c15ull);

  // One simulated client per channel: a non-blocking socket, its queued
  // not-yet-written requests and its partially read response stream.
  const std::size_t nconn =
      std::max<std::size_t>(1, std::min(config.connections, total));
  std::vector<svc::LineChannel> conns(nconn);
  for (svc::LineChannel& conn : conns) {
    const int fd = connect_with_retry(config.host, config.port);
    if (fd < 0)
      throw std::runtime_error("run_step: cannot connect to " + config.host +
                               ":" + std::to_string(config.port));
    conn.open(fd, fd);
  }

  std::vector<std::uint8_t> resolved(total, 0);
  std::size_t n_resolved = 0;
  std::size_t next_to_send = 0;
  std::size_t alive_count = nconn;

  const std::uint64_t t0 = obs::now_ns();
  const std::uint64_t give_up_ns = t0 + offsets.back() + timeout;

  auto kill_conn = [&](svc::LineChannel& conn) {
    if (conn.read_fd() < 0) return;
    conn.close();
    --alive_count;
    ++step.connection_drops;
  };

  svc::Request req;  // every request but its worksheet is the same
  req.has_worksheet = true;
  req.deadline_ms = config.deadline_ms;
  req.no_cache = config.no_cache;

  auto enqueue = [&](std::size_t i) {
    svc::LineChannel& conn = conns[i % nconn];
    // The payload draw happens even for dead connections so the request
    // stream stays identical whether or not drops occurred.
    req.worksheet = mix.next(payload_rng, config.duplicate_ratio);
    if (conn.read_fd() < 0) {
      if (!resolved[i]) {
        resolved[i] = 1;
        ++n_resolved;
        ++step.lost;
      }
      return;
    }
    // Written on the next POLLOUT.
    conn.queue_line(svc::encode_forward("r" + std::to_string(i), req));
    ++step.sent;
  };

  auto handle_line = [&](const std::string& line, std::uint64_t now) {
    const std::size_t i = response_index(line);
    if (i >= total || resolved[i]) return;
    resolved[i] = 1;
    ++n_resolved;
    // Latency from the *scheduled* send time: queueing delay inside the
    // runner counts against the server, never hides (open loop).
    const std::uint64_t sched = t0 + offsets[i];
    step.latency.record(now > sched ? now - sched : 0);
    if (line.find("\"status\":\"ok\"") != std::string::npos) {
      ++step.ok;
    } else {
      ++step.errors;
      ++step.error_codes[parse_error_code(line)];
    }
  };

  std::vector<pollfd> pfds(nconn);
  while (n_resolved < total) {
    std::uint64_t now = obs::now_ns();
    if (now >= give_up_ns) {
      step.timed_out = true;
      break;
    }

    // Inject every request whose scheduled time has arrived — all of
    // them, even when the server is behind (open loop).
    while (next_to_send < total && now >= t0 + offsets[next_to_send]) {
      enqueue(next_to_send);
      ++next_to_send;
    }
    if (alive_count == 0) break;  // every connection died; rest is lost

    int timeout_ms;
    if (next_to_send < total) {
      const std::uint64_t due = t0 + offsets[next_to_send];
      timeout_ms = static_cast<int>((due - now) / 1000000);
      if (timeout_ms > 50) timeout_ms = 50;
    } else {
      const std::uint64_t left = give_up_ns - now;
      timeout_ms = static_cast<int>(left / 1000000) + 1;
      if (timeout_ms > 100) timeout_ms = 100;
    }

    // Dead connections poll as fd -1, which poll(2) skips.
    for (std::size_t c = 0; c < nconn; ++c)
      pfds[c] = {conns[c].read_fd(),
                 static_cast<short>(POLLIN |
                                    (conns[c].pending() > 0 ? POLLOUT : 0)),
                 0};
    if (::poll(pfds.data(), static_cast<nfds_t>(nconn), timeout_ms) <= 0)
      continue;

    now = obs::now_ns();
    for (std::size_t c = 0; c < nconn; ++c) {
      svc::LineChannel& conn = conns[c];
      const short rev = pfds[c].revents;
      // EOF or a read error drops the connection, and with it any
      // unterminated last line: its requests count as lost.
      if ((rev & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          conn.read_lines([&](const std::string& line) {
            handle_line(line, now);
          }) != svc::IoStatus::kOk)
        kill_conn(conn);
      if ((rev & POLLOUT) != 0 && conn.read_fd() >= 0 &&
          conn.flush() != svc::IoStatus::kOk)
        kill_conn(conn);
      if ((rev & POLLNVAL) != 0) kill_conn(conn);
    }
  }

  // Whatever is still open: unanswered (or never-injected, when every
  // connection died early) requests are lost, not silently dropped.
  for (std::size_t i = 0; i < total; ++i)
    if (!resolved[i]) ++step.lost;

  const std::uint64_t end_ns = obs::now_ns();
  step.duration_sec = static_cast<double>(end_ns - t0) / kNsPerSec;
  const std::uint64_t answered = step.ok + step.errors;
  step.achieved_rate_hz =
      step.duration_sec > 0.0
          ? static_cast<double>(answered) / step.duration_sec
          : 0.0;

  return step;
}

std::string load_report_json(const RunConfig& config,
                             const std::vector<StepResult>& steps,
                             const SloConfig& slo,
                             const std::vector<std::string>& violations) {
  std::string out = "{\"schema\":\"rat.load.v1\"";

  out += ",\"config\":{\"host\":" + io::json_str(config.host);
  out += ",\"port\":" + std::to_string(config.port);
  out += ",\"connections\":" + std::to_string(config.connections);
  out += ",\"requests\":" + std::to_string(config.requests);
  out += ",\"arrival\":" + io::json_str(arrival_name(config.arrival));
  out += ",\"seed\":" + std::to_string(config.seed);
  out += ",\"duplicate_ratio\":" + io::json_number(config.duplicate_ratio);
  out += ",\"deadline_ms\":" + io::json_number(config.deadline_ms);
  out += ",\"no_cache\":" + std::string(config.no_cache ? "true" : "false");
  out += ",\"timeout_sec\":" + io::json_number(config.timeout_sec) + "}";

  out += ",\"steps\":[";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepResult& s = steps[i];
    if (i) out += ',';
    out += "{\"offered_rate_hz\":" + io::json_number(s.offered_rate_hz);
    out += ",\"achieved_rate_hz\":" + io::json_number(s.achieved_rate_hz);
    out += ",\"duration_sec\":" + io::json_number(s.duration_sec);
    out += ",\"sent\":" + std::to_string(s.sent);
    out += ",\"ok\":" + std::to_string(s.ok);
    out += ",\"errors\":" + std::to_string(s.errors);
    out += ",\"lost\":" + std::to_string(s.lost);
    out += ",\"connection_drops\":" + std::to_string(s.connection_drops);
    out += ",\"timed_out\":" + std::string(s.timed_out ? "true" : "false");
    out += ",\"error_codes\":{";
    bool first = true;
    for (const auto& [code, count] : s.error_codes) {
      if (!first) out += ',';
      first = false;
      out += io::json_str(code) + ":" + std::to_string(count);
    }
    out += "},\"latency_ms\":" + hist_json_ms(s.latency) + "}";
  }
  out += ']';

  out += ",\"slo\":{\"checked\":";
  out += (slo.p99_ms > 0.0 || slo.error_rate >= 0.0) ? "true" : "false";
  out += ",\"p99_ms\":" + io::json_number(slo.p99_ms);
  out += ",\"error_rate\":" + io::json_number(slo.error_rate);
  out += ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i) out += ',';
    out += io::json_str(violations[i]);
  }
  out += "]}}";
  return out;
}

}  // namespace rat::load
