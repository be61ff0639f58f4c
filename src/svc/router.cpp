#include "svc/router.hpp"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <system_error>

#include "core/parameters.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "svc/cache.hpp"
#include "svc/fingerprint.hpp"

namespace rat::svc {

namespace {

void obs_count(const char* name) {
  if (obs::enabled()) obs::Registry::global().add_counter(name);
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// The canonical response-line prefix up to and including the opening
/// quote of a string id — every worker response to a forwarded request
/// starts with exactly these bytes, because the router's correlation
/// tokens are never empty (an empty id would render as null).
const std::string& response_head_prefix() {
  static const std::string head =
      std::string("{\"schema\":\"") + kProtocolSchema + "\",\"id\":\"";
  return head;
}

}  // namespace

// ---- Routing helpers ----

std::uint64_t route_fingerprint(const Request& req) {
  if (req.has_file) {
    // Server-side paths are resolved by the worker; the path string is
    // the only stable routing key available without touching the disk.
    return fnv1a64("file:" + req.file);
  }
  try {
    return fingerprint(core::RatInputs::parse(req.worksheet));
  } catch (const std::exception&) {
    // Unparseable worksheet: the owning worker will produce the
    // structured diagnostic. Hashing the raw text keeps repeats of the
    // same bad request on one worker (and its E_BAD_REQUEST formatting
    // deterministic) without the router duplicating parser policy.
    return fnv1a64(req.worksheet);
  }
}

std::string encode_forward(const std::string& token, const Request& req) {
  std::ostringstream os;
  os << "{\"id\":" << io::json_str(token) << ",\"op\":\"";
  switch (req.op) {
    case Request::Op::kEvaluate: os << "evaluate"; break;
    case Request::Op::kPing: os << "ping"; break;
    case Request::Op::kStats: os << "stats"; break;
    case Request::Op::kShutdown: os << "shutdown"; break;
  }
  os << '"';
  if (req.has_worksheet)
    os << ",\"worksheet\":" << io::json_str(req.worksheet);
  if (req.has_file) os << ",\"file\":" << io::json_str(req.file);
  if (req.deadline_ms > 0.0)
    os << ",\"deadline_ms\":" << io::json_number(req.deadline_ms);
  if (req.no_cache) os << ",\"no_cache\":true";
  os << '}';
  return os.str();
}

std::string response_token(const std::string& line) {
  const std::string& head = response_head_prefix();
  if (line.size() <= head.size() ||
      line.compare(0, head.size(), head) != 0)
    return {};
  const std::size_t end = line.find('"', head.size());
  if (end == std::string::npos) return {};
  return line.substr(head.size(), end - head.size());
}

std::string restore_response_id(const std::string& line,
                                const std::string& orig_id) {
  const std::string& head = response_head_prefix();
  const std::size_t end = line.find('"', head.size());
  // Everything before the id value is append_head's fixed text, so the
  // splice reproduces a direct server's bytes exactly: ids render via
  // the same io::json_str, empty ids as null.
  std::string out;
  out.reserve(line.size() + orig_id.size());
  out.append(head, 0, head.size() - 1);  // drop the opening quote
  if (orig_id.empty())
    out += "null";
  else
    out += io::json_str(orig_id);
  out.append(line, end + 1, std::string::npos);
  return out;
}

// ---- Internal structures ----

/// One supervised worker process. Its channel reads the worker's stdout
/// pipe and writes its stdin pipe: open while the worker lives, write
/// side shut once the drain sent it EOF. Outside the drain, a worker
/// that is not alive has been abandoned (its fast-death budget ran out).
struct Router::Worker {
  pid_t pid = -1;
  LineChannel ch;
  bool responded_since_spawn = false;
  int fast_deaths = 0;

  bool alive() const { return ch.read_fd() >= 0; }
  bool stdin_open() const { return ch.write_fd() >= 0; }
};

/// One forwarded request awaiting its worker response.
struct Router::Pending {
  ClientPtr conn;  ///< null for the drain-time stats sweep
  std::string orig_id;
  std::size_t worker = 0;
  std::string fwd_line;  ///< token-bearing request (no newline), kept so
                         ///< a worker death can re-forward it verbatim
  std::shared_ptr<Fanout> fanout;  ///< null for evaluate
};

/// A ping/stats broadcast in flight: one sub-request per live worker,
/// one aggregated client response once the last one lands. The internal
/// fanout (the drain-time stats sweep feeding --metrics) has no client
/// connection; its aggregate goes to the obs registry instead.
struct Router::Fanout {
  ClientPtr conn;  ///< null when internal
  std::string orig_id;
  Request::Op op = Request::Op::kPing;
  std::size_t remaining = 0;
  /// Summed numeric worker stats, by key ("requests", "cache.hits", ...).
  std::map<std::string, std::uint64_t> sums;
};

namespace {

/// The summed worker counters of a stats response, in the order a worker
/// renders them; hit_ratio is derived from the summed hits and misses.
constexpr const char* kServiceStats[] = {
    "requests",          "responses_ok",     "responses_error",
    "rejected_overloaded", "rejected_draining", "deadline_expired",
    "in_flight"};
constexpr std::string_view kCacheStats[] = {
    "hits",  "misses",   "evictions", "size",
    "bytes", "capacity", "hit_ratio", "warmed"};
/// What the drain-time sweep exports as svc.fleet.<key> gauges.
constexpr const char* kFleetGauges[] = {
    "requests",          "responses_ok",     "responses_error",
    "rejected_overloaded", "rejected_draining", "deadline_expired",
    "cache.hits",        "cache.misses",     "cache.evictions",
    "cache.size",        "cache.bytes",      "cache.warmed"};

/// Best-effort accumulation: a malformed worker stats line, or a value
/// that is no counter (negative, non-finite, out of range), contributes
/// nothing to the sums.
void accumulate_stats(std::map<std::string, std::uint64_t>& sums,
                      const std::string& line) {
  auto add = [&](const std::string& key, const io::JsonValue& value) {
    if (value.is_number() && value.number >= 0.0 && value.number < 1.8e19)
      sums[key] += static_cast<std::uint64_t>(value.number);
  };
  try {
    const io::JsonValue doc = io::parse_json(line);
    const io::JsonValue* st = doc.find("stats");
    if (!st || !st->is_object()) return;
    for (const auto& [key, value] : st->object) {
      if (key == "cache" && value.is_object()) {
        for (const auto& [ck, cv] : value.object) add("cache." + ck, cv);
      } else {
        add(key, value);
      }
    }
  } catch (const std::exception&) {
  }
}

}  // namespace

// ---- Lifecycle ----

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      clients_(ClientPolicy(config_), "router",
               [this](const ClientPtr& conn, std::string line) {
                 route_line(conn, std::move(line));
               }) {
  if (config_.n_workers == 0) config_.n_workers = 1;
}

Router::~Router() {
  if (started_ && !ran_) {
    // Backstop for tests/errors that never called run().
    trigger_stop();
    run();
  }
}

void Router::trigger_stop() { clients_.request_stop(); }

void Router::start() {
  if (config_.worker_argv.empty())
    throw std::invalid_argument("svc::Router: worker_argv must not be empty");
  // Router-owned for the same reason it is server-owned: a dead worker's
  // stdin pipe must surface as EPIPE from write(2) (handled as a death,
  // respawn + re-forward), never as a fatal SIGPIPE.
  ignore_sigpipe();

  {
    std::lock_guard lock(pids_mu_);
    pids_.assign(config_.n_workers, -1);
  }
  workers_.clear();
  for (std::size_t i = 0; i < config_.n_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    if (!spawn_worker(i)) throw_errno("svc::Router: spawn worker");
  }
  port_ = clients_.listen(config_.port, config_.backlog);

  loop_thread_ = std::thread([this] { event_loop(); });
  started_ = true;
}

void Router::run() {
  if (loop_thread_.joinable()) loop_thread_.join();
  ran_ = true;
}

Router::Stats Router::stats() const {
  const ClientSet::Counters& c = clients_.counters();
  return {c.connections, requests_, forwarded_, rerouted_, worker_deaths_,
          respawns_, overloaded_local_, c.slow_clients_dropped,
          c.responses_dropped, c.accept_failures};
}

std::vector<pid_t> Router::worker_pids() const {
  std::lock_guard lock(pids_mu_);
  return pids_;
}

// ---- Worker supervision ----

bool Router::spawn_worker(std::size_t slot) {
  Worker& w = *workers_[slot];
  int in_pipe[2];   // router -> worker stdin
  int out_pipe[2];  // worker stdout -> router
  if (!make_pipe_cloexec(in_pipe)) return false;
  if (!make_pipe_cloexec(out_pipe)) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    return false;
  }

  // Build argv before fork: between fork and exec only async-signal-safe
  // calls are allowed (and the sanitizers enforce the spirit of that),
  // so no allocation may happen in the child.
  std::vector<std::string> args = config_.worker_argv;
  if (!config_.cache_dir.empty())
    args.push_back("--cache-dir=" + config_.cache_dir + "/shard-" +
                   std::to_string(slot));
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return false;
  }
  if (pid == 0) {
    // Child: wire the pipes onto stdio and become the worker. dup2
    // clears CLOEXEC on the duplicates; every other router fd (pipes,
    // sockets, other workers' ends) is CLOEXEC and vanishes at exec.
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::execvp(argv[0], argv.data());
    _exit(127);  // exec failed; the fast-death budget reports it
  }

  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  w.pid = pid;
  w.ch.open(out_pipe[0], in_pipe[1], config_.max_line_bytes);
  w.responded_since_spawn = false;
  {
    std::lock_guard lock(pids_mu_);
    pids_[slot] = pid;
  }
  write_pid_file();
  return true;
}

void Router::write_pid_file() {
  if (config_.worker_pid_file.empty()) return;
  std::vector<pid_t> pids;
  {
    std::lock_guard lock(pids_mu_);
    pids = pids_;
  }
  // Write-then-rename so a script killing workers never reads a torn
  // file mid-respawn.
  const std::string tmp = config_.worker_pid_file + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    for (pid_t pid : pids) out << pid << '\n';
  }
  std::rename(tmp.c_str(), config_.worker_pid_file.c_str());
}

void Router::forward_to(std::size_t slot, const std::string& line) {
  Worker& w = *workers_[slot];
  w.ch.queue_line(line);
  // A failed write (EPIPE: the worker died with requests still queued
  // toward it) drops the queue. Death handling — respawn + re-forward
  // from the pending map — runs off the stdout EOF already on its way.
  if (w.stdin_open()) w.ch.flush();
}

void Router::handle_worker_readable(std::size_t slot) {
  Worker& w = *workers_[slot];
  const IoStatus status = w.ch.read_lines([&](const std::string& line) {
    // Lines without a correlated token (non-protocol output: the token
    // is empty), duplicates and stale answers find nothing and drop.
    const auto it = pending_.find(response_token(line));
    if (it == pending_.end()) return;
    w.responded_since_spawn = true;
    Pending p = std::move(it->second);
    pending_.erase(it);
    if (!p.fanout) {
      clients_.complete(p.conn, restore_response_id(line, p.orig_id));
      return;
    }
    if (p.fanout->op == Request::Op::kStats)
      accumulate_stats(p.fanout->sums, line);
    fanout_answered(p.fanout);
  });
  if (status == IoStatus::kOversize) {
    // A worker emitting an unbounded non-line is broken protocol; kill
    // it and let the death path take over.
    ::kill(w.pid, SIGKILL);
  } else if (status != IoStatus::kOk) {
    // EOF is the death signal: the worker's stdout write end only closes
    // when the process exits (or execs away every fd, which a worker
    // never does). A partial trailing line is corruption and drops.
    worker_died(slot);
  }
}

void Router::worker_died(std::size_t slot) {
  Worker& w = *workers_[slot];
  if (!w.alive()) return;
  w.ch.close();
  zombies_.push_back(w.pid);
  {
    std::lock_guard lock(pids_mu_);
    pids_[slot] = -1;
  }
  if (workers_stopping_) return;  // drain: this EOF is the expected exit

  worker_deaths_.fetch_add(1, std::memory_order_relaxed);
  obs_count("svc.router.worker_death");
  w.fast_deaths = w.responded_since_spawn ? 0 : w.fast_deaths + 1;
  // Dying over and over without a single response means the worker
  // binary itself is broken (bad path, bad flags, instant crash);
  // respawning forever would be a fork storm, not fault tolerance.
  if (w.fast_deaths >= config_.max_fast_deaths || !spawn_worker(slot)) {
    obs_count("svc.router.worker_abandoned");
    // Answer everything that was in flight to the shard; an admitted
    // request is never silently dropped.
    fail_pending(slot, "worker for this shard is unavailable");
    return;
  }
  respawns_.fetch_add(1, std::memory_order_relaxed);
  obs_count("svc.router.respawn");
  // The replacement inherits the dead worker's hash range, so every
  // in-flight request re-forwards to the same slot — deterministic
  // rebalance, and deterministic evaluation makes the retried response
  // byte-identical to what the dead worker would have sent. The pending
  // map guarantees exactly-once delivery to the client either way.
  for (const auto& [token, p] : pending_) {
    if (p.worker != slot) continue;
    rerouted_.fetch_add(1, std::memory_order_relaxed);
    obs_count("svc.router.rerouted");
    forward_to(slot, p.fwd_line);
  }
}

void Router::fail_pending(std::optional<std::size_t> slot,
                          const char* message) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (slot && it->second.worker != *slot) {
      ++it;
      continue;
    }
    Pending p = std::move(it->second);
    it = pending_.erase(it);
    if (p.fanout)
      fanout_answered(p.fanout);
    else
      clients_.complete(p.conn, internal_error_response(p.orig_id, message));
  }
}

void Router::reap_zombies(bool block) {
  auto it = zombies_.begin();
  while (it != zombies_.end()) {
    int status = 0;
    const pid_t r = ::waitpid(*it, &status, block ? 0 : WNOHANG);
    if (r == *it || (r < 0 && errno == ECHILD))
      it = zombies_.erase(it);
    else
      ++it;
  }
}

// ---- Client side ----

void Router::route_line(const ClientPtr& conn, std::string line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  obs_count("svc.router.requests");

  Request req;
  try {
    req = parse_request(line);
  } catch (const ProtocolError& e) {
    // Same renderer + same parser => the same bytes a direct worker
    // would have produced; no need to burn a round-trip on it.
    clients_.respond(conn, error_response(e.id(), e.code(), e.what()));
    return;
  }

  switch (req.op) {
    case Request::Op::kPing:
    case Request::Op::kStats:
      start_fanout(conn, req);
      return;
    case Request::Op::kShutdown:
      // Ack first (the bytes a direct server sends), then drain the
      // whole fleet via the wake pipe — the same latch signals use —
      // so the response still flushes: drain only stops reads.
      clients_.respond(conn, shutdown_response(req.id));
      trigger_stop();
      return;
    case Request::Op::kEvaluate:
      break;
  }

  const std::uint64_t fp = route_fingerprint(req);
  const std::size_t slot = static_cast<std::size_t>(fp % config_.n_workers);
  const Worker& w = *workers_[slot];
  if (!w.alive()) {
    clients_.respond(conn,
                     internal_error_response(
                         req.id, "worker for this shard is unavailable"));
    return;
  }
  if (w.ch.pending() > config_.max_worker_pipe_bytes) {
    // The shard owner has stopped draining its stdin: local admission
    // control, same contract as the service's bounded queue.
    overloaded_local_.fetch_add(1, std::memory_order_relaxed);
    obs_count("svc.router.overloaded_local");
    clients_.respond(conn,
                     error_response(req.id, SvcErrorCode::kOverloaded,
                                    "worker pipe full; retry later"));
    return;
  }
  ++conn->outstanding;
  forward_new(slot, conn, req, nullptr);
}

void Router::forward_new(std::size_t slot, const ClientPtr& conn,
                         const Request& req, std::shared_ptr<Fanout> fanout) {
  const std::string token = next_token();
  Pending p;
  p.conn = conn;
  p.orig_id = req.id;
  p.worker = slot;
  p.fwd_line = encode_forward(token, req);
  p.fanout = std::move(fanout);
  if (conn) {  // the drain-time sweep is not client traffic
    forwarded_.fetch_add(1, std::memory_order_relaxed);
    obs_count("svc.router.forwarded");
  }
  const auto it = pending_.emplace(token, std::move(p)).first;
  forward_to(slot, it->second.fwd_line);
}

void Router::start_fanout(const ClientPtr& conn, const Request& req) {
  // An internal sweep rides the normal Pending map too, so drain phase
  // 1's "pending_ empty" gate waits for its answers before worker stdins
  // close (and the flush-deadline backstop cancels them if a worker
  // hangs).
  auto fanout = std::make_shared<Fanout>();
  fanout->conn = conn;
  fanout->orig_id = req.id;
  fanout->op = req.op;
  fanout->remaining = 1;  // the broadcast itself, released below
  if (conn) ++conn->outstanding;
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
    if (!workers_[slot]->stdin_open()) continue;
    ++fanout->remaining;
    forward_new(slot, conn, req, fanout);
  }
  fanout_answered(fanout);  // answers now when no worker was live
}

void Router::fanout_answered(const std::shared_ptr<Fanout>& fanout) {
  Fanout& f = *fanout;
  if (--f.remaining > 0) return;
  const auto alive = std::count_if(workers_.begin(), workers_.end(),
                                   [](const auto& w) { return w->alive(); });
  if (!f.conn) {
    // Drain-time sweep: flush the fleet-wide sums into the registry so
    // the --metrics file carries what the workers saw, not just the
    // front-end's own counters. Gauges, not counters: these are
    // terminal absolute values read once at export.
    obs::Registry& r = obs::Registry::global();
    for (const char* key : kFleetGauges)
      r.set_gauge(std::string("svc.fleet.") + key,
                  static_cast<double>(f.sums[key]));
    r.set_gauge("svc.fleet.workers_alive", static_cast<double>(alive));
    return;
  }
  if (f.op == Request::Op::kPing) {
    clients_.complete(f.conn, pong_response(f.orig_id));
    return;
  }
  ResultCache::Stats cs;
  cs.hits = f.sums["cache.hits"];
  cs.misses = f.sums["cache.misses"];
  std::ostringstream os;
  os << "{\"schema\":\"" << kProtocolSchema << "\",\"id\":"
     << (f.orig_id.empty() ? std::string("null") : io::json_str(f.orig_id));
  // The "stats" object sums the workers' counters in the worker key
  // order; "router" carries the front-end's own.
  os << ",\"status\":\"ok\",\"op\":\"stats\",\"stats\":{";
  for (const char* key : kServiceStats)
    os << '"' << key << "\":" << f.sums[key] << ',';
  os << "\"cache\":{";
  for (const std::string_view key : kCacheStats) {
    os << (key == kCacheStats[0] ? "\"" : ",\"") << key << "\":";
    if (key == "hit_ratio")
      os << io::json_number(hit_ratio(cs));
    else
      os << f.sums["cache." + std::string(key)];
  }
  const Stats st = stats();
  os << "}},\"router\":{\"workers\":" << config_.n_workers
     << ",\"alive\":" << alive << ",\"connections\":" << st.connections
     << ",\"requests\":" << st.requests << ",\"forwarded\":" << st.forwarded
     << ",\"rerouted\":" << st.rerouted
     << ",\"worker_deaths\":" << st.worker_deaths
     << ",\"respawns\":" << st.respawns
     << ",\"overloaded_local\":" << st.overloaded_local
     << ",\"slow_clients_dropped\":" << st.slow_clients_dropped
     << ",\"responses_dropped\":" << st.responses_dropped
     << ",\"accept_failures\":" << st.accept_failures << "}}";
  clients_.complete(f.conn, os.str());
}

// ---- Event loop ----

void Router::event_loop() {
  std::optional<obs::ScopedTimer> shutdown_timer;
  std::vector<pollfd> pfds;

  for (;;) {
    reap_zombies(false);

    pfds.clear();
    const int timeout_ms = clients_.add_to_poll(pfds);
    // Two entries per worker, stdout then stdin; poll(2) skips the -1 of
    // a dead worker, a closed stdin or an empty queue.
    const std::size_t first_worker = pfds.size();
    for (const auto& w : workers_) {
      pfds.push_back({w->ch.read_fd(), POLLIN, 0});
      pfds.push_back(
          {w->ch.pending() > 0 ? w->ch.write_fd() : -1, POLLOUT, 0});
    }

    if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms) <
        0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable; bail out
    }

    clients_.handle_poll(pfds);
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Worker& w = *workers_[i];
      const short from_worker = pfds[first_worker + 2 * i].revents;
      const short to_worker = pfds[first_worker + 2 * i + 1].revents;
      if (w.alive() && (from_worker & (POLLIN | POLLHUP | POLLERR)) != 0)
        handle_worker_readable(i);
      // A failed write drops the queue, as in forward_to.
      if (w.alive() && (to_worker & (POLLOUT | POLLHUP | POLLERR)) != 0)
        w.ch.flush();
    }
    clients_.sweep();

    if (!clients_.draining()) continue;
    if (!shutdown_timer) {
      shutdown_timer.emplace("svc.router.shutdown");
      // The drain's first pass sweeps the fleet's stats into --metrics.
      Request sweep;
      sweep.op = Request::Op::kStats;
      if (obs::enabled()) start_fanout(nullptr, sweep);
    }

    const std::uint64_t now = obs::now_ns();
    if (!workers_stopping_) {
      // Drain phase 1: answer everything admitted, flush every client.
      // Budget exhausted: whatever a worker still owes is answered with
      // a structured error (a hung worker must not hang shutdown), and
      // drain_flushed() drops whoever is not reading their responses.
      if (clients_.drain_expired())
        fail_pending(std::nullopt,
                     "router shut down before the worker answered");
      if (clients_.drain_flushed() && pending_.empty()) {
        // Phase 2: the fleet winds down. Closing a worker's stdin is its
        // graceful-drain trigger (mirrors piping into rat_serve --stdio):
        // it answers what it admitted, flushes stdout, and exits 0.
        clients_.close_all();
        for (const auto& w : workers_) w->ch.shut_write();
        workers_stopping_ = true;
        worker_exit_deadline_ns_ =
            now + static_cast<std::uint64_t>(
                      std::max(config_.worker_exit_timeout_ms, 0)) *
                      1'000'000ull;
      }
    } else {
      if (std::none_of(workers_.begin(), workers_.end(),
                       [](const auto& w) { return w->alive(); }))
        break;
      if (now > worker_exit_deadline_ns_) {
        for (const auto& w : workers_)
          if (w->alive()) ::kill(w->pid, SIGKILL);
        worker_exit_deadline_ns_ = ~0ull;  // kill once; EOFs follow
      }
    }
  }

  clients_.close_all();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!workers_[i]->alive()) continue;
    ::kill(workers_[i]->pid, SIGKILL);
    worker_died(i);
  }
  reap_zombies(/*block=*/true);
}

std::string Router::next_token() {
  // Tokens are the correlation ids on the worker wire: short, strictly
  // alphanumeric (so io::json_str never escapes them and response_token
  // can scan to the bare closing quote), unique per router lifetime.
  char buf[24];
  std::snprintf(buf, sizeof buf, "t%llx",
                static_cast<unsigned long long>(token_counter_++));
  return std::string(buf);
}

}  // namespace rat::svc
