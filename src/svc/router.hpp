// rat_router: the scale-out front-end for the prediction service.
//
// One router process speaks the existing rat.svc.v1 newline-JSON
// protocol to clients and fans the work out across N rat_serve worker
// processes it spawns and supervises itself (fork + exec, stdio pipes:
// the workers run `--stdio --no-tcp`, so a worker's whole transport is
// two pipe ends owned by the router's event loop). Each worker owns a
// fixed shard of the rat.fp.v1 fingerprint space — requests route by
// `fingerprint % n_workers` — and, when a cache directory is
// configured, its own durable `--cache-dir` shard, so a restarted fleet
// warm-starts shard by shard and a given worksheet always lands on the
// worker that already holds its cached result.
//
// The router runs one poll(2) loop over the server's connection core:
// its clients live in the same ClientSet (svc/clients.hpp) as rat_serve's
// — accept with EMFILE backoff, oversize rejection, slow-client drop and
// the drain flush deadline — and each worker's two pipe ends are one
// LineChannel (svc/channel.hpp). Everything runs on the single loop
// thread — routing a request is a parse + hash, never an evaluation, so
// the router needs no thread pool.
//
// Forwarding and byte identity: the router rewrites each request's id
// to a private correlation token before forwarding (encode_forward) and
// splices the original id back into the worker's response line
// (restore_response_id). Both live next to the one response-head
// emitter in svc/protocol.cpp, so the spliced line is byte-identical to
// what a direct rat_serve would have produced — cache hit or miss,
// success or structured E_* diagnostic, E_OVERLOADED backpressure
// included, the worker's bytes pass through verbatim apart from the id
// slot.
//
// Supervision: a worker's death (EOF on its stdout pipe) triggers an
// immediate in-place respawn; the replacement deterministically
// inherits the dead worker's hash range, and every request that was
// in flight to the dead worker is re-forwarded to the replacement, so
// an admitted request is answered exactly once even across a kill -9
// (re-evaluation is deterministic and responses carry no hit/miss
// marker, so the retried bytes are identical). A worker that keeps
// dying without ever answering (a broken worker binary) exhausts a
// fast-death budget and its shard is abandoned with structured
// E_INTERNAL responses instead of a respawn storm.
//
// ping / stats fan out to every live worker; stats responses aggregate
// the workers' counters plus the router's own (exported at drain as the
// svc.router.* metrics).
// A shutdown op — or SIGINT/SIGTERM via wake_fd(), exactly like the
// server — drains: stop accepting, stop reading, answer everything in
// flight, then close the workers' stdins so each worker runs its own
// graceful EOF drain, reap them, and exit.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "svc/clients.hpp"
#include "svc/protocol.hpp"

namespace rat::svc {

struct RouterConfig {
  /// Port, backlog and the client policies rat_serve shares (port 0 =
  /// ephemeral: read the result via port()). max_line_bytes bounds the
  /// workers' response lines too.
  ClientPolicy client{};
  std::size_t n_workers = 4;
  /// argv to exec one worker (typically {rat_serve, "--stdio",
  /// "--no-tcp", ...}); the router appends the per-shard --cache-dir.
  std::vector<std::string> worker_argv;
  /// When set, worker i runs with --cache-dir=<cache_dir>/shard-<i>.
  std::string cache_dir;
  /// When set, rewritten (atomically) after every spawn/respawn: one
  /// worker pid per line in shard order, for scripts that kill workers.
  std::string worker_pid_file;
  /// Per-worker bound on bytes queued toward the worker's stdin. A full
  /// worker pipe means the worker has stopped keeping up; new requests
  /// routed to it are rejected with E_OVERLOADED instead of buffering
  /// unboundedly (requests re-forwarded after a death are exempt — they
  /// were already admitted).
  std::size_t max_worker_pipe_bytes = 4u << 20;
  /// Consecutive deaths without a single response before a shard is
  /// abandoned (guards against respawn-storming a broken worker binary).
  int max_fast_deaths = 5;
};

class Router {
 public:
  /// Front-end counters (exported at drain as svc.router.*).
  struct Stats {
    std::uint64_t connections = 0;     ///< client sockets accepted
    std::uint64_t requests = 0;        ///< client lines parsed
    std::uint64_t forwarded = 0;       ///< sub-requests sent to workers
    std::uint64_t rerouted = 0;        ///< re-forwarded after a death
    std::uint64_t worker_deaths = 0;   ///< unexpected worker EOFs
    std::uint64_t respawns = 0;        ///< replacement workers spawned
    std::uint64_t overloaded_local = 0;  ///< full worker pipe rejections
    std::uint64_t slow_clients_dropped = 0;
    std::uint64_t responses_dropped = 0;  ///< response to a gone client
    std::uint64_t accept_failures = 0;    ///< accept(2) EMFILE/ENFILE
    // Exported at drain, not rendered by the stats op.
    std::uint64_t write_failures = 0;     ///< hard client write errors
    std::uint64_t workers_abandoned = 0;  ///< shards given up on
  };

  explicit Router(RouterConfig config);

  /// Stops, drains and reaps as a backstop when run() never happened.
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Spawn the workers, bind/listen, and start the event loop. Throws
  /// std::system_error when a socket, pipe or fork fails.
  void start();

  /// Bound TCP port (valid after start()).
  int port() const { return port_; }

  /// Write end of the wake pipe for async-signal-safe stop requests,
  /// exactly as Server::wake_fd().
  int wake_fd() const { return clients_.stop_fd(); }

  void trigger_stop();

  /// Join the loop: blocks until stopped, drained, and every worker has
  /// exited (or been SIGKILLed 5 s after its stdin closed). With
  /// observability on, then records stats() into the obs registry, once.
  void run();

  Stats stats() const;

  /// Current worker pids in shard order (-1 for an abandoned shard).
  std::vector<pid_t> worker_pids() const;

 private:
  struct Worker;
  struct Pending;
  struct Fanout;
  using ClientPtr = ClientSet::ClientPtr;

  void event_loop();
  void route_line(const ClientPtr& conn, std::string line);
  /// Broadcast ping/stats to every live worker. A null @p conn is the
  /// drain-time stats sweep whose aggregate lands in the obs registry
  /// (svc.fleet.* gauges) for the --metrics export.
  void start_fanout(const ClientPtr& conn, const Request& req);
  /// One sub-request answered; the last one answers the broadcast.
  void fanout_answered(const std::shared_ptr<Fanout>& fanout);
  /// Register a token-bearing copy of @p req as pending on @p slot and
  /// forward it.
  void forward_new(std::size_t slot, const ClientPtr& conn,
                   const Request& req, std::shared_ptr<Fanout> fanout);
  /// Answer every pending request (of @p slot only, when given) with a
  /// structured E_INTERNAL carrying @p message.
  void fail_pending(std::optional<std::size_t> slot, const char* message);

  bool spawn_worker(std::size_t slot);
  void forward_to(std::size_t slot, const std::string& line);
  void handle_worker_readable(std::size_t slot);
  void worker_died(std::size_t slot);
  void reap_zombies(bool block);
  void write_pid_file();
  std::string next_token();

  RouterConfig config_;

  ClientSet clients_;  ///< loop-thread-only, except the stop latch
  int port_ = -1;

  // Loop-thread-only state.
  std::vector<std::unique_ptr<Worker>> workers_;
  /// token -> in-flight request; looked up by response_token's view.
  std::map<std::string, Pending, std::less<>> pending_;
  std::uint64_t token_counter_ = 0;
  bool workers_stopping_ = false;  ///< drain: worker stdins closed
  std::uint64_t worker_exit_deadline_ns_ = 0;
  std::vector<pid_t> zombies_;  ///< dead workers not yet reaped

  mutable std::mutex pids_mu_;
  std::vector<pid_t> pids_;  ///< shard-order snapshot for worker_pids()

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> rerouted_{0};
  std::atomic<std::uint64_t> worker_deaths_{0};
  std::atomic<std::uint64_t> respawns_{0};
  std::atomic<std::uint64_t> overloaded_local_{0};
  std::atomic<std::uint64_t> workers_abandoned_{0};

  std::thread loop_thread_;  ///< after everything the loop uses
  bool started_ = false;
  bool ran_ = false;
};

// ---- Routing helpers (unit-tested and benchmarked directly) ----

/// The routing key for one parsed request: the rat.fp.v1 canonical
/// fingerprint when the inline worksheet parses (so every formatting of
/// one design routes to the worker holding its cached result), the hash
/// of the raw worksheet text when it does not (the owning worker will
/// produce the structured diagnostic), and the hash of the path for
/// server-side `file` requests.
std::uint64_t route_fingerprint(const Request& req);

}  // namespace rat::svc
