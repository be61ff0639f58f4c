// Transport for the prediction service: newline-delimited JSON over
// stdio and/or a loopback TCP listener, served by one readiness-driven
// event loop.
//
// A single loop thread owns every file descriptor. Its clients — the TCP
// connections and the stdio pair — live in a ClientSet (svc/clients.hpp),
// the client side rat_router shares: one LineChannel (svc/channel.hpp)
// per client for framing and partial writes, plus the accept, oversize,
// slow-client and drain policies.
//
// Each poll turn collects the request lines it read and hands every one
// to the Service before the turn ends, so a drain cannot miss a line
// that was read. All but the first are submitted plainly: their lookup
// and evaluation run on the shared ThreadPool. The first is submitted
// last, with the caller-thread lookup (Service::Lookup::kCaller): the
// loop parses, fingerprints and looks it up itself, and answers a hit
// from the cache and a miss by computing it, on the spot. Only a miss
// whose insert is journaled (--cache-dir) or whose worksheet lists more
// than Service::kCallerMaxClocks clocks is queued, with its parse; a
// worksheet longer than Service::kCallerMaxWorksheetBytes is queued
// before it.
// Answers produced on the loop thread are completed in the same turn;
// pool workers hand theirs back through a notify pipe. Worker threads
// never touch sockets, so a response is never lost to a racing
// connection teardown and a blocked send can never stall a worker.
//
// Why one line a turn: a lone request has no other work to overlap
// with, so the two thread hops cost more than its lookup, or than a
// short miss's predict_all (stages add, the paper's Eq. 5). In a busy
// turn the pool works on the rest while the loop serves the first
// (overlap takes the max, Eq. 6), so one rat_serve still spreads a
// burst over --threads workers.
//
// Slow clients: each connection's outbound queue is bounded
// (ClientPolicy::max_write_buffer_bytes of unsent bytes). A client that
// stops reading while responses keep arriving exceeds the bound and is
// disconnected — counted as svc.server.slow_client_dropped — instead of
// ever blocking the loop, other connections, or the graceful drain.
//
// Lifecycle:
//
//   start()  bind 127.0.0.1:<port> (port 0 = ephemeral; port() tells
//            you what was bound), register the stdio connection when
//            configured, and spawn the event loop;
//   run()    join the loop. The loop exits only after a stop trigger,
//            then drains gracefully:
//            1. stop accepting and stop reading (connections stay open),
//            2. service.begin_drain() — late arrivals get
//               E_SHUTTING_DOWN,
//            3. every admitted request's response is flushed through the
//               still-open connections; clients that refuse to read get
//               drain_flush_timeout_ms before being dropped as slow,
//            4. sockets close, the loop thread exits,
//            5. with observability on, the service's, its cache's and
//               the server's stats are recorded into the obs registry,
//               once (the svc.* metrics, docs/SERVICE.md).
//
// Stop triggers: trigger_stop() from any thread, a shutdown op (the
// server installs itself as the Service's shutdown handler), stdin EOF
// in stdio mode, or a signal handler writing one byte to wake_fd() —
// write(2) is async-signal-safe, which is the entire reason the wake
// pipe exists. rat_serve wires SIGINT/SIGTERM to exactly that
// (stop_on_signals, svc/channel.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "svc/clients.hpp"
#include "svc/service.hpp"

namespace rat::svc {

struct ServerConfig {
  /// Port, backlog and the client policies rat_router shares (port 0 =
  /// ephemeral: read the result via port()).
  ClientPolicy client{};
  bool tcp = true;        ///< listen on loopback TCP
  bool stdio = false;     ///< also serve stdin -> stdout
  /// The fds served in stdio mode (defaults: the process's stdin and
  /// stdout). Tests point these at pipes to exercise stdio lifecycle —
  /// reader-gone EPIPE, EOF drain — without touching the real fds 0/1.
  int stdio_in_fd = 0;
  int stdio_out_fd = 1;
};

class Server {
 public:
  /// Transport-level counters (exported at drain as svc.server.*).
  struct Stats {
    std::uint64_t connections = 0;          ///< sockets accepted
    std::uint64_t slow_clients_dropped = 0; ///< write queue bound exceeded
    std::uint64_t responses_dropped = 0;    ///< response to a gone client
    std::uint64_t write_failures = 0;       ///< hard send/write errors
    std::uint64_t accept_failures = 0;      ///< accept(2) EMFILE/ENFILE
  };

  Server(Service& service, ServerConfig config);

  /// Joins the loop; trigger_stop() + run() must have completed (the
  /// destructor stops and joins as a backstop).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind/listen and spawn the event loop. Throws std::system_error when
  /// the socket cannot be bound.
  void start();

  /// Bound TCP port (valid after start() when config.tcp).
  int port() const { return port_; }

  /// Write end of the wake pipe, for async-signal-safe stop requests:
  /// a signal handler may write(wake_fd(), "x", 1).
  int wake_fd() const { return clients_.stop_fd(); }

  /// Request stop from normal (non-signal) context.
  void trigger_stop();

  /// Block until stopped and fully drained (see file comment).
  void run();

  Stats stats() const;

 private:
  void event_loop();
  /// Submit the lines read this turn (see file comment).
  void submit_turn();
  void submit_line(const ClientSet::ClientPtr& client,
                   const std::string& line, Service::Lookup lookup);

  Service& service_;
  ServerConfig config_;

  WakePipe notify_;  ///< completion handoff: workers ping the loop
  ClientSet clients_;  ///< loop-thread-only, except the stop latch
  int port_ = -1;
  /// The request lines read this poll turn (loop thread only).
  std::vector<std::pair<ClientSet::ClientPtr, std::string>> turn_;

  // Completed responses, handed from any thread to the loop.
  std::mutex done_mu_;
  std::vector<std::pair<ClientSet::ClientPtr, std::string>> done_;

  std::thread loop_thread_;  ///< after everything the loop uses

  bool started_ = false;
  bool ran_ = false;
};

}  // namespace rat::svc
