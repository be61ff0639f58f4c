// Transport for the prediction service: newline-delimited JSON over
// stdio and/or a loopback TCP listener, served by one readiness-driven
// event loop.
//
// A single loop thread owns every file descriptor. Its clients — the TCP
// connections and the stdio pair — live in a ClientSet (svc/clients.hpp),
// the client side rat_router shares: one LineChannel (svc/channel.hpp)
// per client for framing and partial writes, plus the accept, oversize,
// slow-client and drain policies. Request lines are handed to the
// Service; evaluations run on the shared ThreadPool, and completed
// responses are handed back to the loop through a notify pipe — worker
// threads never touch sockets, so a response is never lost to a racing
// connection teardown and a blocked send can never stall a worker.
//
// Slow clients: each connection's outbound queue is bounded
// (max_write_buffer_bytes of unsent bytes). A client that stops reading
// while responses keep arriving exceeds the bound and is disconnected —
// counted as svc.server.slow_client_dropped — instead of ever blocking
// the loop, other connections, or the graceful drain.
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
//            4. sockets close, the loop thread exits.
//
// Stop triggers: trigger_stop() from any thread, a shutdown op (the
// server installs itself as the Service's shutdown handler), stdin EOF
// in stdio mode, or a signal handler writing one byte to wake_fd() —
// write(2) is async-signal-safe, which is the entire reason the wake
// pipe exists. rat_serve wires SIGINT/SIGTERM to exactly that.
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
  bool tcp = true;        ///< listen on loopback TCP
  int port = 0;           ///< 0 = ephemeral (read the result via port())
  bool stdio = false;     ///< also serve stdin -> stdout
  std::size_t max_line_bytes = 4u << 20;  ///< oversize lines are rejected
                                          ///< and the connection closed
  int backlog = 64;       ///< listen(2) backlog (--backlog)
  /// Bounded per-connection outbound queue: when more than this many
  /// unsent response bytes pile up, the client has stopped reading and
  /// is disconnected (svc.server.slow_client_dropped) instead of
  /// blocking the event loop behind a full socket buffer.
  std::size_t max_write_buffer_bytes = 4u << 20;
  /// SO_SNDBUF for accepted sockets (0 = OS default). Small values bound
  /// how much the kernel buffers on the server side, which makes the
  /// slow-client policy bite deterministically.
  int so_sndbuf = 0;
  /// Flush budget during drain: pending responses may keep trickling to
  /// clients this long; whoever still has unread bytes afterwards is
  /// dropped as a slow client so shutdown always terminates.
  int drain_flush_timeout_ms = 5000;
  /// Backoff after accept(2) fails with EMFILE/ENFILE (fd exhaustion):
  /// the listen fd stays readable while the pending connection waits, so
  /// without a pause the loop would poll-spin at 100% CPU. The listen fd
  /// is simply not polled for this long, then accept retries — the
  /// queued connection is still there if fds freed up.
  int accept_backoff_ms = 50;
  /// The fds served in stdio mode (defaults: the process's stdin and
  /// stdout). Tests point these at pipes to exercise stdio lifecycle —
  /// reader-gone EPIPE, EOF drain — without touching the real fds 0/1.
  int stdio_in_fd = 0;
  int stdio_out_fd = 1;
};

class Server {
 public:
  /// Transport-level counters (the svc.server.* metrics, readable
  /// without the obs registry).
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
  void submit_line(const ClientSet::ClientPtr& client, std::string line);

  Service& service_;
  ServerConfig config_;

  WakePipe notify_;  ///< completion handoff: workers ping the loop
  ClientSet clients_;  ///< loop-thread-only, except the stop latch
  int port_ = -1;

  // Completed responses, handed from any thread to the loop.
  std::mutex done_mu_;
  std::vector<std::pair<ClientSet::ClientPtr, std::string>> done_;

  std::thread loop_thread_;  ///< after everything the loop uses

  bool started_ = false;
  bool ran_ = false;
};

}  // namespace rat::svc
