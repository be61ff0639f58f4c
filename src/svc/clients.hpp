// The client side rat_serve and rat_router share: the loopback listener,
// one LineChannel per client, the stop latch, and the policies that act
// on them. A loop adds the set's fds to its poll set and hands back the
// revents; request lines go to the owner's on_line, answers come back
// through respond() and complete(). Loop-thread only, except counters()
// and request_stop().
//
// Policies, each written once:
//   accept       EMFILE backoff (Listener), SO_SNDBUF from the config;
//   oversize     a structured E_BAD_REQUEST, then no more reads and a
//                close once the client's owed responses are out;
//   EOF          an unterminated last line still counts as a request,
//                then the same half-close;
//   slow client  over max_write_buffer_bytes unsent, the client drops
//                instead of blocking the loop, other clients or the drain;
//   drain        once the stop latch fires: no accepts or reads; after
//                drain_flush_timeout_ms whoever still has unsent bytes
//                drops as slow, so shutdown ends.
// A stdio client differs by the owner's choice: when its input ends or it
// closes, on_stdio_end runs (the server drains).
#pragma once

#include <poll.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "svc/channel.hpp"

namespace rat::util {
class Cli;
}  // namespace rat::util

namespace rat::svc {

/// The client-side settings rat_serve and rat_router share, declared
/// once: ServerConfig and RouterConfig each hold one. The policies that
/// use them are described above.
struct ClientPolicy {
  int port = 0;      ///< loopback TCP port (0 = ephemeral; see listen())
  int backlog = 64;  ///< listen(2) backlog
  std::size_t max_line_bytes = 4u << 20;          ///< oversize above this
  std::size_t max_write_buffer_bytes = 4u << 20;  ///< slow above this
  /// SO_SNDBUF for accepted sockets (0 = OS default); a small one makes
  /// the slow-client policy bite deterministically.
  int so_sndbuf = 0;
  int accept_backoff_ms = 50;         ///< listener pause after EMFILE
  int drain_flush_timeout_ms = 5000;  ///< drain budget before slow drops
};

/// The defaults with the client flags rat_serve and rat_router share
/// applied; throws std::invalid_argument naming the flag:
///   --port=N                loopback TCP port (default 0 = ephemeral;
///                           the bound port is announced on stdout)
///   --backlog=N             listen(2) backlog (default 64)
///   --write-buffer-bytes=N  per-client bound on unsent response bytes
///                           (default 4 MiB); past it a client is slow
///   --so-sndbuf=N           SO_SNDBUF for accepted sockets (default 0 =
///                           OS default)
ClientPolicy parse_client_flags(const util::Cli& cli);

/// --port-file=<path>: write @p port and a newline there, for scripts
/// (the race-free variant of the announcement); false when the flag is
/// given and the file cannot be written.
bool write_port_file(const util::Cli& cli, int port);

class ClientSet {
 public:
  struct Client {
    LineChannel ch;
    bool stdio = false;
    bool read_shut = false;        ///< EOF, oversize, or drain
    bool close_when_idle = false;  ///< close once nothing is owed
    std::size_t outstanding = 0;   ///< admitted requests not yet answered
    /// Closed: late answers are dropped.
    bool dead() const { return ch.read_fd() < 0; }
  };
  using ClientPtr = std::shared_ptr<Client>;
  using OnLine = std::function<void(const ClientPtr&, std::string)>;

  /// Client-side event counts, readable from any thread; the owner's
  /// stats() reports them.
  struct Counters {
    std::atomic<std::uint64_t> connections{0};
    std::atomic<std::uint64_t> slow_clients_dropped{0};
    std::atomic<std::uint64_t> responses_dropped{0};
    std::atomic<std::uint64_t> write_failures{0};
    std::atomic<std::uint64_t> accept_failures{0};
  };

  ClientSet(const ClientPolicy& policy, OnLine on_line,
            std::function<void()> on_stdio_end = {});

  /// Listen on 127.0.0.1 at the policy's port; returns the bound port.
  int listen() { return listener_.open(policy_.port, policy_.backlog); }
  /// Serve @p in_fd -> @p out_fd as a stdio client (fds left open).
  void add_stdio(int in_fd, int out_fd);

  /// Ask the loop to drain, from any thread; a signal handler may write
  /// one byte to stop_fd() instead (write(2) is async-signal-safe).
  void request_stop() const { stop_.wake(); }
  int stop_fd() const { return stop_.write_fd(); }
  bool draining() const { return draining_; }

  /// Append the stop latch, the listener and every client that wants I/O
  /// to @p pfds; returns the poll timeout: 20 ms while draining (owners
  /// re-check their own drain state), else what an accept backoff needs.
  int add_to_poll(std::vector<pollfd>& pfds);
  /// Act on the revents of the entries the last add_to_poll appended.
  void handle_poll(const std::vector<pollfd>& pfds);

  /// Queue @p line for @p c (counted as dropped when @p c is gone).
  void respond(const ClientPtr& c, std::string_view line);
  /// respond() to an admitted request: one fewer outstanding.
  void complete(const ClientPtr& c, std::string_view line) {
    if (c->outstanding > 0) --c->outstanding;
    respond(c, line);
  }

  /// Close clients that said goodbye and owe nothing; forget dead ones.
  void sweep();

  bool drain_expired() const;
  /// Whether every response is written; past the deadline, first drops
  /// the clients that still hold unsent bytes.
  bool drain_flushed();
  void close_all();

  const Counters& counters() const { return counters_; }

 private:
  void begin_drain();
  void accept_all();
  void on_readable(const ClientPtr& c);
  void flush(Client& c);
  void drop_slow(Client& c);
  void close(Client& c);

  ClientPolicy policy_;
  OnLine on_line_;
  std::function<void()> on_stdio_end_;
  WakePipe stop_;  ///< latching: never read, so polled until it fires
  bool draining_ = false;
  Listener listener_;
  std::vector<ClientPtr> clients_;
  std::size_t first_ = 0;          ///< pfds index of the stop latch
  std::vector<ClientPtr> polled_;  ///< pfds[first_ + 2 + i] -> client
  std::uint64_t flush_deadline_ns_ = 0;
  Counters counters_;
};

}  // namespace rat::svc
