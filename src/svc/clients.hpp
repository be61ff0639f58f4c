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

namespace rat::svc {

/// The client-side fields ServerConfig and RouterConfig share.
struct ClientPolicy {
  std::size_t max_line_bytes;
  std::size_t max_write_buffer_bytes;
  int so_sndbuf;
  int accept_backoff_ms;
  int drain_flush_timeout_ms;

  template <class Config>
  explicit ClientPolicy(const Config& c)
      : max_line_bytes(c.max_line_bytes),
        max_write_buffer_bytes(c.max_write_buffer_bytes),
        so_sndbuf(c.so_sndbuf),
        accept_backoff_ms(c.accept_backoff_ms),
        drain_flush_timeout_ms(c.drain_flush_timeout_ms) {}
};

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

  /// The svc.<side>.* counters, readable from any thread.
  struct Counters {
    std::atomic<std::uint64_t> connections{0};
    std::atomic<std::uint64_t> slow_clients_dropped{0};
    std::atomic<std::uint64_t> responses_dropped{0};
    std::atomic<std::uint64_t> write_failures{0};
    std::atomic<std::uint64_t> accept_failures{0};
  };

  /// @p side names the metrics: "server" counts svc.server.*.
  ClientSet(const ClientPolicy& policy, const std::string& side,
            OnLine on_line, std::function<void()> on_stdio_end = {});

  /// Listen on 127.0.0.1:@p port; returns the bound port.
  int listen(int port, int backlog) { return listener_.open(port, backlog); }
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
  void count(std::atomic<std::uint64_t>& counter, const char* metric);

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
  std::string metric_prefix_;  ///< "svc.server." or "svc.router."
  Counters counters_;
};

}  // namespace rat::svc
