#include "svc/server.hpp"

#include <poll.h>

#include <cerrno>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"

namespace rat::svc {

Server::Server(Service& service, ServerConfig config)
    : service_(service),
      config_(config),
      clients_(ClientPolicy(config), "server",
               [this](const ClientSet::ClientPtr& client, std::string line) {
                 submit_line(client, std::move(line));
               },
               // stdin EOF, or stdout gone: no request can ever arrive or
               // be answered again, so a piped `rat_serve --stdio` drains
               // and exits instead of hanging.
               [this] { trigger_stop(); }) {}

Server::~Server() {
  if (started_ && !ran_) {
    // Backstop for tests/errors that never called run().
    trigger_stop();
    run();
  }
}

void Server::trigger_stop() { clients_.request_stop(); }

void Server::start() {
  // Server-owned, not app-owned: a --stdio server whose stdout reader
  // exited must see EPIPE (a normal close + drain), not die of SIGPIPE
  // mid-response.
  ignore_sigpipe();
  if (config_.tcp) port_ = clients_.listen(config_.port, config_.backlog);
  if (config_.stdio)
    clients_.add_stdio(config_.stdio_in_fd, config_.stdio_out_fd);
  // A shutdown op drains the whole server, not just the service.
  service_.set_shutdown_handler([this] { trigger_stop(); });
  loop_thread_ = std::thread([this] { event_loop(); });
  started_ = true;
}

void Server::run() {
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop exits only once the service reports no in-flight work, but
  // wait_drained() also covers direct library submissions that bypassed
  // the transport entirely.
  service_.begin_drain();
  service_.wait_drained();
  ran_ = true;
}

Server::Stats Server::stats() const {
  const ClientSet::Counters& c = clients_.counters();
  return {c.connections, c.slow_clients_dropped, c.responses_dropped,
          c.write_failures, c.accept_failures};
}

void Server::event_loop() {
  std::optional<obs::ScopedTimer> shutdown_timer;
  std::vector<pollfd> pfds;
  for (;;) {
    pfds.assign(1, {notify_.read_fd(), POLLIN, 0});
    // While draining, the service's in-flight count can hit zero without
    // any fd becoming ready (workers only ping the notify pipe when a
    // response lands), so the poll times out to re-check.
    const int timeout_ms = clients_.add_to_poll(pfds);
    if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms) <
        0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((pfds[0].revents & POLLIN) != 0) notify_.drain();
    std::vector<std::pair<ClientSet::ClientPtr, std::string>> batch;
    {
      std::lock_guard lock(done_mu_);
      batch.swap(done_);
    }
    for (auto& [client, line] : batch) clients_.complete(client, line);
    clients_.handle_poll(pfds);
    clients_.sweep();

    if (clients_.draining()) {
      if (!shutdown_timer) shutdown_timer.emplace("svc.server.shutdown");
      // Reads stopped when the drain began, on this same thread; refuse
      // stragglers submitted directly by library users.
      service_.begin_drain();
      const bool flushed = clients_.drain_flushed();
      // Order matters: once in_flight reads zero every respond() — and
      // therefore every enqueue — has completed, so a subsequent empty
      // completion queue really means nothing is pending anywhere.
      const bool in_flight_zero = service_.stats().in_flight == 0;
      bool queue_empty;
      {
        std::lock_guard lock(done_mu_);
        queue_empty = done_.empty();
      }
      if (flushed && in_flight_zero && queue_empty) break;
    }
  }
  // Now, and only now, tear the connections down (stdio fds are left to
  // the process).
  clients_.close_all();
}

void Server::submit_line(const ClientSet::ClientPtr& client,
                         std::string line) {
  ++client->outstanding;
  // The callback holds the client alive until the response lands, even
  // if the loop let go first; the loop alone touches its channel.
  service_.submit(line, [this, client](std::string response) {
    bool was_empty;
    {
      std::lock_guard lock(done_mu_);
      was_empty = done_.empty();
      done_.emplace_back(client, std::move(response));
    }
    // One byte per batch is enough: the loop drains the pipe and swaps
    // the whole queue. Coalescing keeps the pipe from ever filling.
    if (was_empty) notify_.wake();
  });
}

}  // namespace rat::svc
