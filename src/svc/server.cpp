#include "svc/server.hpp"

#include <poll.h>

#include <cerrno>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"

namespace rat::svc {

namespace {

/// The server whose event loop runs on this thread, if any. A response
/// produced on the loop thread is completed in the same turn, without a
/// byte through the notify pipe. Thread-local, so the check races with
/// nothing.
thread_local const Server* t_loop_server = nullptr;

/// Record the drained service's and server's own stats into the registry,
/// once, under the metric names docs/SERVICE.md lists. A zero counter is
/// left out, so the export names only the events the run had.
void record_metrics(const Service& service, const Server::Stats& server) {
  const Service::Stats st = service.stats();
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"svc.requests", st.requests},
      {"svc.responses.ok", st.responses_ok},
      {"svc.responses.error", st.responses_error},
      {"svc.responses.delivery_failed", st.delivery_failed},
      {"svc.rejected.overloaded", st.rejected_overloaded},
      {"svc.rejected.draining", st.rejected_draining},
      {"svc.rejected.deadline", st.deadline_expired},
      {"svc.cache.hit", st.cache.hits},
      {"svc.cache.miss", st.cache.misses},
      {"svc.cache.eviction", st.cache.evictions},
      {"svc.server.connections", server.connections},
      {"svc.server.slow_client_dropped", server.slow_clients_dropped},
      {"svc.server.responses_dropped", server.responses_dropped},
      {"svc.server.write_failed", server.write_failures},
      {"svc.server.accept_failed", server.accept_failures},
  };
  obs::Registry& r = obs::Registry::global();
  for (const auto& [name, n] : counters)
    if (n > 0) r.add_counter(name, n);
  r.max_gauge("svc.queue_depth", static_cast<double>(st.in_flight_max));
  r.set_gauge("svc.cache.size", static_cast<double>(st.cache.size));
  r.set_gauge("svc.cache.bytes", static_cast<double>(st.cache.bytes));
  r.set_gauge("svc.cache.hit_ratio", hit_ratio(st.cache));
  if (!service.config().cache_dir.empty())
    r.set_gauge("svc.cache.warmed", static_cast<double>(st.cache_warmed));
}

}  // namespace

Server::Server(Service& service, ServerConfig config)
    : service_(service),
      config_(config),
      clients_(config.client,
               [this](const ClientSet::ClientPtr& client, std::string line) {
                 turn_.emplace_back(client, std::move(line));
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
  if (config_.tcp) port_ = clients_.listen();
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
  if (!ran_ && obs::enabled()) record_metrics(service_, stats());
  ran_ = true;
}

Server::Stats Server::stats() const {
  const ClientSet::Counters& c = clients_.counters();
  return {c.connections, c.slow_clients_dropped, c.responses_dropped,
          c.write_failures, c.accept_failures};
}

void Server::event_loop() {
  t_loop_server = this;
  std::optional<obs::ScopedTimer> shutdown_timer;
  std::vector<pollfd> pfds;
  std::vector<std::pair<ClientSet::ClientPtr, std::string>> batch;
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
    {
      std::lock_guard lock(done_mu_);
      batch.swap(done_);
    }
    for (auto& [client, line] : batch) clients_.complete(client, line);
    batch.clear();  // the next swap hands its capacity back to done_
    clients_.handle_poll(pfds);
    submit_turn();
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

void Server::submit_turn() {
  if (turn_.empty()) return;
  // Every line read this turn is submitted this turn, before the drain
  // check, so a drain cannot miss one. The pool starts on all but the
  // first while the loop looks the first up itself: a lone cache hit
  // then costs no thread hop, and a busy turn still fans out.
  for (std::size_t i = 1; i < turn_.size(); ++i)
    submit_line(turn_[i].first, turn_[i].second, Service::Lookup::kPool);
  submit_line(turn_[0].first, turn_[0].second, Service::Lookup::kCaller);
  turn_.clear();
}

void Server::submit_line(const ClientSet::ClientPtr& client,
                         const std::string& line, Service::Lookup lookup) {
  ++client->outstanding;
  // The callback holds the client alive until the response lands, even
  // if the loop let go first; the loop alone touches its channel.
  service_.submit(
      line,
      [this, client](std::string response) {
        if (t_loop_server == this) {  // answered on the loop, this turn
          clients_.complete(client, response);
          return;
        }
        bool was_empty;
        {
          std::lock_guard lock(done_mu_);
          was_empty = done_.empty();
          done_.emplace_back(client, std::move(response));
        }
        // One byte per batch is enough: the loop drains the pipe and
        // swaps the whole queue. Coalescing keeps the pipe from ever
        // filling.
        if (was_empty) notify_.wake();
      },
      lookup);
}

}  // namespace rat::svc
