#include "svc/clients.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "svc/protocol.hpp"

namespace rat::svc {

ClientSet::ClientSet(const ClientPolicy& policy, const std::string& side,
                     OnLine on_line, std::function<void()> on_stdio_end)
    : policy_(policy),
      on_line_(std::move(on_line)),
      on_stdio_end_(std::move(on_stdio_end)),
      metric_prefix_("svc." + side + ".") {}

void ClientSet::add_stdio(int in_fd, int out_fd) {
  auto c = std::make_shared<Client>();
  c->ch.open(in_fd, out_fd, policy_.max_line_bytes, /*owns_fds=*/false);
  c->stdio = true;
  clients_.push_back(std::move(c));
}

void ClientSet::count(std::atomic<std::uint64_t>& counter,
                      const char* metric) {
  counter.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled())
    obs::Registry::global().add_counter(metric_prefix_ + metric);
}

int ClientSet::add_to_poll(std::vector<pollfd>& pfds) {
  int timeout_ms = draining_ ? 20 : -1;
  // The stop latch and the listener come first, then the clients; poll(2)
  // skips the -1 of a fired latch, or of a closed or backing-off listener.
  first_ = pfds.size();
  pfds.push_back({draining_ ? -1 : stop_.read_fd(), POLLIN, 0});
  pfds.push_back({listener_.poll_fd(&timeout_ms), POLLIN, 0});
  polled_.clear();
  for (const auto& c : clients_) {
    if (c->dead()) continue;
    const short in = c->read_shut ? 0 : POLLIN;
    const short out = c->ch.pending() > 0 ? POLLOUT : 0;
    auto add = [&](int fd, short events) {
      if (events == 0) return;
      pfds.push_back({fd, events, 0});
      polled_.push_back(c);
    };
    // A socket polls once for both directions, a stdio pair once per fd.
    if (c->ch.read_fd() == c->ch.write_fd()) {
      add(c->ch.read_fd(), static_cast<short>(in | out));
    } else {
      add(c->ch.read_fd(), in);
      add(c->ch.write_fd(), out);
    }
  }
  return timeout_ms;
}

void ClientSet::handle_poll(const std::vector<pollfd>& pfds) {
  if ((pfds[first_].revents & POLLIN) != 0) begin_drain();
  if ((pfds[first_ + 1].revents & POLLIN) != 0) accept_all();
  for (std::size_t i = 0; i < polled_.size(); ++i) {
    const pollfd& p = pfds[first_ + 2 + i];
    if (p.revents == 0) continue;
    const ClientPtr& c = polled_[i];
    if ((p.events & POLLIN) != 0 && !c->dead() && !c->read_shut &&
        (p.revents & (POLLIN | POLLHUP | POLLERR)) != 0)
      on_readable(c);
    if ((p.events & POLLOUT) != 0 && !c->dead() &&
        (p.revents & (POLLOUT | POLLHUP | POLLERR)) != 0)
      flush(*c);
    if ((p.revents & POLLNVAL) != 0) close(*c);
  }
}

void ClientSet::accept_all() {
  bool exhausted = false;
  for (int fd; (fd = listener_.accept(policy_.accept_backoff_ms,
                                      &exhausted)) >= 0;) {
    if (policy_.so_sndbuf > 0)
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &policy_.so_sndbuf,
                   sizeof policy_.so_sndbuf);
    count(counters_.connections, "connections");
    auto c = std::make_shared<Client>();
    c->ch.open(fd, fd, policy_.max_line_bytes);
    clients_.push_back(std::move(c));
  }
  if (exhausted) count(counters_.accept_failures, "accept_failed");
}

void ClientSet::on_readable(const ClientPtr& c) {
  switch (c->ch.read_lines(
      [&](std::string line) { on_line_(c, std::move(line)); })) {
    case IoStatus::kOk:
      return;
    case IoStatus::kEof:
      if (std::string last = c->ch.take_partial(); !last.empty())
        on_line_(c, std::move(last));
      break;
    case IoStatus::kOversize:
      respond(c, error_response("", SvcErrorCode::kBadRequest,
                                "request line exceeds " +
                                    std::to_string(policy_.max_line_bytes) +
                                    " bytes"));
      break;
    default:  // the client went away; its responses drop
      close(*c);
      return;
  }
  // No more requests can arrive: flush what is owed, then close.
  c->read_shut = true;
  if (c->stdio)
    on_stdio_end_();
  else
    c->close_when_idle = true;
}

void ClientSet::respond(const ClientPtr& c, std::string_view line) {
  if (c->dead()) {
    count(counters_.responses_dropped, "responses_dropped");
    return;
  }
  c->ch.queue_line(line);
  flush(*c);
  if (!c->dead() && c->ch.pending() > policy_.max_write_buffer_bytes)
    drop_slow(*c);
}

void ClientSet::flush(Client& c) {
  const IoStatus status = c.ch.flush();
  if (status == IoStatus::kOk) return;
  // EPIPE/ECONNRESET mean the reader is gone: a normal close, not a
  // transport failure.
  if (status == IoStatus::kError)
    count(counters_.write_failures, "write_failed");
  close(c);
}

void ClientSet::drop_slow(Client& c) {
  count(counters_.slow_clients_dropped, "slow_client_dropped");
  close(c);
}

void ClientSet::close(Client& c) {
  if (c.dead()) return;
  c.ch.close();
  if (c.stdio) on_stdio_end_();
}

void ClientSet::sweep() {
  for (const auto& c : clients_)
    if (c->close_when_idle && c->outstanding == 0 && c->ch.pending() == 0)
      close(*c);
  std::erase_if(clients_, [](const ClientPtr& c) { return c->dead(); });
}

void ClientSet::begin_drain() {
  draining_ = true;
  listener_.close();
  for (const auto& c : clients_) c->read_shut = true;
  flush_deadline_ns_ =
      obs::now_ns() +
      static_cast<std::uint64_t>(std::max(policy_.drain_flush_timeout_ms, 0)) *
          1'000'000ull;
}

bool ClientSet::drain_expired() const {
  return obs::now_ns() > flush_deadline_ns_;
}

bool ClientSet::drain_flushed() {
  const bool expired = drain_expired();
  bool flushed = true;
  for (const auto& c : clients_) {
    if (c->dead() || c->ch.pending() == 0) continue;
    if (expired)
      drop_slow(*c);
    else
      flushed = false;
  }
  return flushed;
}

void ClientSet::close_all() {
  for (const auto& c : clients_) close(*c);
  clients_.clear();
}

}  // namespace rat::svc
