#include "svc/channel.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <system_error>

#include "obs/metrics.hpp"

namespace rat::svc {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

IoStatus classify_errno() {
  if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
    return IoStatus::kOk;
  if (errno == EPIPE || errno == ECONNRESET) return IoStatus::kPeerGone;
  return IoStatus::kError;
}

}  // namespace

void set_nonblock(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

bool make_pipe_cloexec(int fds[2]) {
#if defined(__linux__) && defined(O_CLOEXEC)
  if (::pipe2(fds, O_CLOEXEC) == 0) return true;
#endif
  if (::pipe(fds) != 0) return false;
  set_cloexec(fds[0]);
  set_cloexec(fds[1]);
  return true;
}

void ignore_sigpipe() {
  struct sigaction sa {};
  sa.sa_handler = SIG_IGN;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGPIPE, &sa, nullptr);
}

// ---- LineChannel ----

void LineChannel::open(int read_fd, int write_fd, std::size_t max_line_bytes,
                       bool owns_fds) {
  close();
  rfd_ = read_fd;
  wfd_ = write_fd;
  owns_ = owns_fds;
  max_line_ = max_line_bytes;
  set_nonblock(rfd_);
  if (wfd_ != rfd_) set_nonblock(wfd_);
}

void LineChannel::shut_write() {
  if (wfd_ < 0) return;
  if (owns_ && wfd_ != rfd_) ::close(wfd_);
  wfd_ = -1;
  wbuf_.clear();
  woff_ = 0;
}

void LineChannel::close() {
  if (owns_ && rfd_ >= 0) ::close(rfd_);
  if (wfd_ != rfd_) shut_write();
  rfd_ = wfd_ = -1;
  rbuf_.clear();
  roff_ = 0;
  wbuf_.clear();
  woff_ = 0;
  oversize_ = false;
}

IoStatus LineChannel::fill() {
  char chunk[65536];
  const ssize_t n = ::read(rfd_, chunk, sizeof chunk);
  if (n == 0) return IoStatus::kEof;
  if (n < 0) return classify_errno();
  rbuf_.erase(0, roff_);
  roff_ = 0;
  rbuf_.append(chunk, static_cast<std::size_t>(n));
  counters_.bytes_in += static_cast<std::uint64_t>(n);
  return IoStatus::kOk;
}

bool LineChannel::next_line(std::string& line) {
  while (!oversize_) {
    const std::size_t nl = rbuf_.find('\n', roff_);
    const std::size_t len =
        (nl == std::string::npos ? rbuf_.size() : nl) - roff_;
    if (len > max_line_) {
      oversize_ = true;
      break;
    }
    if (nl == std::string::npos) return false;
    const std::size_t start = roff_;
    roff_ = nl + 1;
    std::size_t end = nl;
    if (end > start && rbuf_[end - 1] == '\r') --end;
    if (end == start) continue;  // blank keepalive line
    line.assign(rbuf_, start, end - start);
    ++counters_.lines_in;
    return true;
  }
  rbuf_.clear();
  roff_ = 0;
  return false;
}

std::string LineChannel::take_partial() {
  std::string rest = rbuf_.substr(roff_);
  rbuf_.clear();
  roff_ = 0;
  if (!rest.empty() && rest.back() == '\r') rest.pop_back();
  if (!rest.empty()) ++counters_.lines_in;
  return rest;
}

void LineChannel::queue_line(std::string_view line) {
  wbuf_.append(line);
  wbuf_ += '\n';
  ++counters_.lines_out;
}

IoStatus LineChannel::flush() {
  while (pending() > 0) {
    const ssize_t n =
        wfd_ == rfd_
            ? ::send(wfd_, wbuf_.data() + woff_, pending(), MSG_NOSIGNAL)
            : ::write(wfd_, wbuf_.data() + woff_, pending());
    if (n < 0) {
      if (errno == EINTR) continue;
      const IoStatus status = classify_errno();
      if (status == IoStatus::kOk) break;  // would block: wait for POLLOUT
      wbuf_.clear();
      woff_ = 0;
      return status;
    }
    woff_ += static_cast<std::size_t>(n);
    counters_.bytes_out += static_cast<std::uint64_t>(n);
  }
  if (pending() == 0) {
    wbuf_.clear();
    woff_ = 0;
  } else if (woff_ >= 65536) {
    wbuf_.erase(0, woff_);
    woff_ = 0;
  }
  return IoStatus::kOk;
}

// ---- Listener ----

int Listener::open(int port, int backlog) {
  close();
#if defined(SOCK_NONBLOCK) && defined(SOCK_CLOEXEC)
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
#else
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ >= 0) {
    set_nonblock(fd_);
    set_cloexec(fd_);
  }
#endif
  if (fd_ < 0) throw_errno("svc::Listener: socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  socklen_t len = sizeof addr;
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    throw_errno("svc::Listener: bind 127.0.0.1");
  if (::listen(fd_, backlog > 0 ? backlog : 1) != 0)
    throw_errno("svc::Listener: listen");
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw_errno("svc::Listener: getsockname");
  return ntohs(addr.sin_port);
}

void Listener::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

int Listener::poll_fd(int* timeout_ms) {
  if (fd_ >= 0 && backoff_until_ns_ != 0) {
    const std::uint64_t now = obs::now_ns();
    if (now < backoff_until_ns_) {
      *timeout_ms = std::max(
          1, static_cast<int>((backoff_until_ns_ - now + 999'999) / 1'000'000));
      return -1;
    }
    backoff_until_ns_ = 0;
  }
  return fd_;
}

int Listener::accept(int backoff_ms, bool* exhausted) {
  while (fd_ >= 0) {
#if defined(SOCK_NONBLOCK) && defined(SOCK_CLOEXEC)
    const int fd =
        ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
#else
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      set_nonblock(fd);
      set_cloexec(fd);
    }
#endif
    if (fd >= 0) return fd;
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      *exhausted = true;
      backoff_until_ns_ =
          obs::now_ns() +
          static_cast<std::uint64_t>(std::max(backoff_ms, 1)) * 1'000'000ull;
    }
    break;  // EAGAIN: everything pending was accepted
  }
  return -1;
}

// ---- WakePipe ----

WakePipe::WakePipe() {
  if (!make_pipe_cloexec(fds_)) throw_errno("svc::WakePipe: pipe");
  set_nonblock(fds_[0]);
  set_nonblock(fds_[1]);
}

WakePipe::~WakePipe() {
  ::close(fds_[0]);
  ::close(fds_[1]);
}

void WakePipe::wake() const {
  const char byte = 'w';
  [[maybe_unused]] ssize_t n = ::write(fds_[1], &byte, 1);
}

void WakePipe::drain() const {
  char buf[4096];
  while (::read(fds_[0], buf, sizeof buf) > 0) {
  }
}

}  // namespace rat::svc
