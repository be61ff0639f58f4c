// Loopback helpers the svc suites share: a blocking line-oriented
// client, raw sockets for clients that never read, and the request-line
// and polling helpers around them.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>

#include "core/parameters.hpp"
#include "io/json.hpp"

namespace rat::svc {

/// Blocking line-oriented loopback client.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
        << std::strerror(errno);
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send_line(const std::string& line) {
    std::string out = line;
    out += '\n';
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n =
          ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  /// Next '\n'-terminated line, or nullopt on EOF.
  std::optional<std::string> read_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// An evaluate request line; @p extra is spliced in before the closing
/// brace (e.g. ",\"deadline_ms\":1").
inline std::string evaluate_line(const std::string& id,
                                 const std::string& sheet,
                                 const std::string& extra = "") {
  return "{\"id\":" + io::json_str(id) +
         ",\"op\":\"evaluate\",\"worksheet\":" + io::json_str(sheet) + extra +
         "}";
}

/// The 1-D PDF worksheet listing @p n candidate clocks. Above
/// Service::kCallerMaxClocks, a caller-thread lookup queues its miss to
/// the pool instead of computing it (docs/SERVICE.md).
inline std::string sheet_with_clocks(std::size_t n) {
  core::RatInputs inputs = core::pdf1d_inputs();
  inputs.comp.fclock_hz.clear();
  for (std::size_t i = 0; i < n; ++i)
    inputs.comp.fclock_hz.push_back(75e6 + 1e6 * static_cast<double>(i));
  return inputs.serialize();
}

/// Raw connected socket; rcvbuf (set before connect so it sizes the
/// receive window) shrinks how much the kernel buffers for a client
/// that never reads, making slow-client tests deterministic.
inline int connect_raw(int port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0)
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  return fd;
}

/// Best-effort pipelined send; stops quietly when the peer hangs up
/// mid-stream (expected once it drops us as a slow client).
inline void send_best_effort(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

inline bool wait_until(const std::function<bool()>& cond,
                       int timeout_ms = 10000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

}  // namespace rat::svc
