// The connection core of every poll(2) loop in the repository: rat_serve's
// clients and stdio, rat_router's clients and worker pipes, and
// rat_loadgen's simulated clients.
//
//   LineChannel  newline framing over a non-blocking fd pair (one socket
//                or two pipe ends) under a max-line bound, an outbound
//                queue that survives partial writes, and one IoStatus
//                classification of every outcome, acted on by the caller;
//   Listener     a loopback TCP listener whose accept backs off on EMFILE;
//   WakePipe     the self-pipe that lets other threads, or a signal
//                handler, wake a loop.
//
// Every fd is non-blocking (loops block only in poll(2)) and close-on-exec
// (the router fork+execs workers; a leaked socket or pipe end would keep
// dead connections alive and break EOF-based death detection). Pipes are
// written with write(2), so a process whose pipe reader can vanish calls
// ignore_sigpipe() to get EPIPE (kPeerGone) instead of dying mid-drain;
// sockets are written with MSG_NOSIGNAL.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace rat::svc {

void set_nonblock(int fd);
void set_cloexec(int fd);
/// pipe2(O_CLOEXEC) where available; false on failure (errno set).
bool make_pipe_cloexec(int fds[2]);
/// Process-wide SIG_IGN for SIGPIPE (see file comment). Idempotent.
void ignore_sigpipe();

/// How one read or flush ended.
enum class IoStatus {
  kOk,        ///< progress, or the fd would block: the channel is usable
  kEof,       ///< the peer closed its write side (read only)
  kOversize,  ///< a line exceeded max_line_bytes (see read_lines)
  kPeerGone,  ///< EPIPE / ECONNRESET: the peer went away, a normal close
  kError,     ///< any other errno: a hard transport failure
};

class LineChannel {
 public:
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  struct Counters {
    std::uint64_t lines_in = 0;   ///< framed lines handed to the caller
    std::uint64_t bytes_in = 0;
    std::uint64_t lines_out = 0;  ///< lines queued for writing
    std::uint64_t bytes_out = 0;  ///< bytes the fd accepted
  };

  LineChannel() = default;
  ~LineChannel() { close(); }
  LineChannel(const LineChannel&) = delete;
  LineChannel& operator=(const LineChannel&) = delete;

  /// Adopt @p read_fd / @p write_fd (equal for a socket) and make them
  /// non-blocking; close() closes them only when @p owns_fds.
  void open(int read_fd, int write_fd,
            std::size_t max_line_bytes = kUnbounded, bool owns_fds = true);

  /// Close the write side only, dropping unsent bytes: a pipe peer reads
  /// EOF while this side keeps reading.
  void shut_write();
  /// Close both sides and drop every buffer. Idempotent.
  void close();

  int read_fd() const { return rfd_; }   ///< -1 once closed
  int write_fd() const { return wfd_; }  ///< -1 once shut or closed

  /// One read(2), then each complete line to @p on_line, minus one
  /// trailing '\r'; blank lines are skipped. A line over max_line_bytes,
  /// or a partial one that can no longer fit, ends the framing: inbound
  /// bytes drop and kOversize is returned until EOF or an error. At kEof
  /// an unterminated last line waits in take_partial().
  template <class OnLine>
  IoStatus read_lines(OnLine&& on_line) {
    const IoStatus status = fill();
    std::string line;
    while (next_line(line)) on_line(std::move(line));
    return status == IoStatus::kOk && oversize_ ? IoStatus::kOversize
                                                 : status;
  }

  /// The unterminated last line after kEof, framed like any other (empty
  /// if none); the caller decides its fate.
  std::string take_partial();

  /// Append @p line plus '\n' to the outbound queue without writing.
  void queue_line(std::string_view line);
  /// Write what the fd takes; the rest waits for POLLOUT. kPeerGone and
  /// kError drop the queue.
  IoStatus flush();

  std::size_t pending() const { return wbuf_.size() - woff_; }
  const Counters& counters() const { return counters_; }

 private:
  IoStatus fill();
  bool next_line(std::string& line);

  int rfd_ = -1;
  int wfd_ = -1;
  bool owns_ = true;
  bool oversize_ = false;
  std::size_t max_line_ = kUnbounded;
  std::string rbuf_;  ///< inbound bytes; [roff_, size) not yet framed
  std::size_t roff_ = 0;
  std::string wbuf_;  ///< outbound bytes; [woff_, size) unsent
  std::size_t woff_ = 0;
  Counters counters_;
};

class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Bind 127.0.0.1:@p port (0 = ephemeral) and listen; returns the bound
  /// port. Throws std::system_error.
  int open(int port, int backlog);
  void close();
  /// The fd to poll for POLLIN, or -1 while closed or backing off; a
  /// backoff lowers @p timeout_ms to when it ends.
  int poll_fd(int* timeout_ms);
  /// The next pending connection (non-blocking, close-on-exec), or -1
  /// once none is left. When accept(2) runs out of fds or buffers, sets
  /// @p exhausted and sits out @p backoff_ms: the listen fd stays readable
  /// while the connection waits, and polling it would spin.
  int accept(int backoff_ms, bool* exhausted);

 private:
  int fd_ = -1;
  std::uint64_t backoff_until_ns_ = 0;
};

class WakePipe {
 public:
  WakePipe();  ///< throws std::system_error
  ~WakePipe();
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  int read_fd() const { return fds_[0]; }
  int write_fd() const { return fds_[1]; }
  /// Write one byte: async-signal-safe, never blocks on a full pipe.
  void wake() const;
  void drain() const;  ///< read every pending byte

 private:
  int fds_[2];
};

}  // namespace rat::svc
