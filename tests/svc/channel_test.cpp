// LineChannel, the connection core under rat_serve, rat_router and the
// load runner: framing across and within reads, the max-line bound, the
// unterminated last line at EOF, partial writes queued until POLLOUT,
// and peer-gone vs hard-error classification — on socketpairs, pipes and
// a loopback TCP pair from Listener.
#include "svc/channel.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace rat::svc {
namespace {

/// A channel on one end of a socketpair; the test drives the other end.
struct SocketPair {
  explicit SocketPair(std::size_t max_line = LineChannel::kUnbounded) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    peer = fds[1];
    ch.open(fds[0], fds[0], max_line);
  }
  ~SocketPair() {
    if (peer >= 0) ::close(peer);
  }

  void send(const std::string& bytes) const {
    ASSERT_EQ(::write(peer, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }

  /// One read_lines call; the lines it delivered land in @p lines.
  IoStatus read(std::vector<std::string>& lines) {
    return ch.read_lines([&](std::string l) { lines.push_back(std::move(l)); });
  }

  LineChannel ch;
  int peer = -1;
};

TEST(SvcChannel, LineSplitAcrossReadsAndSeveralLinesInOneRead) {
  SocketPair p;
  std::vector<std::string> lines;
  p.send("hel");
  EXPECT_EQ(p.read(lines), IoStatus::kOk);
  EXPECT_TRUE(lines.empty());
  p.send("lo\nwor");
  EXPECT_EQ(p.read(lines), IoStatus::kOk);
  EXPECT_EQ(lines, std::vector<std::string>{"hello"});
  p.send("ld\nx\ny\n");
  EXPECT_EQ(p.read(lines), IoStatus::kOk);
  EXPECT_EQ(lines, (std::vector<std::string>{"hello", "world", "x", "y"}));
  EXPECT_EQ(p.ch.counters().lines_in, 4u);
  EXPECT_EQ(p.ch.counters().bytes_in, 16u);
}

TEST(SvcChannel, OneTrailingCarriageReturnIsStrippedAndBlankLinesSkipped) {
  SocketPair p;
  std::vector<std::string> lines;
  p.send("\n\r\na\r\nb\r\r\n\n");
  EXPECT_EQ(p.read(lines), IoStatus::kOk);
  EXPECT_EQ(lines, (std::vector<std::string>{"a", "b\r"}));
}

TEST(SvcChannel, LineAtTheBoundPassesAndOneByteOverIsOversize) {
  SocketPair p(8);
  std::vector<std::string> lines;
  p.send("12345678\n");
  EXPECT_EQ(p.read(lines), IoStatus::kOk);
  EXPECT_EQ(lines, std::vector<std::string>{"12345678"});
  // The line before the violation is still delivered; then framing ends
  // and every later read reports the violation again.
  p.send("ok\n123456789\nlate\n");
  EXPECT_EQ(p.read(lines), IoStatus::kOversize);
  EXPECT_EQ(lines, (std::vector<std::string>{"12345678", "ok"}));
  p.send("more\n");
  EXPECT_EQ(p.read(lines), IoStatus::kOversize);
  EXPECT_EQ(lines.size(), 2u);
}

TEST(SvcChannel, PartialLineThatCannotFitIsOversizeBeforeItsNewline) {
  SocketPair p(8);
  std::vector<std::string> lines;
  p.send("12345678");  // at the bound, still able to end in '\n'
  EXPECT_EQ(p.read(lines), IoStatus::kOk);
  p.send("9");
  EXPECT_EQ(p.read(lines), IoStatus::kOversize);
  EXPECT_TRUE(lines.empty());
}

TEST(SvcChannel, UnterminatedLastLineAtEofIsLeftToTheCaller) {
  SocketPair p;
  std::vector<std::string> lines;
  p.send("a\nlast\r");
  ::close(p.peer);
  p.peer = -1;
  EXPECT_EQ(p.read(lines), IoStatus::kOk);
  EXPECT_EQ(lines, std::vector<std::string>{"a"});
  EXPECT_EQ(p.read(lines), IoStatus::kEof);
  EXPECT_EQ(p.ch.take_partial(), "last");
  EXPECT_EQ(p.ch.take_partial(), "");
}

TEST(SvcChannel, PartialWriteStaysQueuedUntilPollout) {
  int fds[2];
  ASSERT_TRUE(make_pipe_cloexec(fds));
  const int reader = fds[0];
  LineChannel ch;
  ch.open(-1, fds[1]);
  // Four times a default pipe's capacity: the first flush must stop
  // short, with the rest queued rather than blocking.
  std::string line(256 * 1024, 'x');
  line[12345] = 'y';
  ch.queue_line(line);
  EXPECT_EQ(ch.flush(), IoStatus::kOk);
  ASSERT_GT(ch.pending(), 0u);
  ASSERT_LT(ch.pending(), line.size() + 1);
  EXPECT_EQ(ch.counters().bytes_out + ch.pending(), line.size() + 1);

  pollfd pfd{fds[1], POLLOUT, 0};
  EXPECT_EQ(::poll(&pfd, 1, 0), 0) << "a full pipe must not poll writable";

  std::string received;
  char buf[65536];
  while (received.size() < line.size() + 1) {
    const ssize_t n = ::read(reader, buf, sizeof buf);
    ASSERT_GT(n, 0);
    received.append(buf, static_cast<std::size_t>(n));
    pfd.revents = 0;
    if (ch.pending() > 0 && ::poll(&pfd, 1, 0) == 1) {
      EXPECT_EQ(ch.flush(), IoStatus::kOk);
    }
  }
  EXPECT_EQ(ch.pending(), 0u);
  EXPECT_EQ(received, line + '\n');
  EXPECT_EQ(ch.counters().lines_out, 1u);
  ch.close();
  ::close(reader);
}

TEST(SvcChannel, PeerGoneIsDistinctFromAHardError) {
  ignore_sigpipe();  // as Server::start() and Router::start() do
  {  // pipe: the reader closed -> EPIPE
    int fds[2];
    ASSERT_TRUE(make_pipe_cloexec(fds));
    ::close(fds[0]);
    LineChannel ch;
    ch.open(-1, fds[1]);
    ch.queue_line("hello");
    EXPECT_EQ(ch.flush(), IoStatus::kPeerGone);
    EXPECT_EQ(ch.pending(), 0u) << "a failed write drops the queue";
  }
  {  // socketpair: the peer closed -> EPIPE through send(MSG_NOSIGNAL)
    SocketPair p;
    ::close(p.peer);
    p.peer = -1;
    p.ch.queue_line("hello");
    EXPECT_EQ(p.ch.flush(), IoStatus::kPeerGone);
  }
  {  // TCP: the peer aborted with RST -> ECONNRESET on read
    Listener listener;
    const int port = listener.open(0, 4);
    const int client = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ASSERT_EQ(
        ::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
        0);
    bool exhausted = false;
    int fd = -1;
    for (int i = 0; i < 100 && fd < 0; ++i) {
      fd = listener.accept(50, &exhausted);
      if (fd < 0) ::usleep(1000);
    }
    ASSERT_GE(fd, 0);
    EXPECT_FALSE(exhausted);
    LineChannel ch;
    ch.open(fd, fd);
    const linger abort_close{1, 0};
    ::setsockopt(client, SOL_SOCKET, SO_LINGER, &abort_close,
                 sizeof abort_close);
    ::close(client);
    pollfd pfd{fd, POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
    std::vector<std::string> lines;
    EXPECT_EQ(ch.read_lines([&](std::string l) { lines.push_back(l); }),
              IoStatus::kPeerGone);
  }
  {  // a write fd that cannot be written -> EBADF, a hard error
    const int ro = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    ASSERT_GE(ro, 0);
    LineChannel ch;
    ch.open(-1, ro);
    ch.queue_line("hello");
    EXPECT_EQ(ch.flush(), IoStatus::kError);
  }
}

TEST(SvcChannel, ShutWriteSendsEofWhileReadsContinue) {
  int to_peer[2], from_peer[2];
  ASSERT_TRUE(make_pipe_cloexec(to_peer));
  ASSERT_TRUE(make_pipe_cloexec(from_peer));
  LineChannel ch;
  ch.open(from_peer[0], to_peer[1]);
  ch.shut_write();
  EXPECT_EQ(ch.write_fd(), -1);
  char c;
  EXPECT_EQ(::read(to_peer[0], &c, 1), 0) << "peer must read EOF";
  ASSERT_EQ(::write(from_peer[1], "r\n", 2), 2);
  std::vector<std::string> lines;
  EXPECT_EQ(ch.read_lines([&](std::string l) { lines.push_back(l); }),
            IoStatus::kOk);
  EXPECT_EQ(lines, std::vector<std::string>{"r"});
  ch.close();
  EXPECT_EQ(ch.read_fd(), -1);
  ::close(to_peer[0]);
  ::close(from_peer[1]);
}

}  // namespace
}  // namespace rat::svc
