// Loopback TCP transport: end-to-end request/response, pipelining,
// oversize-line rejection, graceful drain delivering every admitted
// response before the sockets close, and which lines of a poll turn the
// event loop looks up itself.
#include "svc/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/parameters.hpp"
#include "io/json.hpp"
#include "loopback_client.hpp"
#include "obs/metrics.hpp"

namespace rat::svc {
namespace {

int thread_count() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("Threads:", 0) == 0)
      return std::atoi(line.c_str() + 8);
  return -1;
}

TEST(SvcServer, EvaluateOverLoopbackMatchesCacheSemantics) {
  Service service;
  Server server(service, {.client = {.port = 0}});
  server.start();
  ASSERT_GT(server.port(), 0);

  Client client(server.port());
  const std::string sheet = core::pdf1d_inputs().serialize();
  client.send_line(evaluate_line("a", sheet));
  const auto first = client.read_line();
  ASSERT_TRUE(first.has_value());
  client.send_line(evaluate_line("a", sheet));
  const auto second = client.read_line();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);  // byte-identical across miss and hit
  EXPECT_EQ(service.stats().cache.hits, 1u);

  server.trigger_stop();
  server.run();
  EXPECT_FALSE(client.read_line().has_value());  // server closed the socket
}

TEST(SvcServer, PipelinedRequestsEachGetOneResponse) {
  Service service;
  Server server(service, {.client = {.port = 0}});
  server.start();
  Client client(server.port());
  const std::string sheet = core::pdf2d_inputs().serialize();
  constexpr int kRequests = 20;
  for (int i = 0; i < kRequests; ++i)
    client.send_line(evaluate_line("r" + std::to_string(i), sheet));
  std::vector<std::string> ids;
  for (int i = 0; i < kRequests; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    const io::JsonValue doc = io::parse_json(*line);
    EXPECT_EQ(doc.find("status")->string, "ok");
    ids.push_back(doc.find("id")->string);
  }
  // Out-of-order delivery is legal; every id must appear exactly once.
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kRequests));
  server.trigger_stop();
  server.run();
}

TEST(SvcServer, MultipleConcurrentClients) {
  Service service;
  Server server(service, {.client = {.port = 0}});
  server.start();
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      Client client(server.port());
      client.send_line(evaluate_line(
          "c" + std::to_string(c), core::md_inputs().serialize()));
      const auto line = client.read_line();
      if (line && line->find("\"status\":\"ok\"") != std::string::npos)
        ok.fetch_add(1);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients);
  server.trigger_stop();
  server.run();
}

TEST(SvcServer, OversizeLineIsRejectedWithStructuredError) {
  Service service;
  Server server(service, {.client = {.port = 0, .max_line_bytes = 128}});
  server.start();
  Client client(server.port());
  client.send_line(evaluate_line("big", std::string(1024, 'x')));
  const auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("E_BAD_REQUEST"), std::string::npos);
  EXPECT_NE(line->find("exceeds"), std::string::npos);
  EXPECT_FALSE(client.read_line().has_value());  // connection closed
  server.trigger_stop();
  server.run();
}

TEST(SvcServer, DrainDeliversEveryAdmittedResponse) {
  Service service;
  Server server(service, {.client = {.port = 0}});
  server.start();
  Client client(server.port());
  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i)
    client.send_line(evaluate_line("d" + std::to_string(i),
                                   core::pdf1d_inputs().serialize()));
  // Stop immediately: whatever was admitted must still be answered
  // through the open socket before it closes.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.trigger_stop();
  server.run();

  int answered = 0;
  while (client.read_line().has_value()) ++answered;
  const Service::Stats st = service.stats();
  EXPECT_EQ(static_cast<std::uint64_t>(answered),
            st.responses_ok + st.responses_error);
  EXPECT_EQ(st.in_flight, 0u);
  // No silent drops: every request the server read was answered.
  EXPECT_EQ(st.requests, st.responses_ok + st.responses_error);
}

TEST(SvcServer, ShutdownOpDrainsTheWholeServer) {
  Service service;
  Server server(service, {.client = {.port = 0}});
  server.start();
  std::thread runner([&] { server.run(); });
  Client client(server.port());
  client.send_line(evaluate_line("w", core::pdf1d_inputs().serialize()));
  ASSERT_TRUE(client.read_line().has_value());
  client.send_line("{\"id\":\"bye\",\"op\":\"shutdown\"}");
  const auto ack = client.read_line();
  ASSERT_TRUE(ack.has_value());
  EXPECT_NE(ack->find("\"draining\":true"), std::string::npos);
  runner.join();  // the shutdown op triggered the server's stop
  EXPECT_FALSE(client.read_line().has_value());
}

TEST(SvcServer, StalledClientIsDroppedWithoutBlockingOthers) {
  // The bug this PR exists for: under the old thread-per-connection
  // server, a client that pipelined requests but never read its socket
  // made the blocking send() wedge under the connection's write mutex —
  // stalling every response to that client and the graceful drain. Now
  // the bounded write queue drops the stalled client instead, and other
  // connections never notice.
  Service service;
  Server server(service, {.client = {.port = 0,
                                     .max_write_buffer_bytes = 8192,
                                     .so_sndbuf = 4096}});
  server.start();

  // Stalled client: tiny receive window, 400 pipelined requests, reads
  // nothing. Responses fill the kernel buffers, then the server-side
  // write queue, then the bound trips.
  const int stalled = connect_raw(server.port(), /*rcvbuf=*/4096);
  const std::string sheet = core::pdf1d_inputs().serialize();
  std::string burst;
  for (int i = 0; i < 400; ++i) {
    burst += evaluate_line("stall" + std::to_string(i), sheet);
    burst += '\n';
  }
  send_best_effort(stalled, burst);

  // Meanwhile a well-behaved client's round-trips complete normally.
  {
    Client fast(server.port());
    for (int i = 0; i < 10; ++i) {
      fast.send_line(evaluate_line("fast" + std::to_string(i), sheet));
      const auto line = fast.read_line();
      ASSERT_TRUE(line.has_value()) << "blocked behind the stalled client";
      EXPECT_NE(line->find("\"id\":\"fast" + std::to_string(i) + "\""),
                std::string::npos);
    }
  }

  EXPECT_TRUE(wait_until(
      [&] { return server.stats().slow_clients_dropped >= 1; }))
      << "bounded write queue never tripped";
  ::close(stalled);

  // And shutdown still terminates promptly — nothing is wedged.
  server.trigger_stop();
  server.run();
  EXPECT_GE(server.stats().slow_clients_dropped, 1u);
}

TEST(SvcServer, DrainDropsClientsThatNeverReadAfterFlushTimeout) {
  // A stalled client whose queue stays under the byte bound must not be
  // able to hold the drain hostage either: after drain_flush_timeout_ms
  // of refusing to read, it is dropped and shutdown completes.
  Service service;
  Server server(service, {.client = {.port = 0,
                                     .so_sndbuf = 4096,
                                     .drain_flush_timeout_ms = 200}});
  server.start();

  const int stalled = connect_raw(server.port(), /*rcvbuf=*/4096);
  const std::string sheet = core::pdf1d_inputs().serialize();
  std::string burst;
  for (int i = 0; i < 50; ++i) {
    burst += evaluate_line("q" + std::to_string(i), sheet);
    burst += '\n';
  }
  send_best_effort(stalled, burst);
  // Let responses start piling into the kernel buffers and write queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto t0 = std::chrono::steady_clock::now();
  server.trigger_stop();
  server.run();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5)) << "drain hung on the stall";
  EXPECT_GE(server.stats().slow_clients_dropped, 1u);
  ::close(stalled);
}

TEST(SvcServer, HundredsOfIdleConnectionsHoldWithConstantThreads) {
  // The event loop's whole point: connection count must not move the
  // thread count (the old design spawned one reader thread each).
  Service service;
  Server server(service, {.client = {.port = 0}});
  server.start();

  // Warm everything lazy (shared pool, loop) before counting threads.
  const std::string sheet = core::pdf1d_inputs().serialize();
  {
    Client warm(server.port());
    warm.send_line(evaluate_line("warm", sheet));
    ASSERT_TRUE(warm.read_line().has_value());
  }
  const int before = thread_count();
  ASSERT_GT(before, 0);

  constexpr int kIdle = 300;
  std::vector<int> idle;
  idle.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) idle.push_back(connect_raw(server.port()));
  // connections counts accepts: warm client + all idles.
  ASSERT_TRUE(wait_until(
      [&] { return server.stats().connections >= kIdle + 1; }));

  EXPECT_EQ(thread_count(), before)
      << "server thread count scaled with connections";

  // The loop still serves real traffic through the idle crowd.
  Client probe(server.port());
  probe.send_line(evaluate_line("probe", sheet));
  const auto line = probe.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"status\":\"ok\""), std::string::npos);

  for (const int fd : idle) ::close(fd);
  server.trigger_stop();
  server.run();
}

TEST(SvcServer, StdioReaderGoneDrainsCleanlyInsteadOfSigpipe) {
  // Regression: a --stdio server whose stdout reader exited used to die
  // of SIGPIPE from the plain write(2) in flush_writes — rat_serve never
  // ignored the signal. Now Server::start() installs the transport-owned
  // SIG_IGN, write(2) returns EPIPE, and the server treats it as a
  // normal close + drain. The mere fact this test survives the write is
  // the SIGPIPE assertion: the default disposition would kill the whole
  // gtest binary.
  int to_server[2];   // test -> server stdin
  int from_server[2]; // server stdout -> test
  ASSERT_EQ(::pipe(to_server), 0);
  ASSERT_EQ(::pipe(from_server), 0);

  Service service;
  Server server(service, {.tcp = false,
                          .stdio = true,
                          .stdio_in_fd = to_server[0],
                          .stdio_out_fd = from_server[1]});
  server.start();

  // Pipeline a burst sized so the requests fit in the stdin pipe's
  // buffer in one shot (~55 KiB < 64 KiB, so this write cannot block)
  // while the responses decisively overflow the stdout pipe's capacity
  // (~240 KiB >> 64 KiB): after the reader vanishes below, the server is
  // guaranteed to still have writes left to attempt — and those writes
  // are what must come back as EPIPE, not SIGPIPE.
  const std::string sheet = core::pdf1d_inputs().serialize();
  std::string burst;
  for (int i = 0; i < 150; ++i) {
    burst += evaluate_line("s" + std::to_string(i), sheet);
    burst += '\n';
  }
  for (std::size_t off = 0; off < burst.size();) {
    const ssize_t n =
        ::write(to_server[1], burst.data() + off, burst.size() - off);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  char c;
  while (::read(from_server[0], &c, 1) == 1 && c != '\n') {
  }
  ::close(from_server[0]);

  // EPIPE on the next flush must read as "reader gone": the server
  // closes the stdio connection and stops on its own — no signal death,
  // no hang, and no write_failures (EPIPE is a normal close).
  server.run();
  EXPECT_EQ(server.stats().write_failures, 0u);

  ::close(to_server[1]);
  ::close(to_server[0]);
  ::close(from_server[1]);
}

TEST(SvcServer, OneReadOfCachedLinesAnswersLikeServiceSubmit) {
  // The lines of one read are one poll turn: the loop looks the first up
  // itself and queues the other K - 1, so the pool runs K - 1 tasks, and
  // every answer is byte-identical to Service::submit's.
  constexpr int kLines = 8;
  const std::vector<std::string> sheets = {core::pdf1d_inputs().serialize(),
                                           core::pdf2d_inputs().serialize(),
                                           core::md_inputs().serialize()};
  Service service;
  std::map<std::string, std::string> expected;  // id -> response
  std::string input;
  for (int i = 0; i < kLines; ++i) {
    const std::string id = "k" + std::to_string(i);
    const std::string line = evaluate_line(id, sheets[i % sheets.size()]);
    std::promise<std::string> answer;
    service.submit(line, [&](std::string r) { answer.set_value(std::move(r)); });
    expected[id] = answer.get_future().get();  // warms the cache too
    input += line + '\n';
  }

  int to_server[2];
  int from_server[2];
  ASSERT_EQ(::pipe(to_server), 0);
  ASSERT_EQ(::pipe(from_server), 0);
  // Written, and closed, before start(): the first read returns them all.
  ASSERT_LT(input.size(), 65536u);
  ASSERT_EQ(::write(to_server[1], input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  ::close(to_server[1]);

  obs::Registry::global().reset();
  obs::set_enabled(true);
  Server server(service, {.tcp = false,
                          .stdio = true,
                          .stdio_in_fd = to_server[0],
                          .stdio_out_fd = from_server[1]});
  server.start();
  server.run();  // stdin EOF drains
  obs::set_enabled(false);
  const auto counters = obs::Registry::global().counters();
  obs::Registry::global().reset();
  ::close(to_server[0]);
  ::close(from_server[1]);

  std::string output;
  char chunk[4096];
  for (ssize_t n; (n = ::read(from_server[0], chunk, sizeof chunk)) > 0;)
    output.append(chunk, static_cast<std::size_t>(n));
  ::close(from_server[0]);
  std::map<std::string, std::string> answered;
  for (std::size_t start = 0, nl; (nl = output.find('\n', start)) !=
                                  std::string::npos;
       start = nl + 1) {
    const std::string line = output.substr(start, nl - start);
    answered[io::parse_json(line).find("id")->string] = line;
  }
  EXPECT_EQ(answered, expected);
  EXPECT_EQ(counters.at("pool.tasks_submitted"),
            static_cast<std::uint64_t>(kLines - 1));
  EXPECT_EQ(counters.at("svc.cache.hit"),
            static_cast<std::uint64_t>(2 * kLines - 3));
}

TEST(SvcServer, ALoneRequestPerTurnIsAnsweredWithoutThePool) {
  // Sequential requests on one connection: each is alone in its turn, so
  // the loop computes the first (a miss) itself and answers the hits
  // from the cache; nothing reaches the pool.
  constexpr std::uint64_t kRequests = 20;
  obs::Registry::global().reset();
  obs::set_enabled(true);
  Service service;
  Server server(service, {.client = {.port = 0}});
  server.start();
  {
    Client client(server.port());
    const std::string line =
        evaluate_line("s", core::pdf1d_inputs().serialize());
    std::optional<std::string> first;
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      client.send_line(line);
      const auto response = client.read_line();
      ASSERT_TRUE(response.has_value());
      if (!first) first = response;
      EXPECT_EQ(*response, *first);
    }
  }
  server.trigger_stop();
  server.run();
  obs::set_enabled(false);
  const auto counters = obs::Registry::global().counters();
  obs::Registry::global().reset();
  EXPECT_EQ(counters.count("pool.tasks_submitted"), 0u);
  EXPECT_EQ(counters.at("svc.cache.miss"), 1u);
  EXPECT_EQ(counters.at("svc.cache.hit"), kRequests - 1);
  EXPECT_EQ(service.stats().in_flight_max, 0u);
}

int open_fd_count() {
  int n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd"))
    (void)entry, ++n;
  return n;
}

TEST(SvcServer, EmfileAcceptBacksOffAndRecovers) {
  // Regression: accept(2) failing with EMFILE left the listen fd
  // readable (the connection stays queued), so the loop re-polled it
  // instantly — a 100% CPU spin for as long as fds stayed exhausted.
  // Now the failure counts svc.server.accept_failed and the listen fd
  // sits out accept_backoff_ms before retrying.
  Service service;
  Server server(service, {.client = {.port = 0, .accept_backoff_ms = 20}});
  server.start();
  {
    Client warm(server.port());
    warm.send_line("{\"id\":\"w\",\"op\":\"ping\"}");
    ASSERT_TRUE(warm.read_line().has_value());
  }

  // Ballast fds reserved before the count: if runtime fd drift (the
  // sanitizer opening or closing a descriptor between the count and the
  // clamp) eats the client's slot, closing one frees a slot for the
  // client socket while the server-side accept stays exhausted.
  std::vector<int> ballast;
  for (int i = 0; i < 3; ++i) {
    const int b = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(b, 0);
    ballast.push_back(b);
  }

  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old_limit), 0);
  rlimit tight = old_limit;
  // Room for exactly one more fd: the client's socket. The server-side
  // accept then has nothing left and fails with EMFILE.
  tight.rlim_cur = static_cast<rlim_t>(open_fd_count() + 1);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);

  // Provoke: connect until accept reports exhaustion. Drift the other
  // way can hand the first accept a free slot, so every retry burns one
  // more (connect(2) on loopback succeeds once the connection is queued
  // in the backlog — it never waits for the accept).
  std::vector<int> clients;
  auto try_connect = [&] {
    const int s = ::socket(AF_INET, SOCK_STREAM, 0);
    if (s < 0) return false;  // our own table is full — close ballast
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
    if (::connect(s, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(s);
      return false;
    }
    clients.push_back(s);
    return true;
  };
  for (int attempt = 0; attempt < 4; ++attempt) {
    if (!try_connect() && !ballast.empty()) {
      ::close(ballast.back());
      ballast.pop_back();
      try_connect();
    }
    if (wait_until([&] { return server.stats().accept_failures >= 1; },
                   attempt == 3 ? 10000 : 500)) {
      break;
    }
  }
  ASSERT_FALSE(clients.empty());
  EXPECT_GE(server.stats().accept_failures, 1u)
      << "accept never reported fd exhaustion";

  // Free the fds again: the queued connection must be accepted on a
  // backoff retry — recovery, not a wedged listener. The newest client
  // is the one that was still pending when accept ran dry.
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old_limit), 0);
  const int fd = clients.back();
  send_best_effort(fd, "{\"id\":\"after\",\"op\":\"ping\"}\n");
  std::string line;
  char c;
  while (::read(fd, &c, 1) == 1 && c != '\n') line += c;
  EXPECT_NE(line.find("\"id\":\"after\""), std::string::npos);
  EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos);
  for (const int s : clients) ::close(s);
  for (const int b : ballast) ::close(b);

  server.trigger_stop();
  server.run();
  EXPECT_GE(server.stats().accept_failures, 1u);
}

TEST(SvcServer, ConfigurableBacklogStillAcceptsConnections) {
  Service service;
  Server server(service, {.client = {.port = 0, .backlog = 1}});
  server.start();
  for (int i = 0; i < 8; ++i) {
    Client client(server.port());
    client.send_line("{\"id\":\"p\",\"op\":\"ping\"}");
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_NE(line->find("\"status\":\"ok\""), std::string::npos);
  }
  server.trigger_stop();
  server.run();
}

TEST(SvcServer, DrainRecordsEachComponentsStatsOnceAsMetrics) {
  // Serving events are counted once, in the components' own stats; the
  // drained server records those into the registry. After hits, misses,
  // an eviction, a worksheet error, a protocol error, a deadline
  // rejection and a cache clear(), every exported svc.* counter and gauge
  // equals the stats field it came from. The late line lists more clocks
  // than the loop computes, so its miss is queued and expires there.
  obs::Registry::global().reset();
  obs::set_enabled(true);
  Service service({.cache_capacity = 1, .cache_shards = 1});
  Server server(service, {.client = {.port = 0}});
  server.start();
  {
    Client client(server.port());
    const std::string pdf1d = core::pdf1d_inputs().serialize();
    const std::string queued =
        sheet_with_clocks(Service::kCallerMaxClocks + 1);
    for (const std::string& line :
         {evaluate_line("miss", pdf1d), evaluate_line("hit", pdf1d),
          evaluate_line("evict", core::md_inputs().serialize()),
          evaluate_line("bad", "not a worksheet"), std::string("{not json"),
          evaluate_line("late", queued, ",\"deadline_ms\":0.000001")}) {
      client.send_line(line);
      ASSERT_TRUE(client.read_line().has_value());
    }
  }
  service.clear_cache();
  server.trigger_stop();
  server.run();
  obs::set_enabled(false);

  const Service::Stats st = service.stats();
  const Server::Stats ss = server.stats();
  EXPECT_EQ(st.requests, 6u);
  EXPECT_EQ(st.cache.hits, 1u);
  EXPECT_EQ(st.cache.misses, 2u);
  EXPECT_EQ(st.cache.evictions, 1u);
  EXPECT_EQ(st.responses_error, 3u);
  EXPECT_EQ(st.deadline_expired, 1u);
  EXPECT_EQ(st.cache.size, 0u);

  // A counter is exported iff its stats field is nonzero, with its value.
  const std::map<std::string, std::uint64_t> expected = {
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
      {"svc.server.connections", ss.connections},
      {"svc.server.slow_client_dropped", ss.slow_clients_dropped},
      {"svc.server.responses_dropped", ss.responses_dropped},
      {"svc.server.write_failed", ss.write_failures},
      {"svc.server.accept_failed", ss.accept_failures},
  };
  std::map<std::string, std::uint64_t> exported;
  for (const auto& [name, value] : obs::Registry::global().counters())
    if (name.rfind("svc.", 0) == 0) exported[name] = value;
  std::map<std::string, std::uint64_t> nonzero;
  for (const auto& [name, value] : expected)
    if (value > 0) nonzero[name] = value;
  EXPECT_EQ(exported, nonzero);

  std::map<std::string, double> gauges;
  for (const auto& [name, value] : obs::Registry::global().gauges())
    if (name.rfind("svc.", 0) == 0) gauges[name] = value;
  const std::map<std::string, double> expected_gauges = {
      {"svc.queue_depth", static_cast<double>(st.in_flight_max)},
      {"svc.cache.size", static_cast<double>(st.cache.size)},
      {"svc.cache.bytes", static_cast<double>(st.cache.bytes)},
      {"svc.cache.hit_ratio", hit_ratio(st.cache)},
  };
  EXPECT_EQ(gauges, expected_gauges);
  EXPECT_EQ(gauges["svc.cache.bytes"], 0.0) << "no phantom footprint";
  EXPECT_DOUBLE_EQ(gauges["svc.cache.hit_ratio"], 1.0 / 3.0);

  // The export happens once: another run() records nothing more.
  server.run();
  EXPECT_EQ(obs::Registry::global().counters().at("svc.requests"), 6u);
  obs::Registry::global().reset();
}

}  // namespace
}  // namespace rat::svc
