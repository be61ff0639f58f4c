// rat_router front-end: fingerprint routing units, byte-identity of
// routed vs direct responses, E_OVERLOADED propagation, worker-kill
// respawn with every admitted request still answered, fan-out stats
// aggregation, fast-death shard abandonment, shutdown-op drain, and the
// client transport policies shared with the server (oversize lines,
// slow-client drop, drain flush deadline).
//
// The process-level tests supervise real rat_serve workers (RAT_SERVE_BIN
// points at the build-tree binary) behind an in-process Router.
#include "svc/router.hpp"

#include <signal.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
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
#include "svc/fingerprint.hpp"
#include "svc/service.hpp"

namespace rat::svc {
namespace {

RouterConfig worker_fleet(std::size_t n,
                          std::vector<std::string> extra_flags = {}) {
  RouterConfig cfg;
  cfg.n_workers = n;
  cfg.worker_argv = {RAT_SERVE_BIN, "--stdio", "--no-tcp"};
  for (auto& f : extra_flags) cfg.worker_argv.push_back(std::move(f));
  return cfg;
}

/// Submit one line to an in-process Service and wait for its response —
/// the "direct rat_serve" bytes every routed response must match.
std::string direct_response(Service& service, const std::string& line) {
  std::promise<std::string> promise;
  auto future = promise.get_future();
  service.submit(line,
                 [&promise](std::string l) { promise.set_value(std::move(l)); });
  return future.get();
}

Request evaluate_request(const std::string& sheet) {
  Request req;
  req.op = Request::Op::kEvaluate;
  req.worksheet = sheet;
  req.has_worksheet = true;
  return req;
}

std::string evaluate_burst(const std::string& prefix, int count) {
  const std::string sheet = core::pdf1d_inputs().serialize();
  std::string burst;
  for (int i = 0; i < count; ++i) {
    burst += evaluate_line(prefix + std::to_string(i), sheet);
    burst += '\n';
  }
  return burst;
}

// ---- Routing-helper units ----

TEST(SvcRouter, RouteFingerprintMatchesCanonicalFingerprint) {
  const core::RatInputs inputs = core::pdf1d_inputs();
  EXPECT_EQ(route_fingerprint(evaluate_request(inputs.serialize())),
            fingerprint(inputs));
  // Different designs shard differently (FNV over distinct canonical
  // text; equality would be a 2^-64 fluke).
  EXPECT_NE(route_fingerprint(evaluate_request(inputs.serialize())),
            route_fingerprint(
                evaluate_request(core::md_inputs().serialize())));
}

TEST(SvcRouter, RouteFingerprintFallsBackForUnparseableAndFiles) {
  // Unparseable text must not throw out of the router; repeats of the
  // same bad request still pin to one shard via the raw-text hash.
  const Request bad = evaluate_request("definitely not a worksheet");
  EXPECT_EQ(route_fingerprint(bad), fnv1a64(bad.worksheet));

  Request file;
  file.op = Request::Op::kEvaluate;
  file.file = "/some/path.rat";
  file.has_file = true;
  EXPECT_EQ(route_fingerprint(file), fnv1a64("file:/some/path.rat"));
}

TEST(SvcRouter, ForwardEncodingPreservesTheRequest) {
  Request req = evaluate_request(core::pdf2d_inputs().serialize());
  req.id = "client-id";
  req.deadline_ms = 1500.0;
  req.no_cache = true;
  const Request back = parse_request(encode_forward("t2a", req));
  EXPECT_EQ(back.id, "t2a");
  EXPECT_EQ(back.op, Request::Op::kEvaluate);
  EXPECT_EQ(back.worksheet, req.worksheet);
  EXPECT_TRUE(back.has_worksheet);
  EXPECT_FALSE(back.has_file);
  EXPECT_EQ(back.deadline_ms, 1500.0);
  EXPECT_TRUE(back.no_cache);
}

TEST(SvcRouter, ResponseIdSpliceReproducesDirectBytes) {
  // A worker answers with the router's token as its id; splicing the
  // original id back must yield the exact bytes the protocol renderers
  // produce for that id — including the empty-id => null spelling.
  EXPECT_EQ(response_token(pong_response("t1f")), "t1f");
  EXPECT_EQ(restore_response_id(pong_response("t1f"), "real \"id\""),
            pong_response("real \"id\""));
  EXPECT_EQ(restore_response_id(pong_response("t0"), ""), pong_response(""));
  const std::string err =
      error_response("t3", SvcErrorCode::kOverloaded, "busy");
  EXPECT_EQ(restore_response_id(err, "x"),
            error_response("x", SvcErrorCode::kOverloaded, "busy"));
  // Non-protocol output carries no token and is dropped by the caller.
  EXPECT_EQ(response_token("garbage"), "");
  EXPECT_EQ(response_token("{\"schema\":\"rat.svc.v1\",\"id\":null"), "");
}

// ---- Fleet end-to-end ----

TEST(SvcRouter, RoutedResponsesMatchDirectServiceByteForByte) {
  Router router(worker_fleet(3));
  router.start();
  Service direct;  // the reference bytes: same code the workers run

  Client client(router.port());
  const std::vector<std::string> lines = {
      evaluate_line("ok1", core::pdf1d_inputs().serialize()),
      evaluate_line("ok2", core::md_inputs().serialize()),
      evaluate_line("bad-sheet", "not a worksheet at all"),
      "{\"id\":\"bad-req\",\"op\":\"evaluate\"}",
      "{\"id\":\"png\",\"op\":\"ping\"}",
      "{\"op\":\"ping\"}",  // empty id must round-trip as null
  };
  std::map<std::string, std::string> routed;  // line -> response
  for (const auto& line : lines) {
    client.send_line(line);
    const auto got = client.read_line();
    ASSERT_TRUE(got.has_value()) << line;
    routed[line] = *got;
  }
  for (const auto& line : lines)
    EXPECT_EQ(routed[line], direct_response(direct, line)) << line;

  router.trigger_stop();
  router.run();
}

TEST(SvcRouter, DuplicateRequestsStayOnOneShardAndHitItsCache) {
  Router router(worker_fleet(4));
  router.start();
  Client client(router.port());

  const std::string sheet = core::pdf1d_inputs().serialize();
  client.send_line(evaluate_line("m", sheet));
  const auto miss = client.read_line();
  ASSERT_TRUE(miss.has_value());
  client.send_line(evaluate_line("h", sheet));
  const auto hit = client.read_line();
  ASSERT_TRUE(hit.has_value());
  // Same shard owner, so the repeat is a cache hit — and hit/miss are
  // byte-identical apart from the echoed id.
  EXPECT_EQ(restore_response_id(*miss, "x"), restore_response_id(*hit, "x"));

  client.send_line("{\"id\":\"st\",\"op\":\"stats\"}");
  const auto stats = client.read_line();
  ASSERT_TRUE(stats.has_value());
  const io::JsonValue doc = io::parse_json(*stats);
  const io::JsonValue* agg = doc.find("stats");
  ASSERT_NE(agg, nullptr);
  const io::JsonValue* cache = agg->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("hits")->number, 1.0);    // summed across workers
  EXPECT_EQ(cache->find("misses")->number, 1.0);  // only the owner missed
  const io::JsonValue* rt = doc.find("router");
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->find("workers")->number, 4.0);

  router.trigger_stop();
  router.run();
}

/// Every member name of @p obj in document order, nested objects'
/// members prefixed with their parent's name ("cache.hits").
std::vector<std::string> member_names(const io::JsonValue& obj,
                                      const std::string& prefix = "") {
  std::vector<std::string> names;
  for (const auto& [key, value] : obj.object) {
    names.push_back(prefix + key);
    if (value.is_object())
      for (std::string& n : member_names(value, prefix + key + "."))
        names.push_back(std::move(n));
  }
  return names;
}

TEST(SvcRouter, AggregateStatsHaveTheWorkerStatsMembersInOrder) {
  // The fleet's "stats" object sums the workers' counters, so a client
  // reading it sees exactly the members a direct rat_serve reports.
  Router router(worker_fleet(2));
  router.start();
  Client client(router.port());
  client.send_line("{\"id\":\"st\",\"op\":\"stats\"}");
  const auto routed = client.read_line();
  ASSERT_TRUE(routed.has_value());
  router.trigger_stop();
  router.run();

  Service direct;
  const io::JsonValue worker =
      io::parse_json(direct_response(direct, "{\"op\":\"stats\"}"));
  const io::JsonValue fleet = io::parse_json(*routed);
  ASSERT_NE(worker.find("stats"), nullptr);
  ASSERT_NE(fleet.find("stats"), nullptr);
  const std::vector<std::string> names = member_names(*worker.find("stats"));
  EXPECT_FALSE(names.empty());
  EXPECT_EQ(member_names(*fleet.find("stats")), names);
}

TEST(SvcRouter, PingFansOutAndAnswersWithDirectBytes) {
  Router router(worker_fleet(2));
  router.start();
  Client client(router.port());
  client.send_line("{\"id\":\"p\",\"op\":\"ping\"}");
  const auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, pong_response("p"));  // aggregation leaves no trace
  router.trigger_stop();
  router.run();
}

TEST(SvcRouter, WorkerOverloadPropagatesVerbatim) {
  // Workers admit one request at a time; a pipelined no_cache burst on
  // one shard must overflow, and the worker's E_OVERLOADED line reaches
  // the client byte-identical to a direct server's rejection.
  Router router(worker_fleet(2, {"--queue-capacity=1"}));
  router.start();
  Client client(router.port());

  const std::string sheet = core::pdf2d_inputs().serialize();
  constexpr int kBurst = 200;
  for (int i = 0; i < kBurst; ++i)
    client.send_line(
        evaluate_line("b" + std::to_string(i), sheet, ",\"no_cache\":true"));

  int ok = 0, overloaded = 0;
  std::vector<std::string> ids;
  for (int i = 0; i < kBurst; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    const io::JsonValue doc = io::parse_json(*line);
    const std::string id = doc.find("id")->string;
    ids.push_back(id);
    if (doc.find("status")->string == "ok") {
      ++ok;
    } else {
      ++overloaded;
      EXPECT_EQ(*line,
                error_response(id, SvcErrorCode::kOverloaded,
                               "admission queue full (1 requests queued or "
                               "running); retry later"));
    }
  }
  EXPECT_EQ(ok + overloaded, kBurst);  // exactly one response each
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_GE(ok, 1);
  EXPECT_GE(overloaded, 1) << "burst never tripped worker admission";

  router.trigger_stop();
  router.run();
}

TEST(SvcRouter, KilledWorkerIsRespawnedAndEveryRequestIsAnswered) {
  Router router(worker_fleet(2));
  router.start();
  Client client(router.port());

  // Everything routes to the sheet's shard owner; kill exactly that
  // worker mid-burst.
  const std::string sheet = core::md_inputs().serialize();
  const std::size_t slot = static_cast<std::size_t>(
      route_fingerprint(evaluate_request(sheet)) % 2);
  constexpr int kBurst = 120;
  for (int i = 0; i < kBurst; ++i)
    client.send_line(
        evaluate_line("k" + std::to_string(i), sheet, ",\"no_cache\":true"));

  std::vector<std::string> responses;
  for (int i = 0; i < 5; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    responses.push_back(*line);
  }
  const pid_t victim = router.worker_pids()[slot];
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  // Every admitted request is still answered exactly once: in-flight
  // requests re-forward to the respawned worker, whose deterministic
  // re-evaluation reproduces the same bytes.
  for (int i = 5; i < kBurst; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "request lost across worker death";
    responses.push_back(*line);
  }
  std::vector<std::string> ids;
  for (const auto& line : responses) {
    const io::JsonValue doc = io::parse_json(line);
    EXPECT_EQ(doc.find("status")->string, "ok") << line;
    ids.push_back(doc.find("id")->string);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kBurst));
  // All evaluations of one worksheet agree byte for byte, dead worker
  // or not.
  for (const auto& line : responses)
    EXPECT_EQ(restore_response_id(line, "x"),
              restore_response_id(responses.front(), "x"));

  EXPECT_TRUE(wait_until([&] { return router.stats().respawns >= 1; }));
  EXPECT_TRUE(
      wait_until([&] { return router.worker_pids()[slot] > 0; }));
  EXPECT_NE(router.worker_pids()[slot], victim);

  router.trigger_stop();
  router.run();
  EXPECT_GE(router.stats().worker_deaths, 1u);
}

TEST(SvcRouter, BrokenWorkerBinaryAbandonsTheShardAfterFastDeaths) {
  // A worker that can never start (exec fails => _exit(127)) must not
  // respawn-storm: after max_fast_deaths consecutive no-response deaths
  // the shard is abandoned and its requests get a structured E_INTERNAL.
  RouterConfig cfg;
  cfg.n_workers = 1;
  cfg.worker_argv = {"/nonexistent/rat_serve_missing"};
  cfg.max_fast_deaths = 3;
  Router router(cfg);
  router.start();

  EXPECT_TRUE(wait_until([&] {
    return router.stats().worker_deaths >=
           static_cast<std::uint64_t>(cfg.max_fast_deaths);
  }));
  EXPECT_TRUE(wait_until([&] { return router.worker_pids()[0] < 0; }));
  // Deaths stop once abandoned (respawns = deaths - 1, bounded).
  EXPECT_LE(router.stats().respawns,
            static_cast<std::uint64_t>(cfg.max_fast_deaths));

  Client client(router.port());
  client.send_line(evaluate_line("x", core::pdf1d_inputs().serialize()));
  const auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("E_INTERNAL"), std::string::npos);
  EXPECT_NE(line->find("unavailable"), std::string::npos);
  // The control plane survives a dead fleet: ping still answers (an
  // empty fan-out short-circuits).
  client.send_line("{\"id\":\"p\",\"op\":\"ping\"}");
  EXPECT_EQ(client.read_line(), pong_response("p"));

  router.trigger_stop();
  router.run();
}

TEST(SvcRouter, ShutdownOpDrainsTheWholeFleet) {
  Router router(worker_fleet(2));
  router.start();
  std::thread runner([&] { router.run(); });
  Client client(router.port());
  client.send_line(evaluate_line("w", core::pdf1d_inputs().serialize()));
  ASSERT_TRUE(client.read_line().has_value());
  client.send_line("{\"id\":\"bye\",\"op\":\"shutdown\"}");
  const auto ack = client.read_line();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(*ack, shutdown_response("bye"));
  runner.join();  // drain: workers EOF out, reaped, loop exits
  EXPECT_FALSE(client.read_line().has_value());
}

// ---- Client transport (the router halves of the SvcServer tests) ----

TEST(SvcRouter, OversizeLineIsRejectedWithStructuredError) {
  RouterConfig cfg = worker_fleet(1);
  cfg.client.max_line_bytes = 128;
  Router router(cfg);
  router.start();
  Client client(router.port());
  client.send_line(evaluate_line("big", std::string(1024, 'x')));
  const auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("E_BAD_REQUEST"), std::string::npos);
  EXPECT_NE(line->find("exceeds"), std::string::npos);
  EXPECT_FALSE(client.read_line().has_value());  // connection closed
  router.trigger_stop();
  router.run();
}

TEST(SvcRouter, StalledClientIsDroppedWithoutBlockingOthers) {
  // A client that pipelines requests but never reads must trip the
  // bounded per-client write queue and be dropped; the loop, the
  // workers and every other client keep going.
  RouterConfig cfg = worker_fleet(2);
  cfg.client.max_write_buffer_bytes = 8192;
  cfg.client.so_sndbuf = 4096;
  Router router(cfg);
  router.start();

  const int stalled = connect_raw(router.port(), /*rcvbuf=*/4096);
  send_best_effort(stalled, evaluate_burst("stall", 400));

  {
    const std::string sheet = core::pdf1d_inputs().serialize();
    Client fast(router.port());
    for (int i = 0; i < 10; ++i) {
      fast.send_line(evaluate_line("fast" + std::to_string(i), sheet));
      const auto line = fast.read_line();
      ASSERT_TRUE(line.has_value()) << "blocked behind the stalled client";
      EXPECT_NE(line->find("\"id\":\"fast" + std::to_string(i) + "\""),
                std::string::npos);
    }
  }

  EXPECT_TRUE(wait_until(
      [&] { return router.stats().slow_clients_dropped >= 1; }))
      << "bounded write queue never tripped";
  ::close(stalled);

  router.trigger_stop();
  router.run();
  EXPECT_GE(router.stats().slow_clients_dropped, 1u);
}

TEST(SvcRouter, DrainDropsClientsThatNeverReadAfterFlushTimeout) {
  // A stalled client under the byte bound cannot hold the drain hostage:
  // after drain_flush_timeout_ms it is dropped and shutdown completes.
  RouterConfig cfg = worker_fleet(1);
  cfg.client.so_sndbuf = 4096;
  cfg.client.drain_flush_timeout_ms = 200;
  Router router(cfg);
  router.start();

  const int stalled = connect_raw(router.port(), /*rcvbuf=*/4096);
  send_best_effort(stalled, evaluate_burst("q", 50));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto t0 = std::chrono::steady_clock::now();
  router.trigger_stop();
  router.run();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5)) << "drain hung on the stall";
  EXPECT_GE(router.stats().slow_clients_dropped, 1u);
  ::close(stalled);
}

TEST(SvcRouter, BlankKeepaliveLinesAreSkippedLikeADirectServer) {
  // rat_serve skips "\n" and "\r\n" lines; routed must match direct, so
  // the first line back is the ping's pong, not an E_BAD_REQUEST.
  Router router(worker_fleet(1));
  router.start();
  Client client(router.port());
  client.send_line("");
  client.send_line("\r");
  client.send_line("{\"id\":\"p\",\"op\":\"ping\"}");
  EXPECT_EQ(client.read_line(), pong_response("p"));
  router.trigger_stop();
  router.run();
}

TEST(SvcRouter, DrainFlushesAggregatedFleetStatsIntoMetrics) {
  obs::Registry::global().reset();
  obs::set_enabled(true);
  {
    Router router(worker_fleet(2));
    router.start();
    Client client(router.port());
    client.send_line(evaluate_line("a", core::pdf1d_inputs().serialize()));
    ASSERT_TRUE(client.read_line().has_value());
    client.send_line(evaluate_line("b", core::pdf1d_inputs().serialize()));
    ASSERT_TRUE(client.read_line().has_value());
    router.trigger_stop();
    router.run();
  }
  obs::set_enabled(false);

  // The drain-time sweep summed the workers' own counters into
  // svc.fleet.* gauges before their stdins closed, so the --metrics
  // export describes the whole fleet, not just the front-end. The two
  // evaluates plus the sweep's own stats sub-requests all count.
  const auto gauges = obs::Registry::global().gauges();
  ASSERT_NE(gauges.find("svc.fleet.requests"), gauges.end());
  EXPECT_GE(gauges.at("svc.fleet.requests"), 2.0);
  EXPECT_EQ(gauges.at("svc.fleet.workers_alive"), 2.0);
  ASSERT_NE(gauges.find("svc.fleet.cache.misses"), gauges.end());
  EXPECT_GE(gauges.at("svc.fleet.cache.misses"), 1.0);
  obs::Registry::global().reset();
}

TEST(SvcRouter, DrainRecordsTheRouterStatsOnceAsMetrics) {
  // The front-end counts its events once, in Router::stats(); the drained
  // router records those into the registry next to the fleet sweep's
  // svc.fleet.* gauges. Every exported svc.router.* counter equals its
  // stats field, and the fleet's cache gauges equal the workers' own
  // stats as the stats op reported them. The late line lists more clocks
  // than a worker's loop computes, so its miss is queued and expires
  // there.
  obs::Registry::global().reset();
  obs::set_enabled(true);
  std::optional<std::string> stats_line;
  Router router(worker_fleet(1, {"--cache-capacity=1"}));
  router.start();
  {
    Client client(router.port());
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
    client.send_line("{\"id\":\"s\",\"op\":\"stats\"}");
    stats_line = client.read_line();
  }
  router.trigger_stop();
  router.run();
  obs::set_enabled(false);

  const Router::Stats st = router.stats();
  EXPECT_EQ(st.requests, 7u);
  EXPECT_EQ(st.forwarded, 6u);  // the protocol error is answered locally
  // A counter is exported iff its stats field is nonzero, with its value;
  // the router process runs no Service, so no other svc.* counter exists.
  const std::map<std::string, std::uint64_t> expected = {
      {"svc.router.connections", st.connections},
      {"svc.router.requests", st.requests},
      {"svc.router.forwarded", st.forwarded},
      {"svc.router.rerouted", st.rerouted},
      {"svc.router.worker_death", st.worker_deaths},
      {"svc.router.respawn", st.respawns},
      {"svc.router.worker_abandoned", st.workers_abandoned},
      {"svc.router.overloaded_local", st.overloaded_local},
      {"svc.router.slow_client_dropped", st.slow_clients_dropped},
      {"svc.router.responses_dropped", st.responses_dropped},
      {"svc.router.write_failed", st.write_failures},
      {"svc.router.accept_failed", st.accept_failures},
  };
  std::map<std::string, std::uint64_t> exported;
  for (const auto& [name, value] : obs::Registry::global().counters())
    if (name.rfind("svc.", 0) == 0) exported[name] = value;
  std::map<std::string, std::uint64_t> nonzero;
  for (const auto& [name, value] : expected)
    if (value > 0) nonzero[name] = value;
  EXPECT_EQ(exported, nonzero);

  ASSERT_TRUE(stats_line.has_value());
  const io::JsonValue doc = io::parse_json(*stats_line);
  const io::JsonValue* agg = doc.find("stats");
  ASSERT_NE(agg, nullptr);
  const io::JsonValue* cache = agg->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("evictions")->number, 1.0);
  const auto gauges = obs::Registry::global().gauges();
  for (const char* key : {"hits", "misses", "evictions", "size", "bytes"})
    EXPECT_EQ(gauges.at(std::string("svc.fleet.cache.") + key),
              cache->find(key)->number)
        << key;
  for (const auto& [name, value] : gauges)
    EXPECT_TRUE(name.rfind("svc.", 0) != 0 || name.rfind("svc.fleet.", 0) == 0)
        << name;

  // The export happens once: another run() records nothing more.
  router.run();
  EXPECT_EQ(obs::Registry::global().counters().at("svc.router.requests"), 7u);
  obs::Registry::global().reset();
}

}  // namespace
}  // namespace rat::svc
