#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/montecarlo.hpp"
#include "core/parameters.hpp"
#include "core/units.hpp"
#include "io/json.hpp"
#include "util/parallel_for.hpp"
#include "util/thread_pool.hpp"

namespace rat::obs {
namespace {

// The enabled flag and the global registry are process-wide; every test
// that touches them restores the disabled default so suites can run in
// any order.
struct EnabledGuard {
  ~EnabledGuard() { set_enabled(false); }
};

TEST(ObsRegistry, CountersAccumulate) {
  Registry reg;
  reg.add_counter("a");
  reg.add_counter("a", 4);
  reg.add_counter("b");
  const auto c = reg.counters();
  EXPECT_EQ(c.at("a"), 5u);
  EXPECT_EQ(c.at("b"), 1u);
  EXPECT_EQ(c.size(), 2u);
}

TEST(ObsRegistry, GaugeSemantics) {
  Registry reg;
  reg.set_gauge("last", 1.0);
  reg.set_gauge("last", 3.0);  // last write wins
  reg.max_gauge("peak", 2.0);
  reg.max_gauge("peak", 5.0);
  reg.max_gauge("peak", 4.0);  // lower value never shrinks the peak
  const auto g = reg.gauges();
  EXPECT_DOUBLE_EQ(g.at("last"), 3.0);
  EXPECT_DOUBLE_EQ(g.at("peak"), 5.0);
}

TEST(ObsRegistry, TimerAggregation) {
  Registry reg;
  reg.record_timer("t", 10);
  reg.record_timer("t", 30);
  reg.record_timer("t", 20);
  const TimerStat s = reg.timers().at("t");
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.total_ns, 60u);
  EXPECT_EQ(s.min_ns, 10u);
  EXPECT_EQ(s.max_ns, 30u);
  EXPECT_DOUBLE_EQ(s.mean_ns(), 20.0);
  EXPECT_DOUBLE_EQ(TimerStat{}.mean_ns(), 0.0);
}

TEST(ObsRegistry, SpanBufferIsBounded) {
  Registry reg(/*span_capacity=*/4);
  for (int i = 0; i < 7; ++i)
    reg.record_span("s", "item" + std::to_string(i), 100 * i, 10);
  const auto spans = reg.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(reg.spans_dropped(), 3u);
  // Recording order is preserved; overflow drops the newest, not the
  // oldest (the buffer never reshuffles).
  EXPECT_EQ(spans.front().detail, "item0");
  EXPECT_EQ(spans.back().detail, "item3");
  EXPECT_EQ(spans.front().name, "s");
  EXPECT_EQ(spans.front().dur_ns, 10u);
}

TEST(ObsRegistry, ResetClearsEverything) {
  Registry reg(4);
  reg.add_counter("c");
  reg.set_gauge("g", 1.0);
  reg.record_timer("t", 5);
  for (int i = 0; i < 9; ++i) reg.record_span("s", {}, 0, 1);
  reg.reset();
  EXPECT_TRUE(reg.counters().empty());
  EXPECT_TRUE(reg.gauges().empty());
  EXPECT_TRUE(reg.timers().empty());
  EXPECT_TRUE(reg.spans().empty());
  EXPECT_EQ(reg.spans_dropped(), 0u);
  // Capacity survives reset.
  for (int i = 0; i < 5; ++i) reg.record_span("s", {}, 0, 1);
  EXPECT_EQ(reg.spans().size(), 4u);
  EXPECT_EQ(reg.spans_dropped(), 1u);
}

TEST(ObsRegistry, ConcurrentUpdatesAreConsistent) {
  // TSan target: many threads hammering shared and per-thread metric
  // names; totals must come out exact.
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      const std::string mine = "thread." + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        reg.add_counter("shared");
        reg.add_counter(mine);
        reg.record_timer("lat", static_cast<std::uint64_t>(i + 1));
        reg.max_gauge("peak", static_cast<double>(i));
        if (i % 64 == 0) reg.record_span("span", mine, 0, 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto c = reg.counters();
  EXPECT_EQ(c.at("shared"), static_cast<std::uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(c.at("thread." + std::to_string(t)),
              static_cast<std::uint64_t>(kIters));
  const TimerStat lat = reg.timers().at("lat");
  EXPECT_EQ(lat.count, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(lat.min_ns, 1u);
  EXPECT_EQ(lat.max_ns, static_cast<std::uint64_t>(kIters));
  EXPECT_DOUBLE_EQ(reg.gauges().at("peak"), kIters - 1);
  EXPECT_EQ(reg.spans().size() + reg.spans_dropped(),
            static_cast<std::size_t>(kThreads) * (kIters / 64 + 1));
}

TEST(ObsEnabled, DefaultsToOff) { EXPECT_FALSE(enabled()); }

TEST(ObsScopedTimer, RecordsOnlyWhenEnabled) {
  EnabledGuard guard;
  Registry& reg = Registry::global();
  reg.reset();

  { ScopedTimer t("obs_test.scope"); }
  EXPECT_EQ(reg.timers().count("obs_test.scope"), 0u);

  set_enabled(true);
  EXPECT_TRUE(enabled());
  { ScopedTimer t("obs_test.scope"); }
  { ScopedTimer t("obs_test.scope", "with-span", /*record_span=*/true); }
  set_enabled(false);

  const auto timers = reg.timers();
  ASSERT_EQ(timers.count("obs_test.scope"), 1u);
  EXPECT_EQ(timers.at("obs_test.scope").count, 2u);
  const auto spans = reg.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "obs_test.scope");
  EXPECT_EQ(spans[0].detail, "with-span");
  reg.reset();
}

TEST(ObsScopedTimer, EnabledStateCapturedAtConstruction) {
  // A timer constructed while disabled must not record even if collection
  // is switched on before it destructs (and vice versa): sites never see
  // a torn enable.
  EnabledGuard guard;
  Registry& reg = Registry::global();
  reg.reset();
  {
    ScopedTimer t("obs_test.torn");
    set_enabled(true);
  }
  EXPECT_EQ(reg.timers().count("obs_test.torn"), 0u);
  reg.reset();
}

TEST(ObsThreadIndex, DenseAndStable) {
  const std::uint32_t mine = thread_index();
  EXPECT_EQ(thread_index(), mine);  // stable on the same thread
  std::uint32_t other = 0;
  std::thread([&other] { other = thread_index(); }).join();
  EXPECT_NE(other, mine);
}

TEST(ObsJson, SchemaAndContents) {
  Registry reg;
  reg.add_counter("files", 3);
  reg.set_gauge("threads", 2.0);
  reg.record_timer("parse", 1500000000);  // 1.5 s
  reg.record_span("parse", "a \"quoted\"\\path", 0, 250000000);
  const std::string j = io::metrics_json(reg);
  EXPECT_NE(j.find("\"schema\":\"rat.metrics.v1\""), std::string::npos);
  EXPECT_NE(j.find("\"files\":3"), std::string::npos);
  EXPECT_NE(j.find("\"threads\":2"), std::string::npos);
  EXPECT_NE(j.find("\"count\":1"), std::string::npos);
  EXPECT_NE(j.find("\"total_sec\":1.5"), std::string::npos);
  EXPECT_NE(j.find("\"spans_dropped\":0"), std::string::npos);
  // Detail strings are escaped, not emitted raw.
  EXPECT_NE(j.find("a \\\"quoted\\\"\\\\path"), std::string::npos);
  EXPECT_EQ(j.find("a \"quoted\""), std::string::npos);
}

TEST(ObsJson, EmptyRegistryStillValidDocument) {
  Registry reg;
  const std::string j = io::metrics_json(reg);
  EXPECT_NE(j.find("rat.metrics.v1"), std::string::npos);
  EXPECT_NE(j.find("\"counters\":{}"), std::string::npos);
  EXPECT_NE(j.find("\"spans\":[]"), std::string::npos);
}

TEST(ObsSummary, ListsEverySection) {
  Registry reg;
  reg.add_counter("batch.files", 4);
  reg.set_gauge("batch.threads", 2.0);
  reg.record_timer("batch.file", 2000);
  const std::string s = summary_table(reg);
  EXPECT_NE(s.find("counters:"), std::string::npos);
  EXPECT_NE(s.find("gauges:"), std::string::npos);
  EXPECT_NE(s.find("timers:"), std::string::npos);
  EXPECT_NE(s.find("batch.files"), std::string::npos);
  EXPECT_NE(s.find("batch.file"), std::string::npos);
}

TEST(ObsExport, WriteMetricsFileRoundTrips) {
  Registry reg;
  reg.add_counter("k", 7);
  const auto path =
      std::filesystem::temp_directory_path() / "rat_obs_test_metrics.json";
  ASSERT_TRUE(io::write_metrics_file(path, reg));
  std::ifstream f(path);
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_EQ(buf.str(), io::metrics_json(reg) + "\n");
  std::filesystem::remove(path);
}

TEST(ObsExport, WriteMetricsFileReportsFailure) {
  Registry reg;
  EXPECT_FALSE(io::write_metrics_file(
      std::filesystem::path("/nonexistent-dir/metrics.json"), reg));
}

TEST(ObsEnv, MetricsPathReadFromEnvironment) {
  ASSERT_EQ(::setenv("RAT_METRICS", "/tmp/from-env.json", 1), 0);
  const char* p = env_metrics_path();
  ASSERT_NE(p, nullptr);
  EXPECT_STREQ(p, "/tmp/from-env.json");
  ASSERT_EQ(::setenv("RAT_METRICS", "", 1), 0);
  EXPECT_EQ(env_metrics_path(), nullptr);  // empty means unset
  ASSERT_EQ(::unsetenv("RAT_METRICS"), 0);
  EXPECT_EQ(env_metrics_path(), nullptr);
}

TEST(ObsInstrumentation, ParallelMapRecordsChunksAndPoolActivity) {
  EnabledGuard guard;
  Registry& reg = Registry::global();
  reg.reset();
  set_enabled(true);
  const auto out = util::parallel_map(
      64, [](std::size_t i) { return static_cast<double>(i) * 2.0; }, 2);
  // The pool worker records pool.tasks_completed / pool.task *after* the
  // task body releases the waiting caller, so those trailing records can
  // land a moment after parallel_map returns. Wait for them (bounded)
  // before disabling, or they would be dropped rather than late.
  for (int i = 0; i < 1000; ++i) {
    const auto snapshot = reg.counters();
    const auto it = snapshot.find("pool.tasks_completed");
    if (it != snapshot.end() && it->second >= 1u &&
        reg.timers().count("pool.task") == 1u)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  set_enabled(false);
  ASSERT_EQ(out.size(), 64u);
  EXPECT_DOUBLE_EQ(out[63], 126.0);

  const auto c = reg.counters();
  ASSERT_EQ(c.count("parallel_for.regions"), 1u);
  EXPECT_EQ(c.at("parallel_for.regions"), 1u);
  EXPECT_EQ(c.at("parallel_for.chunks"), 2u);
  // Chunk 0 runs on the caller; chunk 1 goes through the shared pool.
  EXPECT_GE(c.at("pool.tasks_submitted"), 1u);
  EXPECT_GE(c.at("pool.tasks_completed"), 1u);
  const auto timers = reg.timers();
  ASSERT_EQ(timers.count("parallel_for.chunk"), 1u);
  EXPECT_EQ(timers.at("parallel_for.chunk").count, 2u);
  EXPECT_GE(timers.at("pool.task").count, 1u);
  reg.reset();
}

TEST(ObsInstrumentation, MonteCarloRecordsSamplesAndChunks) {
  EnabledGuard guard;
  Registry& reg = Registry::global();
  reg.reset();
  set_enabled(true);
  const auto r =
      core::run_monte_carlo(core::pdf1d_inputs(), {}, 2048, 0.0, 7, 1);
  set_enabled(false);
  EXPECT_EQ(r.n_samples, 2048u);
  const auto c = reg.counters();
  EXPECT_EQ(c.at("montecarlo.samples"), 2048u);
  const auto timers = reg.timers();
  EXPECT_EQ(timers.at("montecarlo.run").count, 1u);
  // 2048 samples = two fixed 1024-sample chunks, even run serially.
  EXPECT_EQ(timers.at("montecarlo.chunk").count, 2u);
  reg.reset();
}

TEST(ObsInstrumentation, ResultsIdenticalEnabledAndDisabled) {
  // Observability must never perturb the numbers: bit-identical
  // Monte-Carlo and parallel_map results with collection on and off.
  EnabledGuard guard;
  const core::RatInputs in = core::md_inputs();
  const auto model = core::UncertaintyModel::typical(in);

  set_enabled(false);
  const auto off = core::run_monte_carlo(in, model, 1500, 10.0, 42, 2);
  const auto map_off = util::parallel_map(
      33, [](std::size_t i) { return 1.0 / (1.0 + static_cast<double>(i)); },
      2);

  Registry::global().reset();
  set_enabled(true);
  const auto on = core::run_monte_carlo(in, model, 1500, 10.0, 42, 2);
  const auto map_on = util::parallel_map(
      33, [](std::size_t i) { return 1.0 / (1.0 + static_cast<double>(i)); },
      2);
  set_enabled(false);

  EXPECT_EQ(off.speedup_sb_samples, on.speedup_sb_samples);
  EXPECT_DOUBLE_EQ(off.probability_of_goal, on.probability_of_goal);
  EXPECT_DOUBLE_EQ(off.speedup_sb.p50, on.speedup_sb.p50);
  EXPECT_EQ(map_off, map_on);
  Registry::global().reset();
}

TEST(ObsInstrumentation, DisabledRunLeavesRegistryEmpty) {
  EnabledGuard guard;
  Registry& reg = Registry::global();
  reg.reset();
  ASSERT_FALSE(enabled());
  (void)util::parallel_map(
      16, [](std::size_t i) { return static_cast<double>(i); }, 2);
  (void)core::run_monte_carlo(core::pdf1d_inputs(), {}, 100, 0.0, 3, 1);
  EXPECT_TRUE(reg.counters().empty());
  EXPECT_TRUE(reg.timers().empty());
  EXPECT_TRUE(reg.spans().empty());
}

}  // namespace
}  // namespace rat::obs
