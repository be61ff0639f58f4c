#include "explore/plan_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/designspace.hpp"
#include "core/units.hpp"
#include "explore/explorer.hpp"
#include "store/store.hpp"

namespace rat::explore {
namespace {

using core::CandidateFactory;
using core::DesignAxes;
using core::DesignCandidate;
using core::DesignPoint;
using core::Requirements;
using core::ResourceItem;

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string render_result(const core::DesignSpaceResult& r) {
  std::string out = r.outcome.render_trace();
  out += "proceed=" + std::to_string(r.outcome.proceed);
  out += " accepted=" + (r.outcome.accepted_index
                             ? std::to_string(*r.outcome.accepted_index)
                             : std::string("none"));
  for (const auto& p : r.outcome.predictions) {
    const char* bytes = reinterpret_cast<const char*>(&p);
    out.append(bytes, sizeof p);
  }
  return out;
}

/// Only full gate-pipeline runs are memoized (throughput rejections are
/// synthesized on the fly, cheaper than a cache probe). @p multipliers 200
/// makes every point pass throughput cheaply yet fail the resource gate,
/// so exhaust-the-space tests score — and cache — every point.
CandidateFactory simple_factory(int multipliers = 1) {
  return [multipliers](const DesignPoint& p)
             -> std::optional<DesignCandidate> {
    DesignCandidate c;
    c.inputs = core::pdf1d_inputs();
    c.inputs.name = p.label();
    c.inputs.comp.throughput_ops_per_cycle =
        2.5 * static_cast<double>(p.parallelism);
    c.resources = {ResourceItem{"units", multipliers, p.format_bits, 0, 400,
                                static_cast<int>(p.parallelism)}};
    return c;
  };
}

DesignAxes small_axes() {
  DesignAxes axes;
  axes.parallelism = {1, 2, 4, 8, 16};
  axes.fclock_hz = {core::mhz(100)};
  axes.format_bits = {18};
  return axes;
}

TEST(ExplorePlanCache, KeyIsCanonicalAndContextSensitive) {
  const auto device = rcsim::virtex4_lx100();
  Requirements req;
  const DesignCandidate cand = *simple_factory()(DesignPoint{});
  const std::string k = PlanCache::key(cand, req, device);
  EXPECT_EQ(k.substr(0, 17), "rat.plan.v1|cand=");
  EXPECT_EQ(k.size(), 17u + 16u + 5u + 16u);
  EXPECT_EQ(k, PlanCache::key(cand, req, device));  // pure function

  Requirements other = req;
  other.min_speedup += 1.0;
  EXPECT_NE(PlanCache::key(cand, other, device), k);
  DesignCandidate moved = cand;
  moved.decision_clock_hz += 1.0;
  EXPECT_NE(PlanCache::key(moved, req, device), k);
}

TEST(ExplorePlanCache, WarmRerunEliminatesEveryEvaluation) {
  const auto device = rcsim::virtex4_lx100();
  Requirements req;
  req.min_speedup = 7.0;
  const fs::path dir = fresh_dir("plan_cache_warm");
  const auto plain = explore_design_space_pruned(small_axes(),
                                                 simple_factory(), req,
                                                 device);

  PlanCache cold_cache(dir);
  ExploreOptions opts;
  opts.plan_cache = &cold_cache;
  const auto cold = explore_design_space_pruned(small_axes(), simple_factory(),
                                                req, device, opts);
  EXPECT_EQ(render_result(cold.design), render_result(plain.design));
  EXPECT_EQ(cold.stats.cache_hits, 0u);
  EXPECT_GT(cold.stats.cache_puts, 0u);
  EXPECT_GT(cold.stats.points_evaluated, 0u);

  // A fresh process (fresh PlanCache handle) over the same directory:
  // byte-identical result, zero fresh gate-pipeline runs.
  PlanCache warm_cache(dir);
  EXPECT_EQ(warm_cache.size(), cold.stats.cache_puts);
  opts.plan_cache = &warm_cache;
  const auto warm = explore_design_space_pruned(small_axes(), simple_factory(),
                                                req, device, opts);
  EXPECT_EQ(render_result(warm.design), render_result(plain.design));
  EXPECT_EQ(warm.stats.points_evaluated, 0u);
  EXPECT_GT(warm.stats.cache_hits, 0u);
  EXPECT_EQ(warm.stats.points_restored, cold.stats.points_evaluated);
}

TEST(ExplorePlanCache, OverlappingCampaignReusesSharedPoints) {
  // Content addressing, not positions: a second campaign whose axes merely
  // overlap the first replays the shared points even though their
  // enumeration indices differ (the trace is re-stamped on decode).
  const auto device = rcsim::virtex4_lx100();
  Requirements req;
  req.min_speedup = 0.5;  // every point passes throughput ...
  const CandidateFactory factory = simple_factory(200);  // ... fails resources
  const fs::path dir = fresh_dir("plan_cache_overlap");

  DesignAxes first = small_axes();
  first.parallelism = {1, 2, 4, 8};
  PlanCache cache_a(dir);
  ExploreOptions opts;
  opts.plan_cache = &cache_a;
  (void)explore_design_space_pruned(first, factory, req, device, opts);

  DesignAxes second = small_axes();
  second.parallelism = {2, 4, 8, 16};  // 3 of 4 points shared
  const auto plain =
      explore_design_space_pruned(second, factory, req, device);
  PlanCache cache_b(dir);
  opts.plan_cache = &cache_b;
  const auto reused =
      explore_design_space_pruned(second, factory, req, device, opts);
  EXPECT_EQ(render_result(reused.design), render_result(plain.design));
  EXPECT_EQ(reused.stats.cache_hits, 3u);
  EXPECT_EQ(reused.stats.points_restored, 3u);
}

TEST(ExplorePlanCache, TornJournalTailResumesByteIdentically) {
  // kill -9 mid-insert: the cache journal loses the tail of its last
  // record. Reopening drops that record, so the resumed campaign
  // re-evaluates one point, replays the rest, and is byte-identical —
  // serial or parallel.
  const auto device = rcsim::virtex4_lx100();
  Requirements req;
  req.min_speedup = 0.5;  // every point passes throughput ...
  const CandidateFactory factory = simple_factory(200);  // ... fails resources
  const fs::path dir = fresh_dir("plan_cache_torn");
  const auto plain =
      explore_design_space_pruned(small_axes(), factory, req, device);
  std::size_t puts = 0;
  {
    PlanCache cache(dir);
    ExploreOptions opts;
    opts.plan_cache = &cache;
    const auto cold =
        explore_design_space_pruned(small_axes(), factory, req, device, opts);
    EXPECT_EQ(render_result(cold.design), render_result(plain.design));
    puts = cold.stats.cache_puts;
  }
  ASSERT_EQ(puts, small_axes().size());

  fs::resize_file(dir / "journal", fs::file_size(dir / "journal") - 1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    PlanCache cache(dir);
    ExploreOptions opts;
    opts.plan_cache = &cache;
    opts.n_threads = threads;
    const auto resumed =
        explore_design_space_pruned(small_axes(), factory, req, device, opts);
    EXPECT_EQ(render_result(resumed.design), render_result(plain.design))
        << "threads=" << threads;
    EXPECT_GE(resumed.stats.cache_hits, puts - 1) << "threads=" << threads;
  }
}

TEST(ExplorePlanCache, ChangedRequirementsNeverMatchStaleEntries) {
  const auto device = rcsim::virtex4_lx100();
  const CandidateFactory factory = simple_factory(200);
  Requirements req;
  req.min_speedup = 0.5;
  const fs::path dir = fresh_dir("plan_cache_stale");
  {
    PlanCache cache(dir);
    ExploreOptions opts;
    opts.plan_cache = &cache;
    const auto cold =
        explore_design_space_pruned(small_axes(), factory, req, device, opts);
    ASSERT_GT(cold.stats.cache_puts, 0u);
  }
  // A different goal is a different evaluation context: every key misses,
  // nothing stale is ever replayed.
  req.min_speedup = 0.7;
  const auto plain =
      explore_design_space_pruned(small_axes(), factory, req, device);
  PlanCache cache(dir);
  ExploreOptions opts;
  opts.plan_cache = &cache;
  const auto rerun =
      explore_design_space_pruned(small_axes(), factory, req, device, opts);
  EXPECT_EQ(render_result(rerun.design), render_result(plain.design));
  EXPECT_EQ(rerun.stats.cache_hits, 0u);
  EXPECT_EQ(rerun.stats.points_restored, 0u);
}

TEST(ExplorePlanCache, UndecodablePayloadIsAMissNotAnError) {
  const auto device = rcsim::virtex4_lx100();
  const CandidateFactory factory = simple_factory(200);
  Requirements req;
  req.min_speedup = 0.5;
  const fs::path dir = fresh_dir("plan_cache_corrupt");
  std::size_t n_cached = 0;
  {
    PlanCache cache(dir);
    ExploreOptions opts;
    opts.plan_cache = &cache;
    const auto cold =
        explore_design_space_pruned(small_axes(), factory, req, device, opts);
    n_cached = cold.stats.cache_puts;
  }
  ASSERT_GT(n_cached, 0u);
  // Overwrite every cached value with garbage (valid store records whose
  // payloads no longer decode): lookups must degrade to misses and the
  // run must quietly re-evaluate and re-cache.
  {
    store::DurableStore raw(dir);
    const auto candidates = core::enumerate_design_space(small_axes(), factory);
    for (const auto& cand : candidates) {
      const std::string key = PlanCache::key(cand, req, device);
      if (raw.get(key)) raw.put(key, "\x7fgarbage");
    }
  }
  const auto plain =
      explore_design_space_pruned(small_axes(), factory, req, device);
  PlanCache cache(dir);
  ExploreOptions opts;
  opts.plan_cache = &cache;
  const auto rerun =
      explore_design_space_pruned(small_axes(), factory, req, device, opts);
  EXPECT_EQ(render_result(rerun.design), render_result(plain.design));
  EXPECT_EQ(rerun.stats.cache_hits, 0u);
  EXPECT_EQ(rerun.stats.points_evaluated, plain.stats.points_evaluated);

  // The re-cached entries are good again.
  PlanCache healed(dir);
  opts.plan_cache = &healed;
  const auto warm =
      explore_design_space_pruned(small_axes(), factory, req, device, opts);
  EXPECT_EQ(warm.stats.points_evaluated, 0u);
}

TEST(ExplorePlanCache, HugeTraceCountIsAMissNotAnAllocation) {
  // The right version byte, then a trace count of 2^32 - 1 and nothing
  // else: the count must be checked against the payload size before
  // anything is reserved for it.
  const fs::path dir = fresh_dir("plan_cache_huge_count");
  const std::string key = PlanCache::key(1, 2);
  {
    store::DurableStore raw(dir);
    raw.put(key, std::string("\x01\xff\xff\xff\xff", 5));
  }
  PlanCache cache(dir);
  EXPECT_FALSE(cache.lookup(key, 0, "p"));
}

TEST(ExplorePlanCache, TruncatedPayloadIsAMissAtEveryLength) {
  const auto device = rcsim::virtex4_lx100();
  const CandidateFactory factory = simple_factory(200);
  Requirements req;
  req.min_speedup = 0.5;
  const fs::path dir = fresh_dir("plan_cache_truncated");
  {
    PlanCache cache(dir);
    ExploreOptions opts;
    opts.plan_cache = &cache;
    (void)explore_design_space_pruned(small_axes(), factory, req, device,
                                      opts);
  }
  const DesignCandidate cand =
      core::enumerate_design_space(small_axes(), factory).front();
  const std::string key = PlanCache::key(cand, req, device);
  std::string payload;
  {
    // Every proper prefix of a real value, each under its own key.
    store::DurableStore raw(dir);
    payload = raw.get(key).value();
    for (std::size_t len = 0; len < payload.size(); ++len)
      raw.put(PlanCache::key(len, 0), payload.substr(0, len));
  }
  ASSERT_GT(payload.size(), 1u);
  PlanCache cache(dir);
  EXPECT_TRUE(cache.lookup(key, 0, cand.inputs.name));
  for (std::size_t len = 0; len < payload.size(); ++len)
    EXPECT_FALSE(cache.lookup(PlanCache::key(len, 0), 0, cand.inputs.name))
        << "prefix of " << len << " byte(s)";
}

}  // namespace
}  // namespace rat::explore
