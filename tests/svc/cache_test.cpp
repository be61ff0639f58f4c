// Sharded LRU result cache: hit/miss/eviction semantics and stats, and
// the cache gauges a drained server exports from those stats.
#include "svc/cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/parameters.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "svc/fingerprint.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"

namespace rat::svc {
namespace {

ResultCache::Value value_for(double fclock) {
  core::ThroughputPrediction p;
  p.fclock_hz = fclock;
  return std::make_shared<const std::vector<core::ThroughputPrediction>>(
      std::vector<core::ThroughputPrediction>{p});
}

/// Evaluates @p sheet through @p service and waits for the response, so
/// the result is cached (or counted as a hit) before the call returns.
void evaluate(Service& service, const std::string& sheet) {
  service.submit("{\"id\":\"r\",\"op\":\"evaluate\",\"worksheet\":" +
                     io::json_str(sheet) + "}",
                 [](const std::string&) {});
  service.wait_drained();
}

TEST(SvcCache, MissThenHit) {
  ResultCache cache(4, 1);
  const std::string key = "k1";
  const std::uint64_t fp = fnv1a64(key);
  EXPECT_EQ(cache.get(key, fp), nullptr);
  cache.put(key, fp, value_for(1.0));
  const ResultCache::Value v = cache.get(key, fp);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->at(0).fclock_hz, 1.0);
  const ResultCache::Stats st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_EQ(st.size, 1u);
}

TEST(SvcCache, EvictsLeastRecentlyUsed) {
  // One shard, two slots: touching "a" makes "b" the LRU victim.
  ResultCache cache(2, 1);
  auto put = [&](const std::string& k, double v) {
    cache.put(k, fnv1a64(k), value_for(v));
  };
  auto get = [&](const std::string& k) {
    return cache.get(k, fnv1a64(k));
  };
  put("a", 1.0);
  put("b", 2.0);
  ASSERT_NE(get("a"), nullptr);  // refresh: "b" is now least recent
  put("c", 3.0);                 // evicts "b"
  EXPECT_NE(get("a"), nullptr);
  EXPECT_EQ(get("b"), nullptr);
  EXPECT_NE(get("c"), nullptr);
  const ResultCache::Stats st = cache.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.size, 2u);
}

TEST(SvcCache, PutRefreshesExistingKey) {
  ResultCache cache(2, 1);
  const std::uint64_t fp = fnv1a64("k");
  cache.put("k", fp, value_for(1.0));
  cache.put("k", fp, value_for(2.0));  // concurrent-miss resolution path
  const ResultCache::Value v = cache.get("k", fp);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->at(0).fclock_hz, 2.0);
  EXPECT_EQ(cache.stats().size, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(SvcCache, ZeroCapacityDisablesStorage) {
  ResultCache cache(0, 8);
  const std::uint64_t fp = fnv1a64("k");
  cache.put("k", fp, value_for(1.0));
  EXPECT_EQ(cache.get("k", fp), nullptr);
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SvcCache, ShardsNeverExceedTotalCapacityByMuchAndClearEmpties) {
  // capacity 8 over 4 shards -> 2 per shard; inserting many distinct keys
  // keeps the resident count within capacity + n_shards - 1.
  ResultCache cache(8, 4);
  for (int i = 0; i < 100; ++i) {
    const std::string k = "key" + std::to_string(i);
    cache.put(k, fnv1a64(k), value_for(static_cast<double>(i)));
  }
  EXPECT_LE(cache.stats().size, 8u + 4u - 1u);
  EXPECT_GT(cache.stats().evictions, 0u);
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.get("key99", fnv1a64("key99")), nullptr);
}

TEST(SvcCache, KeysRoutedToOneWorkerStillFillEveryShard) {
  // rat_router sends a worksheet to worker fp % n_workers, so all of one
  // worker's keys share that residue. The shard must come from other
  // bits, or each cache of a 2-worker fleet would fill only 4 of its 8
  // shards and hold half its capacity.
  for (const std::uint64_t workers : {2u, 4u}) {
    ResultCache cache(64, 8);
    core::RatInputs in = core::pdf1d_inputs();
    for (std::size_t i = 0; i < 2000; ++i) {
      in.dataset.elements_in = 1000 + i;
      const std::string key = canonical_text(in);
      const std::uint64_t fp = fnv1a64(key);
      if (fp % workers != 1) continue;
      cache.put(key, fp, value_for(static_cast<double>(i)));
    }
    EXPECT_EQ(cache.stats().size, 64u) << workers << " workers";
  }
}

TEST(SvcCache, PutReportsInsertRefreshAndEviction) {
  ResultCache cache(2, 1);
  const std::uint64_t fp_a = fnv1a64("a");
  EXPECT_EQ(cache.put("a", fp_a, value_for(1.0)),
            ResultCache::PutOutcome::kInserted);
  // Same key again: the concurrent-duplicate-compute path. The
  // persistence layer must see this as NOT a genuine insert, or every
  // race would append a duplicate journal record.
  EXPECT_EQ(cache.put("a", fp_a, value_for(1.5)),
            ResultCache::PutOutcome::kRefreshed);
  EXPECT_EQ(cache.put("b", fnv1a64("b"), value_for(2.0)),
            ResultCache::PutOutcome::kInserted);
  EXPECT_EQ(cache.put("c", fnv1a64("c"), value_for(3.0)),
            ResultCache::PutOutcome::kInsertedEvicting);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SvcCache, ZeroCapacityPutReportsDropped) {
  ResultCache cache(0, 4);
  EXPECT_EQ(cache.put("k", fnv1a64("k"), value_for(1.0)),
            ResultCache::PutOutcome::kDropped);
}

TEST(SvcCache, RefreshDoesNotDoubleCountBytes) {
  ResultCache cache(4, 1);
  const std::uint64_t fp = fnv1a64("k");
  cache.put("k", fp, value_for(1.0));
  const std::uint64_t after_insert = cache.stats().bytes;
  EXPECT_GT(after_insert, 0u);
  // Refreshing with an equally sized value must leave bytes unchanged.
  cache.put("k", fp, value_for(2.0));
  EXPECT_EQ(cache.stats().bytes, after_insert);
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(SvcCache, BytesTrackInsertEvictAndClear) {
  ResultCache cache(2, 1);
  cache.put("aa", fnv1a64("aa"), value_for(1.0));
  cache.put("bb", fnv1a64("bb"), value_for(2.0));
  const std::uint64_t two_entries = cache.stats().bytes;
  cache.put("cc", fnv1a64("cc"), value_for(3.0));  // evicts one
  // Keys are the same length and values the same shape, so eviction +
  // insert nets out to the two-entry footprint.
  EXPECT_EQ(cache.stats().bytes, two_entries);
  cache.clear();
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().size, 0u);
}

ResultCache::Tail tail_of(const std::string& bytes) {
  return std::make_shared<const std::string>(bytes);
}

TEST(SvcCache, TailAttachesOnceAndCountsItsBytes) {
  ResultCache cache(4, 1);
  const std::uint64_t fp = fnv1a64("k");
  const ResultCache::Value value = value_for(1.0);
  cache.put("k", fp, value);
  const std::uint64_t without_tail = cache.stats().bytes;
  EXPECT_EQ(without_tail, 1 + sizeof(core::ThroughputPrediction));
  EXPECT_EQ(cache.lookup("k", fp).tail, nullptr);

  EXPECT_TRUE(cache.attach_tail("k", fp, value, tail_of("first tail")));
  EXPECT_EQ(cache.stats().bytes, without_tail + 10);
  const ResultCache::Entry hit = cache.lookup("k", fp);
  ASSERT_NE(hit.tail, nullptr);
  EXPECT_EQ(*hit.tail, "first tail");
  EXPECT_EQ(hit.value, value);

  // A second attach does nothing: the first tail stays, bytes unchanged.
  EXPECT_FALSE(cache.attach_tail("k", fp, value, tail_of("second")));
  EXPECT_EQ(*cache.probe("k", fp).tail, "first tail");
  EXPECT_EQ(cache.stats().bytes, without_tail + 10);
  // Nor does one for a key that is not resident.
  EXPECT_FALSE(cache.attach_tail("gone", fnv1a64("gone"), value,
                                 tail_of("x")));
  EXPECT_EQ(cache.stats().bytes, without_tail + 10);
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(SvcCache, EvictionRefreshAndClearDropTheTail) {
  ResultCache cache(1, 1);  // one slot: every new key evicts
  const std::uint64_t fa = fnv1a64("a"), fb = fnv1a64("b");
  const std::uint64_t entry = 1 + sizeof(core::ThroughputPrediction);

  ResultCache::Value a = value_for(1.0);
  cache.put("a", fa, a);
  ASSERT_TRUE(cache.attach_tail("a", fa, a, tail_of("tail-a")));
  cache.put("b", fb, value_for(2.0));  // evicts "a" and its tail
  EXPECT_EQ(cache.stats().bytes, entry);
  a = value_for(1.0);
  cache.put("a", fa, a);  // back, without a tail
  EXPECT_EQ(cache.lookup("a", fa).tail, nullptr);
  EXPECT_EQ(cache.stats().bytes, entry);

  // A refreshing put replaces the value and drops the tail; a tail
  // rendered from the replaced value no longer attaches.
  ASSERT_TRUE(cache.attach_tail("a", fa, a, tail_of("tail-a")));
  EXPECT_EQ(cache.stats().bytes, entry + 6);
  const ResultCache::Value fresh = value_for(1.0);
  EXPECT_EQ(cache.put("a", fa, fresh), ResultCache::PutOutcome::kRefreshed);
  EXPECT_EQ(cache.lookup("a", fa).tail, nullptr);
  EXPECT_EQ(cache.stats().bytes, entry);
  EXPECT_FALSE(cache.attach_tail("a", fa, a, tail_of("stale")));
  EXPECT_EQ(cache.stats().bytes, entry);

  ASSERT_TRUE(cache.attach_tail("a", fa, fresh, tail_of("tail-a")));
  cache.clear();
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_FALSE(cache.lookup("a", fa));
}

TEST(SvcCache, HitRatioDerivesFromStats) {
  ResultCache cache(4, 1);
  EXPECT_EQ(hit_ratio(cache.stats()), 0.0);  // no lookups yet
  const std::uint64_t fp = fnv1a64("k");
  cache.get("k", fp);  // miss
  EXPECT_EQ(hit_ratio(cache.stats()), 0.0);
  cache.put("k", fp, value_for(1.0));
  cache.get("k", fp);  // hit
  EXPECT_DOUBLE_EQ(hit_ratio(cache.stats()), 0.5);
  cache.get("k", fp);  // hit
  const ResultCache::Stats st = cache.stats();
  EXPECT_DOUBLE_EQ(hit_ratio(st), 2.0 / 3.0);
}

TEST(SvcCache, ClearZeroesTheExportedFootprintGauges) {
  // Regression: a clear() once left svc.cache.size / svc.cache.bytes at
  // the pre-clear footprint, reported as phantom resident entries. The
  // cache writes no gauge itself; the drained server exports them from
  // stats(), so a clear() before the drain exports a zero footprint.
  obs::Registry::global().reset();
  obs::set_enabled(true);
  Service service({.cache_capacity = 4, .cache_shards = 1});
  Server server(service, {.tcp = false});
  evaluate(service, core::pdf1d_inputs().serialize());
  evaluate(service, core::md_inputs().serialize());
  EXPECT_EQ(service.stats().cache.size, 2u);
  EXPECT_GT(service.stats().cache.bytes, 0u);
  EXPECT_EQ(obs::Registry::global().gauges().count("svc.cache.size"), 0u);

  service.clear_cache();
  server.run();
  obs::set_enabled(false);
  const auto gauges = obs::Registry::global().gauges();
  EXPECT_EQ(gauges.at("svc.cache.size"), 0.0);
  EXPECT_EQ(gauges.at("svc.cache.bytes"), 0.0);
  obs::Registry::global().reset();
}

TEST(SvcCache, HitRatioGaugeRefreshesAtStatsTimeNotPerLookup) {
  // Neither a lookup nor a stats() read writes the gauge; the drained
  // server exports svc.cache.hit_ratio once, from the stats it reads.
  obs::Registry::global().reset();
  obs::set_enabled(true);
  ResultCache cache(4, 1);
  const std::uint64_t fp = fnv1a64("k");
  cache.get("k", fp);  // miss
  cache.put("k", fp, value_for(1.0));
  cache.get("k", fp);  // hit
  EXPECT_DOUBLE_EQ(hit_ratio(cache.stats()), 0.5);
  EXPECT_EQ(obs::Registry::global().gauges().count("svc.cache.hit_ratio"),
            0u);

  Service service({.cache_capacity = 4, .cache_shards = 1});
  Server server(service, {.tcp = false});
  const std::string sheet = core::pdf1d_inputs().serialize();
  evaluate(service, sheet);  // miss
  evaluate(service, sheet);  // hit
  evaluate(service, sheet);  // hit
  const Service::Stats st = service.stats();
  EXPECT_EQ(obs::Registry::global().gauges().count("svc.cache.hit_ratio"),
            0u);
  server.run();
  obs::set_enabled(false);
  EXPECT_DOUBLE_EQ(obs::Registry::global().gauges().at("svc.cache.hit_ratio"),
                   hit_ratio(st.cache));
  EXPECT_DOUBLE_EQ(hit_ratio(st.cache), 2.0 / 3.0);
  obs::Registry::global().reset();
}

TEST(SvcCache, DistinctKeysWithEqualFingerprintsDoNotAlias) {
  // The shard index comes from the fingerprint, but identity is the full
  // key: a forced "collision" (same fp, different key) must stay two
  // distinct entries.
  ResultCache cache(4, 2);
  cache.put("k1", 42, value_for(1.0));
  cache.put("k2", 42, value_for(2.0));
  ASSERT_NE(cache.get("k1", 42), nullptr);
  ASSERT_NE(cache.get("k2", 42), nullptr);
  EXPECT_EQ(cache.get("k1", 42)->at(0).fclock_hz, 1.0);
  EXPECT_EQ(cache.get("k2", 42)->at(0).fclock_hz, 2.0);
}

}  // namespace
}  // namespace rat::svc
