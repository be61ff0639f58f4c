// PersistentResultCache: durable backing for the service cache — warm
// start replays bit-identical predictions in last-write LRU order, and
// only genuine inserts are meant to reach the journal.
#include "svc/persist.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "io/codec.hpp"
#include "svc/fingerprint.hpp"

namespace rat::svc {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

/// A prediction whose every field carries a distinct, awkward bit
/// pattern (negative zero, subnormal, enormous) so byte-identity isn't
/// satisfied by accident.
core::ThroughputPrediction awkward_prediction(double salt) {
  core::ThroughputPrediction p;
  p.fclock_hz = 100e6 + salt;
  p.t_write_sec = 0.1 * salt + 1e-300;        // near-subnormal
  p.t_read_sec = -0.0;                        // sign bit only
  p.t_comm_sec = 1.0 / 3.0 + salt;            // non-terminating binary
  p.t_comp_sec = std::numeric_limits<double>::min() * salt;
  p.t_rc_sb_sec = 1e300 + salt;
  p.t_rc_db_sec = 0.3333333333333333 * salt;
  p.speedup_sb = 9.950000000000001 + salt;
  p.speedup_db = salt;
  p.util_comp_sb = 0.1 + salt * 1e-17;
  p.util_comm_sb = 0.2;
  p.util_comp_db = 0.3;
  p.util_comm_db = 0.4;
  return p;
}

ResultCache::Value value_with(std::size_t n, double salt) {
  std::vector<core::ThroughputPrediction> v;
  for (std::size_t i = 0; i < n; ++i)
    v.push_back(awkward_prediction(salt + static_cast<double>(i)));
  return std::make_shared<const std::vector<core::ThroughputPrediction>>(
      std::move(v));
}

bool bit_identical(const core::ThroughputPrediction& a,
                   const core::ThroughputPrediction& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(SvcPersist, WarmStartReplaysBitIdenticalPredictions) {
  const fs::path dir = fresh_dir("svc_persist_roundtrip");
  const ResultCache::Value original = value_with(3, 0.125);
  {
    PersistentResultCache persist(dir);
    persist.append("worksheet-key", original);
  }
  PersistentResultCache persist(dir);
  ResultCache cache(8, 2);
  EXPECT_EQ(persist.warm(cache), 1u);
  const ResultCache::Value v =
      cache.get("worksheet-key", fnv1a64("worksheet-key"));
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->size(), original->size());
  for (std::size_t i = 0; i < v->size(); ++i)
    EXPECT_TRUE(bit_identical((*v)[i], (*original)[i])) << "prediction " << i;
}

TEST(SvcPersist, WarmPreservesLastWriteLruOrder) {
  // With capacity 2, warming 3 entries must keep the two most recently
  // written — the same two the live process would have held.
  const fs::path dir = fresh_dir("svc_persist_lru");
  {
    PersistentResultCache persist(dir);
    persist.append("oldest", value_with(1, 1.0));
    persist.append("middle", value_with(1, 2.0));
    persist.append("newest", value_with(1, 3.0));
  }
  PersistentResultCache persist(dir);
  ResultCache cache(2, 1);
  EXPECT_EQ(persist.warm(cache), 3u);
  EXPECT_EQ(cache.get("oldest", fnv1a64("oldest")), nullptr);
  EXPECT_NE(cache.get("middle", fnv1a64("middle")), nullptr);
  EXPECT_NE(cache.get("newest", fnv1a64("newest")), nullptr);
}

TEST(SvcPersist, RewrittenKeyWarmsToTheLatestValue) {
  const fs::path dir = fresh_dir("svc_persist_rewrite");
  const ResultCache::Value latest = value_with(2, 9.0);
  {
    PersistentResultCache persist(dir);
    persist.append("k", value_with(2, 1.0));
    persist.append("k", latest);
  }
  PersistentResultCache persist(dir);
  ResultCache cache(8, 2);
  EXPECT_EQ(persist.warm(cache), 1u);  // one key, one entry
  const ResultCache::Value v = cache.get("k", fnv1a64("k"));
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(bit_identical((*v)[0], (*latest)[0]));
}

TEST(SvcPersist, SurvivesCompaction) {
  const fs::path dir = fresh_dir("svc_persist_compact");
  {
    PersistentResultCache persist(dir);
    for (int i = 0; i < 20; ++i)
      persist.append("key" + std::to_string(i), value_with(1, i));
    persist.store().compact();
    persist.append("post-compact", value_with(1, 99.0));
  }
  PersistentResultCache persist(dir);
  ResultCache cache(64, 4);
  EXPECT_EQ(persist.warm(cache), 21u);
  EXPECT_NE(cache.get("key0", fnv1a64("key0")), nullptr);
  EXPECT_NE(cache.get("post-compact", fnv1a64("post-compact")), nullptr);
}

TEST(SvcPersist, CorruptValueBytesAreAHardError) {
  // The journal CRC protects framing; a value that decodes to garbage
  // (wrong length for the prediction codec) must throw, not warm junk.
  const fs::path dir = fresh_dir("svc_persist_badvalue");
  {
    store::DurableStore raw(dir);
    raw.put("key", "definitely not an encoded prediction vector");
  }
  PersistentResultCache persist(dir);
  ResultCache cache(8, 2);
  EXPECT_THROW(persist.warm(cache), store::StoreError);
}

TEST(SvcPersist, EncodeDecodePredictionsRoundTripsExactly) {
  const std::vector<core::ThroughputPrediction> v = {
      awkward_prediction(0.0), awkward_prediction(-1.5)};
  const std::string encoded = io::encode_predictions(v);
  // u32 count + 13 doubles per prediction.
  EXPECT_EQ(encoded.size(), 4u + v.size() * 13u * 8u);
  const std::vector<core::ThroughputPrediction> decoded =
      io::decode_predictions(encoded);
  ASSERT_EQ(decoded.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_TRUE(bit_identical(decoded[i], v[i]));
  // Truncated and over-long payloads are corruption, not UB.
  EXPECT_THROW(io::decode_predictions(encoded.substr(0, encoded.size() - 1)),
               store::StoreError);
  EXPECT_THROW(io::decode_predictions(encoded + "x"), store::StoreError);
}

}  // namespace
}  // namespace rat::svc
