// DurableStore: persistence across reopen, last-write-wins replay,
// compaction (explicit and threshold-triggered in the background) and
// corruption policy.
#include "store/store.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace rat::store {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;  // DurableStore creates it
}

DurableStore::Options no_auto_compaction() {
  DurableStore::Options o;
  o.compact_journal_bytes = 0;
  return o;
}

TEST(StoreDurable, PutGetPersistAcrossReopen) {
  const fs::path dir = fresh_dir("store_durable_reopen");
  {
    DurableStore store(dir, no_auto_compaction());
    store.put("k1", "v1");
    store.put("k2", "v2");
    EXPECT_EQ(store.get("k1"), "v1");
    EXPECT_FALSE(store.get("missing").has_value());
    EXPECT_TRUE(store.contains("k2"));
    EXPECT_EQ(store.size(), 2u);
  }
  DurableStore store(dir, no_auto_compaction());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.get("k1"), "v1");
  EXPECT_EQ(store.get("k2"), "v2");
  EXPECT_EQ(store.open_info().journal_records, 2u);
  EXPECT_EQ(store.open_info().snapshot_entries, 0u);
  EXPECT_EQ(store.open_info().dropped_bytes, 0u);
}

TEST(StoreDurable, LastWriteWinsAcrossReopen) {
  const fs::path dir = fresh_dir("store_durable_overwrite");
  {
    DurableStore store(dir, no_auto_compaction());
    store.put("k", "old");
    store.put("k", "new");
    EXPECT_EQ(store.size(), 1u);
  }
  DurableStore store(dir, no_auto_compaction());
  EXPECT_EQ(store.get("k"), "new");
  EXPECT_EQ(store.size(), 1u);
}

TEST(StoreDurable, ForEachIteratesInLastWriteOrder) {
  const fs::path dir = fresh_dir("store_durable_order");
  DurableStore store(dir, no_auto_compaction());
  store.put("a", "1");
  store.put("b", "2");
  store.put("a", "3");  // rewrite moves "a" after "b"
  std::vector<std::string> order;
  store.for_each([&](const std::string& k, const std::string& v) {
    order.push_back(k + "=" + v);
  });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "b=2");
  EXPECT_EQ(order[1], "a=3");
}

TEST(StoreDurable, CompactWritesSnapshotAndShrinksJournal) {
  const fs::path dir = fresh_dir("store_durable_compact");
  DurableStore store(dir, no_auto_compaction());
  for (int i = 0; i < 50; ++i)
    store.put("key" + std::to_string(i % 10), std::string(100, 'v'));
  const std::uint64_t before = store.journal_bytes();
  store.compact();
  EXPECT_EQ(store.compactions(), 1u);
  EXPECT_LT(store.journal_bytes(), before);
  EXPECT_TRUE(fs::exists(store.snapshot_path()));
  EXPECT_EQ(store.size(), 10u);
  // Everything still readable after the journal was rewritten.
  for (int i = 0; i < 10; ++i)
    EXPECT_TRUE(store.contains("key" + std::to_string(i)));
}

TEST(StoreDurable, ReopenAfterCompactionLoadsSnapshotPlusTail) {
  const fs::path dir = fresh_dir("store_durable_snapshot_reopen");
  {
    DurableStore store(dir, no_auto_compaction());
    for (int i = 0; i < 10; ++i)
      store.put("key" + std::to_string(i), "v" + std::to_string(i));
    store.compact();
    store.put("after", "compaction");  // journal tail past the snapshot
  }
  DurableStore store(dir, no_auto_compaction());
  EXPECT_EQ(store.open_info().snapshot_entries, 10u);
  EXPECT_EQ(store.open_info().journal_records, 1u);
  EXPECT_EQ(store.size(), 11u);
  EXPECT_EQ(store.get("key7"), "v7");
  EXPECT_EQ(store.get("after"), "compaction");
  // Order survives: snapshot entries first (their write order), tail last.
  std::vector<std::string> order;
  store.for_each(
      [&](const std::string& k, const std::string&) { order.push_back(k); });
  ASSERT_EQ(order.size(), 11u);
  EXPECT_EQ(order.back(), "after");
}

TEST(StoreDurable, CompactionCrashWindowSkipsStaleJournalRecords) {
  // Simulate a crash between snapshot rename and journal rewrite: the
  // snapshot exists, but the journal still holds all the old records.
  const fs::path dir = fresh_dir("store_durable_crash_window");
  std::string journal_with_all_records;
  {
    DurableStore store(dir, no_auto_compaction());
    store.put("a", "1");
    store.put("b", "2");
    std::ifstream f(store.journal_path(), std::ios::binary);
    journal_with_all_records.assign(std::istreambuf_iterator<char>(f), {});
  }
  {
    DurableStore store(dir, no_auto_compaction());
    store.compact();  // snapshot now covers seqs 1..2
  }
  {
    // Put the pre-compaction journal back — exactly what a crash between
    // phase 2 (snapshot rename) and phase 3 (journal rewrite) leaves.
    std::ofstream f(dir / "journal", std::ios::binary | std::ios::trunc);
    f << journal_with_all_records;
  }
  DurableStore store(dir, no_auto_compaction());
  EXPECT_EQ(store.open_info().snapshot_entries, 2u);
  EXPECT_EQ(store.open_info().stale_records, 2u);  // skipped, not re-applied
  EXPECT_EQ(store.open_info().journal_records, 0u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.get("a"), "1");
  EXPECT_EQ(store.get("b"), "2");
  // New writes number past the snapshot and persist normally.
  store.put("c", "3");
  EXPECT_EQ(store.get("c"), "3");
}

TEST(StoreDurable, BackgroundCompactionEventuallyRuns) {
  const fs::path dir = fresh_dir("store_durable_background");
  DurableStore::Options opts;
  opts.compact_journal_bytes = 2048;
  DurableStore store(dir, opts);
  for (int i = 0; i < 200; ++i)
    store.put("hot-key", std::string(64, 'x'));  // one live entry, much log
  // Every put that leaves the journal over the threshold requests a
  // compaction, so the worker catches up once it has served the last
  // request: the journal is back under the threshold. Poll for exactly
  // that state; the deadline only bounds a hung worker.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while ((store.compactions() == 0 || store.journal_bytes() > 2048u) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(store.compactions(), 1u);
  EXPECT_LE(store.journal_bytes(), 2048u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.get("hot-key"), std::string(64, 'x'));
}

TEST(StoreDurable, TornJournalTailIsDroppedOnOpen) {
  const fs::path dir = fresh_dir("store_durable_torn");
  {
    DurableStore store(dir, no_auto_compaction());
    store.put("kept", "yes");
    store.put("torn", "half");
  }
  const fs::path journal = dir / "journal";
  fs::resize_file(journal, fs::file_size(journal) - 2);
  DurableStore store(dir, no_auto_compaction());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.get("kept"), "yes");
  EXPECT_FALSE(store.contains("torn"));
  EXPECT_GT(store.open_info().dropped_bytes, 0u);
}

TEST(StoreDurable, CorruptSnapshotIsAHardError) {
  const fs::path dir = fresh_dir("store_durable_bad_snapshot");
  {
    DurableStore store(dir, no_auto_compaction());
    store.put("k", "v");
    store.compact();
  }
  // Flip one byte in the snapshot body: unlike a torn journal this is
  // bit rot, and silently dropping entries would be data loss.
  std::string bytes;
  {
    std::ifstream f(dir / "snapshot", std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f), {});
  }
  bytes[bytes.size() / 2] =
      static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  {
    std::ofstream f(dir / "snapshot", std::ios::binary | std::ios::trunc);
    f << bytes;
  }
  try {
    DurableStore store(dir, no_auto_compaction());
    FAIL() << "corrupt snapshot must throw";
  } catch (const StoreError& e) {
    EXPECT_EQ(e.code(), StoreErrorCode::kCorrupt);
  }
}

TEST(StoreDurable, LeftoverTmpFilesAreRemovedOnOpen) {
  const fs::path dir = fresh_dir("store_durable_tmp");
  fs::create_directories(dir);
  {
    std::ofstream f(dir / "snapshot.tmp");
    f << "half-written";
  }
  DurableStore store(dir, no_auto_compaction());
  EXPECT_FALSE(fs::exists(dir / "snapshot.tmp"));
  store.put("k", "v");
  EXPECT_EQ(store.get("k"), "v");
}

TEST(StoreDurable, ConcurrentPutsAllSurviveReopen) {
  const fs::path dir = fresh_dir("store_durable_concurrent");
  DurableStore::Options opts;
  opts.sync_every_append = false;  // keep the thread test fast
  opts.compact_journal_bytes = 4096;  // and let compaction race the puts
  {
    DurableStore store(dir, opts);
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
      workers.emplace_back([&store, t] {
        for (int i = 0; i < 100; ++i)
          store.put("t" + std::to_string(t) + "-k" + std::to_string(i),
                    std::string(32, static_cast<char>('a' + t)));
      });
    for (auto& w : workers) w.join();
    EXPECT_EQ(store.size(), 400u);
  }
  DurableStore store(dir, opts);
  EXPECT_EQ(store.size(), 400u);
  for (int t = 0; t < 4; ++t)
    for (int i = 0; i < 100; ++i)
      EXPECT_TRUE(store.contains("t" + std::to_string(t) + "-k" +
                                 std::to_string(i)));
}

}  // namespace
}  // namespace rat::store
