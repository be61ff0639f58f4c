// DurableStore: a crash-safe persistent key→value map built from the
// rat.store.v1 journal plus a compacted snapshot (docs/STORE.md).
//
// Directory layout:
//
//   <dir>/journal    append-only journal of put records
//   <dir>/snapshot   compacted map image (atomic-rename replaced)
//   <dir>/*.tmp      in-flight compaction files; deleted on open
//
// Open = load snapshot (if any), then replay journal records whose seq
// exceeds the snapshot's last_seq (records at or below it are the
// compaction crash window: the snapshot already contains them, so they
// are skipped, never double-applied). The journal's torn tail is
// truncated; a corrupt *snapshot* is a hard StoreError(kCorrupt) instead
// — snapshots are written to a temp file, fsynced and atomically renamed,
// so a bad one means real bit rot and silent data loss would be worse
// than refusing to start.
//
// Compaction (explicit compact(), or the background thread once the
// journal outgrows Options::compact_journal_bytes):
//   1. copy the map + the latest assigned seq S (brief lock),
//   2. write snapshot.tmp, fsync, rename over snapshot, fsync dir,
//   3. under the lock, rewrite the journal as journal.tmp holding only
//      records with seq > S (survivors keep their seqs), fsync, rename
//      over journal, fsync dir, and switch the writer to the new file.
// A crash between 2 and 3 leaves the new snapshot plus the old journal —
// exactly the skip-on-replay case above, so every window is safe.
//
// Thread-safety: put/get/size/for_each/compact may be called from any
// thread. Entries iterate in last-write order (ascending seq), which is
// what lets the service warm its LRU cache oldest-first.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "store/journal.hpp"

namespace rat::store {

inline constexpr char kSnapshotMagic[8] = {'R', 'A', 'T', 'S',
                                           'T', 'R', 'S', '1'};

struct DurableStoreOptions {
  /// fsync after every journal append (see docs/STORE.md §durability).
  bool sync_every_append = true;
  /// Compact on the background thread once the journal exceeds this
  /// many bytes (0 = never automatically; explicit compact() always
  /// works).
  std::uint64_t compact_journal_bytes = 8u << 20;
};

class DurableStore {
 public:
  using Options = DurableStoreOptions;

  /// What recovery found at open time.
  struct OpenInfo {
    std::size_t snapshot_entries = 0;
    std::size_t journal_records = 0;  ///< applied (seq > snapshot last_seq)
    std::size_t stale_records = 0;    ///< skipped compaction-window records
    std::uint64_t dropped_bytes = 0;  ///< torn journal tail truncated
  };

  /// Open or create the store at @p dir (the directory is created).
  /// Throws StoreError: kIo for filesystem failures, kCorrupt for an
  /// unreadable snapshot.
  explicit DurableStore(const std::filesystem::path& dir,
                        Options options = {});

  /// Stops the compaction thread and syncs the journal.
  ~DurableStore();

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// Insert or overwrite @p key. Durable once the call returns (under
  /// sync_every_append); a crash mid-append loses at most this record.
  void put(std::string_view key, std::string_view value);

  std::optional<std::string> get(std::string_view key) const;
  bool contains(std::string_view key) const;
  std::size_t size() const;

  /// Visit every entry in last-write order (ascending seq). The callback
  /// runs under the store lock: keep it cheap and do not call back into
  /// the store.
  void for_each(
      const std::function<void(const std::string& key,
                               const std::string& value)>& fn) const;

  /// Synchronous compaction (see file comment). Serialized against
  /// itself and against the background thread.
  void compact();

  /// fsync any unsynced appends (no-op under sync_every_append).
  void sync();

  const OpenInfo& open_info() const { return open_info_; }
  std::uint64_t journal_bytes() const;
  /// Number of compactions completed since open.
  std::uint64_t compactions() const;

  const std::filesystem::path& dir() const { return dir_; }
  std::filesystem::path journal_path() const { return dir_ / "journal"; }
  std::filesystem::path snapshot_path() const { return dir_ / "snapshot"; }

 private:
  struct Entry {
    std::string value;
    std::uint64_t seq = 0;
  };

  void load_snapshot(std::uint64_t* last_seq);
  void write_snapshot_file(
      const std::filesystem::path& path, std::uint64_t last_seq,
      const std::vector<std::pair<std::string, Entry>>& entries) const;
  void maybe_trigger_compaction();
  void compaction_worker();

  std::filesystem::path dir_;
  Options options_;
  OpenInfo open_info_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> map_;
  std::optional<JournalWriter> journal_;
  std::uint64_t snapshot_last_seq_ = 0;

  // Background compaction plumbing.
  mutable std::mutex compact_mu_;  ///< serializes compact() bodies
  std::condition_variable compact_cv_;
  std::thread compact_thread_;
  bool compact_requested_ = false;
  bool stop_ = false;
  std::uint64_t compactions_ = 0;
};

}  // namespace rat::store
