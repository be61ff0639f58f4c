// CampaignCheckpoint: resumable-campaign journal for long evaluation
// runs whose work items are addressed by position (rat_batch worksheet
// campaigns). Design-space exploration resumes through the
// content-keyed plan cache (explore/plan_cache.hpp) instead.
//
// A checkpoint is a single rat.store.v1 journal whose first record is a
// campaign header {kind, campaign fingerprint} and whose remaining
// records are completed work items {index, item fingerprint, payload}.
// Reopening validates the header against the caller's current campaign:
// a kind or fingerprint mismatch means the checkpoint belongs to a
// different campaign (a different file list, say)
// and is rejected with StoreError(kStaleCheckpoint) — resuming it would
// silently mix results from two different runs.
//
// Item fingerprints guard the same property per work item: if the input
// behind an index changed since the item was recorded (say a worksheet
// file was edited), restored_payload() throws kStaleCheckpoint rather
// than replaying a result for data that no longer exists.
//
// Durability follows the journal: with sync_every_append (default) every
// record() survives kill -9; recovery truncates a torn final record, so
// a crashed campaign resumes from its last fully recorded item.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "store/journal.hpp"

namespace rat::store {

struct CampaignCheckpointOptions {
  bool sync_every_append = true;
};

class CampaignCheckpoint {
 public:
  using Options = CampaignCheckpointOptions;

  struct Item {
    std::uint64_t item_fp = 0;
    std::string payload;
  };

  /// Open (or create) the checkpoint file at @p path for the campaign
  /// identified by @p kind + @p campaign_fp. Throws StoreError:
  /// kStaleCheckpoint when an existing checkpoint belongs to a different
  /// campaign, kCorrupt for an undecodable record, kIo for filesystem
  /// failures.
  CampaignCheckpoint(const std::filesystem::path& path, std::string_view kind,
                     std::uint64_t campaign_fp, Options options = {});

  /// Payload previously recorded for @p index, or nullptr if the item
  /// has not completed yet. Throws StoreError(kStaleCheckpoint) if a
  /// record exists but its item fingerprint differs from @p item_fp (the
  /// input behind this index changed since the checkpoint was written).
  const std::string* restored_payload(std::uint64_t index,
                                      std::uint64_t item_fp) const;

  /// Record one completed work item. Durable on return under
  /// sync_every_append. Thread-safe — parallel campaigns finish items
  /// out of enumeration order and from many workers at once.
  void record(std::uint64_t index, std::uint64_t item_fp,
              std::string_view payload);

  /// Number of items restored from disk at open time.
  std::size_t restored_count() const { return restored_.size(); }

  /// fsync any unsynced records (no-op under sync_every_append).
  void sync();

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
  /// Immutable after construction; restored_payload needs no lock.
  std::unordered_map<std::uint64_t, Item> restored_;
  std::mutex mu_;  ///< serializes record()/sync() appends
  std::optional<JournalWriter> journal_;
};

}  // namespace rat::store
