// Durable backing for the service's result cache.
//
// PersistentResultCache pairs a store::DurableStore (rat.store.v1
// journal + snapshot, docs/STORE.md) with the in-memory ResultCache:
// every *genuine* insert — ResultCache::PutOutcome kInserted or
// kInsertedEvicting, never a kRefreshed duplicate — is appended as a
// canonical-key → encoded-predictions entry, and warm() replays the
// store into a freshly started cache in last-write order, so the LRU
// comes back with the most recently computed results most recent.
//
// Entries are keyed by the full rat.fp.v1 canonical text
// (svc/fingerprint.hpp) — the same identity the in-memory cache uses,
// so a warm-started service hits exactly where the previous process
// would have. Predictions are stored as raw IEEE-754 bit patterns
// (store/codec.hpp), which is what makes warm-start responses
// byte-identical to cold evaluation: no decimal round-trip ever touches
// a stored value.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "store/store.hpp"
#include "svc/cache.hpp"

namespace rat::svc {

class PersistentResultCache {
 public:
  /// Open (or create) the store under @p dir. Throws store::StoreError
  /// on unreadable directories or a corrupt snapshot; a torn journal
  /// tail is recovered silently (that is a normal crash, not damage).
  explicit PersistentResultCache(const std::filesystem::path& dir);

  /// Replay every persisted entry into @p cache (oldest write first) and
  /// return how many were loaded. Entries beyond the cache's capacity
  /// simply evict in LRU order, matching what the live process held.
  std::size_t warm(ResultCache& cache);

  /// Persist one freshly computed result. Call only for genuine inserts
  /// (see file comment); durable on return (the store fsyncs every
  /// append).
  void append(const std::string& key, const ResultCache::Value& value);

  store::DurableStore& store() { return store_; }

 private:
  store::DurableStore store_;
};

}  // namespace rat::svc
