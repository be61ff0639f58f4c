// Sharded LRU result cache for the prediction service.
//
// The service memoizes predict_all by canonical worksheet key
// (svc/fingerprint.hpp): repeated evaluations of the same design — the
// common case in Figure-1 style iterative exploration, where a driver
// re-queries neighbours of the current candidate — become O(1) lookups.
//
// Concurrency model: the key's 64-bit fingerprint selects one of a fixed
// number of shards, each protected by its own mutex and holding an
// independent LRU list, so concurrent requests for different worksheets
// rarely contend. Values are stored by shared_ptr and returned without
// copying the prediction vector. The shard comes from the fingerprint's
// high 32 bits: rat_router picks a worker by `fingerprint % n_workers`,
// so every key a worker sees shares those low bits, and sharding on them
// too would leave most of each worker's shards empty.
//
// An entry holds its key's predictions and, once the entry has been hit,
// its rendered tail: the evaluate response after the id
// (svc/protocol.hpp evaluate_tail), which depends on the key alone. The
// service renders a tail on an entry's first hit and attaches it, so
// later hits copy bytes instead of rendering them. An entry that is
// never hit never holds one: a cold workload pays no memory for tails.
// Eviction, a refreshing put and clear() drop the tail with the entry.
//
// Capacity is per-cache and split evenly across shards (each shard holds
// at most ceil(capacity / n_shards) entries), so the worst-case resident
// entry count never exceeds capacity + n_shards - 1. A capacity of 0
// disables storage entirely: every get misses, every put is dropped —
// useful for benchmarking the cold path.
//
// Stats are counted here and only here (relaxed atomics, always on);
// bytes counts each entry's key, predictions and attached tail.
// The service's "stats" op renders them, and a drained server records
// them once into the obs registry as the svc.cache.* metrics
// (docs/SERVICE.md); the lookup and insert paths never touch the
// registry.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/throughput.hpp"

namespace rat::svc {

class ResultCache {
 public:
  using Value = std::shared_ptr<const std::vector<core::ThroughputPrediction>>;
  /// A rendered evaluate-response tail (see file comment).
  using Tail = std::shared_ptr<const std::string>;

  /// What a lookup finds: the predictions, and the rendered tail once a
  /// hit has attached one. False on a miss.
  struct Entry {
    Value value;
    Tail tail;
    explicit operator bool() const { return value != nullptr; }
  };

  /// What put() actually did. The persistence layer keys off this: only
  /// genuine inserts reach the durable journal — a kRefreshed (key
  /// already resident, e.g. two concurrent misses computing the same
  /// worksheet) must not append a duplicate record.
  enum class PutOutcome {
    kDropped,           ///< capacity 0: nothing stored
    kInserted,          ///< new entry, shard had room
    kInsertedEvicting,  ///< new entry, shard's LRU tail evicted
    kRefreshed,         ///< key already resident; value + LRU refreshed
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t size = 0;   ///< resident entries right now
    std::uint64_t bytes = 0;  ///< approx resident bytes: keys, predictions
                              ///< and attached tails
  };

  /// @p capacity entries total across @p n_shards shards (clamped to at
  /// least 1 shard; 0 capacity disables the cache, see file comment).
  explicit ResultCache(std::size_t capacity, std::size_t n_shards = 8);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Look up @p key (its fingerprint @p fp picks the shard). A hit
  /// refreshes the entry's LRU position. Null on miss.
  Value get(const std::string& key, std::uint64_t fp) {
    return lookup(key, fp).value;
  }

  /// get() that also returns the entry's tail.
  Entry lookup(const std::string& key, std::uint64_t fp);

  /// lookup() that counts only a hit. The service's event-loop lookup
  /// probes a worksheet whose miss it would queue; that miss is counted
  /// by the lookup the pool task repeats before computing, so every
  /// request counts one lookup.
  Entry probe(const std::string& key, std::uint64_t fp);

  /// Attach @p tail, rendered from @p value, to @p key's entry. Does
  /// nothing and returns false when the entry is gone, holds another
  /// value (a refreshing put replaced it) or already has a tail.
  bool attach_tail(const std::string& key, std::uint64_t fp,
                   const Value& value, Tail tail);

  /// Insert or refresh @p key -> @p value, evicting the shard's least
  /// recently used entry if the shard is full. The outcome reports which
  /// of those happened (see PutOutcome).
  PutOutcome put(const std::string& key, std::uint64_t fp, Value value);

  std::size_t capacity() const { return capacity_; }
  Stats stats() const;

  /// Drop every entry and its tail (tests; does not reset hit/miss
  /// counters).
  void clear();

 private:
  using Lru = std::list<std::pair<std::string, Entry>>;
  struct Shard {
    std::mutex mu;
    Lru lru;  ///< front = most recently used
    std::unordered_map<std::string, Lru::iterator> index;
  };

  Shard& shard_for(std::uint64_t fp) {
    return *shards_[(fp >> 32) % shards_.size()];
  }
  /// The lookup lookup() and probe() share; counts nothing.
  Entry find(const std::string& key, std::uint64_t fp);

  std::size_t capacity_ = 0;
  std::size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> size_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

/// hits / (hits + misses); 0 before the first lookup. The derived gauge
/// exported as svc.cache.hit_ratio (docs/SERVICE.md).
inline double hit_ratio(const ResultCache::Stats& st) {
  const std::uint64_t total = st.hits + st.misses;
  return total == 0 ? 0.0
                    : static_cast<double>(st.hits) /
                          static_cast<double>(total);
}

}  // namespace rat::svc
