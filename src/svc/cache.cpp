#include "svc/cache.hpp"

namespace rat::svc {

namespace {

/// Approximate resident footprint of one entry: key bytes, the
/// prediction vector's payload and the attached tail (bookkeeping
/// overhead excluded — the gauge tracks growth, it is not an allocator
/// audit).
std::uint64_t entry_bytes(const std::string& key,
                          const ResultCache::Entry& entry) {
  std::uint64_t n = key.size();
  if (entry.value)
    n += entry.value->size() * sizeof(core::ThroughputPrediction);
  if (entry.tail) n += entry.tail->size();
  return n;
}

}  // namespace

ResultCache::ResultCache(std::size_t capacity, std::size_t n_shards)
    : capacity_(capacity) {
  if (n_shards == 0) n_shards = 1;
  if (n_shards > capacity && capacity > 0) n_shards = capacity;
  per_shard_capacity_ =
      capacity == 0 ? 0 : (capacity + n_shards - 1) / n_shards;
  shards_.reserve(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

ResultCache::Entry ResultCache::find(const std::string& key,
                                     std::uint64_t fp) {
  Shard& s = shard_for(fp);
  std::lock_guard lock(s.mu);
  auto it = s.index.find(key);
  if (it == s.index.end()) return {};
  // Refresh: move to the front of the shard's LRU list.
  s.lru.splice(s.lru.begin(), s.lru, it->second);
  return it->second->second;
}

ResultCache::Entry ResultCache::lookup(const std::string& key,
                                       std::uint64_t fp) {
  Entry found = find(key, fp);
  (found ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return found;
}

ResultCache::Entry ResultCache::probe(const std::string& key,
                                      std::uint64_t fp) {
  Entry found = find(key, fp);
  if (found) hits_.fetch_add(1, std::memory_order_relaxed);
  return found;
}

bool ResultCache::attach_tail(const std::string& key, std::uint64_t fp,
                              const Value& value, Tail tail) {
  if (!tail) return false;
  const std::uint64_t n = tail->size();
  {
    Shard& s = shard_for(fp);
    std::lock_guard lock(s.mu);
    auto it = s.index.find(key);
    if (it == s.index.end()) return false;
    Entry& entry = it->second->second;
    if (entry.value != value || entry.tail) return false;
    entry.tail = std::move(tail);
  }
  bytes_.fetch_add(n, std::memory_order_relaxed);
  return true;
}

ResultCache::PutOutcome ResultCache::put(const std::string& key,
                                         std::uint64_t fp, Value value) {
  if (per_shard_capacity_ == 0) return PutOutcome::kDropped;
  Shard& s = shard_for(fp);
  Entry entry{std::move(value), nullptr};
  const std::uint64_t new_bytes = entry_bytes(key, entry);
  std::int64_t bytes_delta = 0;
  PutOutcome outcome;
  {
    std::lock_guard lock(s.mu);
    auto it = s.index.find(key);
    if (it != s.index.end()) {
      // Concurrent miss on the same key: both computed, results are
      // deterministic, so refreshing the existing entry is equivalent.
      // The refresh drops the old value's tail.
      bytes_delta =
          static_cast<std::int64_t>(new_bytes) -
          static_cast<std::int64_t>(entry_bytes(key, it->second->second));
      it->second->second = std::move(entry);
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      outcome = PutOutcome::kRefreshed;
    } else {
      bytes_delta = static_cast<std::int64_t>(new_bytes);
      if (s.lru.size() >= per_shard_capacity_) {
        bytes_delta -= static_cast<std::int64_t>(
            entry_bytes(s.lru.back().first, s.lru.back().second));
        s.index.erase(s.lru.back().first);
        s.lru.pop_back();
        outcome = PutOutcome::kInsertedEvicting;
      } else {
        outcome = PutOutcome::kInserted;
      }
      s.lru.emplace_front(key, std::move(entry));
      s.index.emplace(key, s.lru.begin());
    }
  }
  if (outcome == PutOutcome::kInsertedEvicting)
    evictions_.fetch_add(1, std::memory_order_relaxed);
  if (outcome == PutOutcome::kInserted)
    size_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(static_cast<std::uint64_t>(bytes_delta),
                   std::memory_order_relaxed);
  return outcome;
}

ResultCache::Stats ResultCache::stats() const {
  Stats st;
  st.hits = hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.evictions = evictions_.load(std::memory_order_relaxed);
  st.size = size_.load(std::memory_order_relaxed);
  st.bytes = bytes_.load(std::memory_order_relaxed);
  return st;
}

void ResultCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
  size_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
}

}  // namespace rat::svc
