#include "store/store.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.hpp"
#include "store/checksum.hpp"
#include "store/codec.hpp"

namespace rat::store {

namespace {

// Snapshot header: magic "RATSTRS1" | u32 version | u64 last_seq |
// u32 entry count | u32 CRC32C over the preceding 24 bytes.
constexpr std::size_t kSnapshotHeaderBytes = 28;

}  // namespace

DurableStore::DurableStore(const std::filesystem::path& dir, Options options)
    : dir_(dir), options_(options) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw StoreError(StoreErrorCode::kIo, dir_.string(),
                     "cannot create store directory: " + ec.message());

  // Leftover compaction temporaries were never renamed into place; they
  // hold no acknowledged data.
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".tmp")
      std::filesystem::remove(entry.path(), ec);
  }

  load_snapshot(&snapshot_last_seq_);

  RecoveredJournal recovered;
  journal_.emplace(journal_path(),
                   JournalWriter::Options{options_.sync_every_append},
                   &recovered, snapshot_last_seq_);
  open_info_.dropped_bytes = recovered.dropped_bytes;
  for (auto& rec : recovered.records) {
    if (rec.seq <= snapshot_last_seq_) {
      // Compaction crash window: the snapshot was renamed into place but
      // the journal rewrite never happened; these records are already in
      // the snapshot.
      ++open_info_.stale_records;
      continue;
    }
    Cursor cur(rec.payload);
    std::string key;
    std::string value;
    try {
      const std::uint8_t op = cur.u8();
      if (op != 1)
        throw StoreError(StoreErrorCode::kCorrupt, journal_path().string(),
                         "unknown journal op " + std::to_string(op));
      key = cur.string();
      value = cur.string();
      cur.expect_done();
    } catch (const StoreError& e) {
      if (e.code() != StoreErrorCode::kCorrupt) throw;
      // A record whose frame CRC verified but whose payload does not
      // decode means a writer bug or cross-version file, not a torn
      // tail; refuse to guess.
      throw StoreError(StoreErrorCode::kCorrupt, journal_path().string(),
                       std::string("undecodable journal record: ") +
                           e.what());
    }
    map_[std::move(key)] = Entry{std::move(value), rec.seq};
    ++open_info_.journal_records;
  }

  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.set_gauge("store.entries", static_cast<double>(map_.size()));
  }

  if (options_.compact_journal_bytes > 0)
    compact_thread_ = std::thread([this] { compaction_worker(); });
}

DurableStore::~DurableStore() {
  {
    std::lock_guard<std::mutex> lk(compact_mu_);
    stop_ = true;
  }
  compact_cv_.notify_all();
  if (compact_thread_.joinable()) compact_thread_.join();
  try {
    sync();
  } catch (const StoreError&) {
    // Destructor: nowhere to report; data already on disk up to the last
    // successful sync.
  }
}

void DurableStore::load_snapshot(std::uint64_t* last_seq) {
  *last_seq = 0;
  const std::filesystem::path path = snapshot_path();
  const std::optional<std::string> file = read_file(path);
  if (!file) return;
  const std::string_view data = *file;

  // Unlike the journal, a snapshot is written whole and atomically
  // renamed: any corruption here is bit rot, and truncating it would
  // silently drop acknowledged data. Fail loudly instead.
  if (data.size() < kSnapshotHeaderBytes ||
      std::memcmp(data.data(), kSnapshotMagic, sizeof kSnapshotMagic) != 0)
    throw StoreError(StoreErrorCode::kCorrupt, path.string(),
                     "bad snapshot header");
  Cursor header(data.substr(8, kSnapshotHeaderBytes - 8));
  if (header.u32() != kStoreFormatVersion)
    throw StoreError(StoreErrorCode::kCorrupt, path.string(),
                     "bad snapshot header");
  const std::uint64_t snap_seq = header.u64();
  const std::uint32_t count = header.u32();
  if (header.u32() != crc32c(data.substr(0, 24)))
    throw StoreError(StoreErrorCode::kCorrupt, path.string(),
                     "snapshot header checksum mismatch");

  std::size_t offset = kSnapshotHeaderBytes;
  for (std::uint32_t i = 0; i < count; ++i) {
    const DecodedFrame frame = decode_frame(data.substr(offset));
    if (frame.status == DecodedFrame::Status::kTruncated)
      throw StoreError(StoreErrorCode::kCorrupt, path.string(),
                       "snapshot truncated at entry " + std::to_string(i));
    if (frame.status == DecodedFrame::Status::kBadCrc)
      throw StoreError(StoreErrorCode::kCorrupt, path.string(),
                       "snapshot entry " + std::to_string(i) +
                           " checksum mismatch");
    Cursor cur(frame.payload);
    std::string key = cur.string();
    std::string value = cur.string();
    cur.expect_done();
    // Snapshot entries carry ordinal seqs 1..count in last-write order
    // (count ≤ snap_seq, so journal records always sort after them and
    // unconditionally overwrite on replay).
    map_[std::move(key)] = Entry{std::move(value), frame.seq};
    offset += frame.size;
  }
  if (offset != data.size())
    throw StoreError(StoreErrorCode::kCorrupt, path.string(),
                     "snapshot has trailing bytes");

  *last_seq = snap_seq;
  open_info_.snapshot_entries = map_.size();
}

void DurableStore::put(std::string_view key, std::string_view value) {
  std::string payload;
  payload.reserve(1 + 8 + key.size() + value.size());
  put_u8(payload, 1);  // op: put
  put_string(payload, key);
  put_string(payload, value);

  {
    std::lock_guard<std::mutex> lk(mu_);
    const std::uint64_t seq = journal_->append(payload);
    map_[std::string(key)] = Entry{std::string(value), seq};
    if (obs::enabled())
      obs::Registry::global().set_gauge("store.entries",
                                        static_cast<double>(map_.size()));
  }
  maybe_trigger_compaction();
}

std::optional<std::string> DurableStore::get(std::string_view key) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = map_.find(std::string(key));
  if (it == map_.end()) return std::nullopt;
  return it->second.value;
}

bool DurableStore::contains(std::string_view key) const {
  std::lock_guard<std::mutex> lk(mu_);
  return map_.find(std::string(key)) != map_.end();
}

std::size_t DurableStore::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return map_.size();
}

void DurableStore::for_each(
    const std::function<void(const std::string&, const std::string&)>& fn)
    const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<const std::pair<const std::string, Entry>*> ordered;
  ordered.reserve(map_.size());
  for (const auto& kv : map_) ordered.push_back(&kv);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto* a, const auto* b) {
              return a->second.seq < b->second.seq;
            });
  for (const auto* kv : ordered) fn(kv->first, kv->second.value);
}

std::uint64_t DurableStore::journal_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return journal_->bytes();
}

std::uint64_t DurableStore::compactions() const {
  std::lock_guard<std::mutex> lk(compact_mu_);
  return compactions_;
}

void DurableStore::sync() {
  std::lock_guard<std::mutex> lk(mu_);
  journal_->sync();
}

void DurableStore::write_snapshot_file(
    const std::filesystem::path& path, std::uint64_t last_seq,
    const std::vector<std::pair<std::string, Entry>>& entries) const {
  std::string data;
  data.append(kSnapshotMagic, sizeof kSnapshotMagic);
  put_u32(data, kStoreFormatVersion);
  put_u64(data, last_seq);
  put_u32(data, static_cast<std::uint32_t>(entries.size()));
  put_u32(data, crc32c(data));
  std::uint64_t ordinal = 0;
  for (const auto& [key, entry] : entries) {
    std::string payload;
    payload.reserve(8 + key.size() + entry.value.size());
    put_string(payload, key);
    put_string(payload, entry.value);
    data += frame_record(++ordinal, payload);
  }

  // Data must be durable before the snapshot name points at it.
  write_file_durable(path, data);
}

void DurableStore::compact() {
  // One compaction at a time; put() stays concurrent except for the two
  // brief critical sections below.
  std::lock_guard<std::mutex> serial(compact_mu_);
  obs::ScopedTimer timer("store.compact");

  // Phase 1: snapshot the map and the newest assigned seq.
  std::vector<std::pair<std::string, Entry>> entries;
  std::uint64_t snap_seq = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    snap_seq = journal_->next_seq() - 1;
    entries.reserve(map_.size());
    for (const auto& kv : map_) entries.emplace_back(kv.first, kv.second);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              return a.second.seq < b.second.seq;
            });

  // Phase 2: durable snapshot, atomically renamed into place.
  const std::filesystem::path snap_tmp = dir_ / "snapshot.tmp";
  write_snapshot_file(snap_tmp, snap_seq, entries);
  std::error_code ec;
  std::filesystem::rename(snap_tmp, snapshot_path(), ec);
  if (ec)
    throw StoreError(StoreErrorCode::kIo, snapshot_path().string(),
                     "snapshot rename failed: " + ec.message());
  fsync_parent_dir(snapshot_path());

  // Phase 3: rewrite the journal to just the records newer than the
  // snapshot. Crash before the rename leaves the old journal, whose
  // seqs ≤ snap_seq are skipped on replay; crash after is complete.
  {
    std::lock_guard<std::mutex> lk(mu_);
    const std::filesystem::path jrn_tmp = dir_ / "journal.tmp";
    JournalWriter::Options jopts;
    jopts.sync_every_append = false;
    JournalWriter fresh = JournalWriter::create(jrn_tmp, jopts, snap_seq);
    std::vector<const std::pair<const std::string, Entry>*> survivors;
    for (const auto& kv : map_)
      if (kv.second.seq > snap_seq) survivors.push_back(&kv);
    std::sort(survivors.begin(), survivors.end(),
              [](const auto* a, const auto* b) {
                return a->second.seq < b->second.seq;
              });
    for (const auto* kv : survivors) {
      std::string payload;
      put_u8(payload, 1);
      put_string(payload, kv->first);
      put_string(payload, kv->second.value);
      fresh.append_with_seq(kv->second.seq, payload);
    }
    fresh.sync();
    std::filesystem::rename(jrn_tmp, journal_path(), ec);
    if (ec)
      throw StoreError(StoreErrorCode::kIo, journal_path().string(),
                       "journal rename failed: " + ec.message());
    fsync_parent_dir(journal_path());
    fresh.set_path(journal_path());
    fresh.set_sync_every_append(options_.sync_every_append);
    journal_.emplace(std::move(fresh));
    snapshot_last_seq_ = snap_seq;
  }
  ++compactions_;  // still under the serializing compact_mu_ lock
  if (obs::enabled()) obs::Registry::global().add_counter("store.compactions");
}

void DurableStore::maybe_trigger_compaction() {
  if (options_.compact_journal_bytes == 0) return;
  bool over = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    over = journal_->bytes() > options_.compact_journal_bytes;
  }
  if (!over) return;
  {
    std::lock_guard<std::mutex> lk(compact_mu_);
    compact_requested_ = true;
  }
  compact_cv_.notify_one();
}

void DurableStore::compaction_worker() {
  std::unique_lock<std::mutex> lk(compact_mu_);
  while (true) {
    compact_cv_.wait(lk, [&] { return stop_ || compact_requested_; });
    if (stop_) return;
    compact_requested_ = false;
    lk.unlock();
    try {
      compact();
    } catch (const StoreError&) {
      // Compaction is an optimization; the journal remains authoritative
      // and a later put() will re-trigger it.
    }
    lk.lock();
  }
}

}  // namespace rat::store
