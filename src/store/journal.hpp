// rat.store.v1 append-only journal: the crash-safe half of the durable
// store (docs/STORE.md carries the full format spec).
//
// File layout:
//
//   header (16 bytes): magic "RATSTRJ1" | u32 version (1) | u32 CRC32C
//                      over the first 12 bytes
//   record (16 + n):   u32 payload_len | u32 crc | u64 seq | payload
//                      crc = CRC32C over payload_len || seq || payload
//
// All integers little-endian. Sequence numbers are strictly increasing
// within a file (after compaction rewrites a journal, survivors keep
// their original seqs, so gaps are legal; regressions are not).
//
// Recovery scans from the header and keeps the longest valid prefix: a
// short header, bad magic, short record, over-long length, CRC mismatch
// or non-increasing seq all end the scan *there* — everything before is
// returned, everything after is the torn tail. Opening a JournalWriter
// performs this recovery and physically truncates the tail, so a crashed
// writer's partial final write() never survives into the next session.
//
// Durability: with Options::sync_every_append (the default) every append
// is followed by fsync(2), so an acknowledged record survives power loss.
// Batched callers may disable it and call sync() at their own barriers.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "store/error.hpp"

namespace rat::store {

inline constexpr char kJournalMagic[8] = {'R', 'A', 'T', 'S',
                                          'T', 'R', 'J', '1'};
inline constexpr std::uint32_t kStoreFormatVersion = 1;
inline constexpr std::size_t kJournalHeaderBytes = 16;
inline constexpr std::size_t kRecordHeaderBytes = 16;
/// Sanity cap on one record's payload; a length field beyond this is
/// treated as corruption, not an allocation request.
inline constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

struct JournalRecord {
  std::uint64_t seq = 0;
  std::string payload;
};

/// Outcome of scanning a journal file for its valid prefix.
struct RecoveredJournal {
  std::vector<JournalRecord> records;
  std::uint64_t valid_bytes = 0;    ///< file offset where validity ends
  std::uint64_t dropped_bytes = 0;  ///< torn/corrupt tail past valid_bytes
  std::uint64_t last_seq = 0;       ///< 0 when no record survived
};

/// Scan @p path (missing file = empty journal) and return the valid
/// prefix. Never throws for corruption — corruption just shortens the
/// prefix; only an unreadable file throws StoreError(kIo). Does not
/// modify the file.
RecoveredJournal recover_journal(const std::filesystem::path& path);

/// Options live outside the class so they can be default arguments
/// (a nested struct with default member initializers cannot be).
struct JournalWriterOptions {
  bool sync_every_append = true;
};

/// Append side of the journal. Opening recovers and truncates the torn
/// tail (or writes a fresh header); appends are single write(2) calls
/// followed by fsync when sync_every_append is set.
class JournalWriter {
 public:
  using Options = JournalWriterOptions;

  /// Open (or create) @p path with recovery + tail truncation. The
  /// surviving records are returned through @p recovered when non-null.
  /// Sequence numbering continues at max(last surviving seq, @p
  /// min_last_seq) + 1.
  JournalWriter(const std::filesystem::path& path, Options options = {},
                RecoveredJournal* recovered = nullptr,
                std::uint64_t min_last_seq = 0);

  /// Create @p path as a fresh, empty journal (truncating any existing
  /// file); numbering continues after @p min_last_seq.
  static JournalWriter create(const std::filesystem::path& path,
                              Options options = {},
                              std::uint64_t min_last_seq = 0);

  ~JournalWriter();

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Append one record with the next sequence number; returns that seq.
  std::uint64_t append(std::string_view payload);

  /// Append with an explicit sequence number (compaction rewrites keep
  /// survivors' original seqs). @p seq must exceed the last written seq.
  void append_with_seq(std::uint64_t seq, std::string_view payload);

  /// fsync the file (no-op when nothing was appended since the last one).
  void sync();

  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t next_seq() const { return next_seq_; }
  const std::filesystem::path& path() const { return path_; }

  /// Update the remembered path after the caller renames the file (the
  /// open descriptor follows the inode; only error messages use this).
  void set_path(std::filesystem::path path) { path_ = std::move(path); }

  /// Flip per-append durability (compaction rewrites in bulk with it off,
  /// then re-enable before the writer goes live).
  void set_sync_every_append(bool v) { options_.sync_every_append = v; }

 private:
  JournalWriter() = default;
  void open_fresh();
  void close() noexcept;

  std::filesystem::path path_;
  Options options_;
  int fd_ = -1;
  std::uint64_t bytes_ = 0;
  std::uint64_t next_seq_ = 1;
  bool dirty_ = false;
};

/// Frame one record (header + payload) exactly as it appears on disk.
/// Exposed for tests that build journals byte-by-byte.
std::string frame_record(std::uint64_t seq, std::string_view payload);

/// One record frame read back by decode_frame.
struct DecodedFrame {
  enum class Status {
    kOk,
    kTruncated,  ///< header or payload runs past the end, or the length
                 ///< field exceeds kMaxRecordBytes
    kBadCrc,     ///< the CRC over len || seq || payload does not match
  };
  Status status = Status::kTruncated;
  std::uint64_t seq = 0;
  std::string_view payload;  ///< views the decoded bytes
  std::size_t size = 0;      ///< header + payload: where the next frame starts
};

/// Decode the frame at the front of @p data: the inverse of frame_record.
/// What a bad frame means is the caller's policy — the journal keeps the
/// prefix before it, a snapshot is corrupt.
DecodedFrame decode_frame(std::string_view data);

/// fsync the directory containing @p child so a just-created or
/// just-renamed entry survives a crash of the directory itself.
void fsync_parent_dir(const std::filesystem::path& child);

/// Create/truncate @p path, write @p data in full, fsync and close.
/// The building block for write-temp-then-atomic-rename.
void write_file_durable(const std::filesystem::path& path,
                        std::string_view data);

/// The whole of @p path, or nullopt when it does not exist. Throws
/// StoreError(kIo) when it exists but cannot be read.
std::optional<std::string> read_file(const std::filesystem::path& path);

}  // namespace rat::store
