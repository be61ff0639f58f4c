#include "store/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "store/checksum.hpp"
#include "store/codec.hpp"

namespace rat::store {

namespace {

void obs_count(const char* name, std::uint64_t delta = 1) {
  if (obs::enabled()) obs::Registry::global().add_counter(name, delta);
}

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Full-buffer write(2); throws on error or short write (disk full).
void write_all(int fd, const std::filesystem::path& path,
               std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw StoreError(StoreErrorCode::kIo, path.string(),
                       errno_message("write failed"));
    }
    if (n == 0)
      throw StoreError(StoreErrorCode::kIo, path.string(),
                       "write wrote 0 bytes");
    off += static_cast<std::size_t>(n);
  }
}

void fsync_fd(int fd, const std::filesystem::path& path) {
  obs::ScopedTimer timer("store.fsync");
  if (::fsync(fd) != 0)
    throw StoreError(StoreErrorCode::kIo, path.string(),
                     errno_message("fsync failed"));
  obs_count("store.fsync");
}

std::string journal_header_bytes() {
  std::string h(kJournalMagic, sizeof kJournalMagic);
  put_u32(h, kStoreFormatVersion);
  put_u32(h, crc32c(h));
  return h;
}

/// CRC32C over len || seq || payload of a whole frame: every byte but
/// the crc field itself, which sits between len and seq on disk.
std::uint32_t frame_crc(std::string_view frame) {
  return crc32c(frame.substr(8), crc32c(frame.substr(0, 4)));
}

}  // namespace

std::string frame_record(std::uint64_t seq, std::string_view payload) {
  std::string frame;
  frame.reserve(kRecordHeaderBytes + payload.size());
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, 0);  // crc, filled in once the frame is whole
  put_u64(frame, seq);
  frame.append(payload.data(), payload.size());
  std::string crc;
  put_u32(crc, frame_crc(frame));
  frame.replace(4, 4, crc);
  return frame;
}

DecodedFrame decode_frame(std::string_view data) {
  DecodedFrame frame;
  if (data.size() < kRecordHeaderBytes) return frame;
  Cursor header(data.substr(0, kRecordHeaderBytes));
  const std::uint32_t len = header.u32();
  const std::uint32_t crc = header.u32();
  frame.seq = header.u64();
  if (len > kMaxRecordBytes || data.size() - kRecordHeaderBytes < len)
    return frame;
  frame.size = kRecordHeaderBytes + len;
  if (frame_crc(data.substr(0, frame.size)) != crc) {
    frame.status = DecodedFrame::Status::kBadCrc;
    return frame;
  }
  frame.status = DecodedFrame::Status::kOk;
  frame.payload = data.substr(kRecordHeaderBytes, len);
  return frame;
}

RecoveredJournal recover_journal(const std::filesystem::path& path) {
  obs::ScopedTimer timer("store.recover");
  RecoveredJournal out;
  const std::optional<std::string> file = read_file(path);
  if (!file) return out;
  const std::string_view data = *file;

  // Header: anything short or mismatched invalidates the whole file (the
  // framing cannot be trusted without it).
  const auto invalid_from = [&](std::uint64_t offset) {
    out.valid_bytes = offset;
    out.dropped_bytes = data.size() - offset;
  };
  if (data.size() < kJournalHeaderBytes ||
      std::memcmp(data.data(), kJournalMagic, sizeof kJournalMagic) != 0 ||
      Cursor(data.substr(8, 4)).u32() != kStoreFormatVersion ||
      Cursor(data.substr(12, 4)).u32() != crc32c(data.substr(0, 12))) {
    invalid_from(0);
    return out;
  }

  // A torn, over-long or corrupt frame, or a seq regression, ends the
  // valid prefix.
  std::uint64_t offset = kJournalHeaderBytes;
  std::uint64_t prev_seq = 0;
  for (;;) {
    const DecodedFrame frame = decode_frame(data.substr(offset));
    if (frame.status != DecodedFrame::Status::kOk || frame.seq <= prev_seq)
      break;
    out.records.push_back({frame.seq, std::string(frame.payload)});
    prev_seq = frame.seq;
    offset += frame.size;
  }
  invalid_from(offset);
  out.last_seq = prev_seq;
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.add_counter("store.recovery.records", out.records.size());
    reg.add_counter("store.recovery.dropped_bytes", out.dropped_bytes);
  }
  return out;
}

JournalWriter::JournalWriter(const std::filesystem::path& path,
                             Options options, RecoveredJournal* recovered,
                             std::uint64_t min_last_seq)
    : path_(path), options_(options) {
  RecoveredJournal local = recover_journal(path);

  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0)
    throw StoreError(StoreErrorCode::kIo, path.string(),
                     errno_message("cannot open journal"));

  if (local.valid_bytes < kJournalHeaderBytes) {
    // Fresh file (or unusable header): start over with a clean header.
    open_fresh();
    local.records.clear();
    local.last_seq = 0;
  } else {
    std::error_code ec;
    const std::uint64_t size = std::filesystem::file_size(path, ec);
    if (!ec && size != local.valid_bytes) {
      if (::ftruncate(fd_, static_cast<off_t>(local.valid_bytes)) != 0) {
        close();
        throw StoreError(StoreErrorCode::kIo, path.string(),
                         errno_message("cannot truncate torn tail"));
      }
      fsync_fd(fd_, path_);
    }
    if (::lseek(fd_, 0, SEEK_END) < 0) {
      close();
      throw StoreError(StoreErrorCode::kIo, path.string(),
                       errno_message("cannot seek"));
    }
    bytes_ = local.valid_bytes;
  }

  next_seq_ = std::max(local.last_seq, min_last_seq) + 1;
  if (recovered) *recovered = std::move(local);
}

JournalWriter JournalWriter::create(const std::filesystem::path& path,
                                    Options options,
                                    std::uint64_t min_last_seq) {
  JournalWriter w;
  w.path_ = path;
  w.options_ = options;
  w.fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (w.fd_ < 0)
    throw StoreError(StoreErrorCode::kIo, path.string(),
                     errno_message("cannot create journal"));
  w.open_fresh();
  w.next_seq_ = min_last_seq + 1;
  return w;
}

void JournalWriter::open_fresh() {
  if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0) {
    const std::string msg = errno_message("cannot reset journal");
    close();
    throw StoreError(StoreErrorCode::kIo, path_.string(), msg);
  }
  write_all(fd_, path_, journal_header_bytes());
  fsync_fd(fd_, path_);
  fsync_parent_dir(path_);
  bytes_ = kJournalHeaderBytes;
  next_seq_ = 1;
  dirty_ = false;
}

JournalWriter::~JournalWriter() { close(); }

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : path_(std::move(other.path_)),
      options_(other.options_),
      fd_(std::exchange(other.fd_, -1)),
      bytes_(other.bytes_),
      next_seq_(other.next_seq_),
      dirty_(other.dirty_) {}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    options_ = other.options_;
    fd_ = std::exchange(other.fd_, -1);
    bytes_ = other.bytes_;
    next_seq_ = other.next_seq_;
    dirty_ = other.dirty_;
  }
  return *this;
}

void JournalWriter::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint64_t JournalWriter::append(std::string_view payload) {
  const std::uint64_t seq = next_seq_;
  append_with_seq(seq, payload);
  return seq;
}

void JournalWriter::append_with_seq(std::uint64_t seq,
                                    std::string_view payload) {
  obs::ScopedTimer timer("store.append");
  if (fd_ < 0)
    throw StoreError(StoreErrorCode::kIo, path_.string(),
                     "journal is closed");
  if (seq < next_seq_)
    throw StoreError(StoreErrorCode::kIo, path_.string(),
                     "sequence number regression: " + std::to_string(seq) +
                         " after " + std::to_string(next_seq_ - 1));
  if (payload.size() > kMaxRecordBytes)
    throw StoreError(StoreErrorCode::kIo, path_.string(),
                     "record payload exceeds " +
                         std::to_string(kMaxRecordBytes) + " bytes");
  const std::string frame = frame_record(seq, payload);
  write_all(fd_, path_, frame);
  bytes_ += frame.size();
  next_seq_ = seq + 1;
  dirty_ = true;
  obs_count("store.append");
  obs_count("store.append.bytes", frame.size());
  if (options_.sync_every_append) sync();
}

void JournalWriter::sync() {
  if (fd_ < 0 || !dirty_) return;
  fsync_fd(fd_, path_);
  dirty_ = false;
}

void write_file_durable(const std::filesystem::path& path,
                        std::string_view data) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0)
    throw StoreError(StoreErrorCode::kIo, path.string(),
                     errno_message("cannot create file"));
  try {
    write_all(fd, path, data);
    fsync_fd(fd, path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return std::nullopt;
  std::ifstream f(path, std::ios::binary);
  if (!f)
    throw StoreError(StoreErrorCode::kIo, path.string(), "cannot open file");
  std::ostringstream os;
  os << f.rdbuf();
  if (f.bad())
    throw StoreError(StoreErrorCode::kIo, path.string(), "read error");
  return std::move(os).str();
}

void fsync_parent_dir(const std::filesystem::path& child) {
  std::filesystem::path dir = child.parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0)
    throw StoreError(StoreErrorCode::kIo, dir.string(),
                     errno_message("cannot open directory for fsync"));
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0)
    throw StoreError(StoreErrorCode::kIo, dir.string(),
                     errno_message("directory fsync failed"));
  obs_count("store.fsync");
}

}  // namespace rat::store
