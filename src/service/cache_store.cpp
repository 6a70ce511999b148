#include "src/service/cache_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <utility>

namespace sap::service {
namespace {

constexpr char kMagic[8] = {'S', 'A', 'P', 'C', 'A', 'C', 'H', 'E'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 16;
/// type u8 + key.hi u64 + key.lo u64 + kind_lane u64 + payload_len u32.
constexpr std::size_t kRecordFixedBytes = 1 + 8 + 8 + 8 + 4;
/// checksum hi u64 + lo u64.
constexpr std::size_t kRecordTrailerBytes = 16;
constexpr std::uint8_t kRecordPut = 1;
constexpr std::uint8_t kRecordErase = 2;
/// Ceiling applied to the length field during recovery so a corrupt length
/// cannot provoke a multi-gigabyte allocation before the checksum runs.
constexpr std::uint32_t kMaxRecordPayload = 1u << 30;

void put_u32(std::string* out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xffu));
  }
}

void put_u64(std::string* out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xffull));
  }
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
  }
  return value;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
  }
  return value;
}

/// The record's self-check: the same splitmix64 two-lane digest that keys
/// the cache, over every field that shapes replay.
InstanceDigest record_checksum(std::uint8_t type, const InstanceDigest& key,
                               std::uint64_t kind_lane,
                               std::string_view payload) {
  InstanceHasher hasher;
  hasher.update_u64(type);
  hasher.update_u64(key.hi);
  hasher.update_u64(key.lo);
  hasher.update_u64(kind_lane);
  hasher.update(payload);
  return hasher.digest();
}

std::string encode_header() {
  std::string out(kMagic, sizeof(kMagic));
  put_u32(&out, kVersion);
  put_u32(&out, 0);  // flags, reserved
  return out;
}

std::string encode_record(std::uint8_t type, const InstanceDigest& key,
                          std::uint64_t kind_lane, std::string_view payload) {
  std::string out;
  out.reserve(kRecordFixedBytes + payload.size() + kRecordTrailerBytes);
  out.push_back(static_cast<char>(type));
  put_u64(&out, key.hi);
  put_u64(&out, key.lo);
  put_u64(&out, kind_lane);
  put_u32(&out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  const InstanceDigest check = record_checksum(type, key, kind_lane, payload);
  put_u64(&out, check.hi);
  put_u64(&out, check.lo);
  return out;
}

}  // namespace

CacheStore::CacheStore(Options options) : options_(std::move(options)) {
  // A compaction interrupted before its rename leaves a stale temp file;
  // it was never the journal, so it is garbage.
  (void)::unlink((options_.path + ".tmp").c_str());

  fd_ = ::open(options_.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("sapd cache store: cannot open '" +
                             options_.path +
                             "': " + std::string(std::strerror(errno)));
  }
  std::lock_guard lock(mutex_);
  recover_locked();
}

CacheStore::~CacheStore() {
  std::lock_guard lock(mutex_);
  if (fd_ >= 0) {
    // sapkit-analyze: allow(lock-blocking) -- mutex_ guards the journal fd
    // itself; the final fsync must exclude concurrent appends, and the
    // destructor runs once at teardown, never on the request path.
    (void)::fsync(fd_);
    (void)::close(fd_);
    fd_ = -1;
  }
}

void CacheStore::recover_locked() {
  std::string buf;
  {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        fail_locked("read");
        return;
      }
      if (n == 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
    }
  }

  // Missing, short, or alien header: the whole file is garbage. Count it as
  // truncated tail and start fresh rather than refusing to start.
  if (buf.size() < kHeaderBytes ||
      std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0 ||
      get_u32(buf.data() + sizeof(kMagic)) != kVersion) {
    recovery_.truncated_tail_bytes += buf.size();
    const std::string header = encode_header();
    if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0 ||
        !write_all_locked(fd_, header.data(), header.size())) {
      fail_locked("rewrite header");
    }
    return;
  }

  std::size_t off = kHeaderBytes;
  while (off < buf.size()) {
    const std::size_t remaining = buf.size() - off;
    if (remaining < kRecordFixedBytes) break;  // torn tail
    const char* p = buf.data() + off;
    const std::uint8_t type = static_cast<unsigned char>(p[0]);
    InstanceDigest key;
    key.hi = get_u64(p + 1);
    key.lo = get_u64(p + 9);
    const std::uint64_t kind_lane = get_u64(p + 17);
    const std::uint32_t payload_len = get_u32(p + 25);
    // A nonsense type or length is a complete-but-corrupt record, not a
    // torn one: the bytes are there, they just fail validation.
    if ((type != kRecordPut && type != kRecordErase) ||
        payload_len > kMaxRecordPayload ||
        (type == kRecordErase && payload_len != 0)) {
      ++recovery_.discarded_corrupt;
      break;
    }
    const std::size_t total =
        kRecordFixedBytes + payload_len + kRecordTrailerBytes;
    if (remaining < total) break;  // torn tail (record runs past EOF)
    const std::string_view payload(p + kRecordFixedBytes, payload_len);
    const InstanceDigest check =
        record_checksum(type, key, kind_lane, payload);
    InstanceDigest stored;
    stored.hi = get_u64(p + kRecordFixedBytes + payload_len);
    stored.lo = get_u64(p + kRecordFixedBytes + payload_len + 8);
    if (!(check == stored)) {
      ++recovery_.discarded_corrupt;
      break;
    }
    Record record;
    record.key = key;
    record.kind_lane = kind_lane;
    record.erase = type == kRecordErase;
    record.payload = std::string(payload);
    recovered_.push_back(std::move(record));
    ++recovery_.recovered_records;
    off += total;
  }

  if (off < buf.size()) {
    // Truncate at the first torn/corrupt record: everything after it is
    // unreachable (records carry no sync markers), so it is dropped too.
    recovery_.truncated_tail_bytes += buf.size() - off;
    if (::ftruncate(fd_, static_cast<off_t>(off)) != 0) {
      fail_locked("truncate");
      return;
    }
  }
  if (::lseek(fd_, static_cast<off_t>(off), SEEK_SET) < 0) {
    fail_locked("seek");
  }
}

std::vector<CacheStore::Record> CacheStore::take_recovered() {
  std::lock_guard lock(mutex_);
  return std::move(recovered_);
}

void CacheStore::append(const InstanceDigest& key, std::uint64_t kind_lane,
                        std::string_view payload) {
  const std::string record = encode_record(kRecordPut, key, kind_lane, payload);
  std::lock_guard lock(mutex_);
  if (failed_) return;
  if (options_.mid_append_hook) {
    // Split the write so the chaos harness can SIGKILL between the halves,
    // guaranteeing a torn record for the recovery path to truncate.
    const std::size_t half = record.size() / 2;
    if (!write_all_locked(fd_, record.data(), half)) {
      fail_locked("append");
      return;
    }
    options_.mid_append_hook();
    if (!write_all_locked(fd_, record.data() + half, record.size() - half)) {
      fail_locked("append");
      return;
    }
  } else if (!write_all_locked(fd_, record.data(), record.size())) {
    fail_locked("append");
    return;
  }
  ++appended_records_;
}

void CacheStore::append_erase(const InstanceDigest& key,
                              std::uint64_t kind_lane) {
  const std::string record = encode_record(kRecordErase, key, kind_lane, {});
  std::lock_guard lock(mutex_);
  if (failed_) return;
  if (!write_all_locked(fd_, record.data(), record.size())) {
    fail_locked("append erase");
    return;
  }
  ++appended_records_;
}

void CacheStore::compact(const std::vector<Record>& live) {
  std::string snapshot = encode_header();
  for (const Record& record : live) {
    snapshot += encode_record(record.erase ? kRecordErase : kRecordPut,
                              record.key, record.kind_lane, record.payload);
  }

  std::lock_guard lock(mutex_);
  if (failed_) return;
  const std::string temp_path = options_.path + ".tmp";
  const int temp_fd =
      ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
             0644);
  if (temp_fd < 0) {
    fail_locked("compact open temp");
    return;
  }
  bool wrote =
      write_all_locked(temp_fd, snapshot.data(), snapshot.size());
  // sapkit-analyze: allow(lock-blocking) -- the snapshot must not interleave
  // with appends (mutex_ guards the journal fd and the on-disk state as one
  // resource); compaction fires once per ~2x-capacity appends, off the
  // request path (SolveCache journals after releasing its own mutex).
  wrote = wrote && ::fsync(temp_fd) == 0;
  (void)::close(temp_fd);
  if (!wrote) {
    (void)::unlink(temp_path.c_str());
    fail_locked("compact write temp");
    return;
  }
  if (options_.mid_compact_hook) options_.mid_compact_hook();
  if (::rename(temp_path.c_str(), options_.path.c_str()) != 0) {
    (void)::unlink(temp_path.c_str());
    fail_locked("compact rename");
    return;
  }
  // The old fd now points at the unlinked inode; reopen the renamed file
  // and position at its end for subsequent appends.
  (void)::close(fd_);
  fd_ = ::open(options_.path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd_ < 0 || ::lseek(fd_, 0, SEEK_END) < 0) {
    fail_locked("compact reopen");
    return;
  }
  // Best effort: persist the rename itself (the directory entry).
  const std::size_t slash = options_.path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : options_.path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    (void)::fsync(dir_fd);
    (void)::close(dir_fd);
  }
  ++compactions_;
}

void CacheStore::flush() {
  std::lock_guard lock(mutex_);
  if (failed_ || fd_ < 0) return;
  // sapkit-analyze: allow(lock-blocking) -- the durability point must cover
  // every append that returned before it (mutex_ guards the fd); callers are
  // Server::stop() after the workers drain, never the request path.
  if (::fsync(fd_) != 0) fail_locked("fsync");
}

CacheStore::Stats CacheStore::stats() const {
  std::lock_guard lock(mutex_);
  Stats stats;
  stats.recovery = recovery_;
  stats.appended_records = appended_records_;
  stats.compactions = compactions_;
  stats.failed = failed_;
  return stats;
}

bool CacheStore::write_all_locked(int fd, const char* data,
                                  std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

void CacheStore::fail_locked(const char* what) {
  if (!failed_) {
    std::cerr << "sapd cache store: " << what << " failed on '"
              << options_.path << "': " << std::strerror(errno)
              << "; persistence disabled for this run\n";
  }
  failed_ = true;
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
}

}  // namespace sap::service
