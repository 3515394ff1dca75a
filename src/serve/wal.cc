#include "serve/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "util/failpoint.h"

namespace ddsgraph {
namespace {

constexpr char kWalMagic[] = "DDSWAL1\n";
constexpr size_t kWalMagicSize = 8;
constexpr size_t kWalHeaderSize = 16;  // u32 len + u32 crc + i64 version
/// A record above this is not a record but a corrupted length field (the
/// serving wire caps frames at 64 MiB, so no legitimate batch exceeds it).
constexpr uint64_t kMaxWalPayload = 64u << 20;

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

void PutU32(char* out, uint32_t v) {
  out[0] = static_cast<char>(v & 0xff);
  out[1] = static_cast<char>((v >> 8) & 0xff);
  out[2] = static_cast<char>((v >> 16) & 0xff);
  out[3] = static_cast<char>((v >> 24) & 0xff);
}

uint32_t GetU32(const char* in) {
  return static_cast<uint32_t>(static_cast<unsigned char>(in[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(in[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(in[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(in[3])) << 24);
}

void PutI64(char* out, int64_t v) {
  const auto u = static_cast<uint64_t>(v);
  PutU32(out, static_cast<uint32_t>(u & 0xffffffffu));
  PutU32(out + 4, static_cast<uint32_t>(u >> 32));
}

int64_t GetI64(const char* in) {
  const uint64_t lo = GetU32(in);
  const uint64_t hi = GetU32(in + 4);
  return static_cast<int64_t>(lo | (hi << 32));
}

Status WriteAll(int fd, const char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write");
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status ReadWhole(int fd, std::string* out) {
  out->clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("read");
    }
    if (n == 0) return Status::Ok();
    out->append(buf, static_cast<size_t>(n));
  }
}

/// fsync the directory containing `path`, making a just-renamed or
/// just-created entry durable (the rename itself is metadata).
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open dir " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync dir " + dir);
  return Status::Ok();
}

/// Decodes the intact record prefix of a log image. Shared by Open (which
/// then truncates) and ReadWal (read-only).
Status DecodeWal(const std::string& path, const std::string& image,
                 WalReplay* replay) {
  replay->records.clear();
  replay->valid_bytes = 0;
  replay->torn_tail = false;
  if (image.empty()) return Status::Ok();
  if (image.size() < kWalMagicSize) {
    // A crash during log creation can leave a partial magic; that log
    // never held a record, so it is an empty (torn) log, not an error.
    replay->torn_tail = true;
    return Status::Ok();
  }
  if (std::memcmp(image.data(), kWalMagic, kWalMagicSize) != 0) {
    return Status::InvalidArgument("'" + path + "' is not a ddsgraph WAL");
  }
  size_t offset = kWalMagicSize;
  replay->valid_bytes = static_cast<int64_t>(offset);
  while (offset < image.size()) {
    if (image.size() - offset < kWalHeaderSize) break;  // torn header
    const char* header = image.data() + offset;
    const uint64_t payload_len = GetU32(header);
    const uint32_t stored_crc = GetU32(header + 4);
    const int64_t version = GetI64(header + 8);
    if (payload_len > kMaxWalPayload) break;  // corrupted length field
    if (image.size() - offset - kWalHeaderSize < payload_len) break;
    const char* payload = header + kWalHeaderSize;
    uint32_t crc = Crc32(header + 8, 8);
    crc = Crc32(payload, payload_len, crc);
    if (crc != stored_crc) break;  // torn or bit-flipped record
    // Past the CRC the record is trusted; a grammar or ordering violation
    // here is a writer bug (or deliberate tampering), not a torn tail,
    // and silently truncating it could discard acked records behind it.
    Result<EdgeBatch> batch = ParseEdgeOps(
        std::string(payload, payload_len), /*allow_empty=*/true);
    if (!batch.ok()) {
      return Status::Internal("'" + path + "' record at offset " +
                              std::to_string(offset) +
                              " passed CRC but failed to parse: " +
                              batch.status().message());
    }
    const int64_t prev = replay->records.empty()
                             ? 0
                             : replay->records.back().version;
    if (version <= 0 || (!replay->records.empty() && version <= prev)) {
      return Status::Internal(
          "'" + path + "' record at offset " + std::to_string(offset) +
          " has non-increasing version " + std::to_string(version));
    }
    replay->records.push_back(
        WalRecord{version, std::move(batch).value()});
    offset += kWalHeaderSize + payload_len;
    replay->valid_bytes = static_cast<int64_t>(offset);
  }
  replay->torn_tail = offset < image.size();
  if (!replay->torn_tail) return Status::Ok();
  // At `offset` a torn final write and an in-place corrupted *middle*
  // record look identical (the CRC fails either way), but truncating is
  // only safe for a genuine tail. Disambiguate by probing the remaining
  // bytes for any intact record: a real tear is the debris of one
  // interrupted append, so nothing behind it can pass a CRC, whereas an
  // intact record further on proves `offset` sits on corrupted acked
  // state — fail loudly rather than silently cut it (and everything
  // after it) away.
  for (size_t probe = offset + 1; probe + kWalHeaderSize <= image.size();
       ++probe) {
    const char* h = image.data() + probe;
    const uint64_t len = GetU32(h);
    if (len > kMaxWalPayload) continue;
    if (image.size() - probe - kWalHeaderSize < len) continue;
    uint32_t probe_crc = Crc32(h + 8, 8);
    probe_crc = Crc32(h + kWalHeaderSize, len, probe_crc);
    if (probe_crc != GetU32(h + 4)) continue;
    return Status::Internal(
        "'" + path + "' record at offset " + std::to_string(offset) +
        " is corrupt but an intact record follows at offset " +
        std::to_string(probe) +
        " — mid-log corruption, refusing to truncate acked records");
  }
  return Status::Ok();
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const uint32_t* table = [] {
    auto* t = new uint32_t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = seed ^ 0xffffffffu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

Result<FsyncPolicy> ParseFsyncPolicy(const std::string& name) {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "interval") return FsyncPolicy::kInterval;
  if (name == "never") return FsyncPolicy::kNever;
  return Status::InvalidArgument("unknown fsync policy '" + name +
                                 "' (known: always, interval, never)");
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "unknown";
}

WriteAheadLog::WriteAheadLog(int fd, std::string path,
                             const WalOptions& options)
    : fd_(fd), path_(std::move(path)), options_(options) {}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path, const WalOptions& options, WalReplay* replay) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return Errno("open " + path);
  std::unique_ptr<WriteAheadLog> log(
      new WriteAheadLog(fd, path, options));
  std::string image;
  RETURN_IF_ERROR(ReadWhole(fd, &image));
  RETURN_IF_ERROR(DecodeWal(path, image, replay));
  if (replay->torn_tail) {
    // Drop the un-acked tail so appends continue from a clean prefix.
    if (::ftruncate(fd, replay->valid_bytes) != 0) {
      return Errno("ftruncate " + path);
    }
  }
  if (::lseek(fd, replay->valid_bytes, SEEK_SET) < 0) {
    return Errno("lseek " + path);
  }
  if (replay->valid_bytes < static_cast<int64_t>(kWalMagicSize)) {
    // Fresh (or magic-torn) log: start it with the magic.
    if (::ftruncate(fd, 0) != 0) return Errno("ftruncate " + path);
    if (::lseek(fd, 0, SEEK_SET) < 0) return Errno("lseek " + path);
    RETURN_IF_ERROR(WriteAll(fd, kWalMagic, kWalMagicSize));
    RETURN_IF_ERROR(log->Sync());
    replay->valid_bytes = static_cast<int64_t>(kWalMagicSize);
  }
  log->bytes_ = replay->valid_bytes;
  log->records_ = static_cast<int64_t>(replay->records.size());
  return log;
}

Status WriteAheadLog::Append(int64_t version, const EdgeBatch& batch) {
  if (wedged_) {
    return Status::Internal(
        "WAL '" + path_ +
        "' is wedged by an earlier failed rollback; restart to recover "
        "from the intact on-disk prefix");
  }
  if (DDS_FAILPOINT("wal:before_append")) {
    return FailpointError("wal:before_append");
  }
  const std::string payload = FormatEdgeOps(batch);
  std::string frame(kWalHeaderSize, '\0');
  PutU32(frame.data(), static_cast<uint32_t>(payload.size()));
  PutI64(frame.data() + 8, version);
  uint32_t crc = Crc32(frame.data() + 8, 8);
  crc = Crc32(payload.data(), payload.size(), crc);
  PutU32(frame.data() + 4, crc);
  frame += payload;

  const int64_t pre_size = bytes_;
  const int64_t pre_records = records_;
  const bool pre_pending = sync_pending_;
  // The frame is written in two halves with a failpoint between them so
  // crash tests can manufacture a genuinely torn record (header on disk,
  // payload lost) — the exact state a power cut mid-write leaves.
  const size_t cut = frame.size() / 2;
  Status result = WriteAll(fd_, frame.data(), cut);
  if (result.ok() && DDS_FAILPOINT("wal:mid_append")) {
    result = FailpointError("wal:mid_append");
  }
  if (result.ok()) {
    result = WriteAll(fd_, frame.data() + cut, frame.size() - cut);
  }
  if (result.ok()) {
    bytes_ += static_cast<int64_t>(frame.size());
    ++records_;
    sync_pending_ = true;
    if (DDS_FAILPOINT("wal:after_append")) {
      result = FailpointError("wal:after_append");
    }
  }
  bool from_sync = false;  // Sync counts its own failures
  if (result.ok()) {
    switch (options_.fsync) {
      case FsyncPolicy::kAlways:
        result = Sync();
        from_sync = true;
        break;
      case FsyncPolicy::kInterval:
        if (since_sync_.Seconds() >= options_.fsync_interval_s) {
          result = Sync();
          from_sync = true;
        }
        break;
      case FsyncPolicy::kNever:
        break;
    }
  }
  if (result.ok()) return result;

  // *Any* failure means the caller will not apply the batch or ack, so
  // the record must not survive in the file either — even a fully
  // written (or even fsynced) one. Leaving it would let the retry of the
  // same logical update append a second record with the same version,
  // which replay rejects, turning one transient I/O error into an
  // unrecoverable log. Roll file and counters back to the pre-append
  // state instead.
  if (!from_sync) sync_errors_.fetch_add(1, std::memory_order_relaxed);
  if (::ftruncate(fd_, pre_size) == 0 &&
      ::lseek(fd_, pre_size, SEEK_SET) >= 0) {
    bytes_ = pre_size;
    records_ = pre_records;
    sync_pending_ = pre_pending;
  } else {
    // The intact-prefix invariant cannot be restored in place: refuse
    // every further append rather than land acked records behind the
    // debris. The prefix up to pre_size is still intact on disk, so a
    // restart's Open truncates the partial record and recovers
    // everything ever acked.
    wedged_ = true;
    sync_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

Status WriteAheadLog::Sync() {
  if (DDS_FAILPOINT("wal:fsync_error")) {
    sync_errors_.fetch_add(1, std::memory_order_relaxed);
    return FailpointError("wal:fsync_error");
  }
  if (::fsync(fd_) != 0) {
    sync_errors_.fetch_add(1, std::memory_order_relaxed);
    return Errno("fsync " + path_);
  }
  ++fsyncs_;
  since_sync_.Reset();
  sync_pending_ = false;
  if (DDS_FAILPOINT("wal:after_fsync")) {
    return FailpointError("wal:after_fsync");
  }
  return Status::Ok();
}

Status WriteAheadLog::Reset() {
  if (wedged_) {
    return Status::Internal(
        "WAL '" + path_ +
        "' is wedged by an earlier failed rollback; restart to recover");
  }
  // A failed truncate leaves the file untouched — still consistent.
  if (::ftruncate(fd_, 0) != 0) return Errno("ftruncate " + path_);
  // Past this point the old records are gone; keep the counters honest
  // at every step so a partial failure never leaves them describing
  // bytes the file no longer holds.
  bytes_ = 0;
  records_ = 0;
  sync_pending_ = true;
  Status magic = Status::Ok();
  if (::lseek(fd_, 0, SEEK_SET) < 0) magic = Errno("lseek " + path_);
  if (magic.ok() && DDS_FAILPOINT("wal:reset_magic")) {
    magic = FailpointError("wal:reset_magic");
  }
  if (magic.ok()) magic = WriteAll(fd_, kWalMagic, kWalMagicSize);
  if (!magic.ok()) {
    // The file is truncated but carries no (or a partial) magic;
    // appending records to it would build a log Open() rejects as "not
    // a ddsgraph WAL" and strand every later acked update. Wedge
    // instead: updates fail un-acked from here on, and a restart
    // recovers from the snapshot this Reset was folding into.
    wedged_ = true;
    sync_errors_.fetch_add(1, std::memory_order_relaxed);
    return magic;
  }
  bytes_ = static_cast<int64_t>(kWalMagicSize);
  // A failed final Sync is recoverable (magic-only file, counters
  // agree): the un-synced truncation at worst resurrects pre-checkpoint
  // records on crash, and replay skips records at or below the
  // snapshot version.
  return Sync();
}

Result<WalReplay> ReadWal(const std::string& path) {
  WalReplay replay;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return replay;  // no log yet = empty log
    return Errno("open " + path);
  }
  std::string image;
  const Status read = ReadWhole(fd, &image);
  ::close(fd);
  RETURN_IF_ERROR(read);
  RETURN_IF_ERROR(DecodeWal(path, image, &replay));
  return replay;
}

Status SaveGraphSnapshot(const std::string& path,
                         const GraphSnapshot& snapshot) {
  if (DDS_FAILPOINT("snap:before_write")) {
    return FailpointError("snap:before_write");
  }
  // Body first, CRC footer over all of it: a reader re-hashes everything
  // above the footer, so any in-place corruption is caught even though
  // the atomic rename already rules out torn writes.
  const int64_t num_edges = snapshot.weighted
                                ? static_cast<int64_t>(
                                      snapshot.weighted_edges.size())
                                : static_cast<int64_t>(snapshot.edges.size());
  std::string body = "ddssnap 1 ";
  body += snapshot.weighted ? "1" : "0";
  body += ' ';
  body += std::to_string(snapshot.version);
  body += ' ';
  body += std::to_string(snapshot.num_vertices);
  body += ' ';
  body += std::to_string(num_edges);
  body += '\n';
  if (!snapshot.labels.empty()) {
    body += "labels";
    for (const uint64_t label : snapshot.labels) {
      body += ' ';
      body += std::to_string(label);
    }
    body += "\n";
  }
  if (snapshot.weighted) {
    for (const WeightedEdge& e : snapshot.weighted_edges) {
      body += std::to_string(e.from);
      body += ' ';
      body += std::to_string(e.to);
      body += ' ';
      body += std::to_string(e.weight);
      body += '\n';
    }
  } else {
    for (const Edge& e : snapshot.edges) {
      body += std::to_string(e.first);
      body += ' ';
      body += std::to_string(e.second);
      body += '\n';
    }
  }
  char footer[32];
  std::snprintf(footer, sizeof(footer), "crc %08x\n",
                Crc32(body.data(), body.size()));
  body += footer;

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open " + tmp);
  const size_t cut = body.size() / 2;
  Status written = WriteAll(fd, body.data(), cut);
  if (written.ok() && DDS_FAILPOINT("snap:mid_write")) {
    written = FailpointError("snap:mid_write");
  }
  if (written.ok()) {
    written = WriteAll(fd, body.data() + cut, body.size() - cut);
  }
  if (written.ok() && ::fsync(fd) != 0) written = Errno("fsync " + tmp);
  ::close(fd);
  if (!written.ok()) {
    (void)::unlink(tmp.c_str());
    return written;
  }
  if (DDS_FAILPOINT("snap:before_rename")) {
    return FailpointError("snap:before_rename");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Errno("rename " + tmp + " -> " + path);
  }
  RETURN_IF_ERROR(SyncParentDir(path));
  if (DDS_FAILPOINT("snap:after_rename")) {
    return FailpointError("snap:after_rename");
  }
  return Status::Ok();
}

Result<GraphSnapshot> LoadGraphSnapshot(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no snapshot at " + path);
    }
    return Errno("open " + path);
  }
  std::string image;
  const Status read = ReadWhole(fd, &image);
  ::close(fd);
  RETURN_IF_ERROR(read);

  const auto corrupt = [&path](const std::string& why) {
    return Status::Internal("snapshot " + path + " is corrupt: " + why);
  };
  // Split off and verify the footer line first.
  if (image.empty() || image.back() != '\n') {
    return corrupt("missing trailing newline");
  }
  const size_t footer_at = image.rfind("crc ", image.size() - 2);
  if (footer_at == std::string::npos ||
      (footer_at != 0 && image[footer_at - 1] != '\n')) {
    return corrupt("missing crc footer");
  }
  const std::string footer =
      image.substr(footer_at + 4, image.size() - footer_at - 5);
  if (footer.size() != 8 ||
      footer.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return corrupt("malformed crc footer");
  }
  const uint32_t stored_crc =
      static_cast<uint32_t>(std::stoul(footer, nullptr, 16));
  if (Crc32(image.data(), footer_at) != stored_crc) {
    return corrupt("crc mismatch");
  }

  // The body is trusted now; parse it line by line.
  GraphSnapshot snapshot;
  size_t pos = 0;
  const auto next_line = [&image, &pos, footer_at]() -> std::string {
    if (pos >= footer_at) return {};
    const size_t nl = image.find('\n', pos);
    std::string line = image.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  };
  int weighted_int = 0;
  long long version = 0;
  unsigned long long n = 0;
  long long m = 0;
  const std::string header = next_line();
  if (std::sscanf(header.c_str(), "ddssnap 1 %d %lld %llu %lld",
                  &weighted_int, &version, &n, &m) != 4) {
    return corrupt("bad header '" + header + "'");
  }
  snapshot.weighted = weighted_int != 0;
  snapshot.version = version;
  snapshot.num_vertices = static_cast<uint32_t>(n);
  std::string line = next_line();
  if (line.rfind("labels", 0) == 0) {
    size_t at = 6;
    while (at < line.size()) {
      char* end = nullptr;
      const uint64_t label = std::strtoull(line.c_str() + at, &end, 10);
      if (end == line.c_str() + at) return corrupt("bad labels line");
      snapshot.labels.push_back(label);
      at = static_cast<size_t>(end - line.c_str());
      while (at < line.size() && line[at] == ' ') ++at;
    }
    line = next_line();
  }
  for (int64_t i = 0; i < m; ++i) {
    unsigned long long u = 0, v = 0;
    long long w = 1;
    const int fields =
        std::sscanf(line.c_str(), "%llu %llu %lld", &u, &v, &w);
    if (snapshot.weighted ? fields != 3 : fields != 2) {
      return corrupt("bad edge line '" + line + "'");
    }
    if (u >= n || v >= n) return corrupt("edge endpoint out of range");
    if (snapshot.weighted) {
      snapshot.weighted_edges.push_back(
          WeightedEdge{static_cast<VertexId>(u), static_cast<VertexId>(v),
                       w});
    } else {
      snapshot.edges.emplace_back(static_cast<VertexId>(u),
                                  static_cast<VertexId>(v));
    }
    line = next_line();
  }
  if (pos != footer_at || !line.empty()) {
    return corrupt("trailing data before crc footer");
  }
  return snapshot;
}

std::vector<std::string> WalFailpointNames() {
  // Code order along the apply path, then the checkpoint path. The crash
  // matrix in tests/recovery_test.cc aborts at each of these and proves
  // recovery; adding a site without listing it here leaves it untested,
  // so keep the list exhaustive.
  return {
      "apply:before_wal",     // overlay applied, nothing on disk yet
      "wal:before_append",    // inside Append, before any write
      "wal:mid_append",       // half the record written — a torn tail
      "wal:after_append",     // record written, not fsynced
      "wal:fsync_error",      // at the fsync call
      "wal:after_fsync",      // durable, Append not yet returned
      "apply:before_publish", // durable, version mirror not yet published
      "snap:before_write",    // checkpoint requested, nothing written
      "snap:mid_write",       // half the tmp snapshot written
      "snap:before_rename",   // tmp durable, not yet visible
      "snap:after_rename",    // snapshot live, WAL not yet reset
      "wal:reset_magic",      // WAL truncated, magic not yet rewritten
      "snap:after_reset",     // checkpoint complete, caller not returned
  };
}

}  // namespace ddsgraph
