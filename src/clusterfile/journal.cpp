#include "clusterfile/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <system_error>

#include "util/crc32.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace pfm {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

// --- Crash-point harness state -------------------------------------------
//
// One process-wide countdown over durability barriers, armed by
// arm_crash_after_syncs. `frozen` latches at the trip: every later durable
// metadata write no-ops, exactly as the disk of a killed process stops
// changing. Plain atomics: barriers happen on the mutating thread and on
// repair/migration workers, and the counters only ever move one way
// between arms.

std::atomic<std::int64_t> g_barriers{0};       // completed, monotonic
std::atomic<std::int64_t> g_countdown{-1};     // <0 disarmed
std::atomic<bool> g_frozen{false};

// Torn-metadata-write injection. The RNG needs a lock — metadata writes are
// serialized by the callers' own locks in practice, but fsck/tests may race
// arm/disarm against a live store.
Mutex g_fault_mu{"journal::fault_mu"};
std::optional<MetadataFaultPlan> g_fault_plan;
std::optional<Rng> g_fault_rng;

/// True when the frozen layer must drop this durable write.
bool metadata_frozen() {
  return g_frozen.load(std::memory_order_acquire);
}

/// Completes one durability barrier (called *after* the fsync succeeded).
/// Throws SimulatedCrash when this barrier trips the armed countdown.
void durability_barrier(const char* what) {
  g_barriers.fetch_add(1, std::memory_order_acq_rel);
  std::int64_t left = g_countdown.load(std::memory_order_acquire);
  while (left > 0) {
    if (g_countdown.compare_exchange_weak(left, left - 1,
                                          std::memory_order_acq_rel)) {
      if (left == 1) {
        g_frozen.store(true, std::memory_order_release);
        throw SimulatedCrash(std::string("simulated kill at barrier: ") + what);
      }
      return;
    }
  }
}

/// Torn-write check for one durable metadata write of `total` bytes.
/// Returns the number of bytes to persist before freezing, or -1 when the
/// write should proceed untorn.
std::int64_t torn_prefix(std::int64_t total) {
  MutexLock lock(g_fault_mu);
  if (!g_fault_plan || total <= 0) return -1;
  if (!g_fault_rng) g_fault_rng.emplace(g_fault_plan->seed);
  if (!g_fault_rng->chance(g_fault_plan->torn_write)) return -1;
  return g_fault_rng->uniform(0, total - 1);
}

void write_fully(int fd, const void* data, std::size_t n, std::int64_t offset,
                 const char* what) {
  const char* p = static_cast<const char*>(data);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w = ::pwrite(fd, p + done, n - done,
                               static_cast<off_t>(offset) +
                                   static_cast<off_t>(done));
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno(what);
    }
    done += static_cast<std::size_t>(w);
  }
}

void fsync_parent_dir(const std::filesystem::path& path) {
  std::filesystem::path dir = path.parent_path();
  if (dir.empty()) dir = ".";
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) throw_errno("atomic_write_file: open dir " + dir.string());
  if (::fsync(dfd) != 0) {
    const int e = errno;
    ::close(dfd);
    errno = e;
    throw_errno("atomic_write_file: fsync dir " + dir.string());
  }
  ::close(dfd);
}

}  // namespace

void arm_crash_after_syncs(std::int64_t n) {
  g_frozen.store(false, std::memory_order_release);
  g_countdown.store(n > 0 ? n : -1, std::memory_order_release);
}

bool crash_tripped() { return g_frozen.load(std::memory_order_acquire); }

std::int64_t durability_barriers() {
  return g_barriers.load(std::memory_order_acquire);
}

void arm_metadata_faults(const MetadataFaultPlan& plan) {
  MutexLock lock(g_fault_mu);
  g_fault_plan = plan;
  g_fault_rng.reset();
}

void disarm_metadata_faults() {
  MutexLock lock(g_fault_mu);
  g_fault_plan.reset();
  g_fault_rng.reset();
}

bool atomic_write_file(const std::filesystem::path& path,
                       std::string_view contents) {
  if (metadata_frozen()) return false;
  const std::filesystem::path tmp = path.string() + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) throw_errno("atomic_write_file: open " + tmp.string());
  try {
    const std::int64_t tear =
        torn_prefix(static_cast<std::int64_t>(contents.size()));
    if (tear >= 0) {
      // Kill mid-write: a strict prefix lands, nothing else ever will. The
      // garbage tmp file is harmless — recovery ignores *.tmp by design.
      write_fully(fd, contents.data(), static_cast<std::size_t>(tear), 0,
                  "atomic_write_file: pwrite");
      g_frozen.store(true, std::memory_order_release);
      ::close(fd);
      return false;
    }
    write_fully(fd, contents.data(), contents.size(), 0,
                "atomic_write_file: pwrite");
    if (::fdatasync(fd) != 0) throw_errno("atomic_write_file: fdatasync");
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (::close(fd) != 0) throw_errno("atomic_write_file: close");
  durability_barrier("checkpoint tmp fsync");
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) throw std::system_error(ec, "atomic_write_file: rename");
  fsync_parent_dir(path);
  durability_barrier("checkpoint dir fsync");
  return true;
}

// --- Journal --------------------------------------------------------------

Journal::Journal(std::filesystem::path path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) throw_errno("Journal: open " + path_.string());
  // Continue an existing journal: scan for the valid frame prefix, pick up
  // the CRC chain there, and cut any torn tail off so new appends never
  // leave garbage between valid frames.
  const Replay scan = replay_file(path_);
  end_ = scan.valid_bytes;
  records_ = static_cast<std::int64_t>(scan.records.size());
  chain_ = 0;
  for (const std::string& rec : scan.records)
    chain_ = crc32(rec.data(), rec.size(), chain_);
  if (scan.torn_tail) {
    if (::ftruncate(fd_, static_cast<off_t>(end_)) != 0)
      throw_errno("Journal: ftruncate torn tail");
  }
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

bool Journal::append(std::string_view payload) {
  if (metadata_frozen()) return false;
  if (payload.size() > static_cast<std::size_t>(kMaxRecord))
    throw std::invalid_argument("Journal: record too large");
  const std::uint32_t next_chain =
      crc32(payload.data(), payload.size(), chain_);
  std::string frame;
  frame.resize(12 + payload.size());
  const std::uint32_t magic = kMagic;
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::memcpy(frame.data(), &magic, 4);
  std::memcpy(frame.data() + 4, &len, 4);
  std::memcpy(frame.data() + 8, &next_chain, 4);
  std::memcpy(frame.data() + 12, payload.data(), payload.size());

  const std::int64_t tear = torn_prefix(static_cast<std::int64_t>(frame.size()));
  if (tear >= 0) {
    write_fully(fd_, frame.data(), static_cast<std::size_t>(tear), end_,
                "Journal: pwrite");
    g_frozen.store(true, std::memory_order_release);
    return false;
  }
  write_fully(fd_, frame.data(), frame.size(), end_, "Journal: pwrite");
  if (::fdatasync(fd_) != 0) throw_errno("Journal: fdatasync");
  // Commit point: the record is durable from here on, even if the barrier
  // below throws the simulated kill.
  end_ += static_cast<std::int64_t>(frame.size());
  chain_ = next_chain;
  ++records_;
  durability_barrier("journal append");
  return true;
}

bool Journal::truncate_all() {
  if (metadata_frozen()) return false;
  if (::ftruncate(fd_, 0) != 0) throw_errno("Journal: ftruncate");
  if (::fdatasync(fd_) != 0) throw_errno("Journal: fdatasync");
  end_ = 0;
  chain_ = 0;
  records_ = 0;
  durability_barrier("journal truncate");
  return true;
}

Journal::Replay Journal::replay(std::span<const std::byte> bytes) {
  Replay out;
  std::int64_t off = 0;
  const std::int64_t total = static_cast<std::int64_t>(bytes.size());
  std::uint32_t chain = 0;
  while (off + 12 <= total) {
    std::uint32_t magic = 0, len = 0, crc = 0;
    std::memcpy(&magic, bytes.data() + off, 4);
    std::memcpy(&len, bytes.data() + off + 4, 4);
    std::memcpy(&crc, bytes.data() + off + 8, 4);
    if (magic != kMagic || len > static_cast<std::uint32_t>(kMaxRecord)) break;
    if (off + 12 + static_cast<std::int64_t>(len) > total) break;
    const std::uint32_t want =
        crc32(bytes.data() + off + 12, len, chain);
    if (want != crc) break;
    out.records.emplace_back(
        reinterpret_cast<const char*>(bytes.data()) + off + 12, len);
    chain = want;
    off += 12 + static_cast<std::int64_t>(len);
  }
  out.valid_bytes = off;
  out.bytes_discarded = total - off;
  out.torn_tail = out.bytes_discarded > 0;
  return out;
}

Journal::Replay Journal::replay_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Replay{};
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  return replay(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(bytes.data()), bytes.size()));
}

}  // namespace pfm
