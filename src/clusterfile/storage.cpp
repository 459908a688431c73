#include "clusterfile/storage.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "clusterfile/storage_fault.h"
#include "util/check.h"
#include "util/crc32.h"

namespace pfm {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

// Debug-checks the writev/readv run-list contract: non-negative offsets,
// positive lengths, strictly ascending and non-overlapping ranges, and a
// payload exactly as long as the runs it feeds.
std::int64_t checked_total(std::span<const IoVec> runs, std::size_t payload) {
  std::int64_t total = 0;
  std::int64_t prev_end = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    PFM_DCHECK(runs[i].offset >= 0 && runs[i].len > 0,
               "vectored run must have offset >= 0 and len > 0");
    PFM_DCHECK(i == 0 || runs[i].offset >= prev_end,
               "vectored runs must be ascending and non-overlapping");
    prev_end = runs[i].offset + runs[i].len;
    total += runs[i].len;
  }
  PFM_CHECK(total == static_cast<std::int64_t>(payload),
            "vectored payload length must equal the sum of run lengths");
  return total;
}

}  // namespace

void SubfileStorage::writev(std::span<const IoVec> runs,
                            std::span<const std::byte> payload) {
  checked_total(runs, payload.size());
  std::size_t off = 0;
  for (const IoVec& r : runs) {
    write(r.offset, payload.subspan(off, static_cast<std::size_t>(r.len)));
    off += static_cast<std::size_t>(r.len);
  }
}

void SubfileStorage::readv(std::span<const IoVec> runs,
                           std::span<std::byte> out) const {
  checked_total(runs, out.size());
  std::size_t off = 0;
  for (const IoVec& r : runs) {
    read(r.offset, out.subspan(off, static_cast<std::size_t>(r.len)));
    off += static_cast<std::size_t>(r.len);
  }
}

void MemoryStorage::write(std::int64_t offset, std::span<const std::byte> data) {
  if (offset < 0) throw std::invalid_argument("MemoryStorage::write: bad offset");
  if (data.empty()) return;  // an empty write must not grow the subfile
  const std::size_t end = static_cast<std::size_t>(offset) + data.size();
  if (end > data_.size()) data_.resize(end);
  std::memcpy(data_.data() + offset, data.data(), data.size());
}

void MemoryStorage::read(std::int64_t offset, std::span<std::byte> out) const {
  if (offset < 0 ||
      static_cast<std::size_t>(offset) + out.size() > data_.size())
    throw std::out_of_range("MemoryStorage::read: range beyond subfile");
  if (out.empty()) return;
  std::memcpy(out.data(), data_.data() + offset, out.size());
}

std::int64_t MemoryStorage::size() const {
  return static_cast<std::int64_t>(data_.size());
}

namespace {

// Crash-safe epoch sidecar: two 16-byte slots, each
// [u64 epoch][u32 crc32 of the epoch bytes][u32 magic]. An update writes
// the slot selected by epoch parity in one pwrite, so a torn update can
// only damage the slot it was writing — the other slot still carries the
// previous epoch with a valid CRC.
constexpr std::uint32_t kEpochMagic = 0x45504650u;  // "PFPE"
constexpr std::size_t kEpochSlotBytes = 16;

void encode_epoch_slot(std::int64_t epoch, unsigned char* out) {
  std::memcpy(out, &epoch, 8);
  const std::uint32_t crc = crc32(out, 8);
  std::memcpy(out + 8, &crc, 4);
  std::memcpy(out + 12, &kEpochMagic, 4);
}

/// Decodes one slot; returns the epoch or -1 when the slot is invalid.
std::int64_t decode_epoch_slot(const unsigned char* in, std::size_t len) {
  if (len < kEpochSlotBytes) return -1;
  std::uint32_t crc = 0, magic = 0;
  std::memcpy(&crc, in + 8, 4);
  std::memcpy(&magic, in + 12, 4);
  if (magic != kEpochMagic || crc32(in, 8) != crc) return -1;
  std::int64_t epoch = 0;
  std::memcpy(&epoch, in, 8);
  return epoch >= 0 ? epoch : -1;
}

}  // namespace

std::int64_t load_epoch_sidecar(const std::filesystem::path& sidecar) {
  const int fd = ::open(sidecar.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  unsigned char slots[2 * kEpochSlotBytes] = {};
  ssize_t got = ::pread(fd, slots, sizeof(slots), 0);
  ::close(fd);
  if (got < 0) got = 0;
  std::int64_t best = 0;
  for (int s = 0; s < 2; ++s) {
    const std::size_t off = static_cast<std::size_t>(s) * kEpochSlotBytes;
    const std::size_t len =
        static_cast<std::size_t>(got) > off
            ? static_cast<std::size_t>(got) - off
            : 0;
    const std::int64_t e = decode_epoch_slot(slots + off, len);
    if (e > best) best = e;
  }
  return best;
}

FileStorage::FileStorage(std::filesystem::path path, bool preserve)
    : path_(std::move(path)) {
  const int flags =
      preserve ? O_RDWR | O_CREAT | O_CLOEXEC
               : O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC;
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) throw_errno("FileStorage: open " + path_.string());
  if (preserve) {
    // Cold-start reopen: the file's bytes are the subfile, the validated
    // sidecar is the epoch (0 when torn — re-sync then treats the copy as
    // maximally behind, which is safe).
    const off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0) throw_errno("FileStorage: lseek " + path_.string());
    size_ = static_cast<std::int64_t>(end);
    epoch_ = load_epoch_sidecar(path_.string() + ".epoch");
  } else {
    // A fresh subfile starts at epoch 0; drop any sidecar a previous
    // incarnation left behind.
    ::unlink((path_.string() + ".epoch").c_str());
  }
}

FileStorage::~FileStorage() {
  if (fd_ >= 0) ::close(fd_);
  if (epoch_fd_ >= 0) ::close(epoch_fd_);
}

void FileStorage::write(std::int64_t offset, std::span<const std::byte> data) {
  if (offset < 0) throw std::invalid_argument("FileStorage::write: bad offset");
  if (data.empty()) return;  // an empty write must not grow the subfile
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::pwrite(fd_, data.data() + done, data.size() - done,
                               static_cast<off_t>(offset) + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("FileStorage: pwrite");
    }
    done += static_cast<std::size_t>(n);
  }
  size_ = std::max(size_, offset + static_cast<std::int64_t>(data.size()));
}

void FileStorage::read(std::int64_t offset, std::span<std::byte> out) const {
  if (offset < 0 || offset + static_cast<std::int64_t>(out.size()) > size_)
    throw std::out_of_range("FileStorage::read: range beyond subfile");
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                              static_cast<off_t>(offset) + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("FileStorage: pread");
    }
    if (n == 0) throw std::out_of_range("FileStorage::read: short read");
    done += static_cast<std::size_t>(n);
  }
}

std::int64_t FileStorage::size() const { return size_; }

void FileStorage::flush() {
  if (::fdatasync(fd_) != 0) throw_errno("FileStorage: fdatasync");
}

void FileStorage::set_epoch(std::int64_t e) {
  epoch_ = e;
  if (epoch_fd_ < 0) {
    const std::string sidecar = path_.string() + ".epoch";
    epoch_fd_ = ::open(sidecar.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (epoch_fd_ < 0) throw_errno("FileStorage: open " + sidecar);
  }
  // One pwrite into the parity-selected slot: consecutive epochs alternate
  // slots, so a crash mid-write tears at most the new slot and the reader
  // falls back to the other slot's last-good epoch.
  unsigned char slot[kEpochSlotBytes];
  encode_epoch_slot(e, slot);
  const off_t off = (e & 1) ? static_cast<off_t>(kEpochSlotBytes) : 0;
  if (::pwrite(epoch_fd_, slot, sizeof(slot), off) !=
      static_cast<ssize_t>(sizeof(slot)))
    throw_errno("FileStorage: pwrite epoch sidecar");
}

IntegrityStorage::IntegrityStorage(std::unique_ptr<SubfileStorage> inner,
                                   std::int64_t block_bytes)
    : inner_(std::move(inner)), block_(block_bytes) {
  if (block_ <= 0)
    throw std::invalid_argument("IntegrityStorage: block_bytes must be > 0");
  // Adopt whatever the inner backend already holds as the intended content.
  // Those ranges carry no recorded coverage (nothing was acknowledged
  // through this layer yet), so an unreadable backend here just leaves the
  // mirror zeroed — exactly as unverified as before.
  mirror_.resize(static_cast<std::size_t>(inner_->size()));
  if (!mirror_.empty()) {
    try {
      inner_->read(0, mirror_);
    } catch (const std::exception&) {
      std::fill(mirror_.begin(), mirror_.end(), std::byte{0});
    }
  }
}

std::int64_t IntegrityStorage::verify_block(std::int64_t b,
                                            Buffer& scratch) const {
  const auto it = sums_.find(b);
  if (it == sums_.end()) return 0;
  const BlockSum& sum = it->second;
  scratch.resize(static_cast<std::size_t>(sum.len));
  try {
    inner_->read(b * block_, scratch);
  } catch (const std::out_of_range&) {
    // The inner backend is shorter than the coverage we recorded: a torn
    // write dropped the tail of this block.
    throw StorageCorruptionError(
        "IntegrityStorage: block " + std::to_string(b) +
        " shorter than recorded coverage (torn write)");
  }
  if (crc32c(scratch.data(), scratch.size()) != sum.crc)
    throw StorageCorruptionError("IntegrityStorage: checksum mismatch in block " +
                                 std::to_string(b));
  return sum.len;
}

void IntegrityStorage::update_sum(std::int64_t b, std::int64_t end) {
  const std::int64_t block_lo = b * block_;
  const auto it = sums_.find(b);
  const std::int64_t old_len = it == sums_.end() ? 0 : it->second.len;
  const std::int64_t len =
      std::max(old_len, std::min(end, block_lo + block_) - block_lo);
  sums_[b] = BlockSum{
      crc32c(mirror_.data() + block_lo, static_cast<std::size_t>(len)), len};
}

void IntegrityStorage::write(std::int64_t offset,
                             std::span<const std::byte> data) {
  if (offset < 0)
    throw std::invalid_argument("IntegrityStorage::write: bad offset");
  if (data.empty()) return;
  MutexLock lock(mu_);
  const std::int64_t end = offset + static_cast<std::int64_t>(data.size());
  // Intended content lands in the mirror first and the checksums are
  // derived from it; only then do the bytes go to the inner backend. If the
  // write tears below us, the recorded CRC disagrees with what actually
  // landed and the next read detects it.
  if (static_cast<std::size_t>(end) > mirror_.size())
    mirror_.resize(static_cast<std::size_t>(end));
  std::memcpy(mirror_.data() + offset, data.data(), data.size());
  for (std::int64_t b = offset / block_; b <= (end - 1) / block_; ++b)
    update_sum(b, end);
  inner_->write(offset, data);
}

void IntegrityStorage::read(std::int64_t offset,
                            std::span<std::byte> out) const {
  MutexLock lock(mu_);
  if (offset < 0 || offset + static_cast<std::int64_t>(out.size()) >
                        static_cast<std::int64_t>(mirror_.size()))
    throw std::out_of_range("IntegrityStorage::read: range beyond subfile");
  if (out.empty()) return;
  try {
    inner_->read(offset, out);
  } catch (const std::out_of_range&) {
    // Bounds were checked against the intended size above, so an inner
    // range error means the backend is shorter than what was acknowledged.
    throw StorageCorruptionError(
        "IntegrityStorage: stored data shorter than acknowledged writes "
        "(torn write)");
  }
  // Verify after the data read: any rot injected while reading is in the
  // store by now, so the per-block pass below sees it and throws rather
  // than letting silently wrong bytes escape.
  const std::int64_t end = offset + static_cast<std::int64_t>(out.size());
  Buffer scratch;
  for (std::int64_t b = offset / block_; b <= (end - 1) / block_; ++b)
    verify_block(b, scratch);
}

void IntegrityStorage::writev(std::span<const IoVec> runs,
                              std::span<const std::byte> payload) {
  checked_total(runs, payload.size());
  if (runs.empty() || payload.empty()) return;
  MutexLock lock(mu_);
  // Apply every run to the mirror, then checksum each touched block once.
  // A strided FALLS projection puts dozens of small runs in one 4 KiB
  // block; the per-run write() path would re-checksum the block for each
  // of them, this override does it once — that is the whole point.
  const std::int64_t total_end = runs.back().offset + runs.back().len;
  if (static_cast<std::size_t>(total_end) > mirror_.size())
    mirror_.resize(static_cast<std::size_t>(total_end));
  std::size_t off = 0;
  for (const IoVec& r : runs) {
    std::memcpy(mirror_.data() + r.offset, payload.data() + off,
                static_cast<std::size_t>(r.len));
    off += static_cast<std::size_t>(r.len);
  }
  // Runs are ascending, so touched blocks come out ascending too. A block
  // shared by several runs is summed once, with the furthest-reaching
  // (latest) run's end as its coverage extent.
  std::vector<std::pair<std::int64_t, std::int64_t>> touched;
  for (const IoVec& r : runs) {
    const std::int64_t end = r.offset + r.len;
    for (std::int64_t b = r.offset / block_; b <= (end - 1) / block_; ++b) {
      if (!touched.empty() && touched.back().first == b)
        touched.back().second = end;
      else
        touched.emplace_back(b, end);
    }
  }
  for (const auto& [b, end] : touched) update_sum(b, end);
  // Checksums recorded first (torn-write detection), then the data. The
  // inner default loops one write() per run, preserving FaultyStorage's
  // per-range injection underneath.
  inner_->writev(runs, payload);
}

void IntegrityStorage::readv(std::span<const IoVec> runs,
                             std::span<std::byte> out) const {
  checked_total(runs, out.size());
  if (runs.empty()) return;
  MutexLock lock(mu_);
  for (const IoVec& r : runs)
    if (r.offset < 0 ||
        r.offset + r.len > static_cast<std::int64_t>(mirror_.size()))
      throw std::out_of_range("IntegrityStorage::readv: range beyond subfile");
  try {
    inner_->readv(runs, out);
  } catch (const std::out_of_range&) {
    throw StorageCorruptionError(
        "IntegrityStorage: stored data shorter than acknowledged writes "
        "(torn write)");
  }
  // Verify each touched block once (runs ascending => blocks ascending).
  Buffer scratch;
  std::int64_t prev = -1;
  for (const IoVec& r : runs) {
    const std::int64_t end = r.offset + r.len;
    for (std::int64_t b = std::max(prev + 1, r.offset / block_);
         b <= (end - 1) / block_; ++b)
      verify_block(b, scratch);
    prev = std::max(prev, (end - 1) / block_);
  }
}

std::int64_t IntegrityStorage::size() const {
  MutexLock lock(mu_);
  return static_cast<std::int64_t>(mirror_.size());
}

std::unique_ptr<SubfileStorage> make_storage(const std::filesystem::path& dir,
                                             int subfile_id, int replica,
                                             const StorageFaultPlan* faults,
                                             int node, bool preserve) {
  std::unique_ptr<SubfileStorage> storage;
  if (dir.empty()) {
    storage = std::make_unique<MemoryStorage>();
  } else {
    std::filesystem::create_directories(dir);
    std::string name = "subfile_" + std::to_string(subfile_id);
    if (node >= 0)
      name += ".n" + std::to_string(node);
    else if (replica > 0)
      name += ".r" + std::to_string(replica);
    storage = std::make_unique<FileStorage>(dir / name, preserve);
  }
  if (faults)
    storage = std::make_unique<FaultyStorage>(std::move(storage), *faults,
                                              subfile_id, replica);
  return storage;
}

}  // namespace pfm
