#include "clusterfile/storage_fault.h"

#include <cerrno>
#include <system_error>

namespace pfm {

namespace {

[[noreturn]] void throw_eio(const char* what) {
  throw std::system_error(EIO, std::generic_category(), what);
}

/// splitmix64-style stream derivation so every (subfile, replica) disk gets
/// an independent sequence from one plan seed.
std::uint64_t derive_seed(std::uint64_t base, int subfile, int replica) {
  std::uint64_t z = base + 0x9E3779B97F4A7C15ull *
                               (static_cast<std::uint64_t>(subfile + 2) * 31u +
                                static_cast<std::uint64_t>(replica + 1));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

FaultyStorage::FaultyStorage(std::unique_ptr<SubfileStorage> inner,
                             StorageFaultPlan plan, int subfile_id, int replica)
    : inner_(std::move(inner)),
      plan_(std::move(plan)),
      rng_(derive_seed(plan_.seed, subfile_id, replica)),
      subfile_(subfile_id),
      replica_(replica) {}

const StorageFaultRule* FaultyStorage::match(StorageFaultRule::Op op) const {
  for (const StorageFaultRule& r : plan_.rules) {
    if (r.subfile >= 0 && r.subfile != subfile_) continue;
    if (r.replica >= 0 && r.replica != replica_) continue;
    if (r.op != StorageFaultRule::Op::kAny && r.op != op) continue;
    return &r;
  }
  return nullptr;
}

void FaultyStorage::write(std::int64_t offset,
                          std::span<const std::byte> data) {
  MutexLock lock(mu_);
  if (dead_) {
    ++counters_.dead_rejected;
    throw_eio("FaultyStorage: disk is dead");
  }
  const StorageFaultRule* r = armed_ ? match(StorageFaultRule::Op::kWrite)
                                     : nullptr;
  if (r) {
    if (r->dead_after >= 0 && ops_ >= r->dead_after) {
      dead_ = true;
      ++counters_.dead_rejected;
      throw_eio("FaultyStorage: disk died");
    }
    ++ops_;
    if (rng_.chance(r->eio)) {
      ++counters_.eio_injected;
      throw_eio("FaultyStorage: injected EIO on write");
    }
    if (!data.empty() && rng_.chance(r->torn_write)) {
      // Persist a strict prefix but report success — the lie a real disk
      // tells when power fails mid-write.
      const std::int64_t keep =
          rng_.uniform(0, static_cast<std::int64_t>(data.size()) - 1);
      if (keep > 0)
        inner_->write(offset, data.subspan(0, static_cast<std::size_t>(keep)));
      ++counters_.torn_writes;
      return;
    }
  }
  inner_->write(offset, data);
}

void FaultyStorage::read(std::int64_t offset, std::span<std::byte> out) const {
  MutexLock lock(mu_);
  if (dead_) {
    ++counters_.dead_rejected;
    throw_eio("FaultyStorage: disk is dead");
  }
  const StorageFaultRule* r = armed_ ? match(StorageFaultRule::Op::kRead)
                                     : nullptr;
  if (r) {
    if (r->dead_after >= 0 && ops_ >= r->dead_after) {
      dead_ = true;
      ++counters_.dead_rejected;
      throw_eio("FaultyStorage: disk died");
    }
    ++ops_;
    if (rng_.chance(r->eio)) {
      ++counters_.eio_injected;
      throw_eio("FaultyStorage: injected EIO on read");
    }
  }
  inner_->read(offset, out);
  if (r && !out.empty() && rng_.chance(r->bit_rot)) {
    // Flip one stored bit inside the range and write it back: rot is
    // persistent, so re-reads see the same damage and scrub can repair it.
    const std::int64_t idx =
        rng_.uniform(0, static_cast<std::int64_t>(out.size()) - 1);
    const int bit = static_cast<int>(rng_.uniform(0, 7));
    out[static_cast<std::size_t>(idx)] ^= static_cast<std::byte>(1u << bit);
    inner_->write(offset + idx, out.subspan(static_cast<std::size_t>(idx), 1));
    ++counters_.bits_rotted;
  }
}

void FaultyStorage::disarm_faults() {
  MutexLock lock(mu_);
  armed_ = false;
  inner_->disarm_faults();
}

FaultyStorage::Counters FaultyStorage::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

bool FaultyStorage::dead() const {
  MutexLock lock(mu_);
  return dead_;
}

}  // namespace pfm
