// Deterministic storage-level fault injection (DESIGN.md "Failure model").
// FaultyStorage decorates a SubfileStorage the way FaultInjector decorates
// the Network: a seeded RNG and a programmable first-match rule list decide,
// per operation, whether to tear a write (persist only a prefix yet report
// success), rot a bit on read (the flip is written back, so the corruption
// is persistent and scrub can both detect and repair it), fail with EIO, or
// go sticky-dead after a budget of operations. The integrity layer above
// (IntegrityStorage) turns these silent faults into StorageCorruptionError;
// replication above *that* turns the error into a failover.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "clusterfile/storage.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace pfm {

/// One programmable storage fault rule. Default-constructed fields match
/// every operation and inject nothing; the first rule matching an operation
/// applies (mirrors FaultRule in cluster/fault.h).
struct StorageFaultRule {
  enum class Op : std::uint8_t { kAny, kRead, kWrite };

  int subfile = -1;              ///< -1: any subfile
  int replica = -1;              ///< -1: any replica of a subfile
  Op op = Op::kAny;              ///< operation class the rule applies to
  double torn_write = 0.0;       ///< P(write persists a random strict prefix
                                 ///< but still reports success)
  double bit_rot = 0.0;          ///< P(read flips one stored bit in range)
  double eio = 0.0;              ///< P(operation fails with EIO)
  std::int64_t dead_after = -1;  ///< matched ops before the disk goes
                                 ///< sticky-dead (every later op EIOs);
                                 ///< -1: never
};

struct StorageFaultPlan {
  std::uint64_t seed = 1;
  std::vector<StorageFaultRule> rules;
};

/// Seeded, rule-driven fault decorator over any SubfileStorage. Each
/// instance derives its RNG stream from (plan seed, subfile, replica) so a
/// cluster-wide plan still gives every disk an independent, reproducible
/// fault sequence.
class FaultyStorage final : public SubfileStorage {
 public:
  FaultyStorage(std::unique_ptr<SubfileStorage> inner, StorageFaultPlan plan,
                int subfile_id = -1, int replica = 0);

  void write(std::int64_t offset, std::span<const std::byte> data) override;
  void read(std::int64_t offset, std::span<std::byte> out) const override;
  std::int64_t size() const override { return inner_->size(); }
  void flush() override { inner_->flush(); }
  std::string kind() const override { return "faulty(" + inner_->kind() + ")"; }

  std::int64_t epoch() const override { return inner_->epoch(); }
  void set_epoch(std::int64_t e) override { inner_->set_epoch(e); }

  /// Freezes the disk in its current state: no further faults are injected
  /// (a sticky-dead disk stays dead — death models hardware, not the
  /// injector). Lets scrub verification run against stable bytes.
  void disarm_faults() override;

  struct Counters {
    std::int64_t torn_writes = 0;   ///< writes that persisted only a prefix
    std::int64_t bits_rotted = 0;   ///< stored bits flipped on read
    std::int64_t eio_injected = 0;  ///< probabilistic EIO failures
    std::int64_t dead_rejected = 0; ///< ops refused by a sticky-dead disk
  };
  Counters counters() const;

  bool dead() const;
  SubfileStorage& inner() { return *inner_; }
  const SubfileStorage& inner() const { return *inner_; }

 private:
  const StorageFaultRule* match(StorageFaultRule::Op op) const;

  mutable Mutex mu_{"FaultyStorage::mu"};
  std::unique_ptr<SubfileStorage> inner_;
  StorageFaultPlan plan_;  ///< immutable after construction
  mutable Rng rng_ PFM_GUARDED_BY(mu_);
  int subfile_;
  int replica_;
  bool armed_ PFM_GUARDED_BY(mu_) = true;
  mutable bool dead_ PFM_GUARDED_BY(mu_) = false;
  /// Matched ops, for dead_after budgets.
  mutable std::int64_t ops_ PFM_GUARDED_BY(mu_) = 0;
  mutable Counters counters_ PFM_GUARDED_BY(mu_);
};

}  // namespace pfm
