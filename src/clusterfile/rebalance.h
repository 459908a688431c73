// Subfile copy planning and the copy work queue (DESIGN.md "Elastic
// membership & rebalancing" and "Copy-and-publish").
//
// Every background data move between two placements of the file — a
// rebalance migration or a self-heal repair — is one CopyEntry: copy one
// subfile onto a target node, then publish the placement that includes it.
// A membership change (add_io_node / decommission_node) produces a *target*
// placement from the ring; plan_rebalance diffs it against the current
// placement and emits one entry per subfile copy that must move. The
// minimal bytes of each move come from the paper's redistribution algebra:
// old and new placements are two partitions of the same file, so the data a
// migrating subfile must carry is INTERSECT of the subfile's FALLS with
// itself — the diagonal transfer of build_plan(physical, physical) — and
// PROJ of that intersection is the identity map over the subfile's linear
// space. plan_rebalance evaluates those diagonal transfers over the live
// file prefix, which is both the per-entry minimum the bench hard-gates
// against (bytes moved <= 1.05x) and a checked cross-validation of
// PartitioningPattern::element_bytes. plan_repairs (repair.h) emits the same
// entries for a dead node's subfiles.
//
// CopyQueue runs entries on a bounded worker pool with injected execution
// (Clusterfile owns the copy / publish / catch-up protocol) and counters. A
// failed entry is terminal here — resumption is a *re-plan* against current
// placement (Clusterfile::await_rebalance / await_repairs), so a crash of
// source, destination or coordinator mid-copy converges by planning only
// what is still missing.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "file_model/pattern.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pfm {

/// One subfile copy that must land on a new node.
struct CopyEntry {
  int subfile = 0;
  int target_node = -1;   ///< node gaining the copy
  int retired_node = -1;  ///< node whose copy it replaces (-1: pure add;
                          ///< for a repair, the dead node)
  std::vector<int> new_replicas;  ///< placement after this copy, primary
                                  ///< first (published atomically via the
                                  ///< PlacementDirectory epoch bump)
  std::int64_t min_bytes = 0;  ///< INTERSECT/PROJ minimal live bytes (0 for
                               ///< repairs, which plan without a size)
};

struct RebalancePlan {
  std::vector<CopyEntry> entries;
  /// Sum of the entries' minimal bytes: the theoretical floor the soak
  /// bench compares actual bulk-copy bytes against.
  std::int64_t min_bytes_total = 0;
};

/// Diffs `current` against `target` (both full replica tables, primary
/// first) and plans the minimal set of copies. Subfiles whose replica *set*
/// is unchanged produce no entry even when the order differs — reordering
/// primaries would churn clients for zero data-safety gain. `file_size`
/// bounds the live prefix the minimal-byte evaluation covers (0 = empty
/// file: entries still planned, minima all zero). Throws
/// std::invalid_argument on malformed tables.
RebalancePlan plan_rebalance(const std::vector<std::vector<int>>& current,
                             const std::vector<std::vector<int>>& target,
                             const PartitioningPattern& physical,
                             std::int64_t file_size);

/// CopyQueue counters. Clusterfile reports the migration queue's as is and
/// maps the repair queue's onto ReliabilityCounters, so the fault-free
/// counter-clean contract of the existing soaks is untouched.
struct RebalanceCounters {
  std::int64_t migrations_started = 0;
  std::int64_t migrations_completed = 0;
  std::int64_t migrations_failed = 0;
  /// Applied payload bytes of the bulk copies (the number gated against
  /// the plan minimum).
  std::int64_t bytes_migrated = 0;
  /// Applied bytes of post-publish catch-up syncs: foreground writes that
  /// landed on the survivors while the bulk copy ran. Accounted apart from
  /// the bulk bytes — they are traffic-dependent, not placement-dependent.
  std::int64_t bytes_caught_up = 0;

  RebalanceCounters& operator+=(const RebalanceCounters& o);
  bool all_zero() const;
};

/// Bytes one executed entry applied.
struct CopyStats {
  std::int64_t bulk_bytes = 0;
  std::int64_t catchup_bytes = 0;
};

/// Executes copy entries on a bounded worker pool. The queue owns no
/// cluster state: execution is injected, so it can be unit tested. Workers
/// never touch each other's entries; a failed execution is terminal for
/// that entry (counted, not re-queued — the caller's loop re-plans).
class CopyQueue {
 public:
  /// Copies one subfile and publishes the placement; returns success and
  /// fills the bytes it applied. Runs on a worker thread, outside the
  /// queue's lock, bounded by `max_concurrent` workers.
  using Execute = std::function<bool(const CopyEntry&, CopyStats*)>;

  CopyQueue(Execute execute, int max_concurrent);
  ~CopyQueue();

  CopyQueue(const CopyQueue&) = delete;
  CopyQueue& operator=(const CopyQueue&) = delete;

  /// Enqueues work; callable from any thread (the detector callback
  /// included). After stop() the entries are counted as failed.
  void enqueue(std::vector<CopyEntry> entries) PFM_EXCLUDES(mu_);

  /// Blocks until the queue is empty and every worker is idle. Bounded:
  /// each entry's execution is bounded by its delivery budget.
  void await_idle() PFM_EXCLUDES(mu_);

  /// Entries queued or executing right now.
  std::size_t pending() const PFM_EXCLUDES(mu_);

  RebalanceCounters counters() const PFM_EXCLUDES(mu_);

  /// Stops the workers after the current entries finish; idempotent.
  /// Queued-but-unstarted entries are abandoned (counted as failed).
  void stop() PFM_EXCLUDES(mu_);

 private:
  void worker();

  Execute execute_;
  mutable Mutex mu_{"CopyQueue::mu"};
  CondVar work_cv_;  ///< signaled on enqueue and stop
  CondVar idle_cv_;  ///< signaled when a worker finishes an entry
  std::deque<CopyEntry> queue_ PFM_GUARDED_BY(mu_);
  int executing_ PFM_GUARDED_BY(mu_) = 0;
  bool stopping_ PFM_GUARDED_BY(mu_) = false;
  RebalanceCounters counters_ PFM_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;  ///< immutable after construction
};

}  // namespace pfm
