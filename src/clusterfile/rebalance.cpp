#include "clusterfile/rebalance.h"

#include <algorithm>
#include <stdexcept>

#include "redist/gather_scatter.h"
#include "redist/plan.h"
#include "util/check.h"
#include "util/log.h"

namespace pfm {

namespace {

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// Live bytes per subfile of a file prefix, evaluated from the diagonal
/// INTERSECT/PROJ plan: old and new placements partition the file with the
/// *same* physical pattern, so build_plan(physical, physical) yields one
/// transfer per element with common = element ∩ element and identity
/// projections. Whole common periods contribute bytes_per_period; the
/// partial final period is counted through the gather index set.
std::vector<std::int64_t> live_bytes_by_subfile(
    const PartitioningPattern& physical, std::int64_t file_size) {
  std::vector<std::int64_t> out(physical.element_count(), 0);
  if (file_size <= physical.displacement()) return out;
  const RedistPlan plan = build_plan(physical, physical);
  for (const Transfer& t : plan.transfers) {
    PFM_DCHECK(t.src_elem == t.dst_elem,
               "diagonal plan has an off-diagonal transfer ", t.src_elem,
               " -> ", t.dst_elem);
    const std::int64_t span = file_size - plan.origin;
    const std::int64_t periods = span / plan.period;
    const std::int64_t tail = span % plan.period;
    std::int64_t bytes = periods * t.bytes_per_period;
    if (tail > 0) {
      // Members of the common set inside the partial period, in file space
      // relative to the origin.
      const IndexSet common_idx(t.common, plan.period);
      bytes += common_idx.count_in(0, tail - 1);
    }
    out[t.src_elem] = bytes;
    PFM_DCHECK(bytes == physical.element_bytes(t.src_elem, file_size),
               "INTERSECT/PROJ live bytes ", bytes, " != element_bytes ",
               physical.element_bytes(t.src_elem, file_size), " for subfile ",
               t.src_elem);
  }
  return out;
}

}  // namespace

RebalancePlan plan_rebalance(const std::vector<std::vector<int>>& current,
                             const std::vector<std::vector<int>>& target,
                             const PartitioningPattern& physical,
                             std::int64_t file_size) {
  if (current.size() != physical.element_count() ||
      target.size() != physical.element_count())
    throw std::invalid_argument(
        "plan_rebalance: placement tables must cover every subfile");
  if (file_size < 0)
    throw std::invalid_argument("plan_rebalance: negative file size");
  for (const auto& table : {&current, &target})
    for (const std::vector<int>& reps : *table) {
      if (reps.empty())
        throw std::invalid_argument("plan_rebalance: empty replica list");
      for (std::size_t a = 0; a < reps.size(); ++a)
        for (std::size_t b = a + 1; b < reps.size(); ++b)
          if (reps[a] == reps[b])
            throw std::invalid_argument(
                "plan_rebalance: duplicate replica node");
    }

  std::vector<std::int64_t> live;  // computed lazily: most calls move little
  RebalancePlan plan;
  for (std::size_t i = 0; i < current.size(); ++i) {
    const std::vector<int>& cur = current[i];
    const std::vector<int>& tgt = target[i];
    std::vector<int> added, removed;
    for (const int n : tgt)
      if (!contains(cur, n)) added.push_back(n);
    for (const int n : cur)
      if (!contains(tgt, n)) removed.push_back(n);
    // Same replica set (order aside): nothing to move, and no entry —
    // re-pinning primaries without a data reason would churn every client.
    if (added.empty() && removed.empty()) continue;
    if (added.empty()) {
      // A pure shrink (replication lowered) needs no copy, only a publish;
      // the caller handles that directly. Planning it here would imply a
      // transfer that does not exist.
      throw std::invalid_argument(
          "plan_rebalance: target drops replicas without replacement");
    }
    if (live.empty()) live = live_bytes_by_subfile(physical, file_size);
    // One entry per copy gained, chained so each entry's published
    // placement is one migration past the previous: entry j removes
    // removed[j] (when it exists) and adds added[j]; the final entry's
    // placement is exactly the target (ring order and all).
    std::vector<int> running = cur;
    for (std::size_t j = 0; j < added.size(); ++j) {
      CopyEntry e;
      e.subfile = static_cast<int>(i);
      e.target_node = added[j];
      if (j < removed.size()) {
        e.retired_node = removed[j];
        running.erase(std::remove(running.begin(), running.end(), removed[j]),
                      running.end());
      }
      running.push_back(added[j]);
      e.new_replicas = (j + 1 == added.size()) ? tgt : running;
      e.min_bytes = live[i];
      plan.min_bytes_total += e.min_bytes;
      plan.entries.push_back(std::move(e));
    }
  }
  return plan;
}

RebalanceCounters& RebalanceCounters::operator+=(const RebalanceCounters& o) {
  migrations_started += o.migrations_started;
  migrations_completed += o.migrations_completed;
  migrations_failed += o.migrations_failed;
  bytes_migrated += o.bytes_migrated;
  bytes_caught_up += o.bytes_caught_up;
  return *this;
}

bool RebalanceCounters::all_zero() const {
  return migrations_started == 0 && migrations_completed == 0 &&
         migrations_failed == 0 && bytes_migrated == 0 && bytes_caught_up == 0;
}

CopyQueue::CopyQueue(Execute execute, int max_concurrent)
    : execute_(std::move(execute)) {
  if (!execute_) throw std::invalid_argument("CopyQueue: null execute hook");
  if (max_concurrent < 1)
    throw std::invalid_argument("CopyQueue: need at least one worker");
  workers_.reserve(static_cast<std::size_t>(max_concurrent));
  for (int i = 0; i < max_concurrent; ++i)
    workers_.emplace_back([this] { worker(); });
}

CopyQueue::~CopyQueue() { stop(); }

void CopyQueue::enqueue(std::vector<CopyEntry> entries) {
  if (entries.empty()) return;
  {
    MutexLock lock(mu_);
    if (stopping_) {
      // Late plans during teardown: count, don't lose silently.
      counters_.migrations_failed += static_cast<std::int64_t>(entries.size());
      return;
    }
    for (CopyEntry& e : entries) queue_.push_back(std::move(e));
  }
  work_cv_.notify_all();
}

void CopyQueue::await_idle() {
  MutexLock lock(mu_);
  while (!queue_.empty() || executing_ > 0) idle_cv_.wait(lock);
}

std::size_t CopyQueue::pending() const {
  MutexLock lock(mu_);
  return queue_.size() + static_cast<std::size_t>(executing_);
}

RebalanceCounters CopyQueue::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

void CopyQueue::stop() {
  {
    MutexLock lock(mu_);
    if (!stopping_) {
      stopping_ = true;
      counters_.migrations_failed += static_cast<std::int64_t>(queue_.size());
      queue_.clear();
    }
  }
  work_cv_.notify_all();
  idle_cv_.notify_all();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
}

void CopyQueue::worker() {
  while (true) {
    CopyEntry entry;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !stopping_) work_cv_.wait(lock);
      if (stopping_ && queue_.empty()) return;
      entry = std::move(queue_.front());
      queue_.pop_front();
      ++executing_;
      ++counters_.migrations_started;
    }
    CopyStats stats;
    bool ok = false;
    try {
      ok = execute_(entry, &stats);
    } catch (const std::exception& e) {
      PFM_WARN("copy: subfile ", entry.subfile, " -> node ",
               entry.target_node, " threw: ", e.what());
    }
    {
      MutexLock lock(mu_);
      --executing_;
      if (ok) {
        ++counters_.migrations_completed;
        counters_.bytes_migrated += stats.bulk_bytes;
        counters_.bytes_caught_up += stats.catchup_bytes;
      } else {
        ++counters_.migrations_failed;
      }
    }
    idle_cv_.notify_all();
  }
}

}  // namespace pfm
