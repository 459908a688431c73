// Small fixed-size thread pool for the embarrassingly parallel loops of the
// Clusterfile client and the redistribution engine: the per-subfile
// intersect+project loop of set_view, the per-transfer gather/scatter loop
// of execute_redist, and the per-aggregator phase of two-phase collective
// I/O. Each of those iterates over independent work items; the pool turns
// them into parallel_for calls without per-call thread spawning.
//
// Design constraints, in order:
//   1. The calling thread always participates in parallel_for, claiming
//      indices from the same atomic counter as the workers. Completion
//      therefore never depends on a worker being scheduled: a pool of size
//      0, a saturated pool, or a nested parallel_for issued from inside a
//      worker all still terminate (the caller simply drains the loop
//      itself).
//   2. parallel_for is safe to call concurrently from many threads (the
//      Table 1 benches run four clients in four threads over one shared
//      pool); each call carries its own completion state.
//   3. The first exception thrown by the body is captured and rethrown in
//      the caller after the loop quiesces; remaining indices are skipped.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pfm {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 is valid: every parallel_for then runs
  /// entirely on the calling thread).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs fn(0) .. fn(n-1), each exactly once, distributing indices over
  /// the workers and the calling thread; blocks until all have finished.
  /// Rethrows the first exception fn threw (further indices are skipped
  /// once an exception is recorded). Blocks, so the caller must hold no
  /// pfm::Mutex (lockdep-enforced).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn)
      PFM_EXCLUDES(mu_);

  /// The process-wide pool shared by set_view, execute_redist and the
  /// collective layer. Size: hardware_concurrency clamped to [2, 8].
  static ThreadPool& shared();

 private:
  void submit(std::function<void()> task) PFM_EXCLUDES(mu_);
  void worker_loop() PFM_EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_ PFM_GUARDED_BY(mu_);
  Mutex mu_{"ThreadPool::mu"};
  CondVar cv_;
  bool stop_ PFM_GUARDED_BY(mu_) = false;
};

}  // namespace pfm
