#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <string>

#include "util/lockdep.h"

namespace pfm {

ThreadPool::ThreadPool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  // Tasks left in the queue are parallel_for stragglers whose loop the
  // respective caller already drained (the shared counter is exhausted);
  // dropping them is harmless.
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lk(mu_);
    if (stop_) return;  // shutting down: the caller-participation rule
                        // guarantees the loop completes without us
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lk(mu_);
      while (!stop_ && queue_.empty()) cv_.wait(lk);
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  // Even the inline paths run under the no-locks rule: whether the loop
  // body executes on workers or on the caller must not depend on what the
  // caller may hold (and fn itself may take locks or block on channels).
  PFM_LOCKDEP_ASSERT_UNLOCKED("ThreadPool::parallel_for");
  if (n == 0) return;
  if (n == 1 || workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Per-call state, shared between the caller and the helper tasks. The
  // caller blocks until done == n, so `fn` outlives every use; the
  // shared_ptr only keeps the counters alive for stragglers that wake
  // after the counter is exhausted.
  struct ForCtx {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> cancelled{false};
    std::size_t n = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    Mutex mu{"ThreadPool::ForCtx::mu"};
    CondVar cv;
    std::exception_ptr err PFM_GUARDED_BY(mu);
  };
  auto ctx = std::make_shared<ForCtx>();
  ctx->n = n;
  ctx->fn = &fn;

  auto run = [ctx] {
    for (;;) {
      const std::size_t i = ctx->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= ctx->n) break;
      if (!ctx->cancelled.load(std::memory_order_relaxed)) {
        try {
          (*ctx->fn)(i);
        } catch (...) {
          MutexLock lk(ctx->mu);
          if (!ctx->err) ctx->err = std::current_exception();
          ctx->cancelled.store(true, std::memory_order_relaxed);
        }
      }
      // acq_rel chain: the body's writes happen-before the caller's
      // acquire load of `done` observing the final count.
      if (ctx->done.fetch_add(1, std::memory_order_acq_rel) + 1 == ctx->n) {
        MutexLock lk(ctx->mu);
        ctx->cv.notify_all();
      }
    }
  };

  const std::size_t helpers = std::min(workers_.size(), n - 1);
  for (std::size_t h = 0; h < helpers; ++h) submit(run);
  run();  // the caller claims indices too — see header contract (1)

  MutexLock lk(ctx->mu);
  while (ctx->done.load(std::memory_order_acquire) != ctx->n) ctx->cv.wait(lk);
  if (ctx->err) std::rethrow_exception(ctx->err);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(static_cast<std::size_t>(
      std::clamp(std::thread::hardware_concurrency(), 2u, 8u)));
  return pool;
}

}  // namespace pfm
