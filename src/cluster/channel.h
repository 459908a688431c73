// Bounded MPSC channel: the in-memory interconnect of the simulated cluster.
// One channel is one node's inbox; senders block when the channel is full
// (back-pressure stands in for finite network buffers).
//
// Locking: every member is guarded by mu_ (pfm::Mutex, so the guards are
// compiler-enforced under -Wthread-safety and ordered by lockdep). The
// blocking entry points assert via lockdep that the calling thread holds no
// pfm::Mutex — a thread that blocks on a full/empty channel while holding a
// lock stalls every thread needing that lock for an unbounded time, and
// deadlocks outright when the lock-holder is what drains the channel.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>

#include "cluster/message.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pfm {

class Channel {
 public:
  explicit Channel(std::size_t capacity = 1024);

  /// Closes the channel and waits for every thread blocked in send/receive
  /// to leave before the mutex and queue are destroyed. Without this drain a
  /// sender blocked on a full channel races the owner's teardown: close()
  /// wakes it, but it still touches the condition variable and mutex on its
  /// way out (the destructor-vs-in-flight-send race TSan flags).
  ~Channel();

  /// Blocks while the channel is full. Returns false if the channel was
  /// closed (message dropped). Must be called with no pfm::Mutex held.
  bool send(Message msg) PFM_EXCLUDES(mu_);

  /// Blocks until a message arrives or the channel is closed and drained;
  /// nullopt on closed-and-empty. Must be called with no pfm::Mutex held.
  std::optional<Message> receive() PFM_EXCLUDES(mu_);

  /// receive() with a deadline: nullopt when `timeout` elapses with the
  /// channel still empty, or when it is closed and drained (callers that
  /// need to distinguish the two check closed()). The reliable Clusterfile
  /// request layer blocks here instead of in receive(), so a lost reply
  /// surfaces as a timeout to retry rather than a hang.
  std::optional<Message> receive_for(std::chrono::nanoseconds timeout)
      PFM_EXCLUDES(mu_);

  /// Non-blocking receive; nullopt when empty (even if open).
  std::optional<Message> try_receive() PFM_EXCLUDES(mu_);

  /// Unblocks all senders and receivers; subsequent sends are dropped.
  void close() PFM_EXCLUDES(mu_);

  bool closed() const PFM_EXCLUDES(mu_);
  std::size_t pending() const PFM_EXCLUDES(mu_);
  /// Threads currently blocked inside send/receive (tests use it to know a
  /// peer is parked before they tear the channel down).
  std::size_t waiters() const PFM_EXCLUDES(mu_);

 private:
  mutable Mutex mu_{"Channel::mu"};
  CondVar not_full_;
  CondVar not_empty_;
  CondVar no_waiters_;  ///< signals waiters_ reaching 0
  std::deque<Message> queue_ PFM_GUARDED_BY(mu_);
  std::size_t capacity_;
  std::size_t waiters_ PFM_GUARDED_BY(mu_) = 0;  ///< blocked in send/receive
  bool closed_ PFM_GUARDED_BY(mu_) = false;

  /// RAII waiter count, held across a condition wait.
  class WaiterScope;
};

}  // namespace pfm
