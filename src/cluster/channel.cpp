#include "cluster/channel.h"

#include "util/lockdep.h"

namespace pfm {

/// Counts the enclosing thread as a waiter while it blocks on a condition
/// variable, and wakes the destructor's drain wait when the last waiter
/// leaves a closed channel. Constructed and destroyed under mu_.
class Channel::WaiterScope {
 public:
  explicit WaiterScope(Channel& ch) PFM_REQUIRES(ch.mu_) : ch_(ch) {
    ++ch_.waiters_;
  }
  ~WaiterScope() PFM_REQUIRES(ch_.mu_) {
    if (--ch_.waiters_ == 0 && ch_.closed_) ch_.no_waiters_.notify_all();
  }
  WaiterScope(const WaiterScope&) = delete;
  WaiterScope& operator=(const WaiterScope&) = delete;

 private:
  Channel& ch_;
};

Channel::Channel(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

Channel::~Channel() {
  MutexLock lock(mu_);
  closed_ = true;
  not_full_.notify_all();
  not_empty_.notify_all();
  // Senders and receivers woken by the close still re-lock mu_ and read
  // state inside their wait loop; destroying the synchronization objects
  // under them would be a use-after-free. Wait until they have all left.
  while (waiters_ != 0) no_waiters_.wait(lock);
}

bool Channel::send(Message msg) {
  PFM_LOCKDEP_ASSERT_UNLOCKED("Channel::send");
  MutexLock lock(mu_);
  {
    WaiterScope scope(*this);
    while (!closed_ && queue_.size() >= capacity_) not_full_.wait(lock);
  }
  if (closed_) return false;
  queue_.push_back(std::move(msg));
  not_empty_.notify_one();
  return true;
}

std::optional<Message> Channel::receive() {
  PFM_LOCKDEP_ASSERT_UNLOCKED("Channel::receive");
  MutexLock lock(mu_);
  {
    WaiterScope scope(*this);
    while (!closed_ && queue_.empty()) not_empty_.wait(lock);
  }
  if (queue_.empty()) return std::nullopt;  // closed and drained
  Message msg = std::move(queue_.front());
  queue_.pop_front();
  not_full_.notify_one();
  return msg;
}

std::optional<Message> Channel::receive_for(std::chrono::nanoseconds timeout) {
  PFM_LOCKDEP_ASSERT_UNLOCKED("Channel::receive_for");
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(mu_);
  {
    WaiterScope scope(*this);
    while (!closed_ && queue_.empty()) {
      if (not_empty_.wait_until(lock, deadline) == std::cv_status::timeout)
        break;
    }
  }
  if (queue_.empty()) return std::nullopt;  // timed out, or closed and drained
  Message msg = std::move(queue_.front());
  queue_.pop_front();
  not_full_.notify_one();
  return msg;
}

std::optional<Message> Channel::try_receive() {
  MutexLock lock(mu_);
  if (queue_.empty()) return std::nullopt;
  Message msg = std::move(queue_.front());
  queue_.pop_front();
  not_full_.notify_one();
  return msg;
}

void Channel::close() {
  MutexLock lock(mu_);
  closed_ = true;
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool Channel::closed() const {
  MutexLock lock(mu_);
  return closed_;
}

std::size_t Channel::pending() const {
  MutexLock lock(mu_);
  return queue_.size();
}

std::size_t Channel::waiters() const {
  MutexLock lock(mu_);
  return waiters_;
}

}  // namespace pfm
