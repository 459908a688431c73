#include "cluster/failure_detector.h"

#include <chrono>
#include <string>

#include "util/log.h"

namespace pfm {

namespace {

/// A round's pong wait cannot outlast the round itself.
FailureDetector::Options clamp_timeout(FailureDetector::Options o) {
  if (o.timeout_ms > o.interval_ms) o.timeout_ms = o.interval_ms;
  return o;
}

}  // namespace

const char* to_string(NodeHealth h) {
  switch (h) {
    case NodeHealth::kAlive: return "ALIVE";
    case NodeHealth::kSuspect: return "SUSPECT";
    case NodeHealth::kDead: return "DEAD";
  }
  return "?";
}

FailureDetector::FailureDetector(Network& net, int self,
                                 std::vector<int> monitored, Options opts,
                                 Callback on_dead, Callback on_alive)
    : net_(net),
      self_(self),
      opts_(clamp_timeout(opts)),
      on_dead_(std::move(on_dead)),
      on_alive_(std::move(on_alive)) {
  {
    MutexLock lock(mu_);
    peers_.reserve(monitored.size());
    for (int node : monitored) {
      Peer p;
      p.node = node;
      peers_.push_back(p);
    }
  }
  {
    MutexLock lock(stop_mu_);
    thread_ = std::thread([this] { run(); });
  }
}

FailureDetector::~FailureDetector() { stop(); }

void FailureDetector::stop() {
  // Mirrors NodeLoop::stop(): the kShutdown is sent before stop_mu_ is
  // taken (a blocking send under a mutex the loop thread could need is a
  // deadlock), and the flag keeps it single-shot.
  if (!stop_sent_.exchange(true, std::memory_order_acq_rel)) {
    Message bye;
    bye.kind = MsgKind::kShutdown;
    bye.dst_node = self_;
    net_.send(self_, std::move(bye));
  }
  MutexLock lock(stop_mu_);
  if (thread_.joinable()) thread_.join();
}

NodeHealth FailureDetector::health(int node) const {
  MutexLock lock(mu_);
  for (const Peer& p : peers_)
    if (p.node == node) return p.health;
  return NodeHealth::kAlive;  // unmonitored nodes are presumed healthy
}

std::vector<int> FailureDetector::dead_nodes() const {
  MutexLock lock(mu_);
  std::vector<int> out;
  for (const Peer& p : peers_)
    if (p.health == NodeHealth::kDead) out.push_back(p.node);
  return out;
}

FailureDetector::Counters FailureDetector::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

void FailureDetector::mark_dead(int node) {
  bool fire = false;
  {
    MutexLock lock(mu_);
    for (Peer& p : peers_) {
      if (p.node != node) continue;
      fire = p.health != NodeHealth::kDead;
      p.health = NodeHealth::kDead;
      p.pinned_dead = true;
      p.misses = opts_.suspect_n;
      break;
    }
  }
  if (fire && on_dead_) on_dead_(node);
}

void FailureDetector::mark_alive(int node) {
  bool fire = false;
  {
    MutexLock lock(mu_);
    for (Peer& p : peers_) {
      if (p.node != node) continue;
      fire = p.health == NodeHealth::kDead;
      p.health = NodeHealth::kAlive;
      p.pinned_dead = false;
      p.misses = 0;
      break;
    }
  }
  if (fire && on_alive_) on_alive_(node);
}

void FailureDetector::add_monitored(int node) {
  MutexLock lock(mu_);
  for (const Peer& p : peers_)
    if (p.node == node) return;
  Peer p;
  p.node = node;
  peers_.push_back(p);
}

void FailureDetector::remove_monitored(int node) {
  MutexLock lock(mu_);
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (peers_[i].node != node) continue;
    peers_.erase(peers_.begin() + static_cast<std::ptrdiff_t>(i));
    return;
  }
}

bool FailureDetector::pump_until(std::chrono::steady_clock::time_point deadline) {
  Channel& inbox = net_.inbox(self_);
  while (true) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      // One last non-blocking sweep so pongs already queued are not pushed
      // into the next round by an unlucky wakeup.
      while (auto msg = inbox.try_receive()) {
        if (msg->kind == MsgKind::kShutdown) return false;
        if (msg->kind != MsgKind::kPong) continue;
        MutexLock lock(mu_);
        ++counters_.pongs_received;
        for (Peer& p : peers_)
          if (p.node == msg->src_node && msg->v >= 0 &&
              static_cast<std::uint64_t>(msg->v) > p.last_pong_seq)
            p.last_pong_seq = static_cast<std::uint64_t>(msg->v);
      }
      return true;
    }
    auto msg = inbox.receive_for(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now));
    if (!msg.has_value()) {
      if (inbox.closed()) return false;
      continue;  // timeout: re-check the deadline
    }
    if (msg->kind == MsgKind::kShutdown) return false;
    if (msg->kind != MsgKind::kPong) continue;  // stray traffic is ignored
    MutexLock lock(mu_);
    ++counters_.pongs_received;
    for (Peer& p : peers_)
      if (p.node == msg->src_node && msg->v >= 0 &&
          static_cast<std::uint64_t>(msg->v) > p.last_pong_seq)
        p.last_pong_seq = static_cast<std::uint64_t>(msg->v);
  }
}

void FailureDetector::evaluate_round(std::uint64_t seq,
                                     std::vector<int>& newly_dead,
                                     std::vector<int>& newly_alive) {
  MutexLock lock(mu_);
  for (Peer& p : peers_) {
    if (p.pinned_dead) continue;
    if (p.last_pong_seq >= seq) {
      if (p.health == NodeHealth::kDead) newly_alive.push_back(p.node);
      p.health = NodeHealth::kAlive;
      p.misses = 0;
      continue;
    }
    ++p.misses;
    if (p.misses >= opts_.suspect_n) {
      if (p.health != NodeHealth::kDead) {
        ++counters_.dead_declarations;
        newly_dead.push_back(p.node);
      }
      p.health = NodeHealth::kDead;
    } else if (p.health == NodeHealth::kAlive) {
      p.health = NodeHealth::kSuspect;
      ++counters_.suspect_events;
    }
  }
}

void FailureDetector::run() {
  std::uint64_t seq = 0;
  while (true) {
    ++seq;
    const auto round_start = std::chrono::steady_clock::now();
    std::vector<int> targets;
    {
      MutexLock lock(mu_);
      for (const Peer& p : peers_)
        if (!p.pinned_dead) targets.push_back(p.node);
      counters_.pings_sent += static_cast<std::int64_t>(targets.size());
    }
    for (int node : targets) {
      Message ping;
      ping.kind = MsgKind::kPing;
      ping.dst_node = node;
      ping.v = static_cast<std::int64_t>(seq);
      if (net_.checksums_enabled()) stamp_checksum(ping);
      net_.send(self_, std::move(ping));
    }
    // Phase 1: the pong window. Phase 2: idle until the next probe, still
    // draining the inbox (late pongs land in last_pong_seq and count for
    // the next evaluation, which keeps a slow-but-alive node suspect
    // rather than dead).
    if (!pump_until(round_start + std::chrono::milliseconds(opts_.timeout_ms)))
      return;
    std::vector<int> newly_dead, newly_alive;
    evaluate_round(seq, newly_dead, newly_alive);
    for (int node : newly_dead) {
      PFM_DEBUG("detector: node ", node, " declared dead at round ", seq);
      if (on_dead_) on_dead_(node);
    }
    for (int node : newly_alive) {
      PFM_DEBUG("detector: node ", node, " revived at round ", seq);
      if (on_alive_) on_alive_(node);
    }
    if (!pump_until(round_start + std::chrono::milliseconds(opts_.interval_ms)))
      return;
    // Late-credit pass: a pong for this round that arrived after the
    // timeout window still proves the node alive — undo the miss so a
    // slow-but-responsive node oscillates at suspect instead of drifting
    // to dead.
    newly_alive.clear();
    {
      MutexLock lock(mu_);
      for (Peer& p : peers_) {
        if (p.pinned_dead || p.last_pong_seq < seq) continue;
        if (p.health == NodeHealth::kDead) newly_alive.push_back(p.node);
        p.health = NodeHealth::kAlive;
        p.misses = 0;
      }
    }
    for (int node : newly_alive) {
      PFM_DEBUG("detector: node ", node, " late pong at round ", seq);
      if (on_alive_) on_alive_(node);
    }
  }
}

}  // namespace pfm
