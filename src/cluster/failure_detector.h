// Heartbeat failure detector (DESIGN.md "Self-healing"). One detector
// thread owns a dedicated Network endpoint and probes a set of monitored
// nodes with kPing at a fixed interval; nodes answer kPong from their
// normal receive loop. Missed pongs accumulate per-node suspicion:
//
//     alive --miss--> suspect --SUSPECT_N misses--> dead
//       ^                |                            |
//       +----- pong -----+---------- pong ------------+
//
// A single pong resets the counter and revives the node, so a flapping
// link produces suspect churn but never a false dead declaration as long
// as any probe in a window of SUSPECT_N gets through. Declarations fire
// the on_dead/on_alive callbacks (repair hooks) from the detector thread,
// outside any detector lock.
//
// mark_dead/mark_alive are explicit overrides for tests and operators: a
// manually-dead node is not probed and never auto-revived until
// mark_alive clears the override.
//
// The detector blocks only through Channel::receive_for with a deadline
// (pfm_lint bare-receive rule): a wedged or dead wire can never wedge the
// detector itself.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "cluster/network.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pfm {

enum class NodeHealth : std::uint8_t {
  kAlive,    ///< pong seen within the suspicion window
  kSuspect,  ///< >= 1 consecutive probe missed, not yet declared dead
  kDead,     ///< >= suspect_n consecutive probes missed, or mark_dead()
};

const char* to_string(NodeHealth h);

class FailureDetector {
 public:
  struct Options {
    int interval_ms = 20;  ///< probe period
    int timeout_ms = 10;   ///< pong wait per round before counting a miss
    int suspect_n = 3;     ///< consecutive misses before declaring dead
  };

  /// Called on declaration edges, from the detector thread (auto) or the
  /// overriding thread (mark_dead/mark_alive), never under a detector lock.
  using Callback = std::function<void(int node)>;

  /// Probes `monitored` endpoints from the dedicated endpoint `self`.
  /// The thread starts immediately; stop() (or destruction) ends it.
  /// `opts.timeout_ms` is clamped to `opts.interval_ms`.
  FailureDetector(Network& net, int self, std::vector<int> monitored,
                  Options opts, Callback on_dead = {}, Callback on_alive = {});
  ~FailureDetector();

  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  NodeHealth health(int node) const PFM_EXCLUDES(mu_);
  bool is_dead(int node) const { return health(node) == NodeHealth::kDead; }
  std::vector<int> dead_nodes() const PFM_EXCLUDES(mu_);

  /// Manual overrides. mark_dead declares the node dead (firing on_dead if
  /// it was not dead already) and pins it: no probes, no auto-revival.
  /// mark_alive clears any override and suspicion (firing on_alive if the
  /// node was dead) and resumes probing.
  void mark_dead(int node) PFM_EXCLUDES(mu_);
  void mark_alive(int node) PFM_EXCLUDES(mu_);

  /// Elastic membership: starts/stops monitoring a node at runtime. A node
  /// added twice is a no-op; an added node starts alive and is probed from
  /// the next round. Removing drops the node's state entirely without
  /// firing any callback — the caller decided its fate (decommission), so
  /// a dead declaration would be noise.
  void add_monitored(int node) PFM_EXCLUDES(mu_);
  void remove_monitored(int node) PFM_EXCLUDES(mu_);

  struct Counters {
    std::int64_t pings_sent = 0;
    std::int64_t pongs_received = 0;
    std::int64_t suspect_events = 0;     ///< alive -> suspect transitions
    std::int64_t dead_declarations = 0;  ///< auto (probe-driven) only
  };
  Counters counters() const PFM_EXCLUDES(mu_);

  const Options& options() const { return opts_; }

  /// Ends the probe loop and joins the thread; idempotent.
  void stop();

 private:
  struct Peer {
    int node = 0;
    NodeHealth health = NodeHealth::kAlive;
    int misses = 0;        ///< consecutive rounds with no pong
    bool pinned_dead = false;  ///< mark_dead override: skip probing
    std::uint64_t last_pong_seq = 0;
  };

  void run();
  /// Evaluates one probe round after its pong window closed; returns the
  /// nodes newly declared dead / revived so callbacks run outside mu_.
  void evaluate_round(std::uint64_t seq, std::vector<int>& newly_dead,
                      std::vector<int>& newly_alive) PFM_EXCLUDES(mu_);
  /// Drains the inbox until `deadline`, recording pongs. Returns false when
  /// shutdown was requested (kShutdown or closed inbox).
  bool pump_until(std::chrono::steady_clock::time_point deadline)
      PFM_EXCLUDES(mu_);

  Network& net_;
  const int self_;
  const Options opts_;
  Callback on_dead_;
  Callback on_alive_;

  mutable Mutex mu_{"FailureDetector::mu"};
  std::vector<Peer> peers_ PFM_GUARDED_BY(mu_);
  Counters counters_ PFM_GUARDED_BY(mu_);

  std::atomic<bool> stop_sent_{false};
  Mutex stop_mu_{"FailureDetector::stop_mu"};
  std::thread thread_ PFM_GUARDED_BY(stop_mu_);
};

}  // namespace pfm
