// Direct tests of the background copy machinery — the two planners that
// emit CopyEntry work (plan_repairs, plan_rebalance) and the CopyQueue
// worker pool that runs it — plus the log level of the recoverable protocol
// errors a node restart provokes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "clusterfile/fs.h"
#include "clusterfile/rebalance.h"
#include "clusterfile/repair.h"
#include "layout/partitions2d.h"
#include "util/buffer.h"
#include "util/log.h"

namespace pfm {
namespace {

// I/O nodes are 4..7 throughout: four compute nodes precede them.
constexpr int kCompute = 4;
constexpr int kIo = 4;

bool none_dead(int) { return false; }

// ---------------------------------------------------------------------------
// plan_repairs
// ---------------------------------------------------------------------------

TEST(PlanRepairs, PicksTheLeastLoadedNonHolder) {
  // Loads: node 4 -> 2, 5 -> 3, 6 -> 3, 7 -> 0.
  const std::vector<std::vector<int>> placement = {
      {4, 5}, {5, 6}, {6, 5}, {6, 4}};
  const std::vector<CopyEntry> plan =
      plan_repairs(placement, /*dead_node=*/4, kCompute, kIo, none_dead);
  ASSERT_EQ(plan.size(), 2u);  // only the subfiles node 4 held
  EXPECT_EQ(plan[0].subfile, 0);
  EXPECT_EQ(plan[0].target_node, 7);
  EXPECT_EQ(plan[0].retired_node, 4);
  EXPECT_EQ(plan[0].new_replicas, (std::vector<int>{5, 7}));
  EXPECT_EQ(plan[0].min_bytes, 0);
  // Node 7 now carries 1, still below 5 (3): it takes subfile 3 as well.
  EXPECT_EQ(plan[1].subfile, 3);
  EXPECT_EQ(plan[1].target_node, 7);
  EXPECT_EQ(plan[1].retired_node, 4);
  EXPECT_EQ(plan[1].new_replicas, (std::vector<int>{6, 7}));
}

TEST(PlanRepairs, TiesBreakToTheLowestNodeId) {
  const std::vector<std::vector<int>> placement = {{4, 5}};
  const std::vector<CopyEntry> plan =
      plan_repairs(placement, 4, kCompute, kIo, none_dead);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].target_node, 6);  // 6 and 7 both hold nothing
}

TEST(PlanRepairs, SkipsASubfileWithNoUsableReplacement) {
  // Node 6 is the only non-holder, and it is unusable.
  const std::vector<std::vector<int>> placement = {{4, 5}, {5, 6}};
  const std::vector<CopyEntry> plan = plan_repairs(
      placement, 4, kCompute, /*io_nodes=*/3,
      [](int node) { return node == 4 || node == 6; });
  EXPECT_TRUE(plan.empty());
}

TEST(PlanRepairs, SpreadsOneDeadNodesSubfilesAcrossSurvivors) {
  // Nodes 6 and 7 start empty. Counting in-plan assignments alternates
  // them; counting only the input placement would stack all three on 6.
  const std::vector<std::vector<int>> placement = {{4, 5}, {4, 5}, {4, 5}};
  const std::vector<CopyEntry> plan =
      plan_repairs(placement, 4, kCompute, kIo, none_dead);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].target_node, 6);
  EXPECT_EQ(plan[1].target_node, 7);
  EXPECT_EQ(plan[2].target_node, 6);
}

// ---------------------------------------------------------------------------
// plan_rebalance
// ---------------------------------------------------------------------------

/// Two interleaved elements over an 8-byte period: element 0 holds bytes
/// {0,1,4,5}, element 1 holds {2,3,6,7}.
PartitioningPattern interleaved() {
  return make_pattern({{make_falls(0, 1, 4, 2)}, {make_falls(2, 3, 4, 2)}});
}

TEST(PlanRebalance, PureReorderPlansNothing) {
  const RebalancePlan plan = plan_rebalance({{4, 5}, {5, 6}}, {{5, 4}, {5, 6}},
                                            interleaved(), 64);
  EXPECT_TRUE(plan.entries.empty());
  EXPECT_EQ(plan.min_bytes_total, 0);
}

TEST(PlanRebalance, PureShrinkThrows) {
  EXPECT_THROW(
      plan_rebalance({{4, 5}, {5, 6}}, {{4}, {5, 6}}, interleaved(), 64),
      std::invalid_argument);
}

TEST(PlanRebalance, ChainedEntriesEndExactlyAtTheTarget) {
  const std::vector<std::vector<int>> current = {{4, 5}, {5, 6}};
  const std::vector<std::vector<int>> target = {{6, 7}, {5, 6}};
  const RebalancePlan plan = plan_rebalance(current, target, interleaved(), 64);
  ASSERT_EQ(plan.entries.size(), 2u);
  const CopyEntry& first = plan.entries[0];
  const CopyEntry& last = plan.entries[1];
  EXPECT_EQ(first.subfile, 0);
  EXPECT_EQ(first.target_node, 6);
  EXPECT_EQ(first.retired_node, 4);
  EXPECT_EQ(first.new_replicas, (std::vector<int>{5, 6}));
  // The second entry starts where the first published and ends on the
  // target row, ring order and all.
  EXPECT_EQ(last.subfile, 0);
  EXPECT_EQ(last.target_node, 7);
  EXPECT_EQ(last.retired_node, 5);
  EXPECT_EQ(last.new_replicas, target[0]);
}

TEST(PlanRebalance, PureAddRetiresNothing) {
  const RebalancePlan plan =
      plan_rebalance({{4}, {5}}, {{4}, {5, 6}}, interleaved(), 64);
  ASSERT_EQ(plan.entries.size(), 1u);
  EXPECT_EQ(plan.entries[0].subfile, 1);
  EXPECT_EQ(plan.entries[0].retired_node, -1);
  EXPECT_EQ(plan.entries[0].new_replicas, (std::vector<int>{5, 6}));
}

TEST(PlanRebalance, MinBytesEqualElementBytes) {
  const PartitioningPattern physical = interleaved();
  // One whole period plus a 5-byte tail: element 0 owns 3 tail bytes
  // (0, 1, 4), element 1 owns 2 (2, 3).
  const std::int64_t file_size = 13;
  const RebalancePlan plan = plan_rebalance({{4, 5}, {5, 6}}, {{6, 7}, {7, 4}},
                                            physical, file_size);
  ASSERT_FALSE(plan.entries.empty());
  std::int64_t total = 0;
  for (const CopyEntry& e : plan.entries) {
    EXPECT_EQ(e.min_bytes,
              physical.element_bytes(static_cast<std::size_t>(e.subfile),
                                     file_size))
        << "subfile " << e.subfile;
    total += e.min_bytes;
  }
  EXPECT_EQ(physical.element_bytes(0, file_size), 7);
  EXPECT_EQ(physical.element_bytes(1, file_size), 6);
  EXPECT_EQ(plan.min_bytes_total, total);
}

// ---------------------------------------------------------------------------
// CopyQueue
// ---------------------------------------------------------------------------

CopyEntry entry_for(int subfile) {
  CopyEntry e;
  e.subfile = subfile;
  e.target_node = 7;
  return e;
}

/// Polls `pred` for up to five seconds.
template <typename Pred>
bool eventually(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(CopyQueue, RejectsBadConstruction) {
  EXPECT_THROW(CopyQueue(CopyQueue::Execute{}, 1),
               std::invalid_argument);
  const auto ok = [](const CopyEntry&, CopyStats*) { return true; };
  EXPECT_THROW(CopyQueue(ok, 0), std::invalid_argument);
}

TEST(CopyQueue, AwaitIdleWaitsForInFlightEntries) {
  std::promise<void> release;
  const std::shared_future<void> gate = release.get_future().share();
  CopyQueue q(
      [gate](const CopyEntry&, CopyStats* stats) {
        gate.wait();
        stats->bulk_bytes = 100;
        stats->catchup_bytes = 7;
        return true;
      },
      2);
  q.enqueue({entry_for(0)});
  // Expectations, not assertions, until the gate opens: returning early
  // would leave the worker blocked in the hook and hang the queue's dtor.
  EXPECT_TRUE(eventually([&] { return q.counters().migrations_started == 1; }));
  EXPECT_EQ(q.pending(), 1u);

  std::atomic<bool> idle{false};
  std::thread waiter([&] {
    q.await_idle();
    idle.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(idle.load()) << "await_idle returned while an entry ran";
  release.set_value();
  waiter.join();
  EXPECT_TRUE(idle.load());
  EXPECT_EQ(q.pending(), 0u);
  const RebalanceCounters c = q.counters();
  EXPECT_EQ(c.migrations_completed, 1);
  EXPECT_EQ(c.migrations_failed, 0);
  EXPECT_EQ(c.bytes_migrated, 100);
  EXPECT_EQ(c.bytes_caught_up, 7);
}

TEST(CopyQueue, ThrowingHookCountsFailedAndTheWorkerKeepsRunning) {
  const LogLevel saved = log_threshold();
  set_log_threshold(LogLevel::kOff);  // the throw is logged at ERROR
  CopyQueue q(
      [](const CopyEntry& e, CopyStats* stats) {
        if (e.subfile == 0) throw std::runtime_error("injected");
        stats->bulk_bytes = 10;
        return e.subfile != 2;  // a plain false is a failure too
      },
      /*max_concurrent=*/1);
  q.enqueue({entry_for(0), entry_for(1), entry_for(2), entry_for(3)});
  q.await_idle();
  set_log_threshold(saved);
  const RebalanceCounters c = q.counters();
  EXPECT_EQ(c.migrations_started, 4);
  EXPECT_EQ(c.migrations_completed, 2);
  EXPECT_EQ(c.migrations_failed, 2);
  EXPECT_EQ(c.bytes_migrated, 20);  // failed entries contribute no bytes
}

TEST(CopyQueue, StopCountsQueuedEntriesAsFailed) {
  std::promise<void> release;
  const std::shared_future<void> gate = release.get_future().share();
  CopyQueue q(
      [gate](const CopyEntry&, CopyStats*) {
        gate.wait();
        return true;
      },
      /*max_concurrent=*/1);
  q.enqueue({entry_for(0), entry_for(1), entry_for(2)});
  EXPECT_TRUE(eventually([&] { return q.counters().migrations_started == 1; }));

  // stop() abandons the two queued entries at once, then joins the worker
  // that is still inside the hook.
  std::thread stopper([&] { q.stop(); });
  EXPECT_TRUE(eventually([&] { return q.counters().migrations_failed == 2; }));
  release.set_value();
  stopper.join();
  const RebalanceCounters c = q.counters();
  EXPECT_EQ(c.migrations_started, 1);
  EXPECT_EQ(c.migrations_completed, 1);
  EXPECT_EQ(c.migrations_failed, 2);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(CopyQueue, EnqueueAfterStopCountsFailed) {
  std::atomic<int> ran{0};
  CopyQueue q(
      [&](const CopyEntry&, CopyStats*) {
        ++ran;
        return true;
      },
      2);
  q.stop();
  q.stop();  // idempotent
  q.enqueue({entry_for(0), entry_for(1)});
  q.await_idle();
  EXPECT_EQ(ran.load(), 0);
  const RebalanceCounters c = q.counters();
  EXPECT_EQ(c.migrations_started, 0);
  EXPECT_EQ(c.migrations_failed, 2);
}

// ---------------------------------------------------------------------------
// Recoverable protocol errors
// ---------------------------------------------------------------------------

// A restarted I/O node has lost every projection, so the client's next
// access earns kUnknownView and transparently re-installs the view. That
// recovery is routine and counted (view_reinstalls, errors_sent): at the
// default log threshold it prints no ERROR line, and the server's message
// is still there at DEBUG.
TEST(ProtocolErrorLog, ViewReinstallAfterRestartLogsNoError) {
  const LogLevel saved = log_threshold();
  std::string warn_log;
  std::string debug_log;
  for (const LogLevel level : {LogLevel::kWarn, LogLevel::kDebug}) {
    set_log_threshold(level);
    ::testing::internal::CaptureStderr();
    {
      const auto elems = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
      Clusterfile fs(ClusterConfig{},
                     make_pattern({elems.begin(), elems.end()}));
      auto& client = fs.client(0);
      const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
      const std::int64_t v0 = client.set_view(views[0], 256);
      const std::int64_t v1 = client.set_view(views[1], 256);
      const Buffer data_a = make_pattern_buffer(64, 1);
      const Buffer data_b = make_pattern_buffer(64, 2);
      client.write(v0, 0, 63, data_a);
      fs.crash_server(0);
      fs.restart_server(0);  // projections lost; storage survives
      client.write(v1, 0, 63, data_b);
      Buffer back(64);
      client.read(v0, 0, 63, back);
      EXPECT_EQ(back, data_a);
      client.read(v1, 0, 63, back);
      EXPECT_EQ(back, data_b);
      EXPECT_GE(client.reliability().view_reinstalls, 1);
      EXPECT_EQ(client.reliability().failures, 0);
    }
    (level == LogLevel::kWarn ? warn_log : debug_log) =
        ::testing::internal::GetCapturedStderr();
  }
  set_log_threshold(saved);
  EXPECT_EQ(warn_log.find("[pfm ERROR]"), std::string::npos) << warn_log;
  EXPECT_NE(debug_log.find("access without a registered view"),
            std::string::npos);
}

}  // namespace
}  // namespace pfm
