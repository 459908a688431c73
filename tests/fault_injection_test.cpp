// Fault-injection soak: the reliability layer (req_ids, checksums,
// retransmits, idempotent replay, view re-install) must deliver
// byte-identical results over a hostile wire — drops, duplicates, bit
// flips, delayed reordering, partitions and crashed servers — and the
// reliability counters must line up with what the injector actually did.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/fault.h"
#include "clusterfile/fs.h"
#include "clusterfile/journal.h"
#include "clusterfile/storage.h"
#include "layout/partitions2d.h"
#include "util/buffer.h"

namespace pfm {
namespace {

PartitioningPattern pattern2d(Partition2D p, std::int64_t n, std::int64_t parts) {
  auto elems = partition2d_all(p, n, n, parts);
  return make_pattern({elems.begin(), elems.end()});
}

/// A retry policy short enough to keep fault soaks fast but with enough
/// attempts that probabilistic faults cannot plausibly exhaust it.
RetryPolicy soak_policy() {
  RetryPolicy p;
  p.base_timeout = std::chrono::milliseconds(50);
  p.max_timeout = std::chrono::milliseconds(400);
  p.max_attempts = 8;
  return p;
}

/// FaultRule builder (avoids partial designated initializers, which GCC's
/// -Wmissing-field-initializers rejects under -Werror).
FaultRule make_rule(double drop, double duplicate = 0, double corrupt = 0,
                    double delay = 0, int delay_depth = 3) {
  FaultRule r;
  r.drop = drop;
  r.duplicate = duplicate;
  r.corrupt = corrupt;
  r.delay = delay;
  r.delay_depth = delay_depth;
  return r;
}

Message make_msg(int src, int dst, MsgKind kind, std::size_t payload = 0) {
  Message m;
  m.src_node = src;
  m.dst_node = dst;
  m.kind = kind;
  m.payload = make_pattern_buffer(payload, 7);
  return m;
}

// ---------------------------------------------------------------------------
// FaultInjector units
// ---------------------------------------------------------------------------

TEST(FaultInjector, SameSeedSameFaults) {
  FaultPlan plan;
  plan.seed = 42;
  plan.rules.push_back(make_rule(0.2, 0.2, 0.2, 0.2));
  FaultInjector a(plan), b(plan);
  for (int i = 0; i < 500; ++i) {
    const auto da = a.process(make_msg(0, 1, MsgKind::kWrite, 16));
    const auto db = b.process(make_msg(0, 1, MsgKind::kWrite, 16));
    ASSERT_EQ(da.size(), db.size()) << "diverged at message " << i;
    for (std::size_t k = 0; k < da.size(); ++k)
      EXPECT_EQ(da[k].payload, db[k].payload);
  }
  const auto ca = a.counters(), cb = b.counters();
  EXPECT_EQ(ca.dropped, cb.dropped);
  EXPECT_EQ(ca.duplicated, cb.duplicated);
  EXPECT_EQ(ca.corrupted, cb.corrupted);
  EXPECT_EQ(ca.delayed, cb.delayed);
  // With p = 0.2 each over 500 messages, every fault class fires.
  EXPECT_GT(ca.dropped, 0);
  EXPECT_GT(ca.duplicated, 0);
  EXPECT_GT(ca.corrupted, 0);
  EXPECT_GT(ca.delayed, 0);
}

TEST(FaultInjector, FirstMatchingRuleApplies) {
  FaultPlan plan;
  FaultRule to_one = make_rule(1.0);  // everything to node 1 dies
  to_one.dst = 1;
  plan.rules.push_back(to_one);
  plan.rules.push_back(make_rule(0.0));  // everything else is clean
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.process(make_msg(0, 1, MsgKind::kWrite)).empty());
  EXPECT_EQ(inj.process(make_msg(0, 2, MsgKind::kWrite)).size(), 1u);
  EXPECT_EQ(inj.counters().dropped, 1);
}

TEST(FaultInjector, KindFilterSelectsMessages) {
  FaultPlan plan;
  FaultRule r;
  r.kind = MsgKind::kAck;
  r.drop = 1.0;
  plan.rules.push_back(r);
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.process(make_msg(0, 1, MsgKind::kAck)).empty());
  EXPECT_EQ(inj.process(make_msg(0, 1, MsgKind::kWrite)).size(), 1u);
}

TEST(FaultInjector, DelayedMessageSlipsPastLaterSends) {
  FaultPlan plan;
  FaultRule r;
  r.kind = MsgKind::kRead;
  r.delay = 1.0;
  r.delay_depth = 2;
  plan.rules.push_back(r);
  FaultInjector inj(plan);
  // The read goes into limbo...
  EXPECT_TRUE(inj.process(make_msg(0, 1, MsgKind::kRead)).empty());
  EXPECT_EQ(inj.in_limbo(), 1u);
  // ...one later send passes it, the second flushes it out first-in-order.
  EXPECT_EQ(inj.process(make_msg(0, 1, MsgKind::kWrite)).size(), 1u);
  const auto out = inj.process(make_msg(0, 1, MsgKind::kWrite));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, MsgKind::kRead);  // the delayed message, now matured
  EXPECT_EQ(out[1].kind, MsgKind::kWrite);
  EXPECT_EQ(inj.in_limbo(), 0u);
  EXPECT_GT(inj.modeled_delay_us(), 0.0);
}

TEST(FaultInjector, PartitionsDropAndHeal) {
  FaultInjector inj(FaultPlan{});
  inj.isolate(3);
  EXPECT_FALSE(inj.delivers(0, 3));
  EXPECT_FALSE(inj.delivers(3, 0));
  EXPECT_TRUE(inj.process(make_msg(0, 3, MsgKind::kWrite)).empty());
  EXPECT_TRUE(inj.process(make_msg(3, 0, MsgKind::kAck)).empty());
  inj.restore(3);
  EXPECT_TRUE(inj.delivers(0, 3));
  EXPECT_EQ(inj.process(make_msg(0, 3, MsgKind::kWrite)).size(), 1u);

  inj.cut(1, 2);
  EXPECT_FALSE(inj.delivers(2, 1));
  EXPECT_TRUE(inj.delivers(1, 1));
  EXPECT_TRUE(inj.process(make_msg(1, 2, MsgKind::kWrite)).empty());
  inj.heal(1, 2);
  EXPECT_EQ(inj.process(make_msg(1, 2, MsgKind::kWrite)).size(), 1u);
  EXPECT_EQ(inj.counters().partition_dropped, 3);
  EXPECT_EQ(inj.counters().dropped, 0);  // partitions are counted separately
}

TEST(FaultInjector, ShutdownIsImmuneOnTheNetwork) {
  Network net(2);
  FaultPlan plan;
  plan.rules.push_back(make_rule(1.0));  // drop absolutely everything
  net.install_faults(std::make_shared<FaultInjector>(plan));
  ASSERT_TRUE(net.send(0, make_msg(0, 1, MsgKind::kWrite)));  // silently lost
  ASSERT_TRUE(net.send(0, make_msg(0, 1, MsgKind::kShutdown)));
  const auto got = net.inbox(1).receive();  // would hang if shutdown dropped
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->kind, MsgKind::kShutdown);
  net.close_all();
}

TEST(Channel, ReceiveForTimesOutAndDelivers) {
  Channel ch;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(ch.receive_for(std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(15));
  ASSERT_TRUE(ch.send(make_msg(0, 0, MsgKind::kAck)));
  const auto got = ch.receive_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->kind, MsgKind::kAck);
  ch.close();
  EXPECT_FALSE(ch.receive_for(std::chrono::milliseconds(5)).has_value());
  EXPECT_TRUE(ch.closed());
}

// ---------------------------------------------------------------------------
// Protocol hardening regressions
// ---------------------------------------------------------------------------

// Regression: a stray acknowledgment used to kill the client with
// std::logic_error("unexpected message kind"); it must be discarded and
// counted, and the access must still succeed.
TEST(Reliability, StrayAckIsDiscardedNotFatal) {
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kRowBlocks, 8, 4));
  auto& client = fs.client(0);
  // Park a spurious ack (and a spurious read reply) in the client's inbox.
  ASSERT_TRUE(fs.network().send(5, make_msg(5, 0, MsgKind::kAck)));
  ASSERT_TRUE(fs.network().send(5, make_msg(5, 0, MsgKind::kReadReply, 4)));
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 8, 8, 4);
  const std::int64_t vid = client.set_view(views[0], 64);
  const Buffer data = make_pattern_buffer(16, 11);
  Buffer back(16);
  ASSERT_NO_THROW(client.write(vid, 0, 15, data));
  ASSERT_NO_THROW(client.read(vid, 0, 15, back));
  EXPECT_EQ(back, data);
  EXPECT_GE(client.reliability().stale_replies, 2);
  EXPECT_EQ(client.reliability().failures, 0);
}

// Regression: a crashed I/O node used to hang the client forever; it must
// surface as a TimeoutError naming the unresponsive node after the retries
// are exhausted — and the cluster must recover once the node restarts.
TEST(Reliability, DeadNodeTimesOutNamingItThenRecovers) {
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  RetryPolicy fast;
  fast.base_timeout = std::chrono::milliseconds(20);
  fast.max_timeout = std::chrono::milliseconds(60);
  fast.max_attempts = 3;
  client.set_retry_policy(fast);

  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 21);

  fs.crash_server(0);  // I/O node 4 serves subfile 0; the view touches it
  try {
    client.write(vid, 0, 63, data);
    FAIL() << "write through a dead node did not time out";
  } catch (const TimeoutError& e) {
    EXPECT_NE(std::string(e.what()).find("I/O node 4"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("3 attempts"), std::string::npos)
        << e.what();
  }
  EXPECT_GE(client.reliability().timeouts, 2);
  EXPECT_GE(client.reliability().failures, 1);

  // Restart over the surviving storage: the new server has no projections,
  // so the client's first request earns kUnknownView and transparently
  // re-installs the view before resending.
  fs.restart_server(0);
  Buffer back(64);
  ASSERT_NO_THROW(client.write(vid, 0, 63, data));
  ASSERT_NO_THROW(client.read(vid, 0, 63, back));
  EXPECT_EQ(back, data);
  EXPECT_GE(client.reliability().view_reinstalls, 1);
}

// allow-partial mode: the same dead node degrades to per-subfile statuses
// instead of throwing, and the healthy subfiles still complete.
TEST(Reliability, AllowPartialReportsFailedTargets) {
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  RetryPolicy fast;
  fast.base_timeout = std::chrono::milliseconds(20);
  fast.max_timeout = std::chrono::milliseconds(60);
  fast.max_attempts = 2;
  client.set_retry_policy(fast);
  client.set_allow_partial(true);

  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[1], 256);
  fs.crash_server(1);  // node 5 = subfile 1; views touch all four subfiles
  const Buffer data = make_pattern_buffer(64, 31);
  const auto t = client.write(vid, 0, 63, data);
  EXPECT_FALSE(t.ok());
  ASSERT_EQ(t.per_subfile.size(), 4u);
  int failed = 0;
  for (const auto& s : t.per_subfile) {
    if (s.status != AccessStatus::kFailed) continue;
    ++failed;
    EXPECT_EQ(s.io_node, 5);
    EXPECT_TRUE(s.timed_out);
    EXPECT_NE(s.error.find("I/O node 5"), std::string::npos) << s.error;
  }
  EXPECT_EQ(failed, 1);
}

TEST(Reliability, NoFaultPlanMeansZeroCountersEverywhere) {
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kRowBlocks, 16, 4));
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  for (int c = 0; c < 4; ++c) {
    auto& client = fs.client(c);
    const std::int64_t vid =
        client.set_view(views[static_cast<std::size_t>(c)], 256);
    const Buffer data = make_pattern_buffer(64, 100 + static_cast<unsigned>(c));
    Buffer back(64);
    const auto w = client.write(vid, 0, 63, data);
    const auto r = client.read(vid, 0, 63, back);
    EXPECT_EQ(back, data);
    EXPECT_TRUE(w.rel.all_zero());
    EXPECT_TRUE(r.rel.all_zero());
    EXPECT_TRUE(w.ok());
  }
  EXPECT_TRUE(fs.client_reliability().all_zero());
  EXPECT_TRUE(fs.server_reliability().all_zero());
  EXPECT_EQ(fs.network().faults(), nullptr);
  EXPECT_FALSE(fs.network().checksums_enabled());
}

// ---------------------------------------------------------------------------
// Deterministic fault soak
// ---------------------------------------------------------------------------

struct SoakMix {
  const char* name;
  FaultRule rule;
};

const SoakMix kMixes[] = {
    {"drop", make_rule(0.05)},
    {"duplicate", make_rule(0, 0.10)},
    {"corrupt", make_rule(0, 0, 0.10)},
    {"delay", make_rule(0, 0, 0, 0.20, /*delay_depth=*/2)},
    {"storm", make_rule(0.03, 0.05, 0.05, 0.10)},
};

/// Runs the reference workload — every column-block view written from its
/// own client, then read back — and returns the final subfile images.
/// When `vids_out` is given, the per-client view ids are recorded so the
/// caller can issue further accesses (e.g. the soak's drain barriers).
std::vector<Buffer> run_workload(Clusterfile& fs, bool faulty,
                                 std::vector<std::int64_t>* vids_out = nullptr,
                                 const RetryPolicy* policy = nullptr) {
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  std::vector<Buffer> images;
  for (int c = 0; c < 4; ++c) {
    auto& client = fs.client(c);
    if (faulty) client.set_retry_policy(policy ? *policy : soak_policy());
    const std::int64_t vid =
        client.set_view(views[static_cast<std::size_t>(c)], 256);
    if (vids_out) vids_out->push_back(vid);
    const Buffer data = make_pattern_buffer(64, 50 + static_cast<unsigned>(c));
    client.write(vid, 0, 63, data);
    Buffer back(64);
    client.read(vid, 0, 63, back);
    EXPECT_EQ(back, data) << "read-back mismatch on client " << c;
  }
  for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
    const SubfileStorage& st = fs.subfile_storage(i);
    Buffer img(static_cast<std::size_t>(st.size()));
    if (!img.empty()) st.read(0, img);
    images.push_back(std::move(img));
  }
  return images;
}

TEST(FaultSoak, GridIsByteIdenticalToFaultFreeRun) {
  const PartitioningPattern physical =
      pattern2d(Partition2D::kRowBlocks, 16, 4);

  // The fault-free reference images.
  std::vector<Buffer> reference;
  {
    Clusterfile fs(ClusterConfig{}, physical);
    reference = run_workload(fs, /*faulty=*/false);
    ASSERT_TRUE(fs.client_reliability().all_zero());
  }

  std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};
  if (const char* env = std::getenv("PFM_FAULT_SEED"); env && *env)
    seeds.push_back(std::strtoull(env, nullptr, 10));

  // >= 20 (seed x mix) cells; every one must converge to identical bytes.
  for (const std::uint64_t seed : seeds) {
    for (const SoakMix& mix : kMixes) {
      SCOPED_TRACE(std::string("mix=") + mix.name +
                   " seed=" + std::to_string(seed));
      Clusterfile fs(ClusterConfig{}, physical);
      FaultPlan plan;
      plan.seed = seed;
      plan.rules.push_back(mix.rule);
      fs.install_faults(plan);

      std::vector<std::int64_t> vids;
      const std::vector<Buffer> images =
          run_workload(fs, /*faulty=*/true, &vids);
      ASSERT_EQ(images.size(), reference.size());
      for (std::size_t i = 0; i < images.size(); ++i)
        EXPECT_EQ(images[i], reference[i]) << "subfile " << i;

      const auto inj = fs.faults().counters();

      // Drain: a duplicate of a client's final exchange can still sit
      // unconsumed in its inbox (or as a not-yet-replayed request in a
      // server queue) when the workload returns. Swap in a clean wire and
      // run barrier reads — each server finishes replaying queued
      // duplicates before answering the barrier, and each client's
      // receive loop consumes every leftover reply (counted stale)
      // before its own. Only then is the duplicate accounting exact.
      fs.install_faults(FaultPlan{});
      for (int pass = 0; pass < 2; ++pass)
        for (int c = 0; c < 4; ++c) {
          Buffer scratch(64);
          fs.client(c).read(vids[static_cast<std::size_t>(c)], 0, 63,
                            scratch);
        }

      const ReliabilityCounters cli = fs.client_reliability();
      const ReliabilityCounters srv = fs.server_reliability();
      EXPECT_EQ(cli.failures, 0);
      // Every probabilistic loss must have cost at least one retransmit.
      if (mix.rule.duplicate == 0 && mix.rule.corrupt == 0 &&
          mix.rule.delay == 0) {
        EXPECT_GE(cli.retries, inj.dropped);
      }
      // Per-event accounting is airtight only when no fault can strand a
      // message: delay can leave copies in limbo past the end of the run,
      // and drop can eat the extra reply a replayed duplicate produced.
      if (mix.rule.delay == 0) {
        // Every bit flip the injector landed was caught by a checksum
        // somewhere (the byte-identical images above prove none got
        // through).
        EXPECT_GE(cli.corruptions_detected + srv.corruptions_detected,
                  inj.corrupted);
        // Every duplicate surfaced as a server-side suppression or a
        // client-side stale reply.
        if (mix.rule.drop == 0) {
          EXPECT_GE(srv.duplicates_suppressed + cli.stale_replies,
                    inj.duplicated);
        }
      }
    }
  }
}

TEST(FaultSoak, CrashRestartMidWorkloadStaysByteIdentical) {
  const PartitioningPattern physical =
      pattern2d(Partition2D::kRowBlocks, 16, 4);
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const Buffer data_a = make_pattern_buffer(64, 71);
  const Buffer data_b = make_pattern_buffer(64, 72);

  // Reference: both writes on a healthy cluster.
  std::vector<Buffer> reference;
  {
    Clusterfile fs(ClusterConfig{}, physical);
    auto& client = fs.client(0);
    const std::int64_t v0 = client.set_view(views[0], 256);
    const std::int64_t v1 = client.set_view(views[1], 256);
    client.write(v0, 0, 63, data_a);
    client.write(v1, 0, 63, data_b);
    for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
      const SubfileStorage& st = fs.subfile_storage(i);
      Buffer img(static_cast<std::size_t>(st.size()));
      if (!img.empty()) st.read(0, img);
      reference.push_back(std::move(img));
    }
  }

  // Same workload with a crash/restart of I/O node 0 between the writes.
  Clusterfile fs(ClusterConfig{}, physical);
  auto& client = fs.client(0);
  client.set_retry_policy(soak_policy());
  const std::int64_t v0 = client.set_view(views[0], 256);
  const std::int64_t v1 = client.set_view(views[1], 256);
  client.write(v0, 0, 63, data_a);
  fs.crash_server(0);
  fs.restart_server(0);  // projections lost; storage survives
  client.write(v1, 0, 63, data_b);  // recovers via kUnknownView re-install
  Buffer back(64);
  client.read(v0, 0, 63, back);
  EXPECT_EQ(back, data_a);
  client.read(v1, 0, 63, back);
  EXPECT_EQ(back, data_b);

  for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
    const SubfileStorage& st = fs.subfile_storage(i);
    Buffer img(static_cast<std::size_t>(st.size()));
    if (!img.empty()) st.read(0, img);
    EXPECT_EQ(img, reference[i]) << "subfile " << i;
  }
  EXPECT_GE(client.reliability().view_reinstalls, 1);
  EXPECT_EQ(client.reliability().failures, 0);
}

// ---------------------------------------------------------------------------
// Subfile replication
// ---------------------------------------------------------------------------

ClusterConfig replicated_config(int replication = 2) {
  ClusterConfig cfg;
  cfg.replication = replication;
  return cfg;
}

RetryPolicy fast_policy() {
  RetryPolicy p;
  p.base_timeout = std::chrono::milliseconds(20);
  p.max_timeout = std::chrono::milliseconds(60);
  p.max_attempts = 3;
  return p;
}

/// Bytes of every replica of subfile i, read directly from its storage.
Buffer replica_image(Clusterfile& fs, std::size_t subfile, std::size_t r) {
  SubfileStorage& st = fs.replica_storage(subfile, r);
  Buffer img(static_cast<std::size_t>(st.size()));
  if (!img.empty()) st.read(0, img);
  return img;
}

TEST(Replication, WritesFanOutToEveryReplica) {
  Clusterfile fs(replicated_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 81);
  const auto t = client.write(vid, 0, 63, data);
  EXPECT_TRUE(t.ok());
  EXPECT_TRUE(t.rel.all_zero());  // healthy fan-out costs no reliability work
  for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
    ASSERT_EQ(fs.replica_nodes(i).size(), 2u);
    const Buffer primary = replica_image(fs, i, 0);
    EXPECT_FALSE(primary.empty());
    EXPECT_EQ(primary, replica_image(fs, i, 1)) << "subfile " << i;
  }
  // Both replicas agree on the write epoch too.
  ScrubReport rep = fs.scrub();
  EXPECT_TRUE(rep.clean());
  EXPECT_GT(rep.blocks_checked, 0);
}

TEST(Replication, ReadFailsOverToBackupWhenPrimaryDies) {
  Clusterfile fs(replicated_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(fast_policy());
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 82);
  client.write(vid, 0, 63, data);

  fs.crash_server(0);  // node 4: primary of subfile 0, backup of subfile 3
  Buffer back(64);
  const auto t = client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data);  // degraded, not wrong
  EXPECT_TRUE(t.ok());    // degraded is still a successful access
  EXPECT_GE(t.rel.failovers, 1);
  EXPECT_GE(t.rel.degraded, 1);
  EXPECT_EQ(t.rel.failures, 0);
  int degraded = 0;
  for (const auto& s : t.per_subfile) {
    if (s.status != AccessStatus::kDegraded) continue;
    ++degraded;
    if (s.failovers > 0) {
      // The access was answered by the backup, and says so.
      EXPECT_EQ(s.subfile, 0);
      EXPECT_EQ(s.io_node, fs.replica_nodes(0)[1]);
    }
  }
  EXPECT_GE(degraded, 1);

  // Writes degrade too: the live replica applies them, the dead one is
  // counted, and nothing throws.
  const Buffer data2 = make_pattern_buffer(64, 83);
  const auto w = client.write(vid, 0, 63, data2);
  EXPECT_EQ(w.rel.failures, 0);
  EXPECT_GE(w.rel.degraded, 1);
  EXPECT_GE(w.rel.replica_failures, 1);
  client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data2);
}

TEST(Replication, CrashResyncThenScrubIsClean) {
  Clusterfile fs(replicated_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(fast_policy());
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  client.write(vid, 0, 63, make_pattern_buffer(64, 84));

  fs.crash_server(0);
  // Writes while node 4 is down: its replicas of subfiles 0 and 3 miss them.
  const Buffer data = make_pattern_buffer(64, 85);
  const auto w = client.write(vid, 0, 63, data);
  EXPECT_EQ(w.rel.failures, 0);
  EXPECT_GE(w.rel.degraded, 1);

  const ResyncStats rs = fs.restart_server(0);
  EXPECT_EQ(rs.failures, 0);
  EXPECT_GT(rs.subfiles, 0);
  EXPECT_GT(rs.bytes, 0);  // the missed ranges actually moved

  // Re-sync already converged the replicas; scrub finds nothing to repair.
  const ScrubReport rep = fs.scrub();
  EXPECT_TRUE(rep.clean()) << "divergent=" << rep.divergent_blocks
                           << " unreadable=" << rep.unreadable_blocks
                           << " unrepaired=" << rep.unrepaired_blocks;
  for (std::size_t i = 0; i < fs.subfile_count(); ++i)
    EXPECT_EQ(replica_image(fs, i, 0), replica_image(fs, i, 1))
        << "subfile " << i;

  // And the file still reads back correctly from the healed cluster.
  Buffer back(64);
  client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data);
}

// Replication soak: 1% drop on the wire plus one permanently dead replica
// node. Every access must converge degraded-but-correct — byte-identical
// surviving replicas, zero failures, failover counters lit.
TEST(FaultSoak, ReplicatedClusterSurvivesDropsAndADeadReplica) {
  const PartitioningPattern physical =
      pattern2d(Partition2D::kRowBlocks, 16, 4);

  // Fault-free replicated reference.
  std::vector<Buffer> reference;
  {
    Clusterfile fs(replicated_config(), physical);
    reference = run_workload(fs, /*faulty=*/false);
    ASSERT_TRUE(fs.client_reliability().all_zero());
  }

  std::vector<std::uint64_t> seeds = {11, 12};
  if (const char* env = std::getenv("PFM_FAULT_SEED"); env && *env)
    seeds.push_back(std::strtoull(env, nullptr, 10));

  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Clusterfile fs(replicated_config(), physical);
    FaultPlan plan;
    plan.seed = seed;
    plan.rules.push_back(make_rule(0.01));
    fs.install_faults(plan);
    fs.crash_server(1);  // node 5 stays dead for the whole workload

    // The per-access budget is shared across the whole replica chain, and a
    // first-timeout failover hands an attempt to the dead backup whenever a
    // 1% drop eats a live node's reply. Five attempts leave the live node at
    // least three tries even after the dead replica burns its share, pushing
    // the loss probability back to ~drop^3 = 1e-6 per access.
    RetryPolicy fast = fast_policy();
    fast.max_attempts = 5;
    const std::vector<Buffer> images =
        run_workload(fs, /*faulty=*/true, nullptr, &fast);
    ASSERT_EQ(images.size(), reference.size());
    // Subfile 1's primary is the dead node: its image must come from the
    // surviving backup. Every other primary matches directly.
    for (std::size_t i = 0; i < images.size(); ++i) {
      if (fs.replica_nodes(i)[0] == 5) {
        EXPECT_EQ(replica_image(fs, i, 1), reference[i]) << "subfile " << i;
      } else {
        EXPECT_EQ(images[i], reference[i]) << "subfile " << i;
      }
    }
    const ReliabilityCounters cli = fs.client_reliability();
    EXPECT_EQ(cli.failures, 0);
    EXPECT_GT(cli.failovers, 0);   // reads rerouted around the dead primary
    EXPECT_GT(cli.degraded, 0);    // accesses completed on a partial set
    EXPECT_GT(cli.replica_failures, 0);  // the dead replica was accounted
  }
}

// Storage-fault soak: backup replicas tear writes silently; scrub must find
// every divergence via the CRC layer and repair it from the clean primary.
TEST(FaultSoak, ScrubRepairsTornBackupReplicas) {
  ClusterConfig cfg = replicated_config();
  StorageFaultPlan plan;
  plan.seed = 21;
  StorageFaultRule rule;
  rule.replica = 1;  // only backups tear; the primary stays authoritative
  rule.op = StorageFaultRule::Op::kWrite;
  rule.torn_write = 0.5;
  plan.rules.push_back(rule);
  cfg.storage_faults = plan;
  cfg.integrity_block = 64;  // small blocks so 64-byte writes span several

  Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  for (int c = 0; c < 4; ++c) {
    auto& client = fs.client(c);
    const std::int64_t vid =
        client.set_view(views[static_cast<std::size_t>(c)], 256);
    client.write(vid, 0, 63,
                 make_pattern_buffer(64, 90 + static_cast<unsigned>(c)));
  }

  fs.disarm_storage_faults();
  const ScrubReport first = fs.scrub();
  // Torn backup blocks surface as unreadable (their CRC no longer matches)
  // and every one is repaired from the primary.
  EXPECT_GT(first.unreadable_blocks, 0) << "the tear rate injected nothing";
  EXPECT_EQ(first.repaired_blocks,
            first.unreadable_blocks + first.divergent_blocks);
  EXPECT_EQ(first.unrepaired_blocks, 0);

  const ScrubReport second = fs.scrub();
  EXPECT_TRUE(second.clean());
  for (std::size_t i = 0; i < fs.subfile_count(); ++i)
    EXPECT_EQ(replica_image(fs, i, 0), replica_image(fs, i, 1))
        << "subfile " << i;
}

// Without replication there is no backup to repair from, but corruption is
// still *detected*: the read errs (kCorruptData) instead of silently
// returning rotten bytes, and allow-partial zero-fills the lost ranges.
TEST(Replication, SingleCopyCorruptionIsDetectedNeverSilent) {
  ClusterConfig cfg;  // replication = 1
  StorageFaultPlan plan;
  plan.seed = 31;
  StorageFaultRule rule;
  rule.op = StorageFaultRule::Op::kRead;
  rule.bit_rot = 1.0;
  plan.rules.push_back(rule);
  cfg.storage_faults = plan;
  cfg.integrity_block = 64;

  Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(fast_policy());
  // View = the physical layout, so the write is one contiguous run per
  // subfile: the integrity layer records it without re-reading old content
  // (a scatter write would verify prior block bytes through the rotting
  // disk and fail the *write*; here the read path alone must catch it).
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 95);
  client.write(vid, 0, 63, data);

  Buffer back(64);
  EXPECT_THROW(client.read(vid, 0, 63, back), std::runtime_error);

  // allow-partial: the failed subfiles zero-fill their destination ranges —
  // no byte of the output is left uninitialized garbage.
  client.set_allow_partial(true);
  Buffer sentinel(64, std::byte{0xAB});
  const auto t = client.read(vid, 0, 63, sentinel);
  EXPECT_FALSE(t.ok());
  int failed = 0;
  for (const auto& s : t.per_subfile) {
    if (s.status != AccessStatus::kFailed) continue;
    ++failed;
    EXPECT_NE(s.error.find("CORRUPT_DATA"), std::string::npos) << s.error;
  }
  EXPECT_GT(failed, 0);
  for (std::byte b : sentinel)
    EXPECT_NE(b, std::byte{0xAB}) << "destination byte left unwritten";
}

// ---------------------------------------------------------------------------
// Quorum writes (W-of-N acks, background stragglers)
// ---------------------------------------------------------------------------

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// W=1 with a dead replica: the write returns as soon as one live replica
// per target acks — it never waits out the dead node's retry schedule. The
// dead node's requests ride the straggler set, exhaust it, and land in the
// quorum_short / scrub-debt accounting; restart + re-sync + scrub converge
// the replicas afterwards.
TEST(Quorum, WriteQuorumOneCompletesWithDeadBackupAndScrubConverges) {
  ClusterConfig cfg = replicated_config();
  cfg.write_quorum = 1;
  Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(fast_policy());
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  client.write(vid, 0, 63, make_pattern_buffer(64, 96));
  client.drain_stragglers();  // seed write fully replicated before the crash
  ASSERT_TRUE(client.reliability().all_zero());

  fs.crash_server(1);  // node 5: primary of subfile 1, backup of subfile 0

  const Buffer data = make_pattern_buffer(64, 97);
  const auto start = std::chrono::steady_clock::now();
  const auto w = client.write(vid, 0, 63, data);
  const double ms = elapsed_ms(start);
  EXPECT_TRUE(w.ok());
  EXPECT_EQ(w.rel.failures, 0);
  // The full fan-out would wait the dead node's whole schedule
  // (20+40+60 = 120ms); at W=1 the live acks complete the write.
  EXPECT_LT(ms, 100.0) << "quorum write waited on the dead replica";
  EXPECT_GE(w.stragglers, 2);  // at least both node-5 requests demoted

  client.drain_stragglers();
  EXPECT_EQ(client.stragglers_pending(), 0u);
  EXPECT_GE(client.stragglers_abandoned(), 2);
  EXPECT_EQ(client.reliability().quorum_short, 2);  // one per short group
  EXPECT_GE(client.reliability().replica_failures, 2);
  EXPECT_EQ(client.reliability().failures, 0);

  // Abandonment left a repair debt naming exactly the touched subfiles.
  const std::vector<int> debt = client.take_scrub_debt();
  EXPECT_NE(std::find(debt.begin(), debt.end(), 0), debt.end());
  EXPECT_NE(std::find(debt.begin(), debt.end(), 1), debt.end());
  EXPECT_TRUE(client.take_scrub_debt().empty());  // take() drains

  // Repair path: restart pulls the missed writes, scrub finds nothing left.
  const ResyncStats rs = fs.restart_server(1);
  EXPECT_EQ(rs.failures, 0);
  EXPECT_GT(rs.subfiles, 0);
  const ScrubReport rep = fs.scrub();
  EXPECT_TRUE(rep.clean()) << "divergent=" << rep.divergent_blocks
                           << " unreadable=" << rep.unreadable_blocks;
  for (std::size_t i = 0; i < fs.subfile_count(); ++i)
    EXPECT_EQ(replica_image(fs, i, 0), replica_image(fs, i, 1))
        << "subfile " << i;
  Buffer back(64);
  client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data);
}

// A replica that applied the write but whose acks never arrive: the
// straggler retransmits hit the server's dedup cache, so the write is
// applied exactly once (equal epochs prove it) even though the client
// eventually abandons the straggler as unreachable.
TEST(Quorum, LateStragglerAckIsDedupedNotDoubleApplied) {
  ClusterConfig cfg = replicated_config();
  cfg.write_quorum = 1;
  Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(fast_policy());
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  client.write(vid, 0, 63, make_pattern_buffer(64, 98));
  client.drain_stragglers();

  // Node 5 keeps serving requests but every data ack it sends is lost.
  FaultPlan plan;
  plan.seed = 41;
  FaultRule mute_acks;
  mute_acks.src = 5;
  mute_acks.kind = MsgKind::kAck;
  mute_acks.drop = 1.0;
  plan.rules.push_back(mute_acks);
  fs.install_faults(plan);

  const Buffer data = make_pattern_buffer(64, 99);
  const auto w = client.write(vid, 0, 63, data);
  EXPECT_TRUE(w.ok());  // quorum came from the replicas whose acks survive
  client.drain_stragglers();
  EXPECT_GE(client.stragglers_abandoned(), 2);  // node 5 looked unreachable
  EXPECT_GE(client.reliability().quorum_short, 2);
  EXPECT_EQ(client.reliability().failures, 0);
  // Every straggler retransmit was replayed from the dedup cache, not
  // re-applied: node 5 saw each write exactly once.
  EXPECT_GE(fs.server_reliability().duplicates_suppressed, 1);
  for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
    EXPECT_EQ(fs.replica_storage(i, 0).epoch(), fs.replica_storage(i, 1).epoch())
        << "subfile " << i;
    EXPECT_EQ(replica_image(fs, i, 0), replica_image(fs, i, 1))
        << "subfile " << i;
  }

  fs.install_faults(FaultPlan{});
  Buffer back(64);
  client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data);
}

// The retry budget is per access, not per replica: a target whose entire
// replica chain is dead fails after ONE backoff schedule (20+40+60 =
// 120ms with fast_policy), not one schedule per replica tried.
TEST(Quorum, GroupSharesOneDeadlineAcrossReplicas) {
  Clusterfile fs(replicated_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(fast_policy());
  client.set_allow_partial(true);
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 100);
  client.write(vid, 0, 63, data);

  // Subfile 0's whole replica set (nodes 4 and 5) goes dark.
  fs.crash_server(0);
  fs.crash_server(1);

  Buffer back(64, std::byte{0xCD});
  const auto start = std::chrono::steady_clock::now();
  const auto t = client.read(vid, 0, 63, back);
  const double ms = elapsed_ms(start);
  // One shared schedule: >= the full 120ms budget (the chain was really
  // tried), and well under the 240ms a per-replica schedule would burn.
  EXPECT_GE(ms, 100.0);
  EXPECT_LT(ms, 230.0) << "dead replica chain burned more than one schedule";

  const SubfileAccess* dead = nullptr;
  for (const auto& s : t.per_subfile)
    if (s.subfile == 0) dead = &s;
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->status, AccessStatus::kFailed);
  EXPECT_TRUE(dead->timed_out);
  EXPECT_EQ(dead->attempts, 3);   // the policy's attempts, across the chain
  EXPECT_GE(dead->failovers, 1);  // ... and the backup really was tried
  // Subfile 1 (primary dead, backup alive) still degrades over normally.
  EXPECT_GE(t.rel.degraded, 1);
  EXPECT_GE(t.rel.failovers, 1);
}

// Fault-free W<N writes must look exactly like full fan-out once drained:
// clean counters, no abandonment, byte-identical replicas.
TEST(Quorum, FaultFreeQuorumWritesLeaveCountersClean) {
  ClusterConfig cfg = replicated_config();
  cfg.write_quorum = 1;
  Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 101);
  const auto t = client.write(vid, 0, 63, data);
  EXPECT_TRUE(t.ok());
  for (const auto& s : t.per_subfile)
    EXPECT_EQ(s.status, AccessStatus::kOk) << "subfile " << s.subfile;
  EXPECT_GE(t.stragglers, 1);  // the quorum really did return early
  EXPECT_TRUE(t.rel.all_zero());

  client.drain_stragglers();
  EXPECT_EQ(client.stragglers_pending(), 0u);
  EXPECT_GE(client.stragglers_completed(), t.stragglers);
  EXPECT_EQ(client.stragglers_abandoned(), 0);
  EXPECT_TRUE(client.reliability().all_zero());
  EXPECT_TRUE(client.take_scrub_debt().empty());

  for (std::size_t i = 0; i < fs.subfile_count(); ++i)
    EXPECT_EQ(replica_image(fs, i, 0), replica_image(fs, i, 1))
        << "subfile " << i;
  Buffer back(64);
  client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data);
}

// Quorum soak: W in {1, 2} at replication 2 under 1% wire drop. After a
// drain barrier every cell must be byte-identical (both replicas) to the
// fault-free full-fan-out reference, with zero failures and zero
// abandoned stragglers — the sloppy ack policy changes latency, never
// bytes.
TEST(FaultSoak, QuorumGridIsByteIdenticalAfterDrain) {
  const PartitioningPattern physical =
      pattern2d(Partition2D::kRowBlocks, 16, 4);

  std::vector<Buffer> reference;
  {
    Clusterfile fs(replicated_config(), physical);
    reference = run_workload(fs, /*faulty=*/false);
    ASSERT_TRUE(fs.client_reliability().all_zero());
  }

  std::vector<std::uint64_t> seeds = {11, 12};
  if (const char* env = std::getenv("PFM_FAULT_SEED"); env && *env)
    seeds.push_back(std::strtoull(env, nullptr, 10));

  for (const int quorum : {1, 2}) {
    for (const std::uint64_t seed : seeds) {
      SCOPED_TRACE("quorum=" + std::to_string(quorum) +
                   " seed=" + std::to_string(seed));
      ClusterConfig cfg = replicated_config();
      cfg.write_quorum = quorum;
      Clusterfile fs(cfg, physical);
      FaultPlan plan;
      plan.seed = seed;
      plan.rules.push_back(make_rule(0.01));
      fs.install_faults(plan);

      const auto views =
          partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
      for (int c = 0; c < 4; ++c) {
        auto& client = fs.client(c);
        client.set_retry_policy(soak_policy());
        const std::int64_t vid =
            client.set_view(views[static_cast<std::size_t>(c)], 256);
        const Buffer data =
            make_pattern_buffer(64, 50 + static_cast<unsigned>(c));
        client.write(vid, 0, 63, data);
        client.drain_stragglers();  // barrier: replicas settled before read
        Buffer back(64);
        client.read(vid, 0, 63, back);
        EXPECT_EQ(back, data) << "read-back mismatch on client " << c;
      }

      fs.drain_stragglers();
      EXPECT_EQ(fs.client_reliability().failures, 0);
      EXPECT_EQ(fs.stragglers_abandoned(), 0);
      if (quorum == 1) {
        EXPECT_GT(fs.stragglers_completed(), 0);
      }
      for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
        EXPECT_EQ(replica_image(fs, i, 0), reference[i]) << "subfile " << i;
        EXPECT_EQ(replica_image(fs, i, 1), reference[i]) << "subfile " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Self-healing: heartbeat failure detector + repair planner/scheduler
// ---------------------------------------------------------------------------

ClusterConfig self_heal_config() {
  ClusterConfig cfg;
  cfg.replication = 2;
  cfg.self_heal = true;
  // Generous windows so a loaded CI machine cannot fake a missed pong.
  cfg.heartbeat.interval_ms = 30;
  cfg.heartbeat.timeout_ms = 20;
  cfg.heartbeat.suspect_n = 3;
  return cfg;
}

// A node whose link flaps (every other probe lost) oscillates between
// alive and suspect but must never be falsely declared dead: a single pong
// inside the suspicion window resets the miss counter.
TEST(SelfHeal, FlappingNodeNeverFalselyDeclaredDead) {
  Network net(2, NetParams{});
  std::atomic<bool> stop{false};
  std::thread responder([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto m = net.inbox(1).receive_for(std::chrono::milliseconds(20));
      if (!m.has_value()) continue;
      if (m->kind == MsgKind::kShutdown) break;
      if (m->kind != MsgKind::kPing) continue;
      if (m->v % 2 != 0) continue;  // the flap: drop every odd probe
      Message pong;
      pong.kind = MsgKind::kPong;
      pong.dst_node = 0;
      pong.v = m->v;
      net.send(1, std::move(pong));
    }
  });
  std::atomic<int> deaths{0};
  FailureDetector::Options opts;
  opts.interval_ms = 20;
  opts.timeout_ms = 10;
  opts.suspect_n = 4;  // > 1 consecutive losses the flap can produce
  FailureDetector det(net, 0, {1}, opts, [&](int) { ++deaths; });
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  det.stop();
  stop.store(true, std::memory_order_release);
  responder.join();

  EXPECT_EQ(deaths.load(), 0);
  EXPECT_NE(det.health(1), NodeHealth::kDead);
  const FailureDetector::Counters c = det.counters();
  EXPECT_GT(c.pings_sent, 10);
  EXPECT_GT(c.pongs_received, 4);
  EXPECT_GT(c.suspect_events, 0);  // the flap is visible, just never fatal
  EXPECT_EQ(c.dead_declarations, 0);
}

// Fault-free cluster: probes flow, nothing is ever suspected dead, no
// repair runs, and the placement never moves.
TEST(SelfHeal, DetectorStaysQuietOnAHealthyCluster) {
  Clusterfile fs(self_heal_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 91);
  client.write(vid, 0, 63, data);
  // Several probe rounds elapse under (idle) foreground state.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  Buffer back(64);
  client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data);

  ASSERT_NE(fs.detector(), nullptr);
  const FailureDetector::Counters c = fs.detector()->counters();
  EXPECT_GT(c.pings_sent, 0);
  EXPECT_GT(c.pongs_received, 0);
  EXPECT_EQ(c.dead_declarations, 0);
  EXPECT_TRUE(fs.repair_reliability().all_zero());
  EXPECT_EQ(fs.placement_epoch(), 0);
  EXPECT_TRUE(fs.under_replicated_subfiles().empty());
}

// Operator override: mark_dead plans and executes repairs even though the
// node still answers probes; mark_alive lets it rejoin. The client keeps
// reading correct bytes throughout, re-aiming off the placement epoch.
TEST(SelfHeal, MarkDeadRepairsThenMarkAliveRejoins) {
  Clusterfile fs(self_heal_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(soak_policy());
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 92);
  client.write(vid, 0, 63, data);

  fs.detector()->mark_dead(4);  // hosts subfile 0 (primary) and 3 (backup)
  EXPECT_TRUE(fs.detector()->is_dead(4));
  fs.await_repairs();

  const ReliabilityCounters rc = fs.repair_reliability();
  EXPECT_EQ(rc.repairs_started, 2);
  EXPECT_EQ(rc.repairs_completed, 2);
  EXPECT_EQ(rc.repairs_failed, 0);
  EXPECT_GT(rc.bytes_re_replicated, 0);
  EXPECT_GT(fs.placement_epoch(), 0);
  for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
    const std::vector<int> nodes = fs.replica_nodes(i);
    EXPECT_EQ(nodes.size(), 2u);
    EXPECT_EQ(std::count(nodes.begin(), nodes.end(), 4), 0)
        << "subfile " << i << " still placed on the dead node";
  }
  EXPECT_TRUE(fs.under_replicated_subfiles().empty());

  // Reads go through the repaired placement, byte-identical.
  Buffer back(64);
  const auto t = client.read(vid, 0, 63, back);
  EXPECT_TRUE(t.ok());
  EXPECT_EQ(back, data);
  // The re-replicated pairs agree block by block.
  EXPECT_TRUE(fs.scrub().clean());

  // Rejoin: the override lifts and probing resumes; the node's stale
  // copies are in no placement, so writes and reads stay correct.
  fs.detector()->mark_alive(4);
  EXPECT_EQ(fs.detector()->health(4), NodeHealth::kAlive);
  const Buffer data2 = make_pattern_buffer(64, 93);
  client.write(vid, 0, 63, data2);
  client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data2);
  EXPECT_TRUE(fs.scrub().clean());
}

// End-to-end crash: missed pongs cross the suspicion threshold, the dead
// declaration fires the repair hook, and the node's subfiles come back to
// full replication on surviving nodes — no operator involved.
TEST(SelfHeal, CrashedNodeIsAutoDetectedAndRepaired) {
  Clusterfile fs(self_heal_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(soak_policy());
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 94);
  client.write(vid, 0, 63, data);

  fs.crash_server(1);  // node 5: subfile 1 primary, subfile 0 backup
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (fs.repair_reliability().repairs_completed < 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  fs.await_repairs();

  EXPECT_TRUE(fs.detector()->is_dead(5));
  EXPECT_GE(fs.detector()->counters().dead_declarations, 1);
  const ReliabilityCounters rc = fs.repair_reliability();
  EXPECT_EQ(rc.repairs_completed, 2);
  EXPECT_EQ(rc.repairs_failed, 0);
  for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
    const std::vector<int> nodes = fs.replica_nodes(i);
    EXPECT_EQ(std::count(nodes.begin(), nodes.end(), 5), 0)
        << "subfile " << i;
  }
  EXPECT_TRUE(fs.under_replicated_subfiles().empty());

  Buffer back(64);
  const auto t = client.read(vid, 0, 63, back);
  EXPECT_TRUE(t.ok());
  EXPECT_EQ(back, data);

  // Rejoin over surviving storage: every subfile this node still hosts was
  // repaired away, so the re-sync has nothing to pull, and probing revives
  // the node automatically.
  const ResyncStats rs = fs.restart_server(1);
  EXPECT_EQ(rs.failures, 0);
  EXPECT_EQ(rs.subfiles, 0);
  const auto revive_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (fs.detector()->is_dead(5) &&
         std::chrono::steady_clock::now() < revive_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(fs.detector()->is_dead(5));
  client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data);
}

// ---------------------------------------------------------------------------
// Elastic membership: placement ring, live rebalance, decommission
// ---------------------------------------------------------------------------

ClusterConfig rebalance_config(int spares = 1) {
  ClusterConfig cfg;
  cfg.replication = 2;
  cfg.self_heal = true;
  cfg.heartbeat.interval_ms = 30;
  cfg.heartbeat.timeout_ms = 20;
  cfg.heartbeat.suspect_n = 3;
  cfg.ring_placement = true;
  cfg.max_io_nodes = cfg.io_nodes + spares;
  // Small chunks: every subfile migration takes several pulls, so crash and
  // drop windows genuinely interleave with the bulk copy.
  cfg.rebalance_chunk = 16;
  cfg.repair_retry = soak_policy();
  return cfg;
}

/// Writes one pattern per client over the column-block views and returns
/// (vid, data) pairs for later byte-identical read-backs.
struct RebalanceWorkload {
  std::vector<std::int64_t> vids;
  std::vector<Buffer> data;
};

RebalanceWorkload write_workload(Clusterfile& fs) {
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  RebalanceWorkload w;
  for (int c = 0; c < 4; ++c) {
    auto& client = fs.client(c);
    client.set_retry_policy(soak_policy());
    w.vids.push_back(client.set_view(views[static_cast<std::size_t>(c)], 256));
    w.data.push_back(make_pattern_buffer(64, 120 + static_cast<unsigned>(c)));
    client.write(w.vids.back(), 0, 63, w.data.back());
  }
  return w;
}

void expect_byte_identical(Clusterfile& fs, const RebalanceWorkload& w,
                           const char* where) {
  for (int c = 0; c < 4; ++c) {
    Buffer back(64);
    const auto t = fs.client(c).read(w.vids[static_cast<std::size_t>(c)], 0,
                                     63, back);
    EXPECT_TRUE(t.ok()) << where << ": client " << c;
    EXPECT_EQ(back, w.data[static_cast<std::size_t>(c)])
        << where << ": client " << c;
  }
}

// Growing the cluster under a lossy wire: the new member absorbs its ring
// share through chunked, idempotent migrations while reads stay
// byte-identical, and the placement ends up referencing the new node.
TEST(Rebalance, AddNodeUnderDropStaysByteIdentical) {
  Clusterfile fs(rebalance_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 8));
  const RebalanceWorkload w = write_workload(fs);

  FaultPlan plan;
  plan.seed = 20260808;
  plan.rules.push_back(make_rule(0.01));
  fs.install_faults(plan);

  const int idx = fs.add_io_node();
  EXPECT_EQ(idx, 4);
  EXPECT_EQ(fs.ring_epoch(), 1);
  fs.await_rebalance();

  const RebalanceCounters rc = fs.rebalance_counters();
  EXPECT_GE(rc.migrations_completed, 1);
  EXPECT_EQ(rc.migrations_completed, rc.migrations_started);
  EXPECT_GT(rc.bytes_migrated, 0);

  // The new node actually owns part of the placement now.
  int on_new = 0;
  for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
    const std::vector<int> nodes = fs.replica_nodes(i);
    on_new += static_cast<int>(
        std::count(nodes.begin(), nodes.end(), fs.compute_nodes() + idx));
  }
  EXPECT_GE(on_new, 1);

  expect_byte_identical(fs, w, "post-add");
  EXPECT_TRUE(fs.under_replicated_subfiles().empty());
  // No repair ran: growth is a rebalance, not a failure.
  EXPECT_TRUE(fs.repair_reliability().all_zero());
  fs.install_faults(FaultPlan{});
  EXPECT_TRUE(fs.scrub().clean());
}

// Graceful shrink under the same lossy wire: every copy drains off the
// node, the node retires, and reads never see a wrong byte.
TEST(Rebalance, DecommissionUnderDropStaysByteIdentical) {
  Clusterfile fs(rebalance_config(/*spares=*/0),
                 pattern2d(Partition2D::kRowBlocks, 16, 8));
  const RebalanceWorkload w = write_workload(fs);

  FaultPlan plan;
  plan.seed = 20260809;
  plan.rules.push_back(make_rule(0.01));
  fs.install_faults(plan);

  const int victim = fs.compute_nodes() + 1;
  fs.decommission_node(1);
  EXPECT_EQ(fs.ring_epoch(), 1);

  for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
    const std::vector<int> nodes = fs.replica_nodes(i);
    EXPECT_EQ(std::count(nodes.begin(), nodes.end(), victim), 0)
        << "subfile " << i << " still placed on the decommissioned node";
    EXPECT_EQ(nodes.size(), 2u) << "subfile " << i;
  }
  const std::vector<int> serving = fs.serving_io_indices();
  EXPECT_EQ(std::count(serving.begin(), serving.end(), 1), 0);

  expect_byte_identical(fs, w, "post-decommission");
  EXPECT_TRUE(fs.under_replicated_subfiles().empty());
  fs.install_faults(FaultPlan{});
  EXPECT_TRUE(fs.scrub().clean());
}

// Destination lost mid-migration: the new member is unreachable while the
// first migration wave runs (the dead-machine experience — pulls time
// out), and the add converges anyway once the node comes back, through
// await_rebalance's re-plan. Idempotence keeps completed moves from
// repeating.
TEST(Rebalance, DestinationCrashMidMigrationResumesToConvergence) {
  Clusterfile fs(rebalance_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 8));
  const RebalanceWorkload w = write_workload(fs);

  const int new_node = fs.compute_nodes() + 4;
  fs.faults().isolate(new_node);  // the destination is dark from the start
  const int idx = fs.add_io_node();
  ASSERT_EQ(idx, 4);
  fs.await_rebalance();
  // At least one migration died against the dark destination (counted,
  // terminal in the scheduler), and the placement kept serving without it.
  EXPECT_GE(fs.rebalance_counters().migrations_failed, 1);
  expect_byte_identical(fs, w, "destination dark");

  // The node restarts: re-plan from current placement and converge. The
  // detector revives the node on its next successful probe round, so poll —
  // a single await_rebalance can race the revival and fail all its rounds.
  fs.crash_server(static_cast<std::size_t>(idx));
  fs.restart_server(static_cast<std::size_t>(idx));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);
  int on_new = 0;
  for (;;) {
    fs.await_rebalance();
    on_new = 0;
    for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
      const std::vector<int> nodes = fs.replica_nodes(i);
      on_new += static_cast<int>(
          std::count(nodes.begin(), nodes.end(), new_node));
    }
    if (on_new >= 1) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "rebalance never placed anything on the restarted node";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(on_new, 1);
  expect_byte_identical(fs, w, "post-resume");
  EXPECT_TRUE(fs.under_replicated_subfiles().empty());
  EXPECT_TRUE(fs.scrub().clean());
}

// Source lost mid-drain: the draining node crashes before its copies are
// off. Migration falls over to the surviving replica as source (and the
// dead declaration hands anything left to the self-heal repair path), so
// the decommission still converges and retires the node.
TEST(Rebalance, SourceCrashMidDrainFallsBackAndConverges) {
  Clusterfile fs(rebalance_config(/*spares=*/0),
                 pattern2d(Partition2D::kRowBlocks, 16, 8));
  const RebalanceWorkload w = write_workload(fs);

  const int victim = fs.compute_nodes() + 2;
  fs.crash_server(2);  // the future decommission target dies first
  fs.decommission_node(2);

  for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
    const std::vector<int> nodes = fs.replica_nodes(i);
    EXPECT_EQ(std::count(nodes.begin(), nodes.end(), victim), 0)
        << "subfile " << i;
  }
  const std::vector<int> serving = fs.serving_io_indices();
  EXPECT_EQ(std::count(serving.begin(), serving.end(), 2), 0);
  fs.await_repairs();
  expect_byte_identical(fs, w, "post-drain");
  EXPECT_TRUE(fs.under_replicated_subfiles().empty());
  EXPECT_TRUE(fs.scrub().clean());
}

// The fault-free control cell: a grow plus a shrink with a clean wire must
// leave every failure counter at zero — no repairs, no quorum shortfalls,
// no timeouts. Rebalancing is not allowed to look like a failure.
TEST(Rebalance, FaultFreeCellsStayCounterClean) {
  Clusterfile fs(rebalance_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 8));
  const RebalanceWorkload w = write_workload(fs);

  fs.add_io_node();
  fs.await_rebalance();
  fs.decommission_node(0);
  EXPECT_EQ(fs.ring_epoch(), 2);
  expect_byte_identical(fs, w, "fault-free");

  EXPECT_TRUE(fs.repair_reliability().all_zero());
  const ReliabilityCounters cli = fs.client_reliability();
  EXPECT_EQ(cli.failures, 0);
  EXPECT_EQ(cli.quorum_short, 0);
  EXPECT_EQ(cli.timeouts, 0);
  EXPECT_EQ(cli.corruptions_detected, 0);
  const ReliabilityCounters srv = fs.server_reliability();
  EXPECT_EQ(srv.corruptions_detected, 0);
  const RebalanceCounters rc = fs.rebalance_counters();
  EXPECT_EQ(rc.migrations_failed, 0);
  EXPECT_EQ(rc.migrations_started, rc.migrations_completed);
  EXPECT_TRUE(fs.scrub().clean());
}

// Clusterfile shutdown used to close the network with quorum stragglers
// still pending, silently dropping them. The destructor now drains them
// (bounded by each straggler's remaining retry schedule): a backup that was
// merely unreachable at write time catches up before the cluster goes away.
TEST(Quorum, ShutdownDrainsPendingStragglersToDisk) {
  const auto dir =
      std::filesystem::temp_directory_path() / "pfm_shutdown_drain";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    ClusterConfig cfg;
    cfg.replication = 2;
    cfg.write_quorum = 1;
    cfg.storage_dir = dir;
    Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
    auto& client = fs.client(0);
    client.set_retry_policy(soak_policy());
    // A row-block view congruent with the physical partition: the write
    // touches subfile 0 only, whose replicas live on nodes 4 and 5.
    const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
    const std::int64_t vid = client.set_view(views[0], 256);
    fs.faults().isolate(5);  // backup unreachable, primary satisfies W=1
    client.write(vid, 0, 63, make_pattern_buffer(64, 95));
    EXPECT_GT(client.stragglers_pending(), 0u);
    fs.faults().restore(5);
    // No explicit drain: destruction must finish the straggler itself.
  }
  const auto slurp = [](const std::filesystem::path& p) {
    std::ifstream is(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
  };
  const std::string primary = slurp(dir / "subfile_0.n4");
  const std::string backup = slurp(dir / "subfile_0.n5");
  EXPECT_FALSE(primary.empty());
  EXPECT_EQ(primary, backup);  // the drained straggler landed on disk
  std::filesystem::remove_all(dir);
}

// Two abandoned stragglers for the same subfile owe scrub one visit, not
// two: take_scrub_debt() is deduplicated (and thereby bounded by the
// subfile count, however many writes were abandoned).
TEST(Quorum, AbandonedStragglerScrubDebtIsDeduplicated) {
  ClusterConfig cfg;
  cfg.replication = 2;
  cfg.write_quorum = 1;
  Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(fast_policy());  // small budget: abandon quickly
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  fs.faults().isolate(5);  // subfile 0's backup stays unreachable
  client.write(vid, 0, 63, make_pattern_buffer(64, 96));
  client.write(vid, 0, 63, make_pattern_buffer(64, 97));
  client.drain_stragglers();
  EXPECT_GE(client.stragglers_abandoned(), 2);
  const std::vector<int> debt = client.take_scrub_debt();
  EXPECT_EQ(debt, std::vector<int>{0});
  EXPECT_TRUE(client.take_scrub_debt().empty());  // take = transfer, once
  fs.faults().restore(5);
}

// ---------------------------------------------------------------------------
// Durable mount: cold-start recovery + storage reconciliation (recover.h)
// ---------------------------------------------------------------------------

/// A durable two-replica config rooted at `base` (metadata and storage in
/// sibling subdirectories).
ClusterConfig durable_cfg(const std::filesystem::path& base) {
  ClusterConfig cfg;
  cfg.replication = 2;
  cfg.storage_dir = base / "storage";
  cfg.metadata_dir = base / "meta";
  return cfg;
}

TEST(DurableMount, RemountServesBytesWrittenBeforeShutdown) {
  const auto base =
      std::filesystem::temp_directory_path() / "pfm_mount_roundtrip";
  std::filesystem::remove_all(base);
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const Buffer data = make_pattern_buffer(64, 21);
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    EXPECT_TRUE(fs.mount_report().durable);
    EXPECT_FALSE(fs.mount_report().mounted);  // fresh create
    auto& client = fs.client(0);
    const std::int64_t vid = client.set_view(views[0], 256);
    client.write(vid, 0, 63, data);
    fs.sync_metadata();
  }
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    const MountReport& rep = fs.mount_report();
    EXPECT_TRUE(rep.mounted);
    EXPECT_EQ(rep.copies_missing, 0);
    EXPECT_EQ(rep.sync_failures, 0);
    auto& client = fs.client(0);
    const std::int64_t vid = client.set_view(views[0], 256);
    Buffer back(64);
    client.read(vid, 0, 63, back);
    EXPECT_TRUE(equal_bytes(back, data));
  }
  std::filesystem::remove_all(base);
}

TEST(DurableMount, CrashPointBeforeShutdownStillRecovers) {
  const auto base = std::filesystem::temp_directory_path() / "pfm_mount_crash";
  std::filesystem::remove_all(base);
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const Buffer data = make_pattern_buffer(64, 22);
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    auto& client = fs.client(0);
    const std::int64_t vid = client.set_view(views[0], 256);
    client.write(vid, 0, 63, data);
    fs.sync_metadata();  // the write's size/placement reach the journal
    // Freeze the metadata layer at the very next durability barrier: every
    // later durable write (including the destructor's checkpoint) is
    // dropped, exactly as a SIGKILL there would. The size-growing write
    // below gives sync_metadata a mutation to journal, whose fsync is that
    // barrier.
    client.write(vid, 64, 127, make_pattern_buffer(64, 33));
    arm_crash_after_syncs(1);
    EXPECT_THROW(fs.sync_metadata(), SimulatedCrash);
  }
  arm_crash_after_syncs(0);  // "reboot"
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    EXPECT_TRUE(fs.mount_report().mounted);
    auto& client = fs.client(0);
    const std::int64_t vid = client.set_view(views[0], 256);
    Buffer back(64);
    client.read(vid, 0, 63, back);
    EXPECT_TRUE(equal_bytes(back, data));
  }
  std::filesystem::remove_all(base);
}

TEST(DurableMount, MissingBackupCopyIsReportedAndRowReaimed) {
  const auto base =
      std::filesystem::temp_directory_path() / "pfm_mount_missing";
  std::filesystem::remove_all(base);
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const Buffer data = make_pattern_buffer(64, 23);
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    auto& client = fs.client(0);
    const std::int64_t vid = client.set_view(views[0], 256);
    client.write(vid, 0, 63, data);
    fs.sync_metadata();
  }
  // Subfile 0's backup (node 5) vanished with its disk.
  std::filesystem::remove(base / "storage" / "subfile_0.n5");
  std::filesystem::remove(base / "storage" / "subfile_0.n5.epoch");
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    EXPECT_GE(fs.mount_report().copies_missing, 1);
    auto& client = fs.client(0);
    const std::int64_t vid = client.set_view(views[0], 256);
    Buffer back(64);
    client.read(vid, 0, 63, back);
    EXPECT_TRUE(equal_bytes(back, data));  // the surviving primary serves
  }
  std::filesystem::remove_all(base);
}

TEST(DurableMount, OrphanedHigherEpochCopyBecomesTheAuthority) {
  const auto base = std::filesystem::temp_directory_path() / "pfm_mount_orphan";
  std::filesystem::remove_all(base);
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const Buffer data = make_pattern_buffer(64, 24);
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    auto& client = fs.client(0);
    const std::int64_t vid = client.set_view(views[0], 256);
    client.write(vid, 0, 63, data);
    fs.sync_metadata();
  }
  // Simulate a placement the metadata never recorded: subfile 0's primary
  // copy now lives on node 6 (unrecorded) with a *newer* epoch than the
  // recorded backup on node 5 — the mount must adopt it as the authority
  // rather than trust the stale recorded row.
  const auto storage = base / "storage";
  std::filesystem::rename(storage / "subfile_0.n4", storage / "subfile_0.n6");
  std::filesystem::rename(storage / "subfile_0.n4.epoch",
                          storage / "subfile_0.n6.epoch");
  {
    FileStorage bump(storage / "subfile_0.n6", /*preserve=*/true);
    bump.set_epoch(bump.epoch() + 10);
  }
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    EXPECT_GE(fs.mount_report().orphans_adopted, 1);
    auto& client = fs.client(0);
    const std::int64_t vid = client.set_view(views[0], 256);
    Buffer back(64);
    client.read(vid, 0, 63, back);
    EXPECT_TRUE(equal_bytes(back, data));
  }
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace pfm
