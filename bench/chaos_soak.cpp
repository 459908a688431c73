// Chaos soak: the self-healing layer end to end. A seeded closed loop runs
// foreground writes and read-backs over a replicated cluster while nodes
// are continuously crash-restarted, one node is permanently killed halfway
// through (its death is noticed only by the heartbeat detector's missed
// pings), and the wire drops 1% of messages. Invariants, enforced every
// iteration and at quiesce: every read is byte-identical to what was
// written; after quiesce every subfile is back at full replication on live
// nodes (the killed node's copies re-replicated by the repair scheduler)
// and scrub finds nothing to fix. A fault-free control cell runs the same
// loop with no faults and must finish counter-clean: zero reliability
// work, zero repairs, and zero false-positive dead declarations.
//
// Transient crashes pause while repairs are in flight, so a read never
// races a replacement replica that is still catching up — the paper's
// redistribution algebra guarantees the copy is complete before the
// placement is published, and the pause keeps the failover window away
// from the one moment a replica is legitimately behind.
//
// Emits BENCH_chaos_soak.json. PFM_FAULT_SEED picks the injector and
// schedule seed; PFM_BENCH_QUICK=1 trims the iteration count. The
// detector's thresholds are set in ClusterConfig::heartbeat below.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_json.h"
#include "cluster/fault.h"
#include "clusterfile/fs.h"
#include "layout/partitions2d.h"
#include "util/buffer.h"
#include "util/timer.h"

namespace {

using namespace pfm;
using namespace pfm::bench;

constexpr int kNodes = 4;

/// Short deadlines: a dead replica costs a bounded few hundred ms per
/// degraded access, so crash windows do not dominate the wall clock.
RetryPolicy chaos_policy() {
  RetryPolicy p;
  p.base_timeout = std::chrono::milliseconds(30);
  p.max_timeout = std::chrono::milliseconds(120);
  p.max_attempts = 4;
  return p;
}

struct CellResult {
  const char* name = "";
  bool chaos = false;
  int iterations = 0;
  std::int64_t bytes_written = 0;
  std::int64_t bytes_read = 0;
  int transient_crashes = 0;
  int transient_restarts = 0;
  int permanent_kill = -1;  ///< I/O index killed mid-run, -1 = none
  std::int64_t placement_epoch = 0;
  std::size_t under_replicated = 0;
  ReliabilityCounters client;
  ReliabilityCounters server;
  ReliabilityCounters repair;
  FailureDetector::Counters detector;
  ScrubReport scrub;
  std::int64_t elapsed_us = 0;
};

[[noreturn]] void fatal(const char* cell, const char* what) {
  std::fprintf(stderr, "FATAL: chaos soak cell %s: %s\n", cell, what);
  std::exit(1);
}

CellResult run_cell(const char* name, bool chaos, int iterations,
                    std::int64_t n, std::uint64_t seed) {
  CellResult res;
  res.name = name;
  res.chaos = chaos;
  res.iterations = iterations;
  Timer timer;

  const auto phys_elems =
      partition2d_all(Partition2D::kRowBlocks, n, n, kNodes);
  const auto views = partition2d_all(Partition2D::kColumnBlocks, n, n, kNodes);
  const std::int64_t view_bytes = n * n / kNodes;

  ClusterConfig cfg;
  cfg.compute_nodes = kNodes;
  cfg.io_nodes = kNodes;
  cfg.replication = 2;
  cfg.self_heal = true;
  cfg.heartbeat.interval_ms = 30;
  cfg.heartbeat.timeout_ms = 20;
  cfg.heartbeat.suspect_n = 3;
  cfg.repair_retry = chaos_policy();
  Clusterfile fs(cfg,
                 PartitioningPattern({phys_elems.begin(), phys_elems.end()}, 0));
  if (chaos) {
    FaultPlan plan;
    plan.seed = seed;
    FaultRule rule;
    rule.drop = 0.01;
    plan.rules.push_back(rule);
    fs.install_faults(plan);
  }

  std::vector<std::int64_t> vids(kNodes);
  for (int c = 0; c < kNodes; ++c) {
    auto& client = fs.client(c);
    client.set_retry_policy(chaos_policy());
    vids[static_cast<std::size_t>(c)] =
        client.set_view(views[static_cast<std::size_t>(c)], n * n);
  }

  // The model: what each client's view must read back as.
  std::vector<Buffer> expected(kNodes);

  // Seeded schedule randomness (splitmix-style step, independent of the
  // injector's stream).
  std::uint64_t rng = seed * 0x9e3779b97f4a7c15ULL + 0xbf58476d1ce4e5b9ULL;
  const auto next_rand = [&rng] {
    rng += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = rng;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };

  int down = -1;           // transient-crashed I/O index, -1 = all up
  int killed = -1;         // permanently killed I/O index
  int restart_at = 0;      // iteration to restart `down`
  int next_crash_at = 3;   // iteration of the next transient crash
  const int kill_at = iterations / 2;

  const auto read_and_check = [&](int c, const char* when) {
    if (expected[static_cast<std::size_t>(c)].empty()) return;
    auto& client = fs.client(c);
    Buffer back(static_cast<std::size_t>(view_bytes));
    const auto t =
        client.read(vids[static_cast<std::size_t>(c)], 0, view_bytes - 1, back);
    if (!t.ok()) fatal(name, "foreground read failed outright");
    if (back != expected[static_cast<std::size_t>(c)]) fatal(name, when);
    res.bytes_read += view_bytes;
  };

  for (int i = 0; i < iterations; ++i) {
    if (chaos) {
      // Rejoin a transiently-crashed node once its window closes (the
      // restart waits out any in-flight repair before touching servers).
      if (down >= 0 && i >= restart_at) {
        fs.restart_server(static_cast<std::size_t>(down));
        ++res.transient_restarts;
        down = -1;
      }
      // The permanent kill: no isolate-warning, no restart, ever. Only the
      // detector's missed pings reveal it.
      if (killed < 0 && i >= kill_at) {
        if (down >= 0) {  // keep exactly one node dark at a time
          fs.restart_server(static_cast<std::size_t>(down));
          ++res.transient_restarts;
          down = -1;
        }
        // Never kill the lone surviving source of an in-flight copy.
        fs.await_repairs();
        killed = static_cast<int>(next_rand() % kNodes);
        fs.crash_server(static_cast<std::size_t>(killed));
        res.permanent_kill = killed;
      }
      // A second simultaneous outage is only safe once the killed node has
      // been evicted from every placement; until then some subfile may have
      // its lone live replica on the candidate.
      const auto killed_evicted = [&]() {
        if (killed < 0) return true;
        for (std::size_t s = 0; s < fs.subfile_count(); ++s)
          for (const int node : fs.replica_nodes(s))
            if (node == kNodes + killed) return false;
        return true;
      };
      // Transient crash-restart churn, paused while repairs are active so
      // foreground reads never race a catching-up replacement replica.
      if (down < 0 && i >= next_crash_at && !fs.repairs_active() &&
          killed_evicted()) {
        int cand = static_cast<int>(next_rand() % kNodes);
        if (cand == killed) cand = (cand + 1) % kNodes;
        fs.crash_server(static_cast<std::size_t>(cand));
        down = cand;
        ++res.transient_crashes;
        restart_at = i + 2;
        next_crash_at = i + 5;
      }
    }

    const int c = i % kNodes;
    auto& client = fs.client(c);
    Buffer gen = make_pattern_buffer(
        static_cast<std::size_t>(view_bytes),
        static_cast<std::uint64_t>(i) * 131 + static_cast<std::uint64_t>(c));
    const auto w =
        client.write(vids[static_cast<std::size_t>(c)], 0, view_bytes - 1, gen);
    if (!w.ok()) fatal(name, "foreground write failed outright");
    expected[static_cast<std::size_t>(c)] = std::move(gen);
    res.bytes_written += view_bytes;
    read_and_check(c, "read-back diverged from the written bytes");
    // And one cold view: a client that did not just write must agree too.
    read_and_check((c + 1) % kNodes, "cross-client read diverged");
  }

  // Quiesce: everyone transient comes back, repairs drain, stragglers
  // drain, and the whole file is verified through every view.
  if (down >= 0) {
    fs.restart_server(static_cast<std::size_t>(down));
    ++res.transient_restarts;
    down = -1;
  }
  fs.await_repairs();
  fs.drain_stragglers();
  for (int c = 0; c < kNodes; ++c)
    read_and_check(c, "quiesce read diverged");

  res.placement_epoch = fs.placement_epoch();
  res.under_replicated = fs.under_replicated_subfiles().size();
  if (res.under_replicated != 0)
    fatal(name, "subfiles still under-replicated at quiesce");
  if (killed >= 0) {
    // Every subfile the killed node hosted must have been re-replicated to
    // a live node: its id appears in no placement.
    for (std::size_t s = 0; s < fs.subfile_count(); ++s) {
      const std::vector<int> nodes = fs.replica_nodes(s);
      for (const int node : nodes)
        if (node == kNodes + killed)
          fatal(name, "killed node still holds a placed replica");
    }
  }
  res.scrub = fs.scrub();
  if (!res.scrub.clean()) fatal(name, "scrub found damage at quiesce");

  res.client = fs.client_reliability();
  res.server = fs.server_reliability();
  res.repair = fs.repair_reliability();
  res.detector = fs.detector()->counters();
  res.elapsed_us = static_cast<std::int64_t>(timer.elapsed_us());

  if (chaos) {
    if (res.repair.repairs_completed < 2)
      fatal(name, "the killed node's subfiles were never re-replicated");
    // repairs_failed is reported but not asserted zero: a transient crash
    // can take out the lone source mid-copy; the attempt fails honestly
    // and the quiesce re-plan converges, which the checks above prove.
    if (res.detector.dead_declarations < 1)
      fatal(name, "the permanent kill was never declared dead");
  } else {
    if (!res.client.all_zero() || !res.server.all_zero())
      fatal(name, "fault-free cell shows reliability work");
    if (!res.repair.all_zero())
      fatal(name, "fault-free cell ran repairs");
    if (res.detector.dead_declarations != 0)
      fatal(name, "false-positive dead declaration on a healthy cluster");
    if (res.placement_epoch != 0)
      fatal(name, "placement moved without a failure");
  }
  return res;
}

Json counters_json(const ReliabilityCounters& r) {
  Json j = Json::object();
  j.set("retries", Json::integer(r.retries));
  j.set("timeouts", Json::integer(r.timeouts));
  j.set("stale_replies", Json::integer(r.stale_replies));
  j.set("corruptions_detected", Json::integer(r.corruptions_detected));
  j.set("view_reinstalls", Json::integer(r.view_reinstalls));
  j.set("duplicates_suppressed", Json::integer(r.duplicates_suppressed));
  j.set("failures", Json::integer(r.failures));
  j.set("errors_sent", Json::integer(r.errors_sent));
  j.set("failovers", Json::integer(r.failovers));
  j.set("degraded", Json::integer(r.degraded));
  j.set("replica_failures", Json::integer(r.replica_failures));
  j.set("quorum_short", Json::integer(r.quorum_short));
  j.set("repairs_started", Json::integer(r.repairs_started));
  j.set("repairs_completed", Json::integer(r.repairs_completed));
  j.set("repairs_failed", Json::integer(r.repairs_failed));
  j.set("bytes_re_replicated", Json::integer(r.bytes_re_replicated));
  return j;
}

}  // namespace

int main() {
  const bool quick = std::getenv("PFM_BENCH_QUICK") != nullptr;
  const std::int64_t n = 128;
  const int iterations = quick ? 20 : 48;
  std::uint64_t seed = 1;
  if (const char* env = std::getenv("PFM_FAULT_SEED"); env && *env)
    seed = std::strtoull(env, nullptr, 10);

  std::vector<CellResult> cells;
  cells.push_back(run_cell("fault_free", /*chaos=*/false, iterations, n, seed));
  cells.push_back(run_cell("chaos", /*chaos=*/true, iterations, n, seed));

  std::printf("Chaos soak: %lldx%lld matrix, %d iterations per cell\n",
              static_cast<long long>(n), static_cast<long long>(n),
              iterations);
  std::printf("%-10s %8s %8s %7s %9s %9s %7s %9s %8s\n", "cell", "crashes",
              "restarts", "killed", "repairs", "re-repl B", "deaths",
              "failovers", "time s");
  for (const CellResult& r : cells)
    std::printf("%-10s %8d %8d %7d %9lld %9lld %7lld %9lld %8.1f\n", r.name,
                r.transient_crashes, r.transient_restarts, r.permanent_kill,
                static_cast<long long>(r.repair.repairs_completed),
                static_cast<long long>(r.repair.bytes_re_replicated),
                static_cast<long long>(r.detector.dead_declarations),
                static_cast<long long>(r.client.failovers),
                static_cast<double>(r.elapsed_us) / 1e6);

  Json arr = Json::array();
  for (const CellResult& r : cells) {
    Json j = Json::object();
    j.set("cell", Json::string(r.name));
    j.set("chaos", Json::boolean(r.chaos));
    j.set("iterations", Json::integer(r.iterations));
    j.set("bytes_written", Json::integer(r.bytes_written));
    j.set("bytes_read", Json::integer(r.bytes_read));
    j.set("transient_crashes", Json::integer(r.transient_crashes));
    j.set("transient_restarts", Json::integer(r.transient_restarts));
    j.set("permanent_kill", Json::integer(r.permanent_kill));
    j.set("placement_epoch", Json::integer(r.placement_epoch));
    j.set("under_replicated_at_quiesce",
          Json::integer(static_cast<std::int64_t>(r.under_replicated)));
    j.set("client", counters_json(r.client));
    j.set("server", counters_json(r.server));
    j.set("repair", counters_json(r.repair));
    Json det = Json::object();
    det.set("pings_sent", Json::integer(r.detector.pings_sent));
    det.set("pongs_received", Json::integer(r.detector.pongs_received));
    det.set("suspect_events", Json::integer(r.detector.suspect_events));
    det.set("dead_declarations", Json::integer(r.detector.dead_declarations));
    j.set("detector", std::move(det));
    Json sc = Json::object();
    sc.set("blocks_checked", Json::integer(r.scrub.blocks_checked));
    sc.set("divergent_blocks", Json::integer(r.scrub.divergent_blocks));
    sc.set("unreadable_blocks", Json::integer(r.scrub.unreadable_blocks));
    sc.set("repaired_blocks", Json::integer(r.scrub.repaired_blocks));
    sc.set("unrepaired_blocks", Json::integer(r.scrub.unrepaired_blocks));
    j.set("scrub", std::move(sc));
    j.set("elapsed_us", Json::integer(r.elapsed_us));
    arr.push(std::move(j));
  }
  Json root = Json::object();
  root.set("bench", Json::string("chaos_soak"));
  root.set("n", Json::integer(n));
  root.set("iterations", Json::integer(iterations));
  root.set("seed", Json::integer(static_cast<std::int64_t>(seed)));
  root.set("cells", std::move(arr));
  write_bench_json("chaos_soak", root);
  return 0;
}
