// Recovery soak: crash-consistent metadata end to end (DESIGN.md
// "Durability & recovery"). A durable, replicated, ring-placed cluster runs
// a fixed workload — seed writes, sync_metadata, a relayout, an elastic
// grow with its migrations, a second write round, a final sync — and a
// fault-free dry run counts the workload's metadata durability barriers
// (journal fsyncs, checkpoint file/dir fsyncs, journal truncations). The
// kill matrix then replays the workload once per barrier, arming a kill
// with arm_crash_after_syncs so the n-th barrier throws SimulatedCrash and
// freezes the metadata layer exactly as a SIGKILL at that fsync would.
//
// After every kill: remount the same directories and hard-gate
//   - the mount succeeds and recovers the file record,
//   - every byte acknowledged to a client before the kill reads back
//     byte-identical against a shadow copy maintained next to the cluster,
//   - recovery stays under a bound (kRecoveryBoundUs),
//   - pfm_fsck's checker (run_fsck) finds no errors afterwards.
// The dry run additionally gates counter-cleanliness: zero client
// reliability work and zero failed migrations on a clean wire.
//
// Emits BENCH_recovery_soak.json. PFM_BENCH_QUICK=1 strides the kill
// matrix instead of visiting every barrier.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "bench/bench_json.h"
#include "clusterfile/fs.h"
#include "clusterfile/journal.h"
#include "clusterfile/recover.h"
#include "layout/partitions2d.h"
#include "util/buffer.h"
#include "util/timer.h"

namespace {

using namespace pfm;
using namespace pfm::bench;

constexpr int kNodes = 4;
constexpr std::int64_t kN = 64;  // kN x kN byte matrix
constexpr std::int64_t kSubfiles = 4;
constexpr std::int64_t kRecoveryBoundUs = 10'000'000;  // 10 s, generous

[[noreturn]] void fatal(const char* where, const char* what) {
  std::fprintf(stderr, "FATAL: recovery soak %s: %s\n", where, what);
  std::exit(1);
}

RetryPolicy soak_policy() {
  RetryPolicy p;
  p.base_timeout = std::chrono::milliseconds(50);
  p.max_timeout = std::chrono::milliseconds(400);
  p.max_attempts = 8;
  return p;
}

PartitioningPattern pattern_of(Partition2D p) {
  const auto elems = partition2d_all(p, kN, kN, kSubfiles);
  return make_pattern({elems.begin(), elems.end()});
}

ClusterConfig durable_cfg(const std::filesystem::path& base) {
  ClusterConfig cfg;
  cfg.compute_nodes = kNodes;
  cfg.io_nodes = kNodes;
  cfg.replication = 2;
  cfg.write_quorum = 1;
  cfg.ring_placement = true;
  cfg.max_io_nodes = kNodes + 1;  // one spare for the elastic-grow step
  cfg.storage_dir = base / "storage";
  cfg.metadata_dir = base / "meta";
  return cfg;
}

/// The shadow oracle: per client, the bytes every *acknowledged* write said
/// that client's view holds. A kill may drop in-flight work, never acked
/// work — after remount each view must read back equal to its shadow.
struct Shadow {
  std::vector<Buffer> views;  ///< empty Buffer: view never written
};

struct WorkloadOutcome {
  bool killed = false;       ///< a SimulatedCrash surfaced on the main thread
  bool frozen = false;       ///< the armed kill fired somewhere (worker too)
  int steps_completed = 0;   ///< workload steps finished before the kill
};

/// Runs the workload over an already-constructed cluster, updating `shadow`
/// after every acknowledged write. A SimulatedCrash anywhere on the main
/// thread stops the workload — the process "died" at that barrier.
WorkloadOutcome run_workload(Clusterfile& fs, Shadow& shadow) {
  WorkloadOutcome out;
  const auto views = partition2d_all(Partition2D::kColumnBlocks, kN, kN, kNodes);
  const std::int64_t view_bytes = kN * kN / kNodes;
  shadow.views.assign(kNodes, Buffer{});

  const auto write_round = [&](unsigned tag) {
    for (int c = 0; c < kNodes; ++c) {
      auto& client = fs.client(c);
      client.set_retry_policy(soak_policy());
      const std::int64_t vid =
          client.set_view(views[static_cast<std::size_t>(c)], kN * kN);
      Buffer data = make_pattern_buffer(static_cast<std::size_t>(view_bytes),
                                        tag + static_cast<unsigned>(c));
      const auto w = client.write(vid, 0, view_bytes - 1, data);
      if (!w.ok()) fatal("workload", "fault-free write failed");
      shadow.views[static_cast<std::size_t>(c)] = std::move(data);
    }
  };

  try {
    write_round(100);
    ++out.steps_completed;
    fs.sync_metadata();
    ++out.steps_completed;
    // Same subfile count, different partitioning: the mount must serve the
    // recovered layout, whichever side of the kill the commit landed on.
    fs.relayout(pattern_of(Partition2D::kColumnBlocks), kN * kN);
    ++out.steps_completed;
    fs.add_io_node();
    fs.await_rebalance();
    ++out.steps_completed;
    write_round(200);
    ++out.steps_completed;
    fs.sync_metadata();
    ++out.steps_completed;
    fs.drain_stragglers();
    ++out.steps_completed;
  } catch (const SimulatedCrash&) {
    out.killed = true;
  }
  out.frozen = crash_tripped();
  return out;
}

struct CellResult {
  std::int64_t kill_at = 0;  ///< barrier index armed; 0 = fault-free
  WorkloadOutcome outcome;
  MountReport mount;
  std::int64_t workload_barriers = 0;  ///< barriers in the armed window
  std::int64_t recovery_us = 0;
  std::int64_t fsck_warnings = 0;
  std::int64_t elapsed_us = 0;
};

/// One soak cell: fresh directories, workload (killed at barrier
/// `kill_at`, 0 = never), shutdown, remount, byte-exact verification
/// against the shadow, then an offline fsck of what the remount left.
CellResult run_cell(const std::filesystem::path& base, std::int64_t kill_at) {
  CellResult res;
  res.kill_at = kill_at;
  Timer timer;
  std::filesystem::remove_all(base);
  Shadow shadow;
  std::int64_t armed_window_start = 0;
  {
    Clusterfile fs(durable_cfg(base), pattern_of(Partition2D::kRowBlocks));
    // Arm after construction: the matrix covers the barriers of the
    // workload *and* the shutdown flush (the fresh-create barriers are the
    // dry run's warm-up, not targets).
    armed_window_start = durability_barriers();
    if (kill_at > 0) arm_crash_after_syncs(kill_at);
    res.outcome = run_workload(fs, shadow);
  }
  // The destructor's persist+checkpoint are inside the armed window too —
  // judge "did the kill fire" only after it ran.
  res.workload_barriers = durability_barriers() - armed_window_start;
  res.outcome.frozen = crash_tripped();
  if (kill_at == 0 && (res.outcome.killed || res.outcome.frozen))
    fatal("dry-run", "crash fired with nothing armed");
  if (kill_at > 0 && !res.outcome.frozen)
    fatal("kill", "armed kill never reached its barrier");
  arm_crash_after_syncs(0);  // the "reboot": disarm and unfreeze

  {
    Clusterfile fs(durable_cfg(base), pattern_of(Partition2D::kRowBlocks));
    res.mount = fs.mount_report();
    if (!res.mount.durable || !res.mount.mounted)
      fatal("remount", "mount did not recover the file record");
    if (res.mount.recovery_us > kRecoveryBoundUs)
      fatal("remount", "recovery exceeded the time bound");
    if (res.mount.sync_failures != 0)
      fatal("remount", "mount could not re-sync a lagging copy");
    res.recovery_us = res.mount.recovery_us;
    const auto views =
        partition2d_all(Partition2D::kColumnBlocks, kN, kN, kNodes);
    const std::int64_t view_bytes = kN * kN / kNodes;
    for (int c = 0; c < kNodes; ++c) {
      const std::size_t ci = static_cast<std::size_t>(c);
      if (shadow.views[ci].empty()) continue;
      auto& client = fs.client(c);
      client.set_retry_policy(soak_policy());
      const std::int64_t vid = client.set_view(views[ci], kN * kN);
      Buffer back(static_cast<std::size_t>(view_bytes));
      const auto r = client.read(vid, 0, view_bytes - 1, back);
      if (!r.ok()) fatal("verify", "post-recovery read failed outright");
      if (back != shadow.views[ci])
        fatal("verify", "acked bytes diverged across the crash");
    }
    if (kill_at == 0) {
      const auto rel = fs.client_reliability();
      if (rel.failures != 0 || rel.timeouts != 0 ||
          rel.corruptions_detected != 0)
        fatal("dry-run", "fault-free cell shows reliability work");
    }
  }

  // Offline check of what the remount's reconcile + checkpoint left behind.
  FsckOptions opts;
  opts.metadata_dir = base / "meta";
  opts.storage_dir = base / "storage";
  const FsckReport rep = run_fsck(opts);
  if (!rep.metadata_readable || !rep.errors.empty())
    fatal("fsck", "checker found errors after recovery");
  res.fsck_warnings = static_cast<std::int64_t>(rep.warnings.size());
  res.elapsed_us = static_cast<std::int64_t>(timer.elapsed_us());
  return res;
}

}  // namespace

int main() {
  const bool quick = std::getenv("PFM_BENCH_QUICK") != nullptr;
  const auto base =
      std::filesystem::temp_directory_path() / "pfm_recovery_soak";

  // Dry run: no kill armed; its armed-window barrier count (workload +
  // shutdown flush) sizes the kill matrix.
  std::vector<CellResult> cells;
  cells.push_back(run_cell(base, 0));
  const std::int64_t total = cells[0].workload_barriers;
  if (total < 4) fatal("dry-run", "workload crossed implausibly few barriers");
  const std::int64_t stride = quick ? std::max<std::int64_t>(total / 6, 1) : 1;
  for (std::int64_t n = 1; n <= total; n += stride)
    cells.push_back(run_cell(base, n));
  std::filesystem::remove_all(base);

  int fired = 0, surfaced = 0;
  for (const CellResult& r : cells) {
    if (r.kill_at > 0 && r.outcome.frozen) ++fired;
    if (r.kill_at > 0 && r.outcome.killed) ++surfaced;
  }

  std::printf("Recovery soak: %lldx%lld matrix, %lld subfiles, %lld "
              "barrier(s), %zu kill cell(s) (stride %lld)\n",
              static_cast<long long>(kN), static_cast<long long>(kN),
              static_cast<long long>(kSubfiles),
              static_cast<long long>(total), cells.size() - 1,
              static_cast<long long>(stride));
  std::printf("%-9s %6s %6s %6s %9s %10s %8s %9s\n", "kill@", "fired",
              "main", "steps", "journal", "synced", "warn", "rec us");
  for (const CellResult& r : cells)
    std::printf("%-9lld %6s %6s %6d %9lld %10d %8lld %9lld\n",
                static_cast<long long>(r.kill_at),
                r.outcome.frozen ? "yes" : "no",
                r.outcome.killed ? "yes" : "no", r.outcome.steps_completed,
                static_cast<long long>(r.mount.journal_records),
                r.mount.subfiles_synced,
                static_cast<long long>(r.fsck_warnings),
                static_cast<long long>(r.recovery_us));
  std::printf("kills fired: %d, surfaced on main thread: %d\n", fired,
              surfaced);

  Json arr = Json::array();
  for (const CellResult& r : cells) {
    Json j = Json::object();
    j.set("kill_at", Json::integer(r.kill_at));
    j.set("kill_fired", Json::boolean(r.outcome.frozen));
    j.set("kill_surfaced_main", Json::boolean(r.outcome.killed));
    j.set("steps_completed", Json::integer(r.outcome.steps_completed));
    j.set("mounted", Json::boolean(r.mount.mounted));
    j.set("manifest_loaded", Json::boolean(r.mount.manifest_loaded));
    j.set("journal_records", Json::integer(r.mount.journal_records));
    j.set("journal_torn_tail", Json::boolean(r.mount.journal_torn_tail));
    j.set("subfiles_synced", Json::integer(r.mount.subfiles_synced));
    j.set("orphans_adopted", Json::integer(r.mount.orphans_adopted));
    j.set("copies_missing", Json::integer(r.mount.copies_missing));
    j.set("sync_failures", Json::integer(r.mount.sync_failures));
    j.set("fsck_warnings", Json::integer(r.fsck_warnings));
    j.set("recovery_us", Json::integer(r.recovery_us));
    j.set("elapsed_us", Json::integer(r.elapsed_us));
    arr.push(std::move(j));
  }
  Json root = Json::object();
  root.set("bench", Json::string("recovery_soak"));
  root.set("n", Json::integer(kN));
  root.set("subfiles", Json::integer(kSubfiles));
  root.set("barriers", Json::integer(total));
  root.set("kill_cells", Json::integer(static_cast<std::int64_t>(
      cells.size() - 1)));
  root.set("stride", Json::integer(stride));
  root.set("kills_fired", Json::integer(fired));
  root.set("recovery_bound_us", Json::integer(kRecoveryBoundUs));
  root.set("cells", std::move(arr));
  write_bench_json("recovery_soak", root);
  return 0;
}
