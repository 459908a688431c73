// Clusterfile façade: wires a simulated cluster (compute nodes + I/O nodes),
// one I/O server per node serving the subfiles assigned there round-robin,
// and clients on the compute nodes — the experimental setup of paper
// section 8.2 (four compute and four I/O nodes on a Myrinet cluster, here
// an in-process simulation; see DESIGN.md). Any subfile count works; the
// paper's evaluation uses one subfile per I/O node.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/failure_detector.h"
#include "clusterfile/client.h"
#include "clusterfile/io_server.h"
#include "clusterfile/metadata.h"
#include "clusterfile/placement.h"
#include "clusterfile/repair.h"
#include "clusterfile/storage_fault.h"
#include "redist/execute.h"
#include "ring/ring.h"

namespace pfm {

struct ClusterConfig {
  int compute_nodes = 4;
  int io_nodes = 4;
  /// Empty: in-memory subfiles (buffer cache); otherwise a directory for
  /// real subfile files (disk).
  std::filesystem::path storage_dir{};
  /// Paper section 8.1: the compute and I/O node sets "may or may not
  /// overlap". When true, I/O node i is co-located with compute node i
  /// (requires io_nodes <= compute_nodes); messages between them cost no
  /// modeled wire time.
  bool overlap = false;
  /// Copies of each subfile, on distinct I/O nodes (1 = no replication).
  /// Replica r of subfile i lives on I/O node (i + r) % io_nodes; clients
  /// fan writes out to every replica and fail reads over to a backup when
  /// the primary stops answering. Must not exceed io_nodes.
  int replication = 1;
  /// W-of-N write acknowledgment policy: a write returns once W replicas
  /// per target acked; the rest complete as background stragglers (pumped
  /// on later network waits, forced by drain_stragglers()). 0 (default) =
  /// wait for the full fan-out — today's semantics. Must be in
  /// [0, replication]. Safe below N because epoch re-sync and scrub repair
  /// any replica the straggler path abandons (DESIGN.md).
  int write_quorum = 0;
  /// Storage-level fault plan applied to every subfile replica (torn
  /// writes, bit rot, EIO, sticky-dead; storage_fault.h). Unset: no faults.
  std::optional<StorageFaultPlan> storage_faults{};
  /// Block size for the per-block CRC integrity layer over each replica.
  /// 0 (default) = automatic: IntegrityStorage::kDefaultBlock whenever
  /// replication > 1 or storage faults are configured, off otherwise.
  /// > 0 = explicit block size; negative values are rejected.
  std::int64_t integrity_block = 0;
  /// Self-healing (DESIGN.md "Self-healing"): run a heartbeat failure
  /// detector over the I/O nodes and, when one is declared dead,
  /// re-replicate every subfile it hosted onto a surviving node via the
  /// repair queue, then republish the placement so clients re-aim.
  /// Requires replication > 1.
  bool self_heal = false;
  /// Heartbeat thresholds of the failure detector.
  FailureDetector::Options heartbeat{};
  /// Delivery budget of one subfile repair or migration: per-attempt sync
  /// timeouts follow this backoff schedule, and the summed schedule is the
  /// copy's hard deadline across every source it tries (the shared
  /// per-access budget discipline of client accesses).
  RetryPolicy repair_retry{};
  /// Elastic membership (DESIGN.md "Elastic membership & rebalancing"):
  /// place subfile replicas with the weighted consistent-hash ring instead
  /// of the static round-robin rule. Required by add_io_node /
  /// decommission_node — elastic moves need a placement that is a pure
  /// function of the membership.
  bool ring_placement = false;
  /// Provisioned I/O-node capacity: network endpoints exist for this many
  /// I/O slots so add_io_node can activate spares at runtime (the
  /// in-process Network is fixed-size at construction, as a rack is).
  /// 0 = io_nodes (no headroom). Must be >= io_nodes.
  int max_io_nodes = 0;
  /// Byte limit per bulk-migration sync pull (>= 1). Chunking bounds how
  /// long one migration pull occupies the source's loop thread, keeping
  /// foreground latency flat while a rebalance runs, and makes migrations
  /// resumable.
  std::int64_t rebalance_chunk = 256 * 1024;
  /// Crash-consistent metadata (DESIGN.md "Durability & recovery"): a
  /// directory holding the checkpoint manifest plus the mutation journal.
  /// Non-empty = durable mount: construction replays checkpoint+journal,
  /// reconciles against the on-disk subfiles in storage_dir (preserving
  /// their contents instead of re-initialising), and every metadata
  /// mutation thereafter is journaled with fsync-before-apply. Empty
  /// (default) = ephemeral metadata, exactly as before.
  std::filesystem::path metadata_dir{};
};

/// What restart_server's re-sync pulled from the surviving replicas.
struct ResyncStats {
  int subfiles = 0;        ///< subfiles brought up to date
  std::int64_t ranges = 0; ///< distinct byte ranges transferred
  std::int64_t bytes = 0;  ///< payload bytes transferred
  int full_transfers = 0;  ///< subfiles needing a full copy (log trimmed)
  int failures = 0;        ///< subfiles with peers that could not be synced
  std::int64_t elapsed_us = 0;
};

/// Outcome of one scrub() pass over the replica sets.
struct ScrubReport {
  std::int64_t blocks_checked = 0;    ///< block positions compared
  std::int64_t divergent_blocks = 0;  ///< positions where a readable replica
                                      ///< disagreed with the authority
  std::int64_t unreadable_blocks = 0; ///< replica blocks whose read failed
                                      ///< (torn write, bit rot, EIO)
  std::int64_t repaired_blocks = 0;   ///< replica blocks rewritten
  std::int64_t unrepaired_blocks = 0; ///< damage with no readable authority
                                      ///< (or whose repair write failed)
  /// True when the pass found nothing wrong (not merely fixed everything —
  /// run scrub twice to prove convergence).
  bool clean() const {
    return divergent_blocks == 0 && unreadable_blocks == 0 &&
           unrepaired_blocks == 0;
  }
};

/// What a durable-mount construction recovered and reconciled.
struct MountReport {
  bool durable = false;   ///< metadata_dir was configured
  bool mounted = false;   ///< an existing file record was recovered (vs
                          ///< freshly created)
  bool manifest_loaded = false;
  std::int64_t journal_records = 0;  ///< replayed on top of the checkpoint
  bool journal_torn_tail = false;    ///< crash cut the last record short
  int subfiles_synced = 0;    ///< lagging copies brought up to the authority
  int orphans_adopted = 0;    ///< unrecorded copies promoted to primary
  int copies_missing = 0;     ///< recorded copies with no storage file
  int sync_failures = 0;      ///< lagging copies the mount could not sync
  std::int64_t recovery_us = 0;
};

class Clusterfile {
 public:
  /// Creates the cluster and a file physically partitioned by `physical`,
  /// one subfile per element, assigned round-robin to the I/O nodes.
  /// Compute nodes get node ids [0, compute_nodes); I/O nodes follow.
  ///
  /// With config.metadata_dir set this is also the mount path: an existing
  /// file record is recovered (checkpoint + journal replay), its layout,
  /// placement, and membership override the as-created defaults, on-disk
  /// subfile contents are preserved, and lagging copies re-sync from the
  /// highest-epoch authority (mount_report() says what happened). The
  /// passed `physical` must then have the recovered element count.
  Clusterfile(ClusterConfig config, PartitioningPattern physical);
  ~Clusterfile();

  Clusterfile(const Clusterfile&) = delete;
  Clusterfile& operator=(const Clusterfile&) = delete;

  int compute_nodes() const { return config_.compute_nodes; }
  int io_nodes() const { return config_.io_nodes; }
  const PartitioningPattern& physical() const { return *meta_.physical; }
  std::size_t subfile_count() const { return meta_.io_nodes.size(); }

  /// The client running on compute node c.
  ClusterfileClient& client(int c);
  /// The I/O server holding subfile i's primary replica (per the current
  /// placement — repair may have moved it since creation).
  IoServer& server_for(std::size_t subfile);
  /// Storage of subfile i's primary replica (wherever it lives).
  const SubfileStorage& subfile_storage(std::size_t subfile);
  /// I/O node ids holding subfile i, primary first. By value: repair
  /// republishes placements concurrently with readers.
  std::vector<int> replica_nodes(std::size_t subfile) const;
  /// Storage of replica r of subfile i (r indexes replica_nodes). The
  /// cluster must be quiescent — the replica's server loop owns the storage
  /// while requests are in flight.
  SubfileStorage& replica_storage(std::size_t subfile, std::size_t replica);
  Network& network() { return *net_; }

  /// The fault injector on the interconnect, installing an empty one on
  /// first use (which also turns message checksums on). Program it directly
  /// (isolate/cut) or replace its plan wholesale with install_faults.
  FaultInjector& faults();
  /// Installs a programmed fault plan (replaces any previous injector).
  void install_faults(FaultPlan plan);

  /// Simulates a crash of I/O node `io_index` (0-based among the I/O
  /// nodes): the node is isolated — requests sent to it vanish, exactly as
  /// to a dead machine, surfacing client-side as timeouts — and its server
  /// loop stops. Subfile storage survives, as a dead node's disks do.
  void crash_server(std::size_t io_index);
  /// Restarts a crashed I/O node over its surviving storage and reconnects
  /// it. The new server has no projections and an empty dedup cache;
  /// clients transparently re-install views on the first kUnknownView.
  /// With replication, each hosted subfile then pulls the writes it missed
  /// from a live peer replica (kSyncRequest/kSyncReply) before returning;
  /// callers must not race writes to the same file against the restart.
  ResyncStats restart_server(std::size_t io_index);

  /// Verifies replica agreement block by block (per-block compare through
  /// each replica's full storage stack, so CRC-verified reads reject torn
  /// or rotten blocks) and repairs divergent or unreadable replica blocks
  /// from the authoritative copy — the readable replica with the highest
  /// write epoch, ties to the lowest replica index. With replication = 1
  /// the pass is detect-only. The cluster must be quiescent.
  ScrubReport scrub();

  /// Stops storage-fault injection on every replica (sticky-dead disks stay
  /// dead), so a soak can freeze the damage and verify scrub converges.
  void disarm_storage_faults();

  /// Cluster-wide reliability counters: the sum over every client (retries,
  /// timeouts, re-installs...) and every live server (duplicates
  /// suppressed, corruptions caught, errors sent).
  ReliabilityCounters client_reliability() const;
  ReliabilityCounters server_reliability() const;
  /// Repair-queue counters (repairs_started/completed/failed, and
  /// bytes_re_replicated = bulk + catch-up bytes; the other fields stay
  /// zero). Empty when self-healing is off.
  ReliabilityCounters repair_reliability() const;

  /// The heartbeat failure detector, or nullptr when self_heal is off.
  /// mark_dead/mark_alive on it drive the repair hooks directly (tests).
  FailureDetector* detector() { return detector_.get(); }
  /// Blocks until no repair is queued or executing, then re-plans every
  /// still-dead node from current placement for a bounded number of rounds
  /// (a repair that lost its source mid-copy is terminal in the queue but
  /// re-plannable). Each repair's execution is bounded by its delivery
  /// budget, so this terminates.
  void await_repairs();
  /// True while a repair is queued or executing.
  bool repairs_active() const;
  /// Current placement version (0 until the first repair publishes).
  std::int64_t placement_epoch() const { return placement_->epoch(); }
  /// Subfiles whose usable replica count (placement nodes that are neither
  /// crashed nor detector-dead) is below the configured replication.
  std::vector<int> under_replicated_subfiles() const;

  // --- Elastic membership (requires ring_placement; DESIGN.md "Elastic
  // membership & rebalancing") ---

  /// Activates the next provisioned spare I/O slot with the given ring
  /// weight: starts a server on it, adds it to the heartbeat set, bumps the
  /// ring epoch, and enqueues the minimal-movement rebalance toward the new
  /// ring placement (await_rebalance() blocks on it). Returns the new I/O
  /// index. Throws std::runtime_error when no spare slot remains.
  int add_io_node(int weight = 1);

  /// Graceful removal (drain state machine, DESIGN.md): the node leaves
  /// the ring and enters kDraining — it keeps serving its copies but gains
  /// nothing new (repair and rebalance both skip draining targets) — then
  /// every subfile copy it holds migrates to its ring successor, each
  /// published atomically via the placement epoch bump. When the last copy
  /// is off, the node retires: unmonitored, server stopped. A node that
  /// dies mid-drain is handed to the self-heal repair path instead
  /// (re-replication from the surviving replicas). Bounded by a 30 s
  /// deadline; throws std::runtime_error when the drain misses it, leaving
  /// the node draining (call again or remove_node).
  void decommission_node(std::size_t io_index);

  /// Crash-style removal: the node leaves the ring, is crashed, and is
  /// declared dead to the detector in one step — data recovery is
  /// delegated entirely to the self-heal repair path.
  void remove_node(std::size_t io_index);

  /// Blocks until the queued migrations finish, then re-plans against the
  /// recorded target placement for a bounded number of rounds: a migration
  /// that lost its source, destination, or coordinator mid-copy is
  /// terminal in the queue but re-plannable from current placement, so
  /// this is also the crash-resume entry point.
  void await_rebalance();

  /// Membership epoch: bumped by every add / decommission / remove.
  std::int64_t ring_epoch() const {
    return ring_epoch_.load(std::memory_order_acquire);
  }

  /// Migration counters (kept apart from repair_reliability so fault-free
  /// counter-clean checks on the repair path stay meaningful).
  RebalanceCounters rebalance_counters() const;

  /// I/O indices currently serving traffic (active or draining), ascending.
  std::vector<int> serving_io_indices() const;

  /// Blocks until no client holds a background quorum straggler: each one
  /// either acks or exhausts its retry schedule (bounded by RetryPolicy).
  void drain_stragglers();
  /// Cumulative straggler outcomes summed over every client.
  std::int64_t stragglers_completed() const;
  std::int64_t stragglers_abandoned() const;

  /// What the constructor recovered on the durable-mount path (all-default
  /// when metadata_dir is empty).
  const MountReport& mount_report() const { return mount_report_; }

  /// Persists the current placement/size/membership state to the durable
  /// metadata (journaled; no-op on ephemeral clusters). The background
  /// repair and migration workers call this on completion; call it after a
  /// write burst to tighten the recovered-size lower bound. Throws
  /// SimulatedCrash when a crash point trips at one of its barriers.
  void sync_metadata();

  /// Mean scatter time per server for the workload since the last reset
  /// (Table 2's t_s: total scatter work one I/O node performed, averaged
  /// over the I/O nodes — not per message, so fragmentation into many small
  /// writes shows up as cost, as in the paper).
  double mean_server_scatter_us() const;
  void reset_server_phases();

  /// On-the-fly physical redistribution (paper section 3: "disk
  /// redistribution on the fly, like in Panda, in order to better suit the
  /// layout to a certain access pattern"). Re-partitions the first
  /// `file_size` bytes of the file from the current physical pattern to
  /// `new_physical` (same element count), replaces the subfile storage and
  /// restarts the I/O servers and clients.
  ///
  /// Must be called with no operation in flight. Views set before the
  /// relayout are invalidated, and client references obtained earlier are
  /// stale — re-acquire with client() and set views again.
  RedistStats relayout(PartitioningPattern new_physical, std::int64_t file_size);

 private:
  /// Drain state machine (DESIGN.md "Elastic membership & rebalancing"):
  /// kSpare -> kActive (add_io_node), kActive -> kDraining -> kRetired
  /// (decommission_node), kActive/kDraining -> kRetired (remove_node).
  enum class IoNodeState : char { kSpare, kActive, kDraining, kRetired };

  /// `preserve` (durable mount): open existing subfile files without
  /// truncation, restoring size and sidecar epoch.
  void start_servers(const std::vector<Buffer>* initial,
                     bool preserve = false);
  void start_clients();
  IoServer& server_at_node(int node_id);
  /// Detector on_dead hook: enqueues repairs for the lost node's subfiles.
  /// Runs on the detector (or overriding) thread.
  void on_node_dead(int node);
  /// Plans repairs for `dead`'s subfiles from current placement and
  /// enqueues them; returns how many were planned.
  std::size_t enqueue_repairs(int dead);
  /// Execute hook of both copy queues (DESIGN.md "Copy-and-publish"): a
  /// no-op when the published placement already holds the target; else
  /// adopts fresh storage on the target, pulls the subfile from the best
  /// current replica (chunk_bytes per pull, 0 = one unbounded pull) under
  /// the repair_retry delivery budget, publishes entry.new_replicas, closes
  /// the foreground-write gap with catch-up syncs, and persists. Runs on a
  /// queue worker thread.
  bool copy_and_publish(const CopyEntry& entry, std::int64_t chunk_bytes,
                        CopyStats* stats);
  /// Shared convergence loop of await_repairs / await_rebalance: awaits
  /// `queue` idle, then up to kConvergeRounds times lets `replan` plan from
  /// current placement and enqueue (false: nothing left to plan) and awaits
  /// idle again. Bounded so persistently failing copies cannot livelock.
  void await_converged(CopyQueue& queue, const std::function<bool()>& replan);
  bool is_crashed(std::size_t io_index) const PFM_EXCLUDES(crash_mu_);
  /// Node is unusable as a data source or fan-out target: crashed,
  /// declared dead by the detector, or not serving (spare/retired). A
  /// *draining* node is still usable here — it holds live copies the drain
  /// is busy reading.
  bool node_unusable(int node) const PFM_EXCLUDES(member_mu_);
  /// Node must not *gain* replicas: unusable, or draining (repair and
  /// rebalance placing copies on a draining node would fight the drain).
  bool node_unplaceable(int node) const PFM_EXCLUDES(member_mu_);
  /// Ring-derived replica table over the current members (one row per
  /// subfile, primary first, replication-many nodes per row).
  std::vector<std::vector<int>> ring_target() const PFM_REQUIRES(member_mu_);
  /// Dense-prefix estimate of the logical file size (displacement plus the
  /// live replicas' stored bytes), feeding plan_rebalance's minima.
  std::int64_t file_size_estimate() const;
  /// Records the current ring placement as the rebalance target and
  /// enqueues the minimal transfer plan toward it.
  void enqueue_rebalance() PFM_EXCLUDES(member_mu_);
  /// sync_metadata body; requires meta_mu_ because repair/migration
  /// workers and the main thread converge concurrently.
  void persist_meta() PFM_EXCLUDES(meta_mu_);
  /// Write epochs feed both replica re-sync (replication) and the durable
  /// mount's authority decision, so durable clusters track them even when
  /// unreplicated.
  bool track_epochs() const {
    return config_.replication > 1 || !config_.metadata_dir.empty();
  }

  ClusterConfig config_;
  std::int64_t integrity_block_ = 0;  ///< resolved from config (0 = off)
  std::unique_ptr<Network> net_;
  FileMeta meta_;
  std::shared_ptr<PlacementDirectory> placement_;
  /// One slot per *provisioned* I/O node (max_io_nodes); spare and retired
  /// slots hold nullptr. Slots are only replaced by restart_server /
  /// relayout / add_io_node, all of which first drain the workers that
  /// could hold a reference.
  std::vector<std::unique_ptr<IoServer>> servers_;
  mutable Mutex crash_mu_{"Clusterfile::crash_mu"};
  /// Per provisioned I/O node; read by repair workers, written by
  /// crash/restart.
  std::vector<char> crashed_ PFM_GUARDED_BY(crash_mu_);
  std::vector<std::unique_ptr<ClusterfileClient>> clients_;
  /// Distinct storage slot per repaired or migrated copy, so a new copy's
  /// file never collides with a prior node's surviving one.
  std::atomic<int> repair_slot_{0};
  std::unique_ptr<CopyQueue> repairer_;  ///< before detector_: the
                                         ///< detector enqueues into it
  /// Membership state. Leaf lock: nothing else is acquired under it.
  mutable Mutex member_mu_{"Clusterfile::member_mu"};
  std::vector<IoNodeState> node_state_ PFM_GUARDED_BY(member_mu_);
  PlacementRing ring_ PFM_GUARDED_BY(member_mu_);
  /// Placement every queued migration is moving toward; empty when no
  /// rebalance is pending (await_rebalance re-plans against it).
  std::vector<std::vector<int>> rebalance_target_ PFM_GUARDED_BY(member_mu_);
  std::atomic<std::int64_t> ring_epoch_{0};
  std::unique_ptr<CopyQueue> rebalancer_;  ///< only with ring_placement
  std::unique_ptr<FailureDetector> detector_;
  /// Durable metadata store (journal attached iff metadata_dir is set).
  /// meta_mu_ serialises the persisting callers (repair/migration workers
  /// vs the main thread); it is a leaf lock below member_mu_.
  mutable Mutex meta_mu_{"Clusterfile::meta_mu"};
  MetadataManager meta_store_ PFM_GUARDED_BY(meta_mu_);
  MountReport mount_report_;
  /// Name of the single file record a Clusterfile keeps in its metadata.
  static constexpr const char* kMetaFile = "clusterfile";
};

}  // namespace pfm
