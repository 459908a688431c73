#include "clusterfile/fs.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "clusterfile/journal.h"
#include "clusterfile/recover.h"
#include "util/check.h"
#include "util/log.h"
#include "util/timer.h"

namespace pfm {

namespace {

/// Re-plan rounds after a copy queue drains (await_repairs /
/// await_rebalance): enough for a node rejoin or a lost source to converge,
/// bounded so persistently failing copies cannot spin into a livelock.
constexpr int kConvergeRounds = 4;
/// Post-publish catch-up syncs per copy; each stops at the first sync that
/// moves 0 bytes.
constexpr int kCatchUpSyncs = 5;
/// Workers per copy queue (repairs and migrations each get their own).
constexpr int kCopyWorkers = 2;
/// Deadline for decommission_node's drain.
constexpr std::chrono::milliseconds kDrainTimeout{30'000};

}  // namespace

Clusterfile::Clusterfile(ClusterConfig config, PartitioningPattern physical)
    : config_(config) {
  if (config_.compute_nodes < 1 || config_.io_nodes < 1)
    throw std::invalid_argument("Clusterfile: need at least one node of each kind");
  if (config_.replication < 1 || config_.replication > config_.io_nodes)
    throw std::invalid_argument(
        "Clusterfile: replication must be in [1, io_nodes]");
  if (config_.write_quorum < 0 || config_.write_quorum > config_.replication)
    throw std::invalid_argument(
        "Clusterfile: write_quorum must be in [0, replication]");
  if (config_.self_heal && config_.replication < 2)
    throw std::invalid_argument(
        "Clusterfile: self_heal needs replication > 1 (a lone copy has no "
        "surviving source to repair from)");
  if (config_.max_io_nodes == 0) config_.max_io_nodes = config_.io_nodes;
  if (config_.max_io_nodes < config_.io_nodes)
    throw std::invalid_argument(
        "Clusterfile: max_io_nodes must be >= io_nodes");
  if (config_.rebalance_chunk < 1)
    throw std::invalid_argument("Clusterfile: rebalance_chunk must be >= 1");
  if (config_.integrity_block < 0)
    throw std::invalid_argument("Clusterfile: integrity_block must be >= 0");
  // Integrity checking turns on automatically exactly when something can
  // damage stored bytes (replication implies scrub, faults imply damage);
  // plain single-copy runs keep the PR-3 fast path with no CRC work.
  if (config_.integrity_block > 0) {
    integrity_block_ = config_.integrity_block;
  } else if (config_.replication > 1 || config_.storage_faults) {
    integrity_block_ = IntegrityStorage::kDefaultBlock;
  }
  meta_.physical =
      std::make_shared<const PartitioningPattern>(std::move(physical));
  const std::size_t subfiles = meta_.physical->element_count();

  // Endpoints for every *provisioned* I/O slot (spares included, so
  // add_io_node never has to grow the fixed-size Network) plus one extra
  // past the node ids: the failure detector's dedicated inbox (allocated
  // unconditionally so node ids are config-independent).
  net_ = std::make_unique<Network>(
      config_.compute_nodes + config_.max_io_nodes + 1);
  if (config_.overlap) {
    if (config_.io_nodes > config_.compute_nodes)
      throw std::invalid_argument(
          "Clusterfile: overlapping node sets need io_nodes <= compute_nodes");
    // Compute endpoint c is machine c; initial I/O endpoint i shares
    // machine i. Spare slots and the detector endpoint get machines of
    // their own — a spare is a new rack member, and probes cross the wire
    // like any monitoring host's would.
    std::vector<int> machines;
    for (int c = 0; c < config_.compute_nodes; ++c) machines.push_back(c);
    for (int i = 0; i < config_.io_nodes; ++i) machines.push_back(i);
    for (int i = config_.io_nodes; i < config_.max_io_nodes; ++i)
      machines.push_back(config_.compute_nodes + (i - config_.io_nodes));
    machines.push_back(config_.compute_nodes +
                       (config_.max_io_nodes - config_.io_nodes));
    net_->set_machines(std::move(machines));
  }
  {
    MutexLock lock(member_mu_);
    node_state_.assign(static_cast<std::size_t>(config_.max_io_nodes),
                       IoNodeState::kSpare);
    for (int i = 0; i < config_.io_nodes; ++i)
      node_state_[static_cast<std::size_t>(i)] = IoNodeState::kActive;
    for (int i = 0; i < config_.io_nodes; ++i)
      ring_.add_node(config_.compute_nodes + i);
  }
  meta_.write_quorum = config_.write_quorum;
  meta_.io_nodes.resize(subfiles);
  meta_.replicas.resize(subfiles);
  if (config_.ring_placement) {
    // Ring placement: replicas of subfile i are the first `replication`
    // distinct members clockwise from hash(i) — a pure function of the
    // membership, which is what lets add/decommission plan minimal moves.
    MutexLock lock(member_mu_);
    for (std::size_t i = 0; i < subfiles; ++i) {
      meta_.replicas[i] =
          ring_.replicas_for(static_cast<std::uint64_t>(i), config_.replication);
      meta_.io_nodes[i] = meta_.replicas[i][0];
    }
  } else {
    // Static placement: subfile i is served by I/O node (compute_nodes +
    // i % io_nodes); replica r follows at (i + r) % io_nodes, so
    // consecutive subfiles spread their backups across distinct nodes
    // (k-way declustering).
    for (std::size_t i = 0; i < subfiles; ++i) {
      for (int r = 0; r < config_.replication; ++r)
        meta_.replicas[i].push_back(
            config_.compute_nodes +
            static_cast<int>(i + static_cast<std::size_t>(r)) % config_.io_nodes);
      meta_.io_nodes[i] = meta_.replicas[i][0];
    }
  }
  if constexpr (kDcheckEnabled) {
    for (std::size_t i = 0; i < subfiles; ++i)
      for (const int node : meta_.replicas[i])
        PFM_DCHECK(node >= config_.compute_nodes &&
                       node < config_.compute_nodes + config_.io_nodes,
                   "subfile ", i, " assigned to non-I/O node ", node);
  }
  {
    MutexLock lock(crash_mu_);
    crashed_.assign(static_cast<std::size_t>(config_.max_io_nodes), 0);
  }

  // Durable mount (DESIGN.md "Durability & recovery"): recover the file
  // record from checkpoint+journal, let it override the as-created layout,
  // placement, and membership computed above, and reconcile it against
  // whatever subfile copies actually survived on disk.
  bool preserve = false;
  std::int64_t placement_seed = 0;
  ReconcilePlan mount_plan;
  Timer mount_timer;
  if (!config_.metadata_dir.empty()) {
    mount_report_.durable = true;
    FileRecord rec;
    {
      MutexLock lock(meta_mu_);
      const RecoveryInfo info = meta_store_.open_durable(config_.metadata_dir);
      mount_report_.manifest_loaded = info.manifest_loaded;
      mount_report_.journal_records = info.journal_records;
      mount_report_.journal_torn_tail = info.journal_torn_tail;
      if (meta_store_.exists(kMetaFile)) {
        rec = meta_store_.lookup(kMetaFile);
        mount_report_.mounted = true;
      }
    }
    if (mount_report_.mounted) {
      if (rec.subfile_falls.size() != subfiles)
        throw std::invalid_argument(
            "Clusterfile: recovered metadata holds " +
            std::to_string(rec.subfile_falls.size()) +
            " subfile(s) but the mount pattern has " +
            std::to_string(subfiles) +
            " — remount with the recorded element count");
      // The record is the authority for everything a crash must not lose.
      meta_.physical =
          std::make_shared<const PartitioningPattern>(rec.pattern());
      meta_.write_quorum = rec.write_quorum;
      config_.write_quorum = rec.write_quorum;
      ring_epoch_.store(rec.ring_epoch, std::memory_order_release);
      {
        MutexLock lock(member_mu_);
        for (const int node : rec.retired_nodes) {
          const int idx = node - config_.compute_nodes;
          if (idx < 0 || idx >= static_cast<int>(node_state_.size()))
            throw std::invalid_argument(
                "Clusterfile: recovered retired node out of the provisioned "
                "range (remount with the original compute/max_io_nodes)");
          if (ring_.contains(node)) ring_.remove_node(node);
          node_state_[static_cast<std::size_t>(idx)] = IoNodeState::kRetired;
        }
        // A recovered placement may live on slots that were spares at this
        // config's io_nodes (added by add_io_node before the crash) —
        // activate them so their servers start.
        const auto activate = [&](int node) {
          const int idx = node - config_.compute_nodes;
          if (idx < 0 || idx >= static_cast<int>(node_state_.size()))
            throw std::invalid_argument(
                "Clusterfile: recovered placement references a node outside "
                "the provisioned range");
          if (node_state_[static_cast<std::size_t>(idx)] ==
              IoNodeState::kSpare) {
            node_state_[static_cast<std::size_t>(idx)] = IoNodeState::kActive;
            ring_.add_node(node);
          }
        };
        if (rec.replica_nodes.empty()) {
          for (const int n : rec.io_nodes) activate(n);
        } else {
          for (const auto& row : rec.replica_nodes)
            for (const int n : row) activate(n);
        }
      }
      // Reconcile against the on-disk copies: the highest-epoch copy on a
      // serving node is the authority, even when the metadata never heard
      // of it (a repair/migration that crashed after moving the data but
      // before its journal record landed).
      std::vector<IoNodeState> states;
      {
        MutexLock lock(member_mu_);
        states = node_state_;
      }
      mount_plan = plan_reconcile(
          rec, scan_storage(config_.storage_dir), [&](int node) {
            const int idx = node - config_.compute_nodes;
            if (idx < 0 || idx >= static_cast<int>(states.size())) return false;
            const IoNodeState st = states[static_cast<std::size_t>(idx)];
            return st == IoNodeState::kActive || st == IoNodeState::kDraining;
          });
      for (std::size_t i = 0; i < subfiles; ++i) {
        meta_.replicas[i] = mount_plan.rows[i].replicas;
        meta_.io_nodes[i] = meta_.replicas[i][0];
        if (mount_plan.rows[i].orphan_adopted) ++mount_report_.orphans_adopted;
        mount_report_.copies_missing +=
            static_cast<int>(mount_plan.rows[i].missing.size());
      }
      // Seed the placement epoch from the record so clients and the
      // manifest agree across the remount; an adopted divergence advances
      // it (persist_meta below records the new rows under that epoch).
      placement_seed = rec.placement_epoch + (mount_plan.changed ? 1 : 0);
      preserve = true;
    } else {
      // Fresh durable create: journal the as-created record so even a
      // crash before the first checkpoint can rebuild it.
      FileRecord fresh;
      fresh.name = kMetaFile;
      fresh.displacement = meta_.physical->displacement();
      fresh.subfile_falls = meta_.physical->elements();
      fresh.io_nodes = meta_.io_nodes;
      if (config_.replication > 1) fresh.replica_nodes = meta_.replicas;
      fresh.write_quorum = config_.write_quorum;
      MutexLock lock(meta_mu_);
      meta_store_.create(std::move(fresh));
    }
  }
  placement_ =
      std::make_shared<PlacementDirectory>(meta_.replicas, placement_seed);

  start_servers(nullptr, preserve);
  start_clients();

  // Close the data gap the reconciliation found: every lagging (or
  // missing) recorded copy pulls from the authority before the mount
  // returns, so divergence surfaces as re-sync work, not as a failure.
  if (mount_report_.mounted) {
    for (const ReconcileRow& row : mount_plan.rows) {
      if (row.authority < 0) continue;
      for (const int node : row.lagging) {
        bool ok = false;
        try {
          const IoServer::SyncOutcome out = server_at_node(node).sync_subfile(
              row.subfile, row.authority, /*attempts=*/5,
              std::chrono::milliseconds(400));
          ok = out.ok;
        } catch (const std::exception&) {
        }
        if (ok)
          ++mount_report_.subfiles_synced;
        else
          ++mount_report_.sync_failures;
      }
    }
  }
  if (mount_report_.durable) {
    // Record what the mount decided (reconciled placement under the
    // advanced epoch) and fold everything into a fresh checkpoint, so the
    // next recovery starts from here. A SimulatedCrash propagates: the
    // harness is killing the mount itself.
    persist_meta();
    {
      MutexLock lock(meta_mu_);
      meta_store_.checkpoint();
    }
    mount_report_.recovery_us =
        static_cast<std::int64_t>(mount_timer.elapsed_us());
  }

  // Migrations pull in rebalance_chunk pieces so foreground traffic
  // interleaves; a repair is one unbounded full pull.
  if (config_.ring_placement)
    rebalancer_ = std::make_unique<CopyQueue>(
        [this](const CopyEntry& e, CopyStats* stats) {
          return copy_and_publish(e, config_.rebalance_chunk, stats);
        },
        kCopyWorkers);

  if (config_.self_heal) {
    // Queue before detector: the detector's on_dead callback enqueues into
    // the queue, so it must already exist when probing starts.
    repairer_ = std::make_unique<CopyQueue>(
        [this](const CopyEntry& e, CopyStats* stats) {
          return copy_and_publish(e, /*chunk_bytes=*/0, stats);
        },
        kCopyWorkers);
    std::vector<int> monitored;
    for (int i = 0; i < config_.io_nodes; ++i)
      monitored.push_back(config_.compute_nodes + i);
    detector_ = std::make_unique<FailureDetector>(
        *net_, config_.compute_nodes + config_.max_io_nodes,
        std::move(monitored),
        config_.heartbeat,
        /*on_dead=*/[this](int node) { on_node_dead(node); },
        /*on_alive=*/FailureDetector::Callback{});
  }
}

void Clusterfile::start_clients() {
  clients_.clear();
  clients_.reserve(static_cast<std::size_t>(config_.compute_nodes));
  for (int c = 0; c < config_.compute_nodes; ++c)
    clients_.push_back(std::make_unique<ClusterfileClient>(
        *net_, c, meta_,
        std::shared_ptr<const PlacementDirectory>(placement_)));
}

void Clusterfile::start_servers(const std::vector<Buffer>* initial,
                                bool preserve) {
  const std::size_t subfiles = meta_.io_nodes.size();
  const StorageFaultPlan* faults =
      config_.storage_faults ? &*config_.storage_faults : nullptr;
  std::vector<IoNodeState> states;
  {
    MutexLock lock(member_mu_);
    states = node_state_;
  }
  servers_.clear();
  servers_.resize(static_cast<std::size_t>(config_.max_io_nodes));
  for (int node = 0; node < config_.max_io_nodes; ++node) {
    // Spare slots have an endpoint but no server until add_io_node
    // activates them; retired slots stay empty after a relayout.
    const IoNodeState st = states[static_cast<std::size_t>(node)];
    if (st == IoNodeState::kSpare || st == IoNodeState::kRetired) continue;
    IoServer::SubfileStorages storages;
    for (std::size_t i = 0; i < subfiles; ++i) {
      for (std::size_t r = 0; r < meta_.replicas[i].size(); ++r) {
        if (meta_.replicas[i][r] != config_.compute_nodes + node) continue;
        // Faults live directly over the backend; integrity sits above them
        // so injected torn writes and bit rot are what the CRC layer sees.
        // Files are named by the absolute node id so a cold mount (and
        // pfm_fsck) can map every copy back to its placement row.
        auto storage = make_storage(config_.storage_dir, static_cast<int>(i),
                                    static_cast<int>(r), faults,
                                    /*node=*/config_.compute_nodes + node,
                                    preserve);
        if (integrity_block_ > 0)
          storage = std::make_unique<IntegrityStorage>(std::move(storage),
                                                       integrity_block_);
        if (initial != nullptr && !(*initial)[i].empty())
          storage->write(0, (*initial)[i]);
        storages.emplace_back(static_cast<int>(i), std::move(storage));
      }
    }
    servers_[static_cast<std::size_t>(node)] = std::make_unique<IoServer>(
        *net_, config_.compute_nodes + node, std::move(storages),
        /*track_epochs=*/track_epochs());
  }
}

Clusterfile::~Clusterfile() {
  // Shutdown order matters. The detector first (no new dead declarations),
  // then the repair workers (nothing else touches the servers), then a
  // bounded straggler drain — closing the network with quorum stragglers
  // still pending used to drop them silently, leaving replicas divergent
  // with no accounting. The drain is bounded by each straggler's remaining
  // RetryPolicy schedule, and whatever it abandons is surfaced.
  if (detector_) detector_->stop();
  if (repairer_) repairer_->stop();
  if (rebalancer_) rebalancer_->stop();
  for (auto& c : clients_) c->drain_stragglers();
  const std::int64_t abandoned = stragglers_abandoned();
  if (abandoned > 0)
    PFM_WARN("clusterfile: shutdown abandoned ", abandoned,
             " quorum straggler(s); epoch re-sync or scrub must repair the "
             "replicas they missed");
  // Clean shutdown leaves a fresh checkpoint behind (while the servers are
  // still up — the size estimate reads their storages). A crash point that
  // fires here is swallowed: the dtor simulates the kill by simply not
  // persisting anything further.
  try {
    persist_meta();
    MutexLock lock(meta_mu_);
    meta_store_.checkpoint();
  } catch (const SimulatedCrash&) {
  } catch (const std::exception& e) {
    // Real I/O failure (metadata directory vanished, disk full): the flush
    // is best-effort — the journal already holds every acked mutation, so
    // losing the final checkpoint costs replay time, never data. A dtor
    // must not unwind.
    PFM_WARN("clusterfile: shutdown checkpoint failed: ", e.what());
  }
  for (auto& s : servers_)
    if (s) s->stop();
  net_->close_all();
}

ClusterfileClient& Clusterfile::client(int c) {
  if (c < 0 || c >= config_.compute_nodes)
    throw std::out_of_range("Clusterfile::client: bad compute node");
  return *clients_[static_cast<std::size_t>(c)];
}

IoServer& Clusterfile::server_for(std::size_t subfile) {
  if (subfile >= placement_->subfile_count())
    throw std::out_of_range("Clusterfile::server_for: bad subfile");
  return server_at_node(placement_->primary_of(subfile));
}

const SubfileStorage& Clusterfile::subfile_storage(std::size_t subfile) {
  return server_for(subfile).storage(static_cast<int>(subfile));
}

std::vector<int> Clusterfile::replica_nodes(std::size_t subfile) const {
  if (subfile >= placement_->subfile_count())
    throw std::out_of_range("Clusterfile::replica_nodes: bad subfile");
  return placement_->replicas_of(subfile);
}

IoServer& Clusterfile::server_at_node(int node_id) {
  const int idx = node_id - config_.compute_nodes;
  if (idx < 0 || idx >= static_cast<int>(servers_.size()) ||
      !servers_[static_cast<std::size_t>(idx)])
    throw std::out_of_range("Clusterfile: node is not a serving I/O node");
  return *servers_[static_cast<std::size_t>(idx)];
}

SubfileStorage& Clusterfile::replica_storage(std::size_t subfile,
                                             std::size_t replica) {
  const std::vector<int> nodes = replica_nodes(subfile);
  if (replica >= nodes.size())
    throw std::out_of_range("Clusterfile::replica_storage: bad replica");
  return server_at_node(nodes[replica]).storage_mut(static_cast<int>(subfile));
}

FaultInjector& Clusterfile::faults() {
  if (net_->faults() == nullptr)
    net_->install_faults(std::make_shared<FaultInjector>(FaultPlan{}));
  return *net_->faults();
}

void Clusterfile::install_faults(FaultPlan plan) {
  net_->install_faults(std::make_shared<FaultInjector>(std::move(plan)));
}

void Clusterfile::crash_server(std::size_t io_index) {
  if (io_index >= servers_.size() || !servers_[io_index])
    throw std::out_of_range("Clusterfile::crash_server: bad I/O node");
  const int node = config_.compute_nodes + static_cast<int>(io_index);
  // Isolate before stopping: in-flight and future requests vanish on the
  // wire (the dead-machine experience — clients see timeouts, not errors).
  faults().isolate(node);
  servers_[io_index]->stop();
  MutexLock lock(crash_mu_);
  crashed_[io_index] = 1;
}

bool Clusterfile::is_crashed(std::size_t io_index) const {
  MutexLock lock(crash_mu_);
  return crashed_[io_index] != 0;
}

bool Clusterfile::node_unusable(int node) const {
  const std::size_t idx = static_cast<std::size_t>(node - config_.compute_nodes);
  {
    MutexLock lock(member_mu_);
    if (idx < node_state_.size()) {
      const IoNodeState st = node_state_[idx];
      if (st == IoNodeState::kSpare || st == IoNodeState::kRetired) return true;
    }
  }
  if (is_crashed(idx)) return true;
  return detector_ && detector_->is_dead(node);
}

bool Clusterfile::node_unplaceable(int node) const {
  const std::size_t idx = static_cast<std::size_t>(node - config_.compute_nodes);
  {
    MutexLock lock(member_mu_);
    if (idx < node_state_.size() &&
        node_state_[idx] == IoNodeState::kDraining)
      return true;
  }
  return node_unusable(node);
}

ResyncStats Clusterfile::restart_server(std::size_t io_index) {
  if (io_index >= servers_.size() || !servers_[io_index])
    throw std::out_of_range("Clusterfile::restart_server: bad I/O node");
  // A repair or migration worker may hold a reference to the IoServer
  // object this replaces — wait them out before destroying anything.
  if (repairer_) repairer_->await_idle();
  if (rebalancer_) rebalancer_->await_idle();
  const int node = config_.compute_nodes + static_cast<int>(io_index);
  IoServer::SubfileStorages storages = servers_[io_index]->take_storages();
  servers_[io_index] = std::make_unique<IoServer>(
      *net_, node, std::move(storages), /*track_epochs=*/track_epochs());
  faults().restore(node);
  {
    MutexLock lock(crash_mu_);
    crashed_[io_index] = 0;
  }

  // Re-sync: each hosted subfile pulls the writes the dead period missed
  // from the first live peer replica that answers. Every live replica saw
  // the same fan-out writes, so any one of them is authoritative. A subfile
  // the repair planner moved off this node while it was down is skipped —
  // the node still stores the stale copy, but the published placement no
  // longer aims anyone at it.
  ResyncStats rs;
  Timer t;
  if (config_.replication > 1) {
    for (const int subfile : servers_[io_index]->subfile_ids()) {
      const std::vector<int> peers =
          placement_->replicas_of(static_cast<std::size_t>(subfile));
      if (std::find(peers.begin(), peers.end(), node) == peers.end())
        continue;
      bool synced = false;
      bool had_peer = false;
      for (const int peer : peers) {
        if (peer == node) continue;
        if (is_crashed(static_cast<std::size_t>(peer - config_.compute_nodes)))
          continue;
        had_peer = true;
        const IoServer::SyncOutcome out = servers_[io_index]->sync_subfile(
            subfile, peer, /*attempts=*/5, std::chrono::milliseconds(400));
        if (out.ok) {
          ++rs.subfiles;
          rs.ranges += out.ranges;
          rs.bytes += out.bytes;
          if (out.full) ++rs.full_transfers;
          synced = true;
          break;
        }
      }
      if (had_peer && !synced) ++rs.failures;
    }
  }
  rs.elapsed_us = static_cast<std::int64_t>(t.elapsed_us());

  // A rejoin can unblock repairs that were skipped for lack of a usable
  // replacement (planner: "they stay under-replicated until a node
  // returns"). Re-plan every other still-dead node; subfiles already
  // repaired produce no entries, so this is idempotent.
  if (repairer_ && detector_)
    for (const int dead : detector_->dead_nodes())
      if (dead != node) enqueue_repairs(dead);
  return rs;
}

ScrubReport Clusterfile::scrub() {
  // Scrub walks replica storage directly; let in-flight repairs (which own
  // the replacement copies they are filling) finish first.
  if (repairer_) repairer_->await_idle();
  ScrubReport rep;
  const std::int64_t block =
      integrity_block_ > 0 ? integrity_block_ : IntegrityStorage::kDefaultBlock;
  for (std::size_t i = 0; i < subfile_count(); ++i) {
    // Live replicas of subfile i, with their epochs; crashed nodes keep
    // their disks but are not scrubbed (they re-sync on restart).
    struct Rep {
      SubfileStorage* st = nullptr;
      std::int64_t epoch = 0;
    };
    std::vector<Rep> reps;
    for (const int node : placement_->replicas_of(i)) {
      const std::size_t idx =
          static_cast<std::size_t>(node - config_.compute_nodes);
      if (is_crashed(idx) || !servers_[idx]) continue;
      IoServer& srv = *servers_[idx];
      reps.push_back(
          {&srv.storage_mut(static_cast<int>(i)), srv.subfile_epoch(static_cast<int>(i))});
    }
    if (reps.empty()) continue;
    std::int64_t max_size = 0;
    for (const Rep& r : reps) max_size = std::max(max_size, r.st->size());
    // Authority preference: highest epoch first (saw the most writes), ties
    // to the lowest replica index. A corrupt block on the preferred replica
    // fails its CRC-verified read and authority falls to the next one.
    std::vector<std::size_t> order(reps.size());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return reps[a].epoch > reps[b].epoch;
                     });
    for (std::int64_t lo = 0; lo < max_size; lo += block) {
      const std::int64_t len = std::min(block, max_size - lo);
      ++rep.blocks_checked;
      // Read each replica's block, zero-padded past its own size; a read
      // that throws (torn write, bit rot, EIO) marks the block unreadable.
      std::vector<std::optional<Buffer>> data(reps.size());
      for (std::size_t k = 0; k < reps.size(); ++k) {
        Buffer buf(static_cast<std::size_t>(len), std::byte{0});
        const std::int64_t have =
            std::min(len, std::max<std::int64_t>(0, reps[k].st->size() - lo));
        try {
          if (have > 0)
            reps[k].st->read(lo, std::span<std::byte>(buf).first(
                                     static_cast<std::size_t>(have)));
          data[k] = std::move(buf);
        } catch (const std::exception&) {
          ++rep.unreadable_blocks;
        }
      }
      std::size_t auth = reps.size();
      for (const std::size_t k : order)
        if (data[k]) {
          auth = k;
          break;
        }
      if (auth == reps.size()) {
        // Nothing readable to repair from.
        rep.unrepaired_blocks += static_cast<std::int64_t>(reps.size());
        continue;
      }
      bool divergent = false;
      for (std::size_t k = 0; k < reps.size(); ++k) {
        if (k == auth) continue;
        if (data[k] && *data[k] == *data[auth]) continue;
        if (data[k]) divergent = true;
        try {
          // A full-block write recomputes the target's CRC coverage, so the
          // repair passes its integrity layer even over a corrupt block.
          reps[k].st->write(lo, std::span<const std::byte>(*data[auth]));
          reps[k].st->flush();
          ++rep.repaired_blocks;
        } catch (const std::exception&) {
          ++rep.unrepaired_blocks;
        }
      }
      if (divergent) ++rep.divergent_blocks;
    }
  }
  return rep;
}

void Clusterfile::disarm_storage_faults() {
  for (auto& s : servers_) {
    if (!s) continue;
    for (const int subfile : s->subfile_ids())
      s->storage_mut(subfile).disarm_faults();
  }
}

ReliabilityCounters Clusterfile::client_reliability() const {
  ReliabilityCounters total;
  for (const auto& c : clients_) total += c->reliability();
  return total;
}

void Clusterfile::drain_stragglers() {
  for (auto& c : clients_) c->drain_stragglers();
}

std::int64_t Clusterfile::stragglers_completed() const {
  std::int64_t total = 0;
  for (const auto& c : clients_) total += c->stragglers_completed();
  return total;
}

std::int64_t Clusterfile::stragglers_abandoned() const {
  std::int64_t total = 0;
  for (const auto& c : clients_) total += c->stragglers_abandoned();
  return total;
}

ReliabilityCounters Clusterfile::server_reliability() const {
  ReliabilityCounters total;
  for (const auto& s : servers_)
    if (s) total += s->reliability();
  return total;
}

ReliabilityCounters Clusterfile::repair_reliability() const {
  ReliabilityCounters rc;
  if (!repairer_) return rc;
  const RebalanceCounters q = repairer_->counters();
  rc.repairs_started = q.migrations_started;
  rc.repairs_completed = q.migrations_completed;
  rc.repairs_failed = q.migrations_failed;
  rc.bytes_re_replicated = q.bytes_migrated + q.bytes_caught_up;
  return rc;
}

void Clusterfile::await_converged(CopyQueue& queue,
                                  const std::function<bool()>& replan) {
  queue.await_idle();
  for (int round = 0; round < kConvergeRounds; ++round) {
    if (!replan()) return;
    queue.await_idle();
  }
}

void Clusterfile::await_repairs() {
  if (!repairer_) return;
  // Converge: a node that rejoined may have unblocked repairs that were
  // skipped earlier for lack of a usable replacement, and a repair that
  // lost its source mid-copy is re-plannable from current placement.
  await_converged(*repairer_, [this] {
    bool planned = false;
    if (detector_)
      for (const int dead : detector_->dead_nodes())
        if (enqueue_repairs(dead) > 0) planned = true;
    return planned;
  });
}

bool Clusterfile::repairs_active() const {
  return repairer_ && repairer_->pending() > 0;
}

std::vector<int> Clusterfile::under_replicated_subfiles() const {
  std::vector<int> out;
  const std::vector<std::vector<int>> snap = placement_->snapshot();
  for (std::size_t i = 0; i < snap.size(); ++i) {
    int usable = 0;
    for (const int node : snap[i])
      if (!node_unusable(node)) ++usable;
    if (usable < config_.replication) out.push_back(static_cast<int>(i));
  }
  return out;
}

void Clusterfile::on_node_dead(int node) {
  if (!repairer_) return;
  const std::size_t planned = enqueue_repairs(node);
  PFM_INFO("clusterfile: node ", node, " declared dead; ", planned,
           " subfile repair(s) planned");
}

std::size_t Clusterfile::enqueue_repairs(int dead) {
  std::vector<CopyEntry> plan = plan_repairs(
      placement_->snapshot(), dead, config_.compute_nodes,
      config_.max_io_nodes, [this](int n) { return node_unplaceable(n); });
  const std::size_t planned = plan.size();
  repairer_->enqueue(std::move(plan));
  return planned;
}

int Clusterfile::add_io_node(int weight) {
  if (!config_.ring_placement)
    throw std::logic_error(
        "Clusterfile::add_io_node: requires ring_placement (static "
        "round-robin placement cannot absorb membership changes)");
  if (weight < 1)
    throw std::invalid_argument("Clusterfile::add_io_node: weight must be >= 1");
  int idx = -1;
  {
    MutexLock lock(member_mu_);
    for (std::size_t i = 0; i < node_state_.size(); ++i)
      if (node_state_[i] == IoNodeState::kSpare) {
        idx = static_cast<int>(i);
        break;
      }
    if (idx < 0)
      throw std::runtime_error(
          "Clusterfile::add_io_node: no provisioned spare slot remains "
          "(raise max_io_nodes)");
    node_state_[static_cast<std::size_t>(idx)] = IoNodeState::kActive;
    ring_.add_node(config_.compute_nodes + idx, weight);
  }
  const int node = config_.compute_nodes + idx;
  {
    MutexLock lock(crash_mu_);
    crashed_[static_cast<std::size_t>(idx)] = 0;
  }
  // The slot was a spare (nullptr), so no worker can hold a reference to
  // it; the server starts empty and adopts storage as migrations arrive.
  servers_[static_cast<std::size_t>(idx)] = std::make_unique<IoServer>(
      *net_, node, IoServer::SubfileStorages{},
      /*track_epochs=*/track_epochs());
  if (detector_) detector_->add_monitored(node);
  ring_epoch_.fetch_add(1, std::memory_order_acq_rel);
  persist_meta();
  enqueue_rebalance();
  return idx;
}

void Clusterfile::decommission_node(std::size_t io_index) {
  if (!config_.ring_placement)
    throw std::logic_error(
        "Clusterfile::decommission_node: requires ring_placement");
  const int node = config_.compute_nodes + static_cast<int>(io_index);
  {
    MutexLock lock(member_mu_);
    if (io_index >= node_state_.size() ||
        node_state_[io_index] != IoNodeState::kActive)
      throw std::invalid_argument(
          "Clusterfile::decommission_node: node is not active");
    if (ring_.size() <= static_cast<std::size_t>(config_.replication))
      throw std::runtime_error(
          "Clusterfile::decommission_node: remaining members could not hold "
          "the configured replica count");
    // Drain state machine: the node leaves the ring (nothing new lands on
    // it) but keeps serving the copies it holds, as migration sources and
    // to foreground traffic, until the last one is off.
    node_state_[io_index] = IoNodeState::kDraining;
    ring_.remove_node(node);
  }
  ring_epoch_.fetch_add(1, std::memory_order_acq_rel);
  const auto deadline = std::chrono::steady_clock::now() + kDrainTimeout;
  while (true) {
    // Each round re-plans from *current* placement, so a migration that
    // failed last round (crashed source, exhausted budget) is retried with
    // only what is still missing. Rounds are time-bounded by the migration
    // delivery budgets, not by sleeps.
    enqueue_rebalance();
    rebalancer_->await_idle();
    bool remaining = false;
    for (const std::vector<int>& reps : placement_->snapshot())
      if (std::find(reps.begin(), reps.end(), node) != reps.end()) {
        remaining = true;
        break;
      }
    if (!remaining) break;
    if (is_crashed(io_index) || (detector_ && detector_->is_dead(node))) {
      // The node died mid-drain: its copies cannot be read off it anymore.
      // Fall back to self-heal re-replication from the surviving replicas
      // (mark_dead is idempotent and fires the repair planner).
      if (detector_) detector_->mark_dead(node);
      await_repairs();
    }
    if (std::chrono::steady_clock::now() >= deadline)
      throw std::runtime_error(
          "Clusterfile::decommission_node: drain missed its deadline; node "
          "left draining (retry, or remove_node to delegate to repair)");
  }
  {
    MutexLock lock(member_mu_);
    node_state_[io_index] = IoNodeState::kRetired;
    rebalance_target_.clear();
  }
  if (detector_) detector_->remove_monitored(node);
  if (servers_[io_index]) servers_[io_index]->stop();
  persist_meta();
  PFM_INFO("clusterfile: node ", node, " decommissioned (ring epoch ",
           ring_epoch(), ")");
}

void Clusterfile::remove_node(std::size_t io_index) {
  if (!config_.ring_placement)
    throw std::logic_error("Clusterfile::remove_node: requires ring_placement");
  const int node = config_.compute_nodes + static_cast<int>(io_index);
  {
    MutexLock lock(member_mu_);
    if (io_index >= node_state_.size() ||
        (node_state_[io_index] != IoNodeState::kActive &&
         node_state_[io_index] != IoNodeState::kDraining))
      throw std::invalid_argument(
          "Clusterfile::remove_node: node is not active or draining");
    node_state_[io_index] = IoNodeState::kRetired;
    if (ring_.contains(node)) ring_.remove_node(node);
    // Repair owns the recovery from here; a pending rebalance toward a
    // target that still counted this node would fight it.
    rebalance_target_.clear();
  }
  ring_epoch_.fetch_add(1, std::memory_order_acq_rel);
  // Deferred retirement on the durable path: this records only the epoch
  // bump — the node still holds recorded copies until the async repairs
  // drain it, and the worker's own persist_meta adds it to the retired set
  // (same epoch, grown set) once the placement stops referencing it.
  persist_meta();
  if (!is_crashed(io_index)) crash_server(io_index);
  // mark_dead (not remove_monitored): the pinned-dead peer keeps showing in
  // dead_nodes(), so await_repairs keeps re-planning until every subfile
  // the node held is re-replicated.
  if (detector_) detector_->mark_dead(node);
}

void Clusterfile::await_rebalance() {
  if (!rebalancer_) return;
  // Converge: a migration that lost its source, destination, or
  // coordinator mid-copy is re-plannable from current placement —
  // re-planning against the recorded target emits only what is still
  // missing (completed moves diff to nothing).
  await_converged(*rebalancer_, [this] {
    std::vector<std::vector<int>> target;
    {
      MutexLock lock(member_mu_);
      target = rebalance_target_;
    }
    if (target.empty()) return false;
    RebalancePlan plan = plan_rebalance(placement_->snapshot(), target,
                                        *meta_.physical, file_size_estimate());
    if (plan.entries.empty()) {
      MutexLock lock(member_mu_);
      if (rebalance_target_ == target) rebalance_target_.clear();
      return false;
    }
    rebalancer_->enqueue(std::move(plan.entries));
    return true;
  });
}

RebalanceCounters Clusterfile::rebalance_counters() const {
  return rebalancer_ ? rebalancer_->counters() : RebalanceCounters{};
}

std::vector<int> Clusterfile::serving_io_indices() const {
  MutexLock lock(member_mu_);
  std::vector<int> out;
  for (std::size_t i = 0; i < node_state_.size(); ++i)
    if (node_state_[i] == IoNodeState::kActive ||
        node_state_[i] == IoNodeState::kDraining)
      out.push_back(static_cast<int>(i));
  return out;
}

std::vector<std::vector<int>> Clusterfile::ring_target() const {
  const int copies = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(config_.replication), ring_.size()));
  std::vector<std::vector<int>> target(subfile_count());
  for (std::size_t i = 0; i < target.size(); ++i)
    target[i] = ring_.replicas_for(static_cast<std::uint64_t>(i), copies);
  return target;
}

std::int64_t Clusterfile::file_size_estimate() const {
  // Dense-prefix inversion: sum over subfiles of the first live replica's
  // stored bytes, plus the displacement no subfile stores. Under
  // replication the storage stack tops with IntegrityStorage, whose size()
  // is lock-protected, so the estimate is safe against concurrent
  // foreground writes (and deliberately approximate — it only bounds the
  // live prefix the plan's minima cover).
  std::int64_t total = meta_.physical->displacement();
  const std::vector<std::vector<int>> snap = placement_->snapshot();
  for (std::size_t i = 0; i < snap.size(); ++i) {
    for (const int node : snap[i]) {
      const std::size_t idx =
          static_cast<std::size_t>(node - config_.compute_nodes);
      if (idx >= servers_.size() || !servers_[idx] || is_crashed(idx)) continue;
      if (!servers_[idx]->has_subfile(static_cast<int>(i))) continue;
      total += servers_[idx]->storage(static_cast<int>(i)).size();
      break;
    }
  }
  return total;
}

void Clusterfile::enqueue_rebalance() {
  std::vector<std::vector<int>> target;
  {
    MutexLock lock(member_mu_);
    target = ring_target();
    rebalance_target_ = target;
  }
  RebalancePlan plan = plan_rebalance(placement_->snapshot(), target,
                                      *meta_.physical, file_size_estimate());
  PFM_INFO("clusterfile: rebalance planned — ", plan.entries.size(),
           " migration(s), ", plan.min_bytes_total, " minimal byte(s)");
  if (!plan.entries.empty()) rebalancer_->enqueue(std::move(plan.entries));
}

bool Clusterfile::copy_and_publish(const CopyEntry& entry,
                                   std::int64_t chunk_bytes,
                                   CopyStats* stats) {
  const std::size_t sub = static_cast<std::size_t>(entry.subfile);
  const int dst = entry.target_node;
  const std::vector<int> current = placement_->replicas_of(sub);
  // Idempotent no-op: crash-resume re-plans from current placement, and a
  // duplicate entry whose publish already landed must not copy again (that
  // is what keeps re-planning convergent, the kSync discipline).
  if (std::find(current.begin(), current.end(), dst) != current.end())
    return true;
  const std::size_t dst_idx =
      static_cast<std::size_t>(dst - config_.compute_nodes);
  if (dst_idx >= servers_.size() || !servers_[dst_idx] ||
      node_unusable(dst)) {
    PFM_WARN("copy: target node ", dst, " unusable for subfile ",
             entry.subfile);
    return false;
  }
  // Safe to hold across the copy: servers_ entries are only replaced by
  // restart_server/relayout/add_io_node, and the first two await_idle() on
  // both queues first while the last only touches spare (null) slots.
  IoServer& dstsrv = *servers_[dst_idx];

  if (!dstsrv.has_subfile(entry.subfile)) {
    // A fresh replica at epoch 0: the first pull below is forcibly a full
    // transfer — the degenerate whole-subfile PROJ of the plan. The storage
    // slot comes from a global counter past the configured replica indices,
    // so on disk the new copy never collides with a retired or dead node's
    // surviving file.
    const int slot = config_.replication +
                     repair_slot_.fetch_add(1, std::memory_order_relaxed);
    const StorageFaultPlan* faults =
        config_.storage_faults ? &*config_.storage_faults : nullptr;
    auto storage = make_storage(config_.storage_dir, entry.subfile, slot,
                                faults, /*node=*/dst);
    if (integrity_block_ > 0)
      storage = std::make_unique<IntegrityStorage>(std::move(storage),
                                                   integrity_block_);
    dstsrv.adopt_subfile(entry.subfile, std::move(storage));
  }

  // Copy sources: the *current* placement's usable replicas — a draining
  // holder is explicitly usable, reading its copies off it is what the
  // drain is. Preferred by write epoch (the scrub authority rule), rotated
  // on failure.
  struct Source {
    int node = 0;
    std::int64_t epoch = 0;
  };
  std::vector<Source> sources;
  for (const int src : current) {
    if (node_unusable(src)) continue;
    sources.push_back({src, server_at_node(src).subfile_epoch(entry.subfile)});
  }
  if (sources.empty()) {
    PFM_WARN("copy: no live source for subfile ", entry.subfile);
    return false;
  }
  std::stable_sort(sources.begin(), sources.end(),
                   [](const Source& a, const Source& b) {
                     return a.epoch > b.epoch;
                   });

  // One shared delivery budget across every source tried (the client
  // access discipline): per-attempt timeouts follow the backoff schedule
  // and their sum is the copy's hard deadline.
  const RetryPolicy& rp = config_.repair_retry;
  const auto deadline = std::chrono::steady_clock::now() + rp.budget();
  for (int attempt = 1; attempt <= rp.max_attempts; ++attempt) {
    const Source& src =
        sources[static_cast<std::size_t>(attempt - 1) % sources.size()];
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    const auto slice = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::min<std::chrono::nanoseconds>(rp.timeout_for(attempt),
                                           deadline - now));
    // Bulk stream: with chunk_bytes > 0 each pull is bounded, so
    // foreground requests interleave at the source between chunks. A
    // chunked delta adopts the partial epoch per pull (resume = pull
    // again); a chunked full transfer resumes by offset with the epoch
    // pinned to the stream start via adopt_epoch_cap (see sync_subfile).
    std::int64_t off = 0;
    std::int64_t cap = -1;
    bool streamed = false;
    while (true) {
      const IoServer::SyncOutcome out =
          dstsrv.sync_subfile(entry.subfile, src.node, /*attempts=*/1, slice,
                              chunk_bytes, off, cap);
      if (!out.ok) break;
      stats->bulk_bytes += out.bytes;
      if (!out.more) {
        streamed = true;
        break;
      }
      if (out.full) {
        if (cap < 0) cap = out.peer_epoch;
        off = out.next_offset;
      }
      if (std::chrono::steady_clock::now() >= deadline) break;
    }
    if (!streamed) continue;  // rotate source; offset/cap reset with it
    // Publish first, then close the gap: after the epoch bump every new
    // write fans out to the target too, so catch-up syncs only shrink it.
    // A retired node's stale copy is left inert — the published placement
    // no longer aims anyone at it.
    placement_->update(sub, entry.new_replicas);
    for (int c = 0; c < kCatchUpSyncs; ++c) {
      const IoServer::SyncOutcome catchup = dstsrv.sync_subfile(
          entry.subfile, src.node, /*attempts=*/1, slice);
      if (!catchup.ok) break;
      stats->catchup_bytes += catchup.bytes;
      if (catchup.bytes == 0) break;
    }
    // Journal the published placement. A crash point firing on this worker
    // thread must not kill the queue — the frozen layer already guarantees
    // nothing later persists, which *is* the simulated kill.
    try {
      persist_meta();
    } catch (const SimulatedCrash&) {
    }
    PFM_INFO("copy: subfile ", entry.subfile, " -> node ", dst,
             " from node ", src.node, " (", stats->bulk_bytes, " bulk + ",
             stats->catchup_bytes, " catch-up bytes)");
    return true;
  }
  PFM_WARN("copy: delivery budget exhausted for subfile ", entry.subfile,
           " -> node ", dst);
  return false;
}

double Clusterfile::mean_server_scatter_us() const {
  double total = 0;
  int serving = 0;
  for (const auto& s : servers_) {
    if (!s) continue;
    total += s->scatter_us();
    ++serving;
  }
  return serving == 0 ? 0.0 : total / static_cast<double>(serving);
}

void Clusterfile::reset_server_phases() {
  for (auto& s : servers_)
    if (s) s->reset_phases();
}

RedistStats Clusterfile::relayout(PartitioningPattern new_physical,
                                  std::int64_t file_size) {
  // A tripped crash point froze the metadata layer: rebuilding the data
  // files now would let them diverge from metadata that can no longer
  // follow. Refuse up front — the harness treats this as the kill landing
  // before the relayout instead of mid-flight.
  if (crash_tripped())
    throw SimulatedCrash(
        "relayout: metadata layer frozen by a tripped crash point");
  const PartitioningPattern& old = *meta_.physical;
  if (new_physical.element_count() != old.element_count())
    throw std::invalid_argument("Clusterfile::relayout: element count changed");
  if (new_physical.displacement() != old.displacement())
    throw std::invalid_argument("Clusterfile::relayout: displacement changed");
  PFM_CHECK(file_size >= 0, "relayout: negative file size ", file_size);

  // Let in-flight repairs and migrations land, then adopt the published
  // placement as the new baseline: the relayouted copies go wherever
  // repair/rebalance moved them. The PlacementDirectory itself is never
  // replaced (the detector callback and repair workers read the pointer
  // concurrently); its table already says exactly what meta_ is being
  // synced to.
  if (repairer_) repairer_->await_idle();
  if (rebalancer_) rebalancer_->await_idle();
  {
    const std::vector<std::vector<int>> snap = placement_->snapshot();
    for (std::size_t i = 0; i < snap.size(); ++i) {
      meta_.replicas[i] = snap[i];
      meta_.io_nodes[i] = snap[i][0];
    }
  }

  // Collect current subfile contents (unwritten tails read as zeros).
  std::vector<Buffer> src(old.element_count());
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i].resize(static_cast<std::size_t>(old.element_bytes(i, file_size)));
    const SubfileStorage& st = subfile_storage(i);
    const std::int64_t have =
        std::min<std::int64_t>(st.size(), static_cast<std::int64_t>(src[i].size()));
    if (have > 0)
      st.read(0, std::span<std::byte>(src[i]).first(static_cast<std::size_t>(have)));
  }

  std::vector<Buffer> dst;
  const RedistStats stats = redistribute(old, new_physical, src, dst, file_size);
  // Every file byte past the displacement has exactly one source and one
  // destination element, so the relayout must move all of them.
  PFM_DCHECK(stats.bytes_moved ==
                 std::max<std::int64_t>(0, file_size - old.displacement()),
             "relayout moved ", stats.bytes_moved, " of ",
             file_size - old.displacement(), " bytes");

  // Swap in the new layout: fresh storage, restarted servers, new clients
  // (the old pattern pointer stays alive for any stale references). On the
  // durable path, first note the highest write epoch any copy reached: the
  // rebuilt storages restart at epoch 0, and a cold mount judges authority
  // by epoch, so the fresh copies must be seeded *above* every stale
  // pre-relayout file left in the directory.
  const bool durable = !config_.metadata_dir.empty();
  std::int64_t relayout_epoch = 0;
  if (durable)
    for (const auto& s : servers_) {
      if (!s) continue;
      for (const int sub : s->subfile_ids())
        relayout_epoch = std::max(relayout_epoch, s->subfile_epoch(sub));
    }
  for (auto& s : servers_)
    if (s) s->stop();
  meta_.physical =
      std::make_shared<const PartitioningPattern>(std::move(new_physical));
  start_servers(&dst);
  start_clients();
  if (durable) {
    for (auto& s : servers_) {
      if (!s) continue;
      for (const int sub : s->subfile_ids())
        s->storage_mut(sub).set_epoch(relayout_epoch + 1);
    }
    // Commit point: the data rebuild above crossed no durability barrier,
    // so the kill matrix lands either before the relayout started (old
    // metadata + old data) or at/after this record (new metadata + new
    // data, the record being durable before its barrier throws) — never on
    // a torn mixture.
    {
      MutexLock lock(meta_mu_);
      if (meta_store_.exists(kMetaFile)) {
        meta_store_.update_layout(kMetaFile, meta_.physical->elements());
        if (file_size > meta_store_.lookup(kMetaFile).size)
          meta_store_.update_size(kMetaFile, file_size);
      }
    }
    persist_meta();
  }
  return stats;
}

void Clusterfile::sync_metadata() { persist_meta(); }

void Clusterfile::persist_meta() {
  MutexLock lock(meta_mu_);
  if (!meta_store_.durable() || !meta_store_.exists(kMetaFile)) return;
  const FileRecord& rec = meta_store_.lookup(kMetaFile);
  std::int64_t pe = 0;
  const std::vector<std::vector<int>> rows =
      placement_->snapshot_with_epoch(&pe);
  const std::int64_t ring = ring_epoch();
  // Deferred retirement: a kRetired node the placement still references
  // (remove_node racing its repairs) is not recorded retired yet — the
  // repair worker's own persist_meta gets it once the last copy moved off.
  std::vector<int> retired;
  {
    MutexLock mlock(member_mu_);
    for (std::size_t i = 0; i < node_state_.size(); ++i) {
      if (node_state_[i] != IoNodeState::kRetired) continue;
      const int node = config_.compute_nodes + static_cast<int>(i);
      bool referenced = false;
      for (const auto& row : rows)
        if (std::find(row.begin(), row.end(), node) != row.end()) {
          referenced = true;
          break;
        }
      if (!referenced) retired.push_back(node);
    }
  }
  // Placement before membership, so the membership record never claims a
  // node retired while the recorded placement still references it.
  if (pe > rec.placement_epoch)
    meta_store_.update_placement(kMetaFile, rows, pe);
  const std::int64_t size = file_size_estimate();
  if (size > rec.size) meta_store_.update_size(kMetaFile, size);
  if (ring > rec.ring_epoch ||
      (ring == rec.ring_epoch && retired.size() > rec.retired_nodes.size()))
    meta_store_.update_membership(kMetaFile, ring, std::move(retired));
}

}  // namespace pfm
