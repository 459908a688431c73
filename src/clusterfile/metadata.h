// Clusterfile metadata manager (the component of Clusterfile [7] that
// tracks, per file, the physical partitioning pattern, the displacement,
// the file size and the subfile-to-I/O-node assignment).
//
// Metadata persists as a text manifest using the library's tuple notation
// for FALLS sets, so a file system instance can be torn down and reopened
// over the same storage directory.
//
// Durable mode (DESIGN.md "Durability & recovery"): open_durable() binds
// the manager to a metadata directory holding a checkpoint manifest plus a
// write-ahead journal (journal.h). Every mutation is then serialized into
// one journal record and fsynced *before* it is applied in memory — the
// append is the commit point — and once the journal accumulates
// checkpoint_interval records, checkpoint() folds the state into a fresh
// manifest (atomic tmp+fsync+rename+dir-fsync) and truncates the journal.
// recover_from() replays checkpoint+journal without attaching (read-only:
// the pfm_fsck path); journal replay is idempotent over a checkpoint that
// already contains some of its records, because a crash between the
// checkpoint's directory fsync and the journal truncation leaves both
// behind.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "file_model/pattern.h"
#include "util/lockdep.h"

namespace pfm {

class Journal;

/// Everything the file system must remember about one file.
struct FileRecord {
  std::string name;
  std::int64_t displacement = 0;
  std::int64_t size = 0;                 ///< current file length in bytes
  std::vector<FallsSet> subfile_falls;   ///< one element per subfile
  std::vector<int> io_nodes;             ///< io_nodes[i] serves subfile i
  /// Replica placement: replica_nodes[i] lists every I/O node holding
  /// subfile i, primary first (replica_nodes[i][0] == io_nodes[i]). Empty
  /// means no replication — each subfile lives only on its primary.
  std::vector<std::vector<int>> replica_nodes;
  /// W-of-N write acknowledgment policy for the file (ClusterConfig::
  /// write_quorum): 0 = wait for the full fan-out. Must not exceed the
  /// widest replica list. Persisted by manifest version 3.
  int write_quorum = 0;
  /// Placement version: 0 for the as-created placement, bumped each time
  /// the self-heal repair path re-places replicas (PlacementDirectory
  /// epoch at publish time). Persisted by manifest version 4; clients
  /// compare it to detect stale replica lists.
  std::int64_t placement_epoch = 0;
  /// Membership epoch of the placement ring (Clusterfile::ring_epoch): 0
  /// until the first add/decommission/remove, strictly advancing after.
  /// Persisted by manifest version 5.
  std::int64_t ring_epoch = 0;
  /// I/O nodes decommissioned or removed from the membership (no
  /// duplicates). A placement referencing a retired node is malformed —
  /// retirement means no copy may live (or be looked for) there again.
  /// Persisted by manifest version 5.
  std::vector<int> retired_nodes;

  /// The validated partitioning pattern (constructed on demand).
  PartitioningPattern pattern() const;
};

/// What recover_from / open_durable found in a metadata directory.
struct RecoveryInfo {
  bool manifest_loaded = false;        ///< a checkpoint manifest existed
  std::int64_t journal_records = 0;    ///< valid journal records replayed
  bool journal_torn_tail = false;      ///< trailing garbage was discarded
  std::int64_t journal_bytes_discarded = 0;
};

class MetadataManager {
 public:
  /// File names inside a durable metadata directory.
  static constexpr const char* kManifestName = "manifest.pfm";
  static constexpr const char* kJournalName = "metadata.journal";

  MetadataManager();
  ~MetadataManager();

  /// Registers a file; throws if the name exists or the record is invalid.
  void create(FileRecord record);

  /// Removes a file's metadata; false when absent.
  bool remove(const std::string& name);

  bool exists(const std::string& name) const;
  const FileRecord& lookup(const std::string& name) const;
  /// Updates the stored size (grows only; Clusterfile files never shrink
  /// except through remove).
  void update_size(const std::string& name, std::int64_t size);
  /// Replaces the physical layout (used by relayout).
  void update_layout(const std::string& name, std::vector<FallsSet> subfile_falls);
  /// Replaces the replica placement after a self-heal re-replication:
  /// validates like create() (primary-first, no duplicates, quorum still
  /// satisfiable) and requires the placement epoch to advance.
  void update_placement(const std::string& name,
                        std::vector<std::vector<int>> replica_nodes,
                        std::int64_t placement_epoch);
  /// Records a membership change (add/decommission/remove): the ring epoch
  /// must advance — or stay equal while the retired set strictly grows,
  /// covering
  /// deferred retirement where remove_node bumps the epoch first and
  /// records the node retired only after async repairs drained it — the
  /// retired set must hold no duplicates, and the file's current placement
  /// must not reference a retired node (the caller migrates or repairs
  /// copies off a node *before* retiring it).
  void update_membership(const std::string& name, std::int64_t ring_epoch,
                         std::vector<int> retired_nodes);

  std::vector<std::string> list() const;
  std::size_t count() const { return files_.size(); }

  /// Serializes every record to the manifest file (atomic via temp+rename).
  void save(const std::filesystem::path& manifest) const;
  /// Loads a manifest written by save(); replaces the in-memory state.
  /// Throws std::invalid_argument on malformed manifests.
  void load(const std::filesystem::path& manifest);
  /// Same, from an already-open stream (also the fuzzer entry point —
  /// tests/fuzz/fuzz_manifest feeds arbitrary bytes through here and
  /// demands that nothing but std::invalid_argument escapes).
  void load(std::istream& is);

  // --- Durable mode (journal.h; DESIGN.md "Durability & recovery") ---

  /// Cold-start recovery without attaching: replaces the in-memory state
  /// with checkpoint+journal from `dir` (both optional — an empty or
  /// missing directory recovers to zero files). Read-only on disk; throws
  /// std::invalid_argument on a malformed manifest or journal record.
  RecoveryInfo recover_from(const std::filesystem::path& dir);

  /// recover_from + attach: subsequent mutations are journaled to
  /// `dir/metadata.journal` with fsync-before-apply, and every
  /// `checkpoint_interval` records (>= 1; throws std::invalid_argument
  /// otherwise) the state is checkpointed into `dir/manifest.pfm` and the
  /// journal truncated. A torn journal tail found during recovery is cut
  /// off so new appends continue the valid CRC chain.
  RecoveryInfo open_durable(const std::filesystem::path& dir,
                            int checkpoint_interval = 32);

  bool durable() const { return journal_ != nullptr; }
  /// Folds the current state into the checkpoint manifest and truncates
  /// the journal. No-op when not durable, or when the crash harness froze
  /// the metadata layer mid-checkpoint.
  void checkpoint();
  /// Journal records accumulated since the last checkpoint (durable mode).
  std::int64_t journal_pending() const;

  /// Applies one journal record to the in-memory state with replay
  /// semantics (idempotent over an already-checkpointed record: stale
  /// epochs and non-growing sizes are skipped, an existing name is
  /// replaced). Also the fuzz_journal entry point — nothing but
  /// std::invalid_argument may escape on malformed payloads.
  void apply_journal_record(const std::string& payload);

 private:
  /// Serializes a mutation into the journal before it is applied. A
  /// SimulatedCrash thrown by the append's durability barrier is captured
  /// and returned instead of propagating, because the record *is* durable
  /// at that point — the caller still applies the mutation in memory (state
  /// must match what recovery will replay) and rethrows via finish_op().
  /// Returns null when not durable, frozen, or no crash fired.
  std::exception_ptr journal_op(const std::string& payload);
  /// Rethrows a deferred SimulatedCrash, or else runs the periodic
  /// checkpoint when the journal reached checkpoint_interval_ records.
  void finish_op(std::exception_ptr crash);
  bool save_atomic(const std::filesystem::path& manifest) const;

  std::map<std::string, FileRecord> files_;
  std::unique_ptr<Journal> journal_;      ///< null: in-memory only
  std::filesystem::path manifest_path_;
  int checkpoint_interval_ = 32;
  /// The manager is a single-owner structure: Clusterfile mutates it from
  /// the metadata server's loop thread only. The canary turns a future
  /// concurrent caller into a deterministic check failure instead of a
  /// silent map race (see util/lockdep.h).
  mutable AccessCanary canary_{"MetadataManager"};
};

}  // namespace pfm
