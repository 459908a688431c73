// Write-ahead journal for Clusterfile metadata (DESIGN.md "Durability &
// recovery").
//
// Every MetadataManager mutation is serialized into one journal record and
// made durable *before* it is applied in memory — the append is the commit
// point. Records are length-prefixed and CRC-32 framed, with each record's
// checksum chained from the previous one so a spliced or reordered journal
// fails verification, not just a flipped bit. Replay scans the file front
// to back and stops at the first invalid frame: because every append is
// fsynced, only the final record can legitimately be torn, and everything
// from the first bad frame on is discarded as the torn tail (pfm_fsck
// reports how many bytes that dropped).
//
// This header is also the home of the crash-point harness: an
// arm_crash_after_syncs countdown over *durability barriers* (journal
// fsyncs, checkpoint tmp-file and directory fsyncs, journal truncations).
// When the countdown reaches zero the barrier that completed it throws
// SimulatedCrash and the whole metadata layer freezes — every later durable
// write silently becomes a no-op, exactly as if the process had been
// SIGKILLed at that barrier. bench/recovery_soak drives a kill matrix over
// every barrier of a workload this way and remounts after each.
//
// Torn-metadata fault injection (the storage_fault.h discipline applied to
// the metadata files): an armed MetadataFaultPlan makes a seeded fraction
// of journal appends and manifest writes persist only a strict prefix of
// the frame and then freeze, simulating a kill mid-write rather than at a
// barrier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pfm {

/// The simulated kill thrown at the armed durability barrier. Everything
/// synced before the throw is durable; nothing after it ever reaches disk
/// (the metadata layer freezes). Deliberately not std::runtime_error's
/// siblings used for real I/O errors, so harnesses can catch exactly this.
class SimulatedCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Arms the crash-point countdown: the n-th durability barrier from now
/// throws SimulatedCrash and freezes the metadata layer. n <= 0 disarms and
/// unfreezes.
void arm_crash_after_syncs(std::int64_t n);
/// True once the armed countdown fired (the layer is frozen).
bool crash_tripped();
/// Durability barriers completed since process start (or the last
/// arm_crash_after_syncs call resetting nothing — the counter only grows).
/// A fault-free dry run of a workload measures its barrier count here to
/// size the kill matrix.
std::int64_t durability_barriers();

/// Torn-metadata-write injection: with probability `torn_write`, a journal
/// append or manifest write persists only a seeded strict prefix of its
/// bytes and freezes the layer (kill mid-write). Deterministic under a
/// pinned seed. Armed by arm_metadata_faults.
struct MetadataFaultPlan {
  std::uint64_t seed = 1;
  double torn_write = 0.0;  ///< probability per durable metadata write
};
void arm_metadata_faults(const MetadataFaultPlan& plan);
void disarm_metadata_faults();

/// Writes `contents` to `path` with full crash-atomicity discipline: write
/// to `<path>.tmp`, check every write, fdatasync the tmp file (barrier),
/// rename over `path`, fsync the parent directory (barrier). Returns false
/// without touching disk when the metadata layer is frozen or a torn-write
/// fault consumed the write; throws SimulatedCrash at an armed barrier and
/// std::system_error on real I/O failure. The only callers writing
/// manifest/journal bytes are metadata.cpp and journal.cpp (pfm_lint
/// enforces this).
bool atomic_write_file(const std::filesystem::path& path,
                       std::string_view contents);

class Journal {
 public:
  /// Frame layout, little-endian: magic "PFMJ", payload length, CRC-32 of
  /// the payload chained from the previous record's CRC, then the payload.
  static constexpr std::uint32_t kMagic = 0x4A4D4650u;  // "PFMJ"
  static constexpr std::int64_t kMaxRecord = 16 * 1024 * 1024;

  /// Opens (creating if absent) the journal for appending. An existing file
  /// is scanned first: appends continue the CRC chain after the last valid
  /// record, and a torn tail is cut off before the first new append so the
  /// file never holds garbage between valid frames.
  explicit Journal(std::filesystem::path path);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one framed record and fdatasyncs it (a durability barrier).
  /// True when the record is durable; false when the frozen layer or a
  /// torn-write fault dropped it (the caller must not apply the mutation as
  /// durable). Throws SimulatedCrash when this append's barrier trips the
  /// armed countdown — the record *is* durable in that case.
  bool append(std::string_view payload);

  /// Empties the journal after a checkpoint made its records redundant
  /// (ftruncate + fdatasync, a durability barrier). False when frozen.
  bool truncate_all();

  /// Valid records appended or recovered since the last truncate_all.
  std::int64_t records() const { return records_; }
  const std::filesystem::path& path() const { return path_; }

  /// Outcome of scanning journal bytes. Never throws: malformed framing is
  /// data, not an error — it marks where the valid prefix ends.
  struct Replay {
    std::vector<std::string> records;
    std::int64_t valid_bytes = 0;      ///< length of the valid frame prefix
    std::int64_t bytes_discarded = 0;  ///< torn/garbage tail dropped
    bool torn_tail = false;            ///< bytes_discarded > 0
  };
  static Replay replay(std::span<const std::byte> bytes);
  /// Same over a file; a missing file replays as empty.
  static Replay replay_file(const std::filesystem::path& path);

 private:
  std::filesystem::path path_;
  int fd_ = -1;
  std::int64_t end_ = 0;        ///< append offset (end of valid frames)
  std::uint32_t chain_ = 0;     ///< CRC chain state after the last record
  std::int64_t records_ = 0;
};

}  // namespace pfm
