// Tests for the subfile storage backends, the per-block integrity layer and
// the deterministic storage fault injector.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <system_error>
#include <vector>

#include "clusterfile/storage.h"
#include "clusterfile/storage_fault.h"
#include "util/buffer.h"

namespace pfm {
namespace {

/// Scratch directory for file-backed storage tests; PFM_TEST_STORAGE_DIR
/// overrides the base (CI points it at a tmpfs inside the runner).
std::filesystem::path test_dir(const std::string& leaf) {
  std::filesystem::path base = std::filesystem::temp_directory_path();
  if (const char* env = std::getenv("PFM_TEST_STORAGE_DIR"); env && *env)
    base = env;
  return base / leaf;
}

class StorageTest : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<SubfileStorage> make() {
    if (GetParam()) {
      dir_ = test_dir("pfm_storage_test");
      std::filesystem::remove_all(dir_);
      return make_storage(dir_, 0);
    }
    return make_storage({}, 0);
  }

  void TearDown() override {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
};

TEST_P(StorageTest, WriteReadRoundTrip) {
  auto s = make();
  const Buffer data = make_pattern_buffer(256, 1);
  s->write(0, data);
  EXPECT_EQ(s->size(), 256);
  Buffer back(256);
  s->read(0, back);
  EXPECT_TRUE(equal_bytes(back, data));
}

TEST_P(StorageTest, SparseWritesZeroFillHoles) {
  auto s = make();
  const Buffer data = make_pattern_buffer(4, 2);
  s->write(100, data);
  EXPECT_EQ(s->size(), 104);
  Buffer hole(4);
  s->read(50, hole);
  for (std::byte b : hole) EXPECT_EQ(b, std::byte{0});
  Buffer back(4);
  s->read(100, back);
  EXPECT_TRUE(equal_bytes(back, data));
}

TEST_P(StorageTest, OverwriteInPlace) {
  auto s = make();
  s->write(0, make_pattern_buffer(64, 1));
  const Buffer patch = make_pattern_buffer(16, 9);
  s->write(8, patch);
  Buffer back(16);
  s->read(8, back);
  EXPECT_TRUE(equal_bytes(back, patch));
  EXPECT_EQ(s->size(), 64);
}

TEST_P(StorageTest, ReadBeyondEndThrows) {
  auto s = make();
  s->write(0, make_pattern_buffer(8, 3));
  Buffer out(4);
  EXPECT_THROW(s->read(6, out), std::out_of_range);
  EXPECT_NO_THROW(s->read(4, out));
}

TEST_P(StorageTest, FlushSucceeds) {
  auto s = make();
  s->write(0, make_pattern_buffer(8, 4));
  EXPECT_NO_THROW(s->flush());
}

INSTANTIATE_TEST_SUITE_P(Backends, StorageTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "File" : "Memory";
                         });

// Regression: an empty write past EOF used to grow MemoryStorage (and a
// zero-length memcpy from a null span is UB); empty writes must be complete
// no-ops on both backends.
TEST_P(StorageTest, EmptyWriteNeverGrows) {
  auto s = make();
  s->write(1000, std::span<const std::byte>{});
  EXPECT_EQ(s->size(), 0);
  s->write(0, make_pattern_buffer(8, 5));
  s->write(5000, std::span<const std::byte>{});
  EXPECT_EQ(s->size(), 8);
  Buffer nothing;
  EXPECT_NO_THROW(s->read(8, nothing));  // empty read at EOF is fine
}

TEST_P(StorageTest, EpochIsIndependentOfData) {
  auto s = make();
  EXPECT_EQ(s->epoch(), 0);
  s->set_epoch(7);
  s->write(0, make_pattern_buffer(8, 6));
  EXPECT_EQ(s->epoch(), 7);
  s->set_epoch(8);
  EXPECT_EQ(s->epoch(), 8);
}

TEST_P(StorageTest, ReplicaNamesDoNotCollide) {
  auto s = make();
  if (!GetParam()) return;  // naming only matters for the file backend
  auto r1 = make_storage(dir_, 0, 1);
  s->write(0, make_pattern_buffer(8, 1));
  r1->write(0, make_pattern_buffer(16, 2));
  EXPECT_EQ(s->size(), 8);
  EXPECT_EQ(r1->size(), 16);
}

// writev/readv: strided runs from one concatenated payload must behave
// exactly like one write()/read() per run (the default implementation the
// backends inherit), holes included.
TEST_P(StorageTest, VectoredWriteReadRoundTrip) {
  auto s = make();
  const std::vector<IoVec> runs = {{0, 16}, {48, 16}, {100, 28}};
  const Buffer payload = make_pattern_buffer(60, 17);
  s->writev(runs, payload);
  EXPECT_EQ(s->size(), 128);

  Buffer gathered(60);
  s->readv(runs, gathered);
  EXPECT_TRUE(equal_bytes(gathered, payload));

  // Per-run reads see the same bytes, and the gaps stayed zero-filled.
  Buffer second(16);
  s->read(48, second);
  EXPECT_TRUE(equal_bytes(second,
                          std::span<const std::byte>(payload).subspan(16, 16)));
  Buffer hole(32);
  s->read(16, hole);
  for (std::byte b : hole) EXPECT_EQ(b, std::byte{0});
}

TEST(Storage, KindNames) {
  EXPECT_EQ(make_storage({}, 0)->kind(), "memory");
  const auto dir = test_dir("pfm_storage_kind");
  std::filesystem::remove_all(dir);
  EXPECT_EQ(make_storage(dir, 1)->kind(), "file");
  std::filesystem::remove_all(dir);
}

TEST(Storage, FileEpochSurvivesInSidecar) {
  const auto dir = test_dir("pfm_storage_epoch");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    FileStorage st(dir / "subfile_0");
    st.write(0, make_pattern_buffer(8, 3));
    st.set_epoch(42);
  }
  // The sidecar outlives the writer process; a fresh FileStorage over the
  // same path truncates (restart_server reuses the *object*, not the path),
  // so read the sidecar directly.
  EXPECT_TRUE(std::filesystem::exists(dir / "subfile_0.epoch"));
  std::filesystem::remove_all(dir);
}

TEST(Storage, PreserveReopensBytesAndSidecarEpoch) {
  const auto dir = test_dir("pfm_storage_preserve");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const Buffer data = make_pattern_buffer(64, 11);
  {
    FileStorage st(dir / "subfile_0");
    st.write(0, data);
    st.set_epoch(6);
    st.set_epoch(7);  // exercises both ping-pong slots
  }
  FileStorage back(dir / "subfile_0", /*preserve=*/true);
  EXPECT_EQ(back.size(), 64);
  EXPECT_EQ(back.epoch(), 7);
  Buffer out(64);
  back.read(0, out);
  EXPECT_TRUE(equal_bytes(out, data));
  std::filesystem::remove_all(dir);
}

TEST(Storage, TornSidecarSlotFallsBackToLastGoodEpoch) {
  const auto dir = test_dir("pfm_storage_torn_sidecar");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto sidecar = dir / "subfile_0.epoch";
  {
    FileStorage st(dir / "subfile_0");
    st.write(0, make_pattern_buffer(8, 1));
    st.set_epoch(4);  // slot 0
    st.set_epoch(5);  // slot 1
  }
  EXPECT_EQ(load_epoch_sidecar(sidecar), 5);
  // Tear the newer slot (a kill mid-pwrite): its CRC fails and the reader
  // falls back to the other slot's last-good epoch — understating, never
  // inventing.
  {
    std::fstream f(sidecar, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(16);  // slot 1 = odd epochs
    f.put('\xff');
  }
  EXPECT_EQ(load_epoch_sidecar(sidecar), 4);
  // Both slots torn: 0, a full re-sync, never a garbage epoch.
  {
    std::fstream f(sidecar, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(0);
    f.put('\xff');
  }
  EXPECT_EQ(load_epoch_sidecar(sidecar), 0);
  EXPECT_EQ(load_epoch_sidecar(dir / "absent.epoch"), 0);
  std::filesystem::remove_all(dir);
}

TEST(Storage, NodeQualifiedNamesAndPreserveFactory) {
  const auto dir = test_dir("pfm_storage_node_names");
  std::filesystem::remove_all(dir);
  const Buffer data = make_pattern_buffer(16, 5);
  {
    // node >= 0 selects the `subfile_<id>.n<node>` scheme a cold mount can
    // map back to I/O nodes.
    auto st = make_storage(dir, 3, /*replica=*/1, nullptr, /*node=*/7);
    st->write(0, data);
    st->set_epoch(2);
  }
  EXPECT_TRUE(std::filesystem::exists(dir / "subfile_3.n7"));
  EXPECT_TRUE(std::filesystem::exists(dir / "subfile_3.n7.epoch"));
  auto back = make_storage(dir, 3, /*replica=*/1, nullptr, /*node=*/7,
                           /*preserve=*/true);
  EXPECT_EQ(back->epoch(), 2);
  Buffer out(16);
  back->read(0, out);
  EXPECT_TRUE(equal_bytes(out, data));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// IntegrityStorage
// ---------------------------------------------------------------------------

TEST(IntegrityStorage, RoundTripAndHolePreserved) {
  IntegrityStorage st(std::make_unique<MemoryStorage>(), 64);
  const Buffer data = make_pattern_buffer(200, 8);
  st.write(0, data);
  st.write(500, data);  // hole in [200, 500)
  Buffer back(200);
  st.read(500, back);
  EXPECT_TRUE(equal_bytes(back, data));
  Buffer hole(64);
  st.read(300, hole);
  for (std::byte b : hole) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(st.size(), 700);
}

TEST(IntegrityStorage, DetectsBitRotUnderneath) {
  auto inner = std::make_unique<MemoryStorage>();
  MemoryStorage* raw = inner.get();
  IntegrityStorage st(std::move(inner), 64);
  st.write(0, make_pattern_buffer(128, 9));
  // Flip one stored bit behind the integrity layer's back.
  Buffer one(1);
  raw->read(70, one);
  one[0] ^= std::byte{0x10};
  raw->write(70, one);
  Buffer back(128);
  EXPECT_THROW(st.read(0, back), StorageCorruptionError);
  // The undamaged block is still readable.
  Buffer first(64);
  EXPECT_NO_THROW(st.read(0, first));
}

TEST(IntegrityStorage, DetectsTornWriteUnderneath) {
  auto inner = std::make_unique<MemoryStorage>();
  IntegrityStorage st(std::make_unique<MemoryStorage>(), 64);
  // Simulate the tear with FaultyStorage: every write persists a prefix.
  StorageFaultPlan plan;
  plan.seed = 3;
  StorageFaultRule rule;
  rule.op = StorageFaultRule::Op::kWrite;
  rule.torn_write = 1.0;
  plan.rules.push_back(rule);
  IntegrityStorage torn(
      std::make_unique<FaultyStorage>(std::make_unique<MemoryStorage>(), plan),
      64);
  torn.write(0, make_pattern_buffer(128, 10));
  EXPECT_EQ(torn.size(), 128);  // intended size stays honest
  Buffer back(128);
  EXPECT_THROW(torn.read(0, back), StorageCorruptionError);
}

TEST(IntegrityStorage, FullBlockOverwriteRepairsCorruption) {
  auto inner = std::make_unique<MemoryStorage>();
  MemoryStorage* raw = inner.get();
  IntegrityStorage st(std::move(inner), 64);
  st.write(0, make_pattern_buffer(64, 11));
  Buffer one(1);
  raw->read(3, one);
  one[0] ^= std::byte{0x01};
  raw->write(3, one);
  Buffer back(64);
  EXPECT_THROW(st.read(0, back), StorageCorruptionError);
  // Scrub's repair path: a write covering the block's whole recorded
  // coverage must succeed over the corrupt bytes and restore readability.
  const Buffer fresh = make_pattern_buffer(64, 12);
  EXPECT_NO_THROW(st.write(0, fresh));
  st.read(0, back);
  EXPECT_TRUE(equal_bytes(back, fresh));
}

TEST(IntegrityStorage, PartialOverwriteOfCorruptBlockIsNotLaundered) {
  auto inner = std::make_unique<MemoryStorage>();
  MemoryStorage* raw = inner.get();
  IntegrityStorage st(std::move(inner), 64);
  st.write(0, make_pattern_buffer(64, 13));
  Buffer one(1);
  raw->read(40, one);
  one[0] ^= std::byte{0x80};
  raw->write(40, one);
  // A partial overwrite succeeds (checksums come from the intent mirror,
  // not from re-reading the backend) but must not quietly launder the
  // rotten remainder into a fresh checksum: the stored byte still
  // disagrees with the recorded sum, so the next read reports it.
  EXPECT_NO_THROW(st.write(0, make_pattern_buffer(8, 14)));
  Buffer back(64);
  EXPECT_THROW(st.read(0, back), StorageCorruptionError);
}

// The vectorized override (one CRC bookkeeping pass per touched block
// instead of one per run) must leave the exact state a run-at-a-time
// sequence of write() calls would: same bytes, same checksums, so reads
// through either instance agree.
TEST(IntegrityStorage, VectoredWriteMatchesSequentialWrites) {
  IntegrityStorage vec(std::make_unique<MemoryStorage>(), 64);
  IntegrityStorage seq(std::make_unique<MemoryStorage>(), 64);
  // Runs chosen to straddle block boundaries and share blocks: two runs in
  // block 0, one spanning blocks 1-2, one alone in block 3.
  const std::vector<IoVec> runs = {{8, 8}, {40, 16}, {100, 40}, {200, 10}};
  Buffer payload = make_pattern_buffer(74, 18);
  vec.writev(runs, payload);
  std::size_t off = 0;
  for (const IoVec& r : runs) {
    seq.write(r.offset, std::span<const std::byte>(payload)
                            .subspan(off, static_cast<std::size_t>(r.len)));
    off += static_cast<std::size_t>(r.len);
  }
  ASSERT_EQ(vec.size(), seq.size());
  Buffer a(static_cast<std::size_t>(vec.size()));
  Buffer b(static_cast<std::size_t>(seq.size()));
  vec.read(0, a);
  seq.read(0, b);
  EXPECT_TRUE(equal_bytes(a, b));
  // And the gathered view matches what went in.
  Buffer gathered(74);
  vec.readv(runs, gathered);
  EXPECT_TRUE(equal_bytes(gathered, payload));
}

// Corruption behind the integrity layer must surface through readv exactly
// as it does through read — the gather path verifies every touched block.
TEST(IntegrityStorage, VectoredReadDetectsBitRot) {
  auto inner = std::make_unique<MemoryStorage>();
  MemoryStorage* raw = inner.get();
  IntegrityStorage st(std::move(inner), 64);
  st.write(0, make_pattern_buffer(256, 19));
  Buffer one(1);
  raw->read(130, one);  // block 2
  one[0] ^= std::byte{0x04};
  raw->write(130, one);

  const std::vector<IoVec> bad_runs = {{0, 16}, {128, 16}};
  Buffer out(32);
  EXPECT_THROW(st.readv(bad_runs, out), StorageCorruptionError);
  // Runs avoiding the rotten block still gather fine.
  const std::vector<IoVec> good_runs = {{0, 16}, {64, 16}, {192, 16}};
  Buffer ok(48);
  EXPECT_NO_THROW(st.readv(good_runs, ok));
}

// A tear under a vectorized write is caught like a tear under write():
// the persisted prefix disagrees with the recorded checksums.
TEST(IntegrityStorage, VectoredTornWriteIsDetected) {
  StorageFaultPlan plan;
  plan.seed = 5;
  StorageFaultRule rule;
  rule.op = StorageFaultRule::Op::kWrite;
  rule.torn_write = 1.0;
  plan.rules.push_back(rule);
  IntegrityStorage torn(
      std::make_unique<FaultyStorage>(std::make_unique<MemoryStorage>(), plan),
      64);
  const std::vector<IoVec> runs = {{0, 64}, {64, 64}};
  torn.writev(runs, make_pattern_buffer(128, 20));
  EXPECT_EQ(torn.size(), 128);  // intended size stays honest
  Buffer back(128);
  EXPECT_THROW(torn.read(0, back), StorageCorruptionError);
}

// ---------------------------------------------------------------------------
// FaultyStorage
// ---------------------------------------------------------------------------

StorageFaultPlan one_rule_plan(std::uint64_t seed, StorageFaultRule rule) {
  StorageFaultPlan plan;
  plan.seed = seed;
  plan.rules.push_back(rule);
  return plan;
}

TEST(FaultyStorage, SameSeedSameFaults) {
  StorageFaultRule rule;
  rule.torn_write = 0.3;
  rule.eio = 0.1;
  auto run = [&](std::uint64_t seed) {
    FaultyStorage st(std::make_unique<MemoryStorage>(),
                     one_rule_plan(seed, rule), /*subfile_id=*/2,
                     /*replica=*/1);
    const Buffer data = make_pattern_buffer(64, 15);
    for (int i = 0; i < 200; ++i) {
      try {
        st.write(static_cast<std::int64_t>(i) * 64, data);
      } catch (const std::system_error&) {
      }
    }
    return st.counters();
  };
  const auto a = run(9), b = run(9), c = run(10);
  EXPECT_EQ(a.torn_writes, b.torn_writes);
  EXPECT_EQ(a.eio_injected, b.eio_injected);
  EXPECT_GT(a.torn_writes, 0);
  EXPECT_GT(a.eio_injected, 0);
  // A different seed gives a different (still nonempty) fault sequence.
  EXPECT_TRUE(a.torn_writes != c.torn_writes || a.eio_injected != c.eio_injected);
}

TEST(FaultyStorage, TornWritePersistsStrictPrefix) {
  StorageFaultRule rule;
  rule.op = StorageFaultRule::Op::kWrite;
  rule.torn_write = 1.0;
  FaultyStorage st(std::make_unique<MemoryStorage>(), one_rule_plan(4, rule));
  const Buffer data = make_pattern_buffer(100, 16);
  EXPECT_NO_THROW(st.write(0, data));  // the tear still acks
  EXPECT_EQ(st.counters().torn_writes, 1);
  EXPECT_LT(st.size(), 100);  // strictly shorter than the intended write
}

TEST(FaultyStorage, BitRotFlipsExactlyOneStoredBit) {
  StorageFaultRule rule;
  rule.op = StorageFaultRule::Op::kRead;
  rule.bit_rot = 1.0;
  FaultyStorage st(std::make_unique<MemoryStorage>(), one_rule_plan(5, rule));
  const Buffer data = make_pattern_buffer(64, 17);
  st.write(0, data);
  Buffer back(64);
  st.read(0, back);
  int flipped_bits = 0;
  for (std::size_t i = 0; i < back.size(); ++i) {
    unsigned diff = std::to_integer<unsigned>(back[i] ^ data[i]);
    while (diff) {
      flipped_bits += static_cast<int>(diff & 1u);
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(st.counters().bits_rotted, 1);
  // The rot is persistent: disarm and re-read — the flip is still there.
  st.disarm_faults();
  Buffer again(64);
  st.read(0, again);
  EXPECT_EQ(again, back);
}

TEST(FaultyStorage, DeadAfterBudgetIsSticky) {
  StorageFaultRule rule;
  rule.dead_after = 3;
  FaultyStorage st(std::make_unique<MemoryStorage>(), one_rule_plan(6, rule));
  const Buffer data = make_pattern_buffer(8, 18);
  for (int i = 0; i < 3; ++i) EXPECT_NO_THROW(st.write(i * 8, data));
  EXPECT_THROW(st.write(24, data), std::system_error);
  EXPECT_TRUE(st.dead());
  Buffer out(8);
  EXPECT_THROW(st.read(0, out), std::system_error);
  // Death models hardware: disarming the injector does not resurrect it.
  st.disarm_faults();
  EXPECT_THROW(st.read(0, out), std::system_error);
  EXPECT_GE(st.counters().dead_rejected, 2);
}

TEST(FaultyStorage, DisarmStopsProbabilisticFaults) {
  StorageFaultRule rule;
  rule.eio = 1.0;
  FaultyStorage st(std::make_unique<MemoryStorage>(), one_rule_plan(7, rule));
  const Buffer data = make_pattern_buffer(8, 19);
  EXPECT_THROW(st.write(0, data), std::system_error);
  st.disarm_faults();
  EXPECT_NO_THROW(st.write(0, data));
}

}  // namespace
}  // namespace pfm
