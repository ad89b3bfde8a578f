// ckpt: checkpoint store state machine (complete/incomplete/corrupted),
// scrub, the per-rank file slots (reset in place, level-ordered inline
// copies), and the PFS commit and restore through a priced PFS tier,
// including the failure-during-write corruption path (paper §V-B/§V-D).

#include <gtest/gtest.h>

#include <cstring>

#include "ckpt/checkpoint.hpp"
#include "ckpt/tiered.hpp"
#include "iomodel/storage.hpp"
#include "sim_test_util.hpp"
#include "vmpi/context.hpp"

namespace exasim {
namespace {

using ckpt::CheckpointStore;
using ckpt::CkptMode;
using ckpt::CopyRecord;
using test::run_app;
using test::tiny_config;
using vmpi::Context;

test::QuietLogs quiet;

/// The copy a PFS write records: the shared durable tier.
constexpr CopyRecord kPfsCopy{.level = 2, .holder = -1};

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> out(std::strlen(s));
  std::memcpy(out.data(), s, out.size());
  return out;
}

TEST(CheckpointStore, CompleteSetLifecycle) {
  CheckpointStore store(2);
  for (int r = 0; r < 2; ++r) {
    store.begin(1, r);
    store.append(1, r, bytes_of("data"));
    store.finalize(1, r, kPfsCopy);
  }
  EXPECT_TRUE(store.set_complete(1));
  EXPECT_EQ(store.latest_complete(), 1u);
  EXPECT_EQ(store.read(1, 0), bytes_of("data"));
  EXPECT_EQ(store.file_count(), 2u);
  EXPECT_EQ(store.total_bytes(), 8u);
}

TEST(CheckpointStore, MissingFileMakesSetIncomplete) {
  CheckpointStore store(3);
  for (int r = 0; r < 2; ++r) {  // Rank 2 never wrote.
    store.begin(5, r);
    store.finalize(5, r, kPfsCopy);
  }
  EXPECT_FALSE(store.set_complete(5));
  EXPECT_FALSE(store.latest_complete().has_value());
}

TEST(CheckpointStore, UnfinalizedFileIsCorrupted) {
  // "Checkpoint file that exists, but misses some information" (§V-B).
  CheckpointStore store(1);
  store.begin(2, 0);
  store.append(2, 0, bytes_of("partial"));
  EXPECT_TRUE(store.file_exists(2, 0));
  EXPECT_FALSE(store.file_finalized(2, 0));
  EXPECT_FALSE(store.set_complete(2));
}

TEST(CheckpointStore, LatestCompleteSkipsNewerBrokenSets) {
  CheckpointStore store(1);
  store.begin(1, 0);
  store.finalize(1, 0, kPfsCopy);
  store.begin(2, 0);  // Newer but corrupted.
  EXPECT_EQ(store.latest_complete(), 1u);
}

TEST(CheckpointStore, ScrubRemovesOnlyBrokenSets) {
  // The paper's pre-restart shell script.
  CheckpointStore store(2);
  store.begin(1, 0);
  store.finalize(1, 0, kPfsCopy);
  store.begin(1, 1);
  store.finalize(1, 1, kPfsCopy);
  store.begin(2, 0);  // Incomplete: rank 1 missing, rank 0 unfinalized.
  EXPECT_EQ(store.scrub(), 1);
  EXPECT_TRUE(store.set_complete(1));
  EXPECT_FALSE(store.file_exists(2, 0));
  EXPECT_EQ(store.scrub(), 0);
}

TEST(CheckpointStore, RemoveFileAndVersion) {
  CheckpointStore store(2);
  store.begin(1, 0);
  store.finalize(1, 0, kPfsCopy);
  store.begin(1, 1);
  store.finalize(1, 1, kPfsCopy);
  store.remove_file(1, 0);
  EXPECT_FALSE(store.file_exists(1, 0));
  EXPECT_TRUE(store.file_exists(1, 1));
  store.remove_version(1);
  EXPECT_TRUE(store.versions().empty());
}

TEST(CheckpointStore, BeginOverwritesPreviousAttempt) {
  CheckpointStore store(1);
  store.begin(1, 0);
  store.append(1, 0, bytes_of("old"));
  store.begin(1, 0);  // Restart of the same version.
  store.append(1, 0, bytes_of("new"));
  store.finalize(1, 0, kPfsCopy);
  EXPECT_EQ(store.read(1, 0), bytes_of("new"));
}

// ---------------------------------------------------------------------------
// File slots: a version holds one slot per rank, reset in place by begin().

TEST(CheckpointSlots, BeginTwiceResetsBytesCopiesAndCompleteness) {
  CheckpointStore store(1);
  store.begin(1, 0);
  store.append(1, 0, bytes_of("first attempt"));
  store.finalize(1, 0, CopyRecord{.level = 0, .holder = 0});
  ASSERT_TRUE(store.set_complete(1));

  store.begin(1, 0);
  EXPECT_EQ(store.file_bytes(1, 0), 0u);
  EXPECT_TRUE(store.read(1, 0).empty());
  EXPECT_TRUE(store.copies(1, 0).empty());
  EXPECT_TRUE(store.file_exists(1, 0));
  EXPECT_FALSE(store.file_finalized(1, 0));
  EXPECT_FALSE(store.set_complete(1));
  EXPECT_EQ(store.file_count(), 1u);

  store.finalize(1, 0, kPfsCopy);
  EXPECT_TRUE(store.set_complete(1));
}

TEST(CheckpointSlots, LaterVersionCarriesNothingFromAnEarlierOne) {
  CheckpointStore store(2);
  for (int r = 0; r < 2; ++r) {
    store.begin(1, r);
    store.append(1, r, bytes_of("version one"));
    store.finalize(1, r, kPfsCopy);
  }
  // Retire version 1 file by file, as heat3d does after its barrier.
  store.begin(2, 0);
  store.remove_file(1, 0);
  store.remove_file(1, 1);
  EXPECT_EQ(store.versions(), std::vector<std::uint64_t>{2});
  EXPECT_EQ(store.file_bytes(2, 0), 0u);
  EXPECT_TRUE(store.copies(2, 0).empty());
  EXPECT_FALSE(store.file_exists(2, 1));
  store.begin(2, 1);
  EXPECT_TRUE(store.read(2, 1).empty());
  EXPECT_TRUE(store.copies(2, 1).empty());
  EXPECT_EQ(store.total_bytes(), 0u);
}

TEST(CheckpointSlots, CopiesStayLevelOrderedWithTiesInInsertionOrder) {
  CheckpointStore store(4);
  store.begin(1, 0);
  store.record_copy(1, 0, CopyRecord{.level = 2, .holder = -1});
  store.record_copy(1, 0, CopyRecord{.level = 0, .holder = 3});
  store.record_copy(1, 0, CopyRecord{.level = 1, .holder = -1});
  store.record_copy(1, 0, CopyRecord{.level = 0, .holder = 1});
  const auto copies = store.copies(1, 0);
  ASSERT_EQ(copies.size(), 4u);
  EXPECT_EQ(copies[0].level, 0);
  EXPECT_EQ(copies[0].holder, 3);  // Recorded before holder 1.
  EXPECT_EQ(copies[1].level, 0);
  EXPECT_EQ(copies[1].holder, 1);
  EXPECT_EQ(copies[2].level, 1);
  EXPECT_EQ(copies[3].level, 2);
}

TEST(CheckpointSlots, FifthCopyIsRejected) {
  CheckpointStore store(1);
  store.begin(1, 0);
  for (int i = 0; i < CheckpointStore::kMaxCopies; ++i) {
    store.record_copy(1, 0, CopyRecord{.level = i % 3, .holder = -1});
  }
  EXPECT_THROW(store.record_copy(1, 0, CopyRecord{}), std::logic_error);
  EXPECT_EQ(store.copies(1, 0).size(), static_cast<std::size_t>(CheckpointStore::kMaxCopies));
}

TEST(CheckpointStore, ApiMisuseThrows) {
  CheckpointStore store(1);
  EXPECT_THROW(store.append(1, 0, bytes_of("x")), std::logic_error);
  EXPECT_THROW(store.finalize(1, 0, kPfsCopy), std::logic_error);
  EXPECT_THROW(store.begin(1, 5), std::invalid_argument);
  EXPECT_THROW(CheckpointStore(0), std::invalid_argument);
  store.begin(1, 0);
  store.finalize(1, 0, kPfsCopy);
  EXPECT_THROW(store.finalize(1, 0, kPfsCopy), std::logic_error);
  EXPECT_EQ(store.copies(1, 0).size(), 1u);
}

// ---------------------------------------------------------------------------
// The PFS commit (TieredWriter's pfs mode) and restore on a priced PFS tier.

/// A PFS tier at 1 MB/s per client: 1 B costs 1 us.
StorageHierarchy priced_pfs() { return StorageHierarchy(resolve_storage_spec("pfs:cbw=1e6")); }

TEST(CheckpointWriter, ChargesPfsTimeBeforeFinalize) {
  CheckpointStore store(1);
  const StorageHierarchy storage = priced_pfs();
  SimTime before = 0, after = 0;
  auto app = [&](Context& ctx) {
    ckpt::TieredWriter writer(storage, CkptMode::kPfs);
    auto payload = bytes_of("0123456789");
    before = ctx.now();
    ASSERT_EQ(writer.write(ctx, store, 1, payload), vmpi::Err::kSuccess);
    after = ctx.now();
    ctx.finalize();
  };
  run_app(tiny_config(1), app);
  EXPECT_EQ(after - before, sim_us(10));  // 10 B at 1 MB/s.
  EXPECT_TRUE(store.set_complete(1));
  // The file's one copy is on the PFS, ready when the write finished.
  const auto copies = store.copies(1, 0);
  ASSERT_EQ(copies.size(), 1u);
  EXPECT_EQ(copies[0], (CopyRecord{.level = 2, .holder = -1, .ready_time = after}));
}

TEST(CheckpointWriter, LogicalBytesOverrideChargesFullSize) {
  CheckpointStore store(1);
  const StorageHierarchy storage = priced_pfs();
  SimTime delta = 0;
  auto app = [&](Context& ctx) {
    ckpt::TieredWriter writer(storage, CkptMode::kPfs);
    auto payload = bytes_of("hdr");  // 3 bytes stored...
    const SimTime t0 = ctx.now();
    writer.write(ctx, store, 1, payload, /*logical_bytes=*/1'000'000);
    delta = ctx.now() - t0;  // ...but one logical second charged.
    ctx.finalize();
  };
  run_app(tiny_config(1), app);
  EXPECT_EQ(delta, sim_sec(1));
  EXPECT_EQ(store.read(1, 0).size(), 3u);
}

TEST(CheckpointWriter, FailureDuringWriteLeavesCorruptedFile) {
  // The §V-D failure mode: a process failure during the checkpoint phase
  // leaves a file that exists but was never finalized.
  CheckpointStore store(2);
  const StorageHierarchy storage = priced_pfs();
  auto cfg = tiny_config(2);
  cfg.failures = {FailureSpec{0, sim_us(500)}};  // Mid-write (write takes 1 ms).
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      ckpt::TieredWriter writer(storage, CkptMode::kPfs);
      std::vector<std::byte> payload(1000);
      writer.write(ctx, store, 7, payload);
    }
    ctx.finalize();
  };
  auto r = run_app(cfg, app);
  EXPECT_EQ(r.failed_count, 1);
  EXPECT_TRUE(store.file_exists(7, 0));        // Created...
  EXPECT_FALSE(store.file_finalized(7, 0));    // ...but corrupted,
  EXPECT_TRUE(store.copies(7, 0).empty());     // with no copy anywhere.
  EXPECT_FALSE(store.set_complete(7));
  EXPECT_EQ(store.scrub(), 1);                 // The shell script removes it.
}

TEST(CheckpointReader, ReadsLatestAndChargesTime) {
  CheckpointStore store(1);
  store.begin(3, 0);
  store.append(3, 0, bytes_of("abcdefghij"));
  store.finalize(3, 0, kPfsCopy);
  const StorageHierarchy storage = priced_pfs();
  std::vector<std::byte> got;
  SimTime delta = 0;
  std::uint64_t version = 0;
  int tier = -1;
  auto app = [&](Context& ctx) {
    const SimTime t0 = ctx.now();
    auto data = ckpt::read_latest_checkpoint_tiered(ctx, store, storage, &version, &tier);
    delta = ctx.now() - t0;
    ASSERT_TRUE(data.has_value());
    got = *data;
    ctx.finalize();
  };
  run_app(tiny_config(1), app);
  EXPECT_EQ(got, bytes_of("abcdefghij"));
  EXPECT_EQ(version, 3u);
  EXPECT_EQ(tier, 2);
  EXPECT_EQ(delta, sim_us(10));
}

TEST(CheckpointReader, ColdStartReturnsNothing) {
  CheckpointStore store(1);
  const StorageHierarchy storage = priced_pfs();
  bool empty = false;
  SimTime delta = sim_sec(1);  // Overwritten by the run.
  auto app = [&](Context& ctx) {
    const SimTime t0 = ctx.now();
    empty = !ckpt::read_latest_checkpoint_tiered(ctx, store, storage).has_value();
    delta = ctx.now() - t0;
    ctx.finalize();
  };
  run_app(tiny_config(1), app);
  EXPECT_TRUE(empty);
  EXPECT_EQ(delta, 0);  // Nothing to read, nothing charged.
}

}  // namespace
}  // namespace exasim
