// Storage hierarchy + tiered checkpointing (DESIGN.md §14): spec parsing
// round-trips and rejection matrix, per-tier cost math, capacity budgets,
// occupancy-window contention, staged-drain back-pressure, the
// partner-loss restart matrix (which tier survives which failure set), and
// the shared restore plan: a randomized differential check against the
// per-rank reference policy, per-version invalidation, and one plan per
// relaunch at 64 and 512 ranks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "apps/heat3d.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/tiered.hpp"
#include "core/runner.hpp"
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

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> out(std::strlen(s));
  std::memcpy(out.data(), s, out.size());
  return out;
}

StorageSpec must_parse(const std::string& text) {
  auto spec = parse_storage_spec(text);
  EXPECT_TRUE(spec.has_value()) << text;
  return spec.value();
}

// ---------------------------------------------------------------------------
// Spec grammar.

TEST(StorageSpec, DefaultIsSingleFreePfsTier) {
  const StorageSpec spec;
  EXPECT_EQ(spec.tiers.size(), 1u);
  EXPECT_EQ(spec.tiers.front(), TierParams{});
  EXPECT_EQ(spec.tiers.front().kind, StorageTierKind::kPfs);
  EXPECT_EQ(to_string(spec), "pfs");
}

TEST(StorageSpec, PresetNamesParse) {
  EXPECT_EQ(must_parse("pfs"), StorageSpec{});
  const StorageSpec hpc = must_parse("hpc");
  EXPECT_EQ(hpc.tiers.size(), 3u);
  EXPECT_EQ(to_string(hpc), "hpc");  // Preset names survive round-trips.
  EXPECT_EQ(must_parse(to_string(hpc)), hpc);
}

TEST(StorageSpec, RegisteredPresetsAllRoundTrip) {
  ASSERT_GE(list_storage().size(), 2u);
  for (const auto& preset : list_storage()) {
    const StorageSpec spec = must_parse(preset.spec);
    EXPECT_EQ(must_parse(preset.name), spec) << preset.name;
    EXPECT_EQ(must_parse(to_string(spec)), spec) << preset.name;
  }
}

TEST(StorageSpec, TierListRoundTripsCanonically) {
  const std::string text = "mem:cbw=5e10,lat=1us,cap=4e9;bb:bw=2e11,cbw=1e10;pfs:lat=1ms";
  const StorageSpec spec = must_parse(text);
  ASSERT_EQ(spec.tiers.size(), 3u);
  EXPECT_EQ(spec.tiers[0].kind, StorageTierKind::kMemory);
  EXPECT_EQ(spec.tiers[0].cbw, 5e10);
  EXPECT_EQ(spec.tiers[0].lat, sim_us(1));
  EXPECT_EQ(spec.tiers[0].cap, 4e9);
  EXPECT_EQ(spec.tiers[1].bw, 2e11);
  EXPECT_EQ(spec.tiers[2].lat, sim_ms(1));
  EXPECT_EQ(must_parse(to_string(spec)), spec);
}

TEST(StorageSpec, PlusSeparatorAndContendFlag) {
  const StorageSpec spec = must_parse("bb:lat=10us,contend=1+pfs:bw=1e11");
  ASSERT_EQ(spec.tiers.size(), 2u);
  EXPECT_TRUE(spec.tiers[0].contend);
  EXPECT_FALSE(spec.tiers[1].contend);
  EXPECT_EQ(spec, must_parse("bb:lat=10us,contend=1;pfs:bw=1e11"));
  EXPECT_EQ(must_parse(to_string(spec)), spec);
}

TEST(StorageSpec, RejectionMatrix) {
  const char* bad[] = {
      "",                        // No tiers at all.
      "mem",                     // Missing the mandatory pfs tier.
      "mem;bb",                  // Still no pfs.
      "pfs;mem",                 // Misordered: mem must precede pfs.
      "pfs;pfs",                 // Duplicate tier.
      "mem;mem;pfs",             // Duplicate tier.
      "ssd:bw=1e9;pfs",          // Unknown tier name.
      "mem:;pfs",                // Empty option list after ':'.
      "pfs:zzz=1",               // Unknown key.
      "pfs:bw",                  // Key without value.
      "pfs:bw=",                 // Empty value.
      "pfs:bw=abc",              // Non-numeric.
      "pfs:bw=1e9x",             // Trailing garbage.
      "pfs:bw=1e999",            // Overflow.
      "pfs:bw=-1",               // Negative bandwidth.
      "pfs:cap=-5",              // Negative capacity.
      "pfs:lat=5parsecs",        // Bad duration suffix.
      "pfs:lat=-1ms",            // Negative duration.
      "pfs:contend=2",           // Bool must be 0|1.
      "pfs:contend=yes",         // Bool must be 0|1.
  };
  for (const char* text : bad) {
    EXPECT_FALSE(parse_storage_spec(text).has_value()) << "\"" << text << "\"";
  }
}

TEST(StorageSpec, ResolveParsesOrThrows) {
  EXPECT_THROW(resolve_storage_spec("nonsense"), std::invalid_argument);
  EXPECT_THROW(resolve_storage_spec(""), std::invalid_argument);
  EXPECT_EQ(resolve_storage_spec("hpc").tiers.size(), 3u);
  EXPECT_EQ(resolve_storage_spec("pfs"), StorageSpec{});
}

// A tier spec sets exactly the named values and leaves the rest zero (the
// slow-PFS benches and examples configure their file system this way).
TEST(StorageSpec, PfsTierSpecSetsOnlyTheNamedValues) {
  TierParams flat;
  flat.cbw = 1e6;
  flat.lat = sim_ms(1);
  const StorageSpec spec = must_parse("pfs:cbw=1e6,lat=1ms");
  ASSERT_EQ(spec.tiers.size(), 1u);
  EXPECT_EQ(spec.tiers.front(), flat);
}

TEST(CkptModeSpec, ParseRoundTripAndResolve) {
  for (const std::string& name : ckpt::list_ckpt_modes()) {
    auto mode = ckpt::parse_ckpt_mode(name);
    ASSERT_TRUE(mode.has_value()) << name;
    EXPECT_EQ(ckpt::to_string(*mode), name);
  }
  EXPECT_FALSE(ckpt::parse_ckpt_mode("scr").has_value());
  EXPECT_THROW(ckpt::resolve_ckpt_mode("scr"), std::invalid_argument);
  EXPECT_THROW(ckpt::resolve_ckpt_mode(""), std::invalid_argument);
  EXPECT_EQ(ckpt::resolve_ckpt_mode("staged"), CkptMode::kStaged);
  EXPECT_EQ(ckpt::resolve_ckpt_mode("pfs"), CkptMode::kPfs);
}

// ---------------------------------------------------------------------------
// Hierarchy cost math, capacity, occupancy windows.

TEST(StorageHierarchy, UnpricedTiersAreFreeAndPricedTiersShareBandwidth) {
  const StorageHierarchy h(must_parse("pfs:bw=8e6,cbw=2e6,lat=1ms"));
  const auto pfs = StorageTierKind::kPfs;
  EXPECT_TRUE(h.has(pfs));
  EXPECT_FALSE(h.has(StorageTierKind::kMemory));
  EXPECT_EQ(h.write_time(StorageTierKind::kMemory, 0, 1'000'000, 1), 0u);
  EXPECT_EQ(h.read_time(StorageTierKind::kBurstBuffer, 1'000'000, 64), 0u);
  // 1 MB at min(2 MB/s, 8/1 MB/s) = 2 MB/s -> 500 ms, plus 1 ms metadata.
  EXPECT_EQ(h.write_time(pfs, 0, 1'000'000, 1), sim_ms(501));
  // 8 clients: min(2 MB/s, 1 MB/s) = 1 MB/s -> 1 s + 1 ms.
  EXPECT_EQ(h.write_time(pfs, 0, 1'000'000, 8), sim_sec(1) + sim_ms(1));
  EXPECT_EQ(h.read_time(pfs, 1'000'000, 8), sim_sec(1) + sim_ms(1));
  // Zero bytes pay only the metadata round trip.
  EXPECT_EQ(h.write_time(pfs, 0, 0, 4), sim_ms(1));
}

TEST(StorageHierarchy, TierMathMatchesThePaperDefaultAndEachBandwidthBound) {
  // The paper's configuration: "the file system overhead for
  // checkpoint/restart was not considered" (§V-C).
  const StorageHierarchy free(StorageSpec{});
  EXPECT_EQ(free.write_time(StorageTierKind::kPfs, 0, 1 << 20, 32768), 0u);
  EXPECT_EQ(free.read_time(StorageTierKind::kPfs, 1 << 20, 1), 0u);
  // Aggregate only: 1 client gets 1 GB/s; 10 clients get 100 MB/s each.
  const StorageHierarchy shared(must_parse("pfs:bw=1e9"));
  EXPECT_EQ(shared.write_time(StorageTierKind::kPfs, 0, 1'000'000, 1), sim_ms(1));
  EXPECT_EQ(shared.write_time(StorageTierKind::kPfs, 0, 1'000'000, 10), sim_ms(10));
  // Aggregate/1 = 100 GB/s but the per-client cap (1 GB/s) binds.
  const StorageHierarchy capped(must_parse("pfs:bw=100e9,cbw=1e9,lat=50us"));
  EXPECT_EQ(capped.write_time(StorageTierKind::kPfs, 0, 1000, 1), sim_us(50) + sim_us(1));
  EXPECT_EQ(capped.write_time(StorageTierKind::kPfs, 0, 1'000'000, 1), sim_us(50) + sim_ms(1));
  // Every tier, priced or not, needs at least one client.
  EXPECT_THROW(free.write_time(StorageTierKind::kPfs, 0, 10, 0), std::invalid_argument);
  EXPECT_THROW(free.read_time(StorageTierKind::kMemory, 10, 0), std::invalid_argument);
}

TEST(StorageHierarchy, CapacityBudgets) {
  const StorageHierarchy h(must_parse("mem:cap=1000;bb:cap=1000;pfs"));
  // Node memory: `replicas` images per rank must fit the per-node budget.
  EXPECT_TRUE(h.fits(StorageTierKind::kMemory, 500, /*world_ranks=*/64, /*replicas=*/2));
  EXPECT_FALSE(h.fits(StorageTierKind::kMemory, 501, 64, 2));
  // Shared tiers divide capacity over the world size.
  EXPECT_TRUE(h.fits(StorageTierKind::kBurstBuffer, 100, 10));
  EXPECT_FALSE(h.fits(StorageTierKind::kBurstBuffer, 101, 10));
  // Unlimited (cap 0) always fits.
  EXPECT_TRUE(h.fits(StorageTierKind::kPfs, 1u << 30, 1 << 20));
}

TEST(StorageHierarchy, OccupancyWindowQueuesLikeLinkContention) {
  // 1 MB/s per client: 10,000 bytes take 10 ms, 1,000 bytes 1 ms.
  const StorageHierarchy h(must_parse("bb:cbw=1e6,contend=1;pfs:cbw=1e6"));
  const auto bb = StorageTierKind::kBurstBuffer;
  EXPECT_EQ(h.write_time(bb, 0, 10'000, 1), sim_ms(10));  // Idle tier: no wait.
  EXPECT_EQ(h.write_time(bb, sim_ms(4), 10'000, 1), sim_ms(6) + sim_ms(10));  // Busy to 10.
  EXPECT_EQ(h.write_time(bb, sim_ms(30), 1'000, 1), sim_ms(1));  // After the window.
  // Uncontended and unpriced tiers never wait.
  EXPECT_EQ(h.write_time(StorageTierKind::kPfs, 0, 10'000, 1), sim_ms(10));
  EXPECT_EQ(h.write_time(StorageTierKind::kPfs, sim_ms(1), 10'000, 1), sim_ms(10));
  EXPECT_EQ(h.write_time(StorageTierKind::kMemory, 0, 10'000, 1), 0u);
}

TEST(StoragePin, EveryTierWriteAndReadTime) {
  // For each spec, every tier kind (priced or not) is written and read over
  // bytes {0, 1, 24, 32 KiB, 1 MB} x clients {1, 64, 32768}; write i starts
  // at i * 3 us, so a contended tier queues. The row pins an FNV-1a digest
  // of (write, read) per grid point with the summed write and read times.
  struct Pin {
    const char* spec;
    std::uint64_t digest;
    SimTime total_write;
    SimTime total_read;
  };
  const Pin pins[] = {
      {"pfs", 0xa987b600a8b7fb65ULL, 0, 0},
      {"hpc", 0xed5f0be4396b5241ULL, 524166700, 524166700},
      {"bb:bw=2e11,cbw=1e10,lat=10us,contend=1;pfs:bw=1e11,cbw=5e9,lat=1ms,contend=1",
       0x427d53533c44e44bULL, 679638534, 524089735},
  };
  const std::size_t sizes[] = {0, 1, 24, 32 * 1024, 1'000'000};
  const int clients[] = {1, 64, 32768};
  const StorageTierKind kinds[] = {StorageTierKind::kMemory, StorageTierKind::kBurstBuffer,
                                   StorageTierKind::kPfs};
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.spec);
    const StorageHierarchy h(must_parse(pin.spec));
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    const auto mix = [&digest](SimTime t) {
      for (int byte = 0; byte < 8; ++byte) {
        digest = (digest ^ ((t >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
      }
    };
    SimTime total_write = 0, total_read = 0;
    SimTime start = 0;
    for (const auto kind : kinds) {
      for (const std::size_t bytes : sizes) {
        for (const int c : clients) {
          const SimTime w = h.write_time(kind, start, bytes, c);
          const SimTime r = h.read_time(kind, bytes, c);
          mix(w);
          mix(r);
          total_write += w;
          total_read += r;
          start += sim_us(3);
        }
      }
    }
    EXPECT_EQ(digest, pin.digest);
    EXPECT_EQ(total_write, pin.total_write);
    EXPECT_EQ(total_read, pin.total_read);
  }

  // A fixed occupancy sequence on a contended burst buffer at 1 MB/s per
  // client: writes overlap, queue back to back, and reads never wait.
  const StorageHierarchy h(must_parse("bb:cbw=1e6,lat=1us,contend=1;pfs:cbw=1e6"));
  const auto bb = StorageTierKind::kBurstBuffer;
  EXPECT_EQ(h.write_time(bb, 0, 10'000, 1), sim_us(10'001));  // Idle: busy to 10.001 ms.
  EXPECT_EQ(h.write_time(bb, sim_ms(4), 10'000, 1), sim_us(16'002));  // Waits 6.001 ms.
  EXPECT_EQ(h.read_time(bb, 10'000, 1), sim_us(10'001));  // Reads take no window.
  EXPECT_EQ(h.write_time(bb, sim_ms(19), 1'000, 2), sim_us(2'003));  // Waits 1.002 ms.
  EXPECT_EQ(h.write_time(bb, sim_ms(30), 0, 1), sim_us(1));  // After the window.
  EXPECT_EQ(h.write_time(StorageTierKind::kPfs, 0, 10'000, 1), sim_ms(10));  // Uncontended.
  EXPECT_EQ(h.write_time(StorageTierKind::kPfs, sim_ms(1), 10'000, 1), sim_ms(10));
}

// ---------------------------------------------------------------------------
// CheckpointStore copy records and the failure matrix.

TEST(CheckpointCopies, RecordSortsByLevelAndRequiresBegin) {
  CheckpointStore store(1);
  EXPECT_THROW(store.record_copy(1, 0, CopyRecord{}), std::logic_error);
  store.begin(1, 0);
  store.append(1, 0, bytes_of("payload"));
  store.finalize(1, 0, CopyRecord{.level = 2, .holder = -1});
  store.record_copy(1, 0, CopyRecord{.level = 0, .holder = 0});
  const auto copies = store.copies(1, 0);
  ASSERT_EQ(copies.size(), 2u);
  EXPECT_EQ(copies[0].level, 0);
  EXPECT_EQ(copies[1].level, 2);
  EXPECT_EQ(store.file_bytes(1, 0), 7u);
  EXPECT_EQ(store.file_bytes(1, 3), 0u);  // Unknown rank: no file.
}

TEST(CheckpointCopies, FailureMatrixVictimPartnerAndBoth) {
  // Rank 0's file exists in its own memory and in partner rank 1's memory.
  auto make_store = [] {
    auto store = std::make_unique<CheckpointStore>(2);
    for (int r = 0; r < 2; ++r) {
      store->begin(1, r);
      store->append(1, r, bytes_of("img"));
      store->finalize(1, r, CopyRecord{.level = 0, .holder = r});
      store->record_copy(1, r, CopyRecord{.level = 0, .holder = 1 - r});
    }
    return store;
  };
  {
    // Victim dies: its local copy is lost, the partner-held replica survives.
    auto store = make_store();
    EXPECT_EQ(store->apply_failures({FailureSpec{0, sim_sec(1)}}, sim_sec(2)), 2);
    EXPECT_TRUE(store->set_complete(1));
    const auto copies = store->copies(1, 0);
    ASSERT_EQ(copies.size(), 1u);
    EXPECT_EQ(copies[0].holder, 1);
  }
  {
    // Victim AND partner die: every memory copy is gone, the set with it.
    auto store = make_store();
    EXPECT_EQ(store->apply_failures(
                  {FailureSpec{0, sim_sec(1)}, FailureSpec{1, sim_sec(1)}}, sim_sec(2)),
              4);
    EXPECT_FALSE(store->set_complete(1));
    EXPECT_FALSE(store->latest_complete().has_value());
    EXPECT_FALSE(store->file_exists(1, 0));
  }
  {
    // Both die, but a drained PFS copy landed before the run ended.
    auto store = make_store();
    for (int r = 0; r < 2; ++r) {
      store->record_copy(1, r, CopyRecord{.level = 2, .holder = -1,
                                          .ready_time = sim_ms(500),
                                          .depends_on = r, .depends_until = sim_ms(500)});
    }
    EXPECT_EQ(store->apply_failures(
                  {FailureSpec{0, sim_sec(1)}, FailureSpec{1, sim_sec(1)}}, sim_sec(2)),
              4);
    EXPECT_TRUE(store->set_complete(1));
    EXPECT_EQ(store->copies(1, 0).front().level, 2);
  }
}

TEST(CheckpointCopies, InFlightDrainsDieWithTheRunOrTheSourceRank) {
  CheckpointStore store(1);
  store.begin(1, 0);
  store.finalize(1, 0, CopyRecord{.level = 0, .holder = 0});
  // PFS drain still in flight when the run ends at 1 s: not durable yet.
  store.record_copy(1, 0, CopyRecord{.level = 2, .holder = -1, .ready_time = sim_sec(5),
                                     .depends_on = 0, .depends_until = sim_sec(5)});
  EXPECT_EQ(store.apply_failures({}, sim_sec(1)), 1);
  ASSERT_EQ(store.copies(1, 0).size(), 1u);
  EXPECT_EQ(store.copies(1, 0).front().level, 0);

  // Source rank dies before the bb hand-off: the drain sourced from its
  // memory image, so the copy is lost even though ready_time has passed.
  store.record_copy(1, 0, CopyRecord{.level = 1, .holder = -1, .ready_time = sim_ms(800),
                                     .depends_on = 0, .depends_until = sim_ms(800)});
  EXPECT_EQ(store.apply_failures({FailureSpec{0, sim_ms(400)}}, sim_sec(1)), 2);
  EXPECT_FALSE(store.file_exists(1, 0));

  // Source rank dies *after* the hand-off: the shared-tier copy survives.
  CheckpointStore late(1);
  late.begin(1, 0);
  late.finalize(1, 0, CopyRecord{.level = 1, .holder = -1, .ready_time = sim_ms(200),
                                 .depends_on = 0, .depends_until = sim_ms(200)});
  EXPECT_EQ(late.apply_failures({FailureSpec{0, sim_ms(400)}}, sim_sec(1)), 0);
  EXPECT_TRUE(late.set_complete(1));
}

// ---------------------------------------------------------------------------
// TieredWriter in simulation.

TEST(TieredWriter, PartnerModeRecordsBothMemoryCopies) {
  CheckpointStore store(2);
  const StorageHierarchy storage(must_parse("mem:cbw=1e6;pfs:lat=1ms"));
  auto app = [&](Context& ctx) {
    ckpt::TieredWriter writer(storage, CkptMode::kPartner);
    std::vector<std::byte> payload(1000, std::byte{0x5a});
    ASSERT_EQ(writer.write(ctx, store, 1, payload), vmpi::Err::kSuccess);
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  EXPECT_TRUE(store.set_complete(1));
  for (int r = 0; r < 2; ++r) {
    const auto copies = store.copies(1, r);
    ASSERT_EQ(copies.size(), 2u) << "rank " << r;
    EXPECT_EQ(copies[0].level, 0);
    EXPECT_EQ(copies[1].level, 0);
    EXPECT_TRUE((copies[0].holder == r && copies[1].holder == 1 - r) ||
                (copies[0].holder == 1 - r && copies[1].holder == r));
  }
}

TEST(TieredWriter, FallsBackToPfsWhenAloneOrOverBudget) {
  {
    // World of one: no partner exists, degrade to the flat PFS path.
    CheckpointStore store(1);
    const StorageHierarchy storage(must_parse("mem;pfs"));
    auto app = [&](Context& ctx) {
      ckpt::TieredWriter writer(storage, CkptMode::kPartner);
      writer.write(ctx, store, 1, bytes_of("solo"));
      ctx.finalize();
    };
    run_app(tiny_config(1), app);
    ASSERT_EQ(store.copies(1, 0).size(), 1u);
    EXPECT_EQ(store.copies(1, 0).front().level, 2);
  }
  {
    // Two images (own + hosted replica) must fit the node-memory budget.
    CheckpointStore store(2);
    const StorageHierarchy storage(must_parse("mem:cap=1000;pfs"));
    auto app = [&](Context& ctx) {
      ckpt::TieredWriter writer(storage, CkptMode::kPartner);
      std::vector<std::byte> payload(600);  // 2 x 600 > 1000.
      writer.write(ctx, store, 1, payload);
      ctx.finalize();
    };
    run_app(tiny_config(2), app);
    EXPECT_EQ(store.copies(1, 0).front().level, 2);
  }
}

TEST(TieredWriter, StagedDrainBlocksTheNextCheckpointUntilHandOff) {
  // 1000-byte image, PFS at 1 KB/s (2 KB/s aggregate over 2 clients): the
  // mem -> pfs drain takes 1 s of background sim-time. Without a burst
  // buffer the staging buffer is held the whole way, so an immediate second
  // checkpoint must wait out the remaining drain.
  const StorageHierarchy storage(must_parse("mem:cbw=1e9;pfs:bw=2e3,cbw=1e3"));
  auto elapsed_between_writes = [&](CkptMode mode) {
    CheckpointStore store(2);
    SimTime delta = 0;
    auto app = [&](Context& ctx) {
      ckpt::TieredWriter writer(storage, mode);
      std::vector<std::byte> payload(1000, std::byte{1});
      ASSERT_EQ(writer.write(ctx, store, 1, payload), vmpi::Err::kSuccess);
      const SimTime t0 = ctx.now();
      ASSERT_EQ(writer.write(ctx, store, 2, payload), vmpi::Err::kSuccess);
      if (ctx.rank() == 0) delta = ctx.now() - t0;
      ctx.finalize();
    };
    run_app(tiny_config(2), app);
    return delta;
  };
  const SimTime staged = elapsed_between_writes(CkptMode::kStaged);
  const SimTime partner = elapsed_between_writes(CkptMode::kPartner);
  EXPECT_GE(staged, sim_ms(900));   // Blocked on the in-flight 1 s drain.
  EXPECT_LT(partner, sim_ms(100));  // No drain, no back-pressure.
}

TEST(TieredWriter, StagedWithBurstBufferReleasesAfterBbLeg) {
  // A fast burst buffer takes the hand-off: drain_ready is the bb landing
  // (1000 B at 1 MB/s = 1 ms), not the slow PFS leg behind it.
  const StorageHierarchy storage(
      must_parse("mem:cbw=1e9;bb:bw=2e6,cbw=1e6;pfs:bw=2e3,cbw=1e3"));
  CheckpointStore store(2);
  SimTime delta = 0;
  auto app = [&](Context& ctx) {
    ckpt::TieredWriter writer(storage, CkptMode::kStaged);
    std::vector<std::byte> payload(1000, std::byte{1});
    ASSERT_EQ(writer.write(ctx, store, 1, payload), vmpi::Err::kSuccess);
    const SimTime t0 = ctx.now();
    ASSERT_EQ(writer.write(ctx, store, 2, payload), vmpi::Err::kSuccess);
    if (ctx.rank() == 0) delta = ctx.now() - t0;
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  EXPECT_LT(delta, sim_ms(100));  // The 1 s PFS leg drains off the bb copy.
  // Each rank recorded mem (x2), bb, and pfs copies.
  const auto copies = store.copies(1, 0);
  ASSERT_EQ(copies.size(), 4u);
  EXPECT_EQ(copies[2].level, 1);
  EXPECT_EQ(copies[3].level, 2);
  EXPECT_GT(copies[3].ready_time, copies[2].ready_time);
}

// ---------------------------------------------------------------------------
// Tier-aware restore.

TEST(TieredRestore, FetchesFromSurvivingPartnerMemory) {
  // Rank 0 lost its local copy (it died last launch); its replica lives in
  // rank 1's memory. Restore must fetch it over the network and report the
  // memory tier.
  CheckpointStore store(2);
  const StorageHierarchy storage(must_parse("mem:cbw=1e6;pfs:lat=1ms"));
  auto seed_app = [&](Context& ctx) {
    ckpt::TieredWriter writer(storage, CkptMode::kPartner);
    std::vector<std::byte> payload(100, std::byte{static_cast<unsigned char>(ctx.rank())});
    writer.write(ctx, store, 1, payload);
    ctx.finalize();
  };
  run_app(tiny_config(2), seed_app);
  EXPECT_EQ(store.apply_failures({FailureSpec{0, sim_sec(1)}}, sim_sec(2)), 2);

  int tier0 = -1, tier1 = -1;
  std::uint64_t version = 0;
  bool ok = true;
  auto restore_app = [&](Context& ctx) {
    int tier = -1;
    auto data = ckpt::read_latest_checkpoint_tiered(ctx, store, storage, &version, &tier);
    ok = ok && data.has_value() &&
         data->data()[0] == std::byte{static_cast<unsigned char>(ctx.rank())};
    (ctx.rank() == 0 ? tier0 : tier1) = tier;
    ctx.finalize();
  };
  run_app(tiny_config(2), restore_app);
  EXPECT_TRUE(ok);
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(tier0, 0);  // Fetched the partner-held memory replica.
  EXPECT_EQ(tier1, 0);  // Own memory copy survived.
}

TEST(TieredRestore, FallsToDeeperTierWhenMemoryCopiesDie) {
  // Staged checkpoints drained to bb + pfs; then both ranks die, wiping all
  // memory copies. Restore must come from the burst buffer (level 1).
  CheckpointStore store(2);
  const StorageHierarchy storage(must_parse("mem:cbw=1e9;bb:bw=2e6,cbw=1e6;pfs:lat=1ms"));
  auto seed_app = [&](Context& ctx) {
    ckpt::TieredWriter writer(storage, CkptMode::kStaged);
    std::vector<std::byte> payload(100, std::byte{7});
    writer.write(ctx, store, 1, payload);
    // Let the drains land inside the run's recorded end time.
    ctx.elapse(sim_sec(1));
    ctx.finalize();
  };
  run_app(tiny_config(2), seed_app);
  EXPECT_GT(store.apply_failures(
                {FailureSpec{0, sim_sec(2)}, FailureSpec{1, sim_sec(2)}}, sim_sec(3)),
            0);
  int tier = -1;
  auto restore_app = [&](Context& ctx) {
    int t = -1;
    auto data = ckpt::read_latest_checkpoint_tiered(ctx, store, storage, nullptr, &t);
    EXPECT_TRUE(data.has_value());
    if (ctx.rank() == 0) tier = t;
    ctx.finalize();
  };
  run_app(tiny_config(2), restore_app);
  EXPECT_EQ(tier, 1);  // Nearest surviving tier: the burst buffer.
}

TEST(TieredRestore, RestoreTierBelongsToTheRun) {
  // A staged run that restarts restores from node memory (tier 1). A PFS run
  // on the same thread afterwards restores nothing, and its counters say so
  // instead of carrying the earlier run's tier.
  apps::HeatParams heat;
  heat.nx = heat.ny = heat.nz = 8;
  heat.total_iterations = 8;
  heat.halo_interval = heat.checkpoint_interval = 2;
  heat.real_compute = false;
  heat.work_units_per_point = 1000.0;  // 64 us per iteration per rank.
  core::RunnerConfig rc;
  rc.base = tiny_config(8);
  rc.base.storage = "hpc";
  rc.base.ckpt_mode = "staged";
  rc.first_run_failures = {FailureSpec{1, sim_us(5 * 64)}};
  const core::RunnerResult staged = core::ResilientRunner(rc, apps::make_heat3d(heat)).run();
  ASSERT_TRUE(staged.completed);
  ASSERT_EQ(staged.launches, 2);
  EXPECT_EQ(staged.run_results[1].perf.ckpt_restore_tier, 1u);

  rc.base.ckpt_mode = "pfs";
  rc.first_run_failures.clear();
  const core::RunnerResult pfs = core::ResilientRunner(rc, apps::make_heat3d(heat)).run();
  ASSERT_TRUE(pfs.completed);
  ASSERT_EQ(pfs.launches, 1);
  EXPECT_EQ(pfs.run_results[0].perf.ckpt_restore_tier, 0u);
}

TEST(TieredRestore, ColdStartAfterTotalLossReturnsNothing) {
  CheckpointStore store(2);
  const StorageHierarchy storage(must_parse("mem;pfs"));
  auto seed_app = [&](Context& ctx) {
    ckpt::TieredWriter writer(storage, CkptMode::kPartner);  // Memory only.
    std::vector<std::byte> payload(100);
    writer.write(ctx, store, 1, payload);
    ctx.finalize();
  };
  run_app(tiny_config(2), seed_app);
  // Both ranks die: every copy of every file is gone.
  store.apply_failures({FailureSpec{0, sim_sec(1)}, FailureSpec{1, sim_sec(1)}},
                       sim_sec(2));
  // One result slot per rank.
  std::vector<char> restored(2, 1);
  auto restore_app = [&](Context& ctx) {
    restored[static_cast<std::size_t>(ctx.rank())] =
        ckpt::read_latest_checkpoint_tiered(ctx, store, storage).has_value();
    ctx.finalize();
  };
  run_app(tiny_config(2), restore_app);
  const bool empty = restored[0] == 0 && restored[1] == 0;
  EXPECT_TRUE(empty);
}

TEST(TieredRestore, StoreSizedForAnotherWorldIsRejected) {
  CheckpointStore store(3);
  const StorageHierarchy storage(must_parse("pfs"));
  std::vector<char> threw(2, 0);  // One slot per rank.
  auto app = [&](Context& ctx) {
    try {
      ckpt::read_latest_checkpoint_tiered(ctx, store, storage);
    } catch (const std::logic_error&) {
      threw[static_cast<std::size_t>(ctx.rank())] = 1;
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  EXPECT_EQ(threw, std::vector<char>(2, 1));
}

// ---------------------------------------------------------------------------
// The shared restore plan.

// Reference policy: every rank scans every peer's copy list and picks the
// fastest tier, then the cheapest access (own memory, shared tier, peer
// memory), first recorded on ties — the per-rank plan loop the shared plan
// replaces.
int access_class(const CopyRecord& copy, int rank) {
  if (copy.holder == rank) return 0;
  if (copy.holder < 0) return 1;
  return 2;
}

CopyRecord reference_best_copy(const std::vector<CopyRecord>& copies, int q) {
  CopyRecord best = copies.front();  // A finalized file has a copy.
  for (const auto& c : copies) {
    if (c.level < best.level ||
        (c.level == best.level && access_class(c, q) < access_class(best, q))) {
      best = c;
    }
  }
  return best;
}

CopyRecord mem(int holder) { return {.level = 0, .holder = holder}; }
CopyRecord shared(int level) { return {.level = level, .holder = -1}; }

std::vector<int> served_list(const ckpt::RestorePlan& plan, int holder) {
  const auto span = plan.served_by(holder);
  return {span.begin(), span.end()};
}

TEST(RestorePlan, MatchesThePerRankReferenceOnRandomStores) {
  int planned = 0, fetches = 0;  // Guards against a vacuous sample.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed);
    auto pick = [&rng](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };
    const int world = 2 + pick(63);
    CheckpointStore store(world);
    const int versions = 1 + pick(2);
    for (int v = 1; v <= versions; ++v) {
      for (int r = 0; r < world; ++r) {
        store.begin(v, r);
        store.append(v, r, std::vector<std::byte>(static_cast<std::size_t>(1 + pick(64))));
        // Candidate placements: own memory, partner memory, another peer's
        // memory, burst buffer, PFS; 1..kMaxCopies of them in random order,
        // the first finalizing the file.
        const int partner = ckpt::partner_of(r, world);
        const int peer = pick(world);
        std::vector<CopyRecord> kinds = {mem(r), mem(partner), mem(peer), shared(1), shared(2)};
        std::shuffle(kinds.begin(), kinds.end(), rng);
        const int n = 1 + pick(CheckpointStore::kMaxCopies);
        for (int i = 0; i < n; ++i) {
          CopyRecord c = kinds[static_cast<std::size_t>(i)];
          c.ready_time = sim_ms(pick(10));
          if (c.holder < 0 && pick(2) == 0) {
            c.depends_on = r;
            c.depends_until = c.ready_time;
          }
          if (i == 0) {
            store.finalize(v, r, c);
          } else {
            store.record_copy(v, r, c);
          }
        }
      }
    }
    std::vector<FailureSpec> failures;
    for (int f = pick(4); f > 0; --f) {
      failures.push_back(FailureSpec{pick(world), sim_ms(pick(10))});
    }
    store.apply_failures(failures, sim_ms(5 + pick(10)));
    store.scrub();

    const auto latest = store.latest_complete();
    const auto plan = store.restore_plan();
    ASSERT_EQ(plan != nullptr, latest.has_value()) << "seed " << seed;
    if (!plan) continue;
    ++planned;
    ASSERT_EQ(plan->version, *latest);
    std::vector<std::vector<int>> served(static_cast<std::size_t>(world));
    for (int q = 0; q < world; ++q) {
      const CopyRecord want = reference_best_copy(store.copies(*latest, q), q);
      const auto& got = plan->sources[static_cast<std::size_t>(q)];
      EXPECT_EQ(got.level, want.level) << "seed " << seed << " rank " << q;
      EXPECT_EQ(got.holder, want.holder) << "seed " << seed << " rank " << q;
      EXPECT_EQ(got.bytes, store.file_bytes(*latest, q));
      if (want.holder >= 0 && want.holder != q) {
        served[static_cast<std::size_t>(want.holder)].push_back(q);
        ++fetches;
      }
    }
    for (int h = 0; h < world; ++h) {
      EXPECT_EQ(served_list(*plan, h), served[static_cast<std::size_t>(h)])
          << "seed " << seed << " holder " << h;
    }
  }
  std::printf("restore plans checked: %d of 200 stores, %d peer fetches\n", planned, fetches);
  EXPECT_GT(planned, 50);
  EXPECT_GT(fetches, 100);
}

TEST(RestorePlan, RebuiltOnlyWhenThePlannedVersionChanges) {
  CheckpointStore store(2);
  EXPECT_EQ(store.restore_plan(), nullptr);  // Cold start builds nothing.
  for (std::uint64_t v : {1, 2}) {
    for (int r = 0; r < 2; ++r) {
      store.begin(v, r);
      store.finalize(v, r, CopyRecord{.level = 0, .holder = r});
      store.record_copy(v, r, CopyRecord{.level = 0, .holder = 1 - r});
    }
  }
  const auto plan = store.restore_plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->version, 2u);
  EXPECT_EQ(store.restore_plan(), plan);  // Shared, not rebuilt.
  // Deleting an older version (heat3d's clean-up right after restoring)
  // leaves the planned version, and so the plan, untouched.
  store.remove_file(1, 0);
  store.remove_file(1, 1);
  EXPECT_EQ(store.restore_plan(), plan);
  EXPECT_EQ(store.plans_built(), 1u);

  // Losing rank 0 mutates version 2: rank 0 now fetches from rank 1.
  EXPECT_EQ(store.apply_failures({FailureSpec{0, sim_sec(1)}}, sim_sec(2)), 2);
  const auto after = store.restore_plan();
  EXPECT_NE(after, plan);
  EXPECT_EQ(store.plans_built(), 2u);
  EXPECT_EQ(after->sources[0].holder, 1);
  EXPECT_EQ(after->sources[1].holder, 1);
  EXPECT_EQ(served_list(*after, 1), std::vector<int>{0});
  EXPECT_TRUE(after->served_by(0).empty());
  EXPECT_EQ(plan->sources[0].holder, 0);  // The old plan is immutable.
}

TEST(RestorePlan, OnePlanPerRelaunchAt64And512Ranks) {
  // Complexity guard: a relaunch builds the restore plan once, whatever the
  // world size, instead of once per rank.
  for (int side : {4, 8}) {
    const int ranks = side * side * side;
    core::RunnerConfig rc;
    rc.base = tiny_config(ranks);
    rc.base.storage = "hpc";
    rc.base.ckpt_mode = "partner";
    apps::HeatParams heat;
    heat.nx = heat.ny = heat.nz = 4 * side;
    heat.px = heat.py = heat.pz = side;
    heat.total_iterations = 8;
    heat.halo_interval = heat.checkpoint_interval = 2;
    heat.real_compute = false;
    heat.work_units_per_point = 1000.0;  // 64 us per iteration per rank.
    // Fail rank 1 around iteration 5, after the iteration-2 and -4 commits.
    rc.first_run_failures = {FailureSpec{1, sim_us(5 * 64)}};
    std::vector<apps::HeatReport> reports(static_cast<std::size_t>(ranks));
    core::ResilientRunner runner(rc, apps::make_heat3d(heat, &reports));
    const core::RunnerResult res = runner.run();
    ASSERT_TRUE(res.completed) << ranks << " ranks";
    ASSERT_EQ(res.launches, 2) << ranks << " ranks";
    EXPECT_EQ(reports[0].restarts_used, 1) << ranks << " ranks";
    const auto relaunches = static_cast<std::uint64_t>(res.launches - 1);
    EXPECT_EQ(runner.checkpoints().plans_built(), relaunches) << ranks << " ranks";
  }
}

TEST(TieredHelpers, PartnerRingAndClients) {
  EXPECT_EQ(ckpt::partner_of(0, 2), 1);
  EXPECT_EQ(ckpt::partner_of(1, 2), 0);
  EXPECT_EQ(ckpt::partner_of(7, 8), 0);
  int clients = 0;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) clients = ckpt::checkpoint_clients(ctx);
    ctx.finalize();
  };
  run_app(tiny_config(3), app);
  EXPECT_EQ(clients, 3);  // All ranks alive.
}

}  // namespace
}  // namespace exasim
