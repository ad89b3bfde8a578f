// ckpt::IncrementalCheckpointer — delta detection, chain reconstruction,
// full-every policy, PFS cost proportional to written bytes, broken-chain
// fallback, and the PFS copy every file carries through ckpt::write_pfs.

#include <gtest/gtest.h>

#include <cstring>

#include "ckpt/incremental.hpp"
#include "iomodel/storage.hpp"
#include "sim_test_util.hpp"
#include "vmpi/context.hpp"

namespace exasim {
namespace {

using ckpt::CheckpointStore;
using ckpt::CopyRecord;
using ckpt::IncrementalCheckpointer;
using ckpt::IncrementalPolicy;
using test::run_app;
using test::tiny_config;
using vmpi::Context;

test::QuietLogs quiet;

std::vector<std::byte> make_state(std::size_t bytes, unsigned seed) {
  std::vector<std::byte> out(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<std::byte>((i * 31 + seed * 17) & 0xff);
  }
  return out;
}

/// Runs `body` inside a 1-rank simulation.
template <typename F>
void in_sim(F&& body) {
  auto app = [&](Context& ctx) {
    body(ctx);
    ctx.finalize();
  };
  ASSERT_EQ(run_app(tiny_config(1), app).outcome, core::SimResult::Outcome::kCompleted);
}

TEST(Incremental, FullThenDeltaRoundTrip) {
  in_sim([&](Context& ctx) {
    CheckpointStore store(1);
    const StorageHierarchy storage(StorageSpec{});
    IncrementalPolicy policy;
    policy.block_bytes = 64;
    IncrementalCheckpointer inc(policy);

    auto v1 = make_state(1000, 1);
    inc.write(ctx, store, storage, 1, v1);
    auto v2 = v1;
    v2[130] = std::byte{0xAA};  // One block changes.
    inc.write(ctx, store, storage, 2, v2);

    std::uint64_t version = 0;
    auto got = IncrementalCheckpointer::read_latest(ctx, store, storage, &version);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(version, 2u);
    EXPECT_EQ(*got, v2);
  });
}

TEST(Incremental, DeltaStoresOnlyChangedBlocks) {
  in_sim([&](Context& ctx) {
    CheckpointStore store(1);
    const StorageHierarchy storage(StorageSpec{});
    IncrementalPolicy policy;
    policy.block_bytes = 128;
    IncrementalCheckpointer inc(policy);

    auto v1 = make_state(4096, 2);  // 32 blocks.
    inc.write(ctx, store, storage, 1, v1);
    auto v2 = v1;
    v2[0] = std::byte{1};     // Block 0.
    v2[4000] = std::byte{2};  // Block 31.
    inc.write(ctx, store, storage, 2, v2);

    EXPECT_GT(inc.bytes_written_full(), 4096u);
    // Delta: header + 2 records of ~136 bytes each.
    EXPECT_LT(inc.bytes_written_delta(), 500u);
    EXPECT_GT(inc.bytes_written_delta(), 2 * 128u);
  });
}

TEST(Incremental, UnchangedStateWritesEmptyDelta) {
  in_sim([&](Context& ctx) {
    CheckpointStore store(1);
    const StorageHierarchy storage(StorageSpec{});
    IncrementalCheckpointer inc(IncrementalPolicy{});
    auto v = make_state(5000, 3);
    inc.write(ctx, store, storage, 1, v);
    inc.write(ctx, store, storage, 2, v);
    EXPECT_LT(inc.bytes_written_delta(), 100u);  // Header only.
    auto got = IncrementalCheckpointer::read_latest(ctx, store, storage);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);
  });
}

TEST(Incremental, FullEveryPolicyBoundsChains) {
  in_sim([&](Context& ctx) {
    CheckpointStore store(1);
    const StorageHierarchy storage(StorageSpec{});
    IncrementalPolicy policy;
    policy.block_bytes = 64;
    policy.full_every = 3;
    IncrementalCheckpointer inc(policy);

    auto state = make_state(512, 4);
    for (std::uint64_t v = 1; v <= 7; ++v) {
      state[static_cast<std::size_t>(v * 13 % state.size())] ^= std::byte{0xFF};
      inc.write(ctx, store, storage, v, state);
    }
    // Versions 1, 4, 7 are full -> retention floor is 7.
    EXPECT_EQ(inc.retention_floor(), 7u);
    auto got = IncrementalCheckpointer::read_latest(ctx, store, storage);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, state);
  });
}

TEST(Incremental, LongChainReconstructsExactly) {
  in_sim([&](Context& ctx) {
    CheckpointStore store(1);
    const StorageHierarchy storage(StorageSpec{});
    IncrementalPolicy policy;
    policy.block_bytes = 32;
    policy.full_every = 100;  // One full, many deltas.
    IncrementalCheckpointer inc(policy);

    auto state = make_state(1024, 5);
    for (std::uint64_t v = 1; v <= 20; ++v) {
      for (int k = 0; k < 5; ++k) {
        state[static_cast<std::size_t>((v * 97 + k * 41) % state.size())] ^= std::byte{0x3C};
      }
      inc.write(ctx, store, storage, v, state);
    }
    std::uint64_t version = 0;
    auto got = IncrementalCheckpointer::read_latest(ctx, store, storage, &version);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(version, 20u);
    EXPECT_EQ(*got, state);
  });
}

TEST(Incremental, BrokenChainFallsBackToOlderRestorePoint) {
  in_sim([&](Context& ctx) {
    CheckpointStore store(1);
    const StorageHierarchy storage(StorageSpec{});
    IncrementalPolicy policy;
    policy.block_bytes = 64;
    policy.full_every = 2;  // Fulls at 1, 3, 5; deltas at 2, 4.
    IncrementalCheckpointer inc(policy);

    std::vector<std::vector<std::byte>> states;
    auto state = make_state(256, 6);
    for (std::uint64_t v = 1; v <= 4; ++v) {
      state[static_cast<std::size_t>(v * 7 % state.size())] ^= std::byte{0x55};
      inc.write(ctx, store, storage, v, state);
      states.push_back(state);
    }
    // Destroy version 3 (the full that delta 4 depends on).
    store.remove_version(3);
    std::uint64_t version = 0;
    auto got = IncrementalCheckpointer::read_latest(ctx, store, storage, &version);
    ASSERT_TRUE(got.has_value());
    // Version 4's chain is broken -> fall back to version 2 (full 1 + delta 2).
    EXPECT_EQ(version, 2u);
    EXPECT_EQ(*got, states[1]);
  });
}

TEST(Incremental, PfsTimeProportionalToBytesWritten) {
  in_sim([&](Context& ctx) {
    CheckpointStore store(1);
    const StorageHierarchy storage(resolve_storage_spec("pfs:cbw=1e6"));  // 1 B/us.
    IncrementalPolicy policy;
    policy.block_bytes = 1024;
    IncrementalCheckpointer inc(policy);

    auto state = make_state(64 * 1024, 7);
    const SimTime t0 = ctx.now();
    inc.write(ctx, store, storage, 1, state);  // Full: ~65 ms.
    const SimTime t_full = ctx.now() - t0;
    state[10] ^= std::byte{1};  // One block.
    const SimTime t1 = ctx.now();
    inc.write(ctx, store, storage, 2, state);  // Delta: ~1 ms.
    const SimTime t_delta = ctx.now() - t1;
    EXPECT_GT(t_full, 30 * t_delta);
  });
}

TEST(Incremental, SizeChangeForcesFull) {
  in_sim([&](Context& ctx) {
    CheckpointStore store(1);
    const StorageHierarchy storage(StorageSpec{});
    IncrementalCheckpointer inc(IncrementalPolicy{});
    inc.write(ctx, store, storage, 1, make_state(1000, 8));
    auto bigger = make_state(2000, 9);
    inc.write(ctx, store, storage, 2, bigger);
    EXPECT_EQ(inc.retention_floor(), 2u);  // Second write was full.
    auto got = IncrementalCheckpointer::read_latest(ctx, store, storage);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, bigger);
  });
}

TEST(Incremental, RejectsBadPolicyAndVersions) {
  in_sim([&](Context& ctx) {
    IncrementalPolicy bad;
    bad.block_bytes = 0;
    EXPECT_THROW(IncrementalCheckpointer{bad}, std::invalid_argument);

    CheckpointStore store(1);
    const StorageHierarchy storage(StorageSpec{});
    IncrementalCheckpointer inc(IncrementalPolicy{});
    auto v = make_state(100, 10);
    inc.write(ctx, store, storage, 5, v);
    EXPECT_THROW(inc.write(ctx, store, storage, 5, v), std::invalid_argument);
  });
}

TEST(Incremental, ColdStartReturnsNothing) {
  in_sim([&](Context& ctx) {
    CheckpointStore store(1);
    const StorageHierarchy storage(StorageSpec{});
    EXPECT_FALSE(IncrementalCheckpointer::read_latest(ctx, store, storage).has_value());
  });
}

TEST(Incremental, EveryFileCarriesOnePfsCopy) {
  // Full and delta files alike are PFS writes: each holds exactly one copy,
  // on the shared durable tier, so losing the writing rank loses neither.
  CheckpointStore store(1);
  const StorageHierarchy storage(StorageSpec{});
  IncrementalPolicy policy;
  policy.block_bytes = 64;
  auto state = make_state(512, 11);
  in_sim([&](Context& ctx) {
    IncrementalCheckpointer inc(policy);
    inc.write(ctx, store, storage, 1, state);  // Full.
    state[3] ^= std::byte{0xFF};
    inc.write(ctx, store, storage, 2, state);  // Delta.
    EXPECT_EQ(inc.retention_floor(), 1u);
  });
  for (std::uint64_t v : {1, 2}) {
    const auto copies = store.copies(v, 0);
    ASSERT_EQ(copies.size(), 1u) << "version " << v;
    EXPECT_EQ(copies[0].level, 2) << "version " << v;
    EXPECT_EQ(copies[0].holder, -1) << "version " << v;
  }
  EXPECT_EQ(store.apply_failures({FailureSpec{0, sim_sec(1)}}, sim_sec(2)), 0);
  EXPECT_TRUE(store.set_complete(1));
  EXPECT_TRUE(store.set_complete(2));
  in_sim([&](Context& ctx) {
    std::uint64_t version = 0;
    auto got = IncrementalCheckpointer::read_latest(ctx, store, storage, &version);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(version, 2u);
    EXPECT_EQ(*got, state);
  });
}

TEST(Incremental, FailureMidWriteFallsBackToPreviousVersion) {
  // PFS at 1 B/us: the full version 1 (about 66 ms) lands; the rank then
  // dies half way through writing its delta version 2 (about 1 ms from
  // t = 200 ms), which leaves that file corrupted.
  CheckpointStore store(1);
  const StorageHierarchy storage(resolve_storage_spec("pfs:cbw=1e6"));
  IncrementalPolicy policy;
  policy.block_bytes = 1024;
  const auto v1 = make_state(64 * 1024, 12);
  auto cfg = tiny_config(1);
  cfg.failures = {FailureSpec{0, sim_us(200'500)}};
  bool wrote_v1 = false;
  auto app = [&](Context& ctx) {
    IncrementalCheckpointer inc(policy);
    inc.write(ctx, store, storage, 1, v1);
    wrote_v1 = true;
    ctx.elapse(sim_ms(200) - ctx.now());
    auto v2 = v1;
    v2[10] ^= std::byte{1};
    inc.write(ctx, store, storage, 2, v2);
    ctx.finalize();
  };
  const core::SimResult run = run_app(cfg, app);
  EXPECT_EQ(run.failed_count, 1);
  ASSERT_TRUE(wrote_v1);
  EXPECT_TRUE(store.file_exists(2, 0));
  EXPECT_FALSE(store.file_finalized(2, 0));
  // The failure takes no copy: version 1's lives on the PFS.
  EXPECT_EQ(store.apply_failures(run.activated_failures, run.max_end_time), 0);
  EXPECT_TRUE(store.set_complete(1));

  // The restart reads version 1 and pays the PFS for it.
  in_sim([&](Context& ctx) {
    std::uint64_t version = 0;
    const SimTime t0 = ctx.now();
    auto got = IncrementalCheckpointer::read_latest(ctx, store, storage, &version);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(version, 1u);
    EXPECT_EQ(*got, v1);
    EXPECT_GT(ctx.now() - t0, sim_ms(65));
  });
}

}  // namespace
}  // namespace exasim
