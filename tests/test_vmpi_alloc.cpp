// Allocation and footprint guards. Global operator new is replaced with a
// counting version, so these tests live in their own binary. The heap
// guards compare two runs that differ only in size or length, so
// per-machine constants cancel.
//
// - Point-to-point hot path: in steady state a message must not touch the
//   general heap. A 64-rank torus:4x4x4 6-neighbour modeled halo loop runs
//   for 20 and for 40 iterations; the difference divided by the extra
//   messages is the per-message steady-state allocation rate.
// - heat3d's halo exchange: the same comparison over the modeled
//   application's halo-only loop, per rank and iteration.
// - Rank construction: a 64-rank and a 128-rank machine, counted up to the
//   first rank entering the application; the difference per extra rank is
//   what building one simulated process costs.
// - Modeled heat3d set-up: the same two sizes, counted from the first rank
//   entering the application to the end of a launch with no iterations;
//   without a grid the application allocates nothing per rank.
// - Footprint: a request slot and an unexpected-queue entry have fixed size
//   bounds (compile time), and a modeled message in flight holds one small
//   pool block — pool bytes carved over one halo iteration at 4,096 ranks,
//   when every message is in flight at once, divided by the messages.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "apps/heat3d.hpp"
#include "ckpt/checkpoint.hpp"
#include "sim_test_util.hpp"
#include "util/pool.hpp"
#include "vmpi/context.hpp"
#include "vmpi/message.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace exasim {
namespace {

// Per-rank state multiplies by the rank count (DESIGN.md §13): a slot table
// holds every outstanding request, and the unexpected queue one entry per
// early arrival.
static_assert(sizeof(vmpi::Request) <= 96, "a request slot stays within 96 bytes");
static_assert(sizeof(vmpi::UnexpectedMsg) <= 32, "an unexpected-queue entry stays within 32 bytes");

using vmpi::Context;
using vmpi::Err;

test::QuietLogs quiet;

constexpr int kDim = 4;
constexpr int kRanks = kDim * kDim * kDim;
constexpr int kNeighbours = 6;

/// A modeled 6-neighbour halo on a dim^3 torus: `iters` iterations of
/// compute, then six 4 KiB irecvs and isends and one waitall.
vmpi::AppMain halo_app(int dim, int iters, int* errors) {
  return [dim, iters, errors](Context& ctx) {
    const int r = ctx.rank();
    const int x = r % dim, y = (r / dim) % dim, z = r / (dim * dim);
    auto at = [dim](int xx, int yy, int zz) {
      auto wrap = [dim](int v) { return (v + dim) % dim; };
      return wrap(xx) + dim * (wrap(yy) + dim * wrap(zz));
    };
    const int nbr[kNeighbours] = {at(x - 1, y, z), at(x + 1, y, z), at(x, y - 1, z),
                                  at(x, y + 1, z), at(x, y, z - 1), at(x, y, z + 1)};
    auto& w = ctx.world();
    std::vector<vmpi::RequestHandle> hs;
    hs.reserve(2 * kNeighbours);
    for (int it = 0; it < iters; ++it) {
      ctx.compute(1e4);
      hs.clear();
      // Tag by direction so each face pairs with its opposite.
      for (int d = 0; d < kNeighbours; ++d) hs.push_back(ctx.irecv_modeled(w, nbr[d], d ^ 1, 4096));
      for (int d = 0; d < kNeighbours; ++d) hs.push_back(ctx.isend_modeled(w, nbr[d], d, 4096));
      if (ctx.waitall(w, hs) != Err::kSuccess) ++*errors;
    }
    ctx.finalize();
  };
}

core::SimConfig halo_config(int dim) {
  core::SimConfig cfg = test::tiny_config(dim * dim * dim);
  const std::string d = std::to_string(dim);
  cfg.topology = "torus:" + d + "x" + d + "x" + d;
  return cfg;
}

/// Global-heap allocations of one whole run of `iters` halo iterations.
std::uint64_t halo_run_allocs(int iters, int* errors) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const core::SimResult res = test::run_app(halo_config(kDim), halo_app(kDim, iters, errors));
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  if (res.outcome != core::SimResult::Outcome::kCompleted) ++*errors;
  return after - before;
}

TEST(VmpiAlloc, SteadyStateHaloMessagesStayOffTheHeap) {
  // The guard is about the default, pooled hot path; EXASIM_NO_POOL sends
  // every event payload to the heap by design.
  const bool pooled_before = util::pool_enabled();
  util::set_pool_enabled(true);
  int errors = 0;
  halo_run_allocs(5, &errors);  // Warm the process-wide pools and stack cache.
  const std::uint64_t a20 = halo_run_allocs(20, &errors);
  const std::uint64_t a40 = halo_run_allocs(40, &errors);
  util::set_pool_enabled(pooled_before);
  ASSERT_EQ(errors, 0);
  const double extra_messages = 20.0 * kRanks * kNeighbours;
  const double per_message = (static_cast<double>(a40) - static_cast<double>(a20)) /
                             extra_messages;
  std::printf("allocs: 20 iters %llu, 40 iters %llu, %.4f per extra message\n",
              static_cast<unsigned long long>(a20), static_cast<unsigned long long>(a40),
              per_message);
  EXPECT_LT(per_message, 0.05);
}

/// Global-heap allocations of a modeled 64-rank heat3d run whose loop is
/// halo exchanges only (the one checkpoint is the final iteration's).
std::uint64_t heat3d_halo_allocs(int iters, int* errors) {
  apps::HeatParams p;
  p.nx = p.ny = p.nz = 16;
  p.px = p.py = p.pz = kDim;
  p.total_iterations = iters;
  p.halo_interval = 1;
  p.checkpoint_interval = 0;
  p.real_compute = false;
  ckpt::CheckpointStore store(kRanks);
  const core::SimConfig cfg = test::tiny_config(kRanks);
  auto app = apps::make_heat3d(p);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const core::SimResult res = test::run_app(cfg, app, &store);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  if (res.outcome != core::SimResult::Outcome::kCompleted) ++*errors;
  return after - before;
}

TEST(VmpiAlloc, Heat3dHaloExchangeStaysOffTheHeap) {
  const bool pooled_before = util::pool_enabled();
  util::set_pool_enabled(true);
  int errors = 0;
  heat3d_halo_allocs(5, &errors);  // Warm the pools.
  const std::uint64_t a20 = heat3d_halo_allocs(20, &errors);
  const std::uint64_t a40 = heat3d_halo_allocs(40, &errors);
  util::set_pool_enabled(pooled_before);
  ASSERT_EQ(errors, 0);
  const double per_iteration = (static_cast<double>(a40) - static_cast<double>(a20)) /
                               (20.0 * kRanks);
  std::printf("heat3d allocs: 20 iters %llu, 40 iters %llu, %.4f per rank-iteration\n",
              static_cast<unsigned long long>(a20), static_cast<unsigned long long>(a40),
              per_iteration);
  EXPECT_LT(per_iteration, 0.05);
}

/// Global-heap allocations from just before a `ranks`-rank machine is built
/// to the first rank entering the application. The application's capture
/// is larger than std::function's inline buffer, as heat3d's is, so a copy
/// per rank would allocate.
std::uint64_t construction_allocs(int ranks) {
  struct Params {
    char bytes[64] = {};
  } params;
  std::atomic<std::uint64_t> at_entry{0};
  std::atomic<bool> entered{false};
  vmpi::AppMain app = [params, &at_entry, &entered](Context& ctx) {
    if (!entered.exchange(true)) at_entry = g_allocs.load(std::memory_order_relaxed);
    (void)params;
    ctx.finalize();
  };
  core::SimConfig cfg = test::tiny_config(ranks);
  cfg.sim_workers = 1;  // Worker groups would add their own queues.
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const core::SimResult res = test::run_app(std::move(cfg), app);
  EXPECT_EQ(res.outcome, core::SimResult::Outcome::kCompleted);
  return at_entry.load() - before;
}

/// Global-heap allocations of a modeled heat3d launch of `ranks` ranks with
/// no iterations, from the first rank entering the application to the end
/// of the run: what the application's own set-up costs.
std::uint64_t heat3d_launch_allocs(int ranks) {
  apps::HeatParams p;
  p.nx = p.ny = p.nz = 16;
  p.px = p.py = 4;
  p.pz = ranks / 16;
  p.total_iterations = 0;
  p.real_compute = false;
  ckpt::CheckpointStore store(ranks);
  std::atomic<std::uint64_t> at_entry{0};
  std::atomic<bool> entered{false};
  vmpi::AppMain app = [heat = apps::make_heat3d(p), &at_entry, &entered](Context& ctx) {
    if (!entered.exchange(true)) at_entry = g_allocs.load(std::memory_order_relaxed);
    heat(ctx);
  };
  const core::SimResult res = test::run_app(test::tiny_config(ranks), app, &store);
  EXPECT_EQ(res.outcome, core::SimResult::Outcome::kCompleted);
  return g_allocs.load(std::memory_order_relaxed) - at_entry.load();
}

TEST(VmpiAlloc, ModeledHeat3dAllocatesNothingPerRank) {
  // Without a grid there are no halo bytes, so no halo buffers either.
  heat3d_launch_allocs(128);  // Warm the pools and the stack cache.
  const std::uint64_t a64 = heat3d_launch_allocs(64);
  const std::uint64_t a128 = heat3d_launch_allocs(128);
  const double per_rank = (static_cast<double>(a128) - static_cast<double>(a64)) / 64.0;
  std::printf("modeled heat3d allocs: 64 ranks %llu, 128 ranks %llu, %.3f per rank\n",
              static_cast<unsigned long long>(a64), static_cast<unsigned long long>(a128),
              per_rank);
  EXPECT_LT(per_rank, 0.05);
}

TEST(VmpiAlloc, InFlightModeledMessageCarvesAtMost80PoolBytes) {
  // Every rank posts its six sends before any message arrives, so all
  // 6 x 4,096 messages are in flight at once and each needs its own block:
  // a header-only message is a 64-byte block plus the pool's 16-byte header.
  const bool pooled_before = util::pool_enabled();
  util::set_pool_enabled(true);
  constexpr int kBigDim = 16;
  constexpr int kBigRanks = kBigDim * kBigDim * kBigDim;
  core::SimConfig cfg = halo_config(kBigDim);
  cfg.sim_workers = 1;  // One thread's pool, whatever EXASIM_SIM_WORKERS says.
  int errors = 0;
  const std::uint64_t before = util::pool_stats().carved_bytes;
  const core::SimResult res = test::run_app(std::move(cfg), halo_app(kBigDim, 1, &errors));
  const std::uint64_t carved = util::pool_stats().carved_bytes - before;
  util::set_pool_enabled(pooled_before);
  ASSERT_EQ(res.outcome, core::SimResult::Outcome::kCompleted);
  ASSERT_EQ(errors, 0);
  const double per_message = static_cast<double>(carved) / (kBigRanks * kNeighbours);
  std::printf("pool bytes carved: %llu, %.1f per in-flight message\n",
              static_cast<unsigned long long>(carved), per_message);
  EXPECT_LE(per_message, 80.0);
}

TEST(VmpiAlloc, RankConstructionTakesAtMostThreeAllocations) {
  // SimProcess, its Fiber and the Fiber's switch state; the Context, the
  // world communicator and the application entry point add none.
  construction_allocs(128);  // Warm the pools and the stack cache.
  const std::uint64_t a64 = construction_allocs(64);
  const std::uint64_t a128 = construction_allocs(128);
  const double per_rank = (static_cast<double>(a128) - static_cast<double>(a64)) / 64.0;
  std::printf("construction allocs: 64 ranks %llu, 128 ranks %llu, %.3f per rank\n",
              static_cast<unsigned long long>(a64), static_cast<unsigned long long>(a128),
              per_rank);
  EXPECT_LE(per_rank, 3.0);
}

}  // namespace
}  // namespace exasim
