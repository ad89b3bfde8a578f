// Allocation guards. Global operator new is replaced with a counting
// version, so these tests live in their own binary. Each compares two runs
// that differ only in size or length, so per-machine constants cancel.
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

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "apps/heat3d.hpp"
#include "ckpt/checkpoint.hpp"
#include "sim_test_util.hpp"
#include "util/pool.hpp"
#include "vmpi/context.hpp"

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

using vmpi::Context;
using vmpi::Err;

test::QuietLogs quiet;

constexpr int kDim = 4;
constexpr int kRanks = kDim * kDim * kDim;
constexpr int kNeighbours = 6;

/// Global-heap allocations of one whole run of `iters` halo iterations.
std::uint64_t halo_run_allocs(int iters, int* errors) {
  auto app = [iters, errors](Context& ctx) {
    const int r = ctx.rank();
    const int x = r % kDim, y = (r / kDim) % kDim, z = r / (kDim * kDim);
    auto at = [](int xx, int yy, int zz) {
      auto wrap = [](int v) { return (v + kDim) % kDim; };
      return wrap(xx) + kDim * (wrap(yy) + kDim * wrap(zz));
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
  core::SimConfig cfg = test::tiny_config(kRanks);
  cfg.topology = "torus:4x4x4";
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const core::SimResult res = test::run_app(cfg, app);
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
