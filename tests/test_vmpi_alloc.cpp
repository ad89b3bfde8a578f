// Allocation guard for the point-to-point hot path: in steady state a
// message must not touch the general heap. Global operator new is replaced
// with a counting version, so this test lives in its own binary.
//
// A 64-rank torus:4x4x4 6-neighbour modeled halo loop runs for 20 and for 40
// iterations; machine construction and teardown cost the same in both runs,
// so the difference divided by the extra messages is the per-message
// steady-state allocation rate.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

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

}  // namespace
}  // namespace exasim
