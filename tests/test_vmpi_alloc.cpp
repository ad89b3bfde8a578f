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
// - heat3d's checkpoints: the modeled application checkpointing every
//   iteration, 10 and 20 times; an extra checkpoint allocates its
//   version's tables and nothing per rank (the store keeps a header-sized
//   payload inline, and a modeled rank writes its header from the stack).
// - Rank construction: a 64-rank and a 128-rank machine, counted up to the
//   first rank entering the application; the difference per extra rank is
//   what building one simulated process costs.
// - Heap bytes per rank: the live-byte high-water mark of a modeled heat3d
//   launch at 2,048 and at 4,096 ranks (Table II's shape: halo exchanges
//   and checkpoints); the difference per extra rank is what one simulated
//   rank holds on the heap at the peak, warmed pools excluded.
// - Saved stack images: the pool bytes of the images the same launches
//   allocate, per rank (copying fiber stacks, fiber.hpp).
// - Modeled heat3d set-up: the same two sizes, counted from the first rank
//   entering the application to the end of a launch with no iterations;
//   without a grid the application allocates nothing per rank.
// - Failure notices: one early failure under the paper-instant detector at
//   64 and at 128 ranks, each against the same launch with no failure,
//   counting the heap the machine still holds after the launch; the
//   difference per extra survivor is what hearing of one failure leaves on
//   a rank (its cold block and its failed-process list).
// - Table growth: a rank that posts k receives from k peers and k modeled
//   sends to them ends with request-slot and match-bucket tables holding
//   exactly k entries, for k on the tables' growth steps.
// - Footprint: a request slot, an unexpected-queue entry, a simulated
//   process, its fiber and world communicator, and a checkpoint file entry
//   and copy slot have fixed size bounds (compile time), and a modeled message in
//   flight is its event alone — no pool bytes are carved over one halo
//   iteration at 4,096 ranks, when every message is in flight at once,
//   besides the saved stack images.
// - Pool allocations per message: a modeled ping-pong makes as many
//   pool_alloc calls at 1,000 messages as at 100, and one with real bytes
//   exactly one more per extra message (its attachment).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "apps/heat3d.hpp"
#include "ckpt/checkpoint.hpp"
#include "sim_test_util.hpp"
#include "util/counters.hpp"
#include "util/pool.hpp"
#include "vmpi/context.hpp"
#include "vmpi/message.hpp"
#include "vmpi/process.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live_blocks{0};
// Live bytes (sizes as requested) and their high-water mark, which a
// measurement resets to the live bytes at its start.
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

// Each block is preceded by its requested size, so delete can subtract it.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_live_blocks.fetch_add(1, std::memory_order_relaxed);
  auto* base = static_cast<unsigned char*>(std::malloc(kHeader + n));
  if (base == nullptr) throw std::bad_alloc();
  *reinterpret_cast<std::size_t*>(base) = n;
  const auto bytes = static_cast<std::int64_t>(n);
  const std::int64_t live = g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return base + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  auto* base = static_cast<unsigned char*>(p) - kHeader;
  g_live_blocks.fetch_sub(1, std::memory_order_relaxed);
  g_live.fetch_sub(static_cast<std::int64_t>(*reinterpret_cast<std::size_t*>(base)),
                   std::memory_order_relaxed);
  std::free(base);
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace exasim {
namespace {

// Per-rank state multiplies by the rank count (DESIGN.md §9, §13): a slot
// table holds every outstanding request, and the unexpected queue one entry
// per early arrival.
static_assert(sizeof(vmpi::Request) == 64, "a request slot is 64 bytes");
// An unexpected entry holds its 24-byte envelope inline (message.hpp), so
// a modeled early arrival costs this and no pool block.
static_assert(sizeof(vmpi::UnexpectedMsg) <= 56, "an unexpected-queue entry stays within 56 bytes");
// A rank is one heap block: the process with its fiber and its world
// communicator inline. Sanitizer builds carry extra switch state in every
// fiber (fiber.hpp); the ucontext fallback off x86-64 carries two contexts.
#if defined(__x86_64__)
constexpr std::size_t kSanitizerFiberBytes = 0
#if defined(EXASIM_TSAN_FIBERS)
    + 2 * sizeof(void*)
#endif
#if defined(EXASIM_ASAN_FIBERS)
    + 4 * sizeof(void*)
#endif
    ;
static_assert(sizeof(Fiber) <= 64 + kSanitizerFiberBytes, "a fiber stays within 64 bytes");
static_assert(sizeof(vmpi::SimProcess) <= 352 + kSanitizerFiberBytes,
              "a simulated process stays within 352 bytes");
#endif
static_assert(sizeof(vmpi::Comm) <= 48, "a communicator stays within 48 bytes");
// A checkpoint version holds a world-sized file table, and its side table
// one slot per recorded copy: a PFS-mode file costs 64 bytes besides its
// payload.
static_assert(ckpt::CheckpointStore::kFileRecordBytes == 32, "a checkpoint file entry is 32 bytes");
static_assert(ckpt::CheckpointStore::kCopySlotBytes == 32, "a recorded copy is 32 bytes");

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
  if (!util::kPoolSlabs) GTEST_SKIP() << "this build takes every block from the heap";
  int errors = 0;
  halo_run_allocs(5, &errors);  // Warm the process-wide pools and stack cache.
  const std::uint64_t a20 = halo_run_allocs(20, &errors);
  const std::uint64_t a40 = halo_run_allocs(40, &errors);
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
  core::SimConfig cfg = test::tiny_config(kRanks);
  cfg.sim_workers = 1;  // One thread's pools, whatever EXASIM_SIM_WORKERS says.
  auto app = apps::make_heat3d(p);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const core::SimResult res = test::run_app(cfg, app, &store);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  if (res.outcome != core::SimResult::Outcome::kCompleted) ++*errors;
  return after - before;
}

TEST(VmpiAlloc, Heat3dHaloExchangeStaysOffTheHeap) {
  if (!util::kPoolSlabs) GTEST_SKIP() << "this build takes every block from the heap";
  int errors = 0;
  heat3d_halo_allocs(5, &errors);  // Warm the pools.
  const std::uint64_t a20 = heat3d_halo_allocs(20, &errors);
  const std::uint64_t a40 = heat3d_halo_allocs(40, &errors);
  ASSERT_EQ(errors, 0);
  const double per_iteration = (static_cast<double>(a40) - static_cast<double>(a20)) /
                               (20.0 * kRanks);
  std::printf("heat3d allocs: 20 iters %llu, 40 iters %llu, %.4f per rank-iteration\n",
              static_cast<unsigned long long>(a20), static_cast<unsigned long long>(a40),
              per_iteration);
  EXPECT_LT(per_iteration, 0.05);
}

/// Global-heap allocations of a modeled 64-rank heat3d run that checkpoints
/// every one of its `iters` iterations and exchanges no halos.
std::uint64_t heat3d_ckpt_allocs(int iters, int* errors) {
  apps::HeatParams p;
  p.nx = p.ny = p.nz = 16;
  p.px = p.py = p.pz = kDim;
  p.total_iterations = iters;
  p.halo_interval = 0;
  p.checkpoint_interval = 1;
  p.real_compute = false;
  ckpt::CheckpointStore store(kRanks);
  core::SimConfig cfg = test::tiny_config(kRanks);
  cfg.sim_workers = 1;  // One thread's pools, whatever EXASIM_SIM_WORKERS says.
  auto app = apps::make_heat3d(p);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const core::SimResult res = test::run_app(cfg, app, &store);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  if (res.outcome != core::SimResult::Outcome::kCompleted) ++*errors;
  return after - before;
}

TEST(VmpiAlloc, ModeledHeat3dCheckpointAllocatesNothingPerRank) {
  // A version costs three blocks, whatever the rank count: its map node,
  // its file table and its copy side table. One block for any rank's file
  // would add one per version.
  if (!util::kPoolSlabs) GTEST_SKIP() << "this build takes every block from the heap";
  int errors = 0;
  heat3d_ckpt_allocs(5, &errors);  // Warm the pools.
  const std::uint64_t a10 = heat3d_ckpt_allocs(10, &errors);
  const std::uint64_t a20 = heat3d_ckpt_allocs(20, &errors);
  ASSERT_EQ(errors, 0);
  constexpr std::uint64_t kPerVersion = 3;
  const double per_checkpoint =
      (static_cast<double>(a20) - static_cast<double>(a10) - 10.0 * kPerVersion) /
      (10.0 * kRanks);
  std::printf("heat3d checkpoint allocs: 10 ckpts %llu, 20 ckpts %llu, %.4f per rank-checkpoint "
              "besides %llu per version\n",
              static_cast<unsigned long long>(a10), static_cast<unsigned long long>(a20),
              per_checkpoint, static_cast<unsigned long long>(kPerVersion));
  EXPECT_LE(a20 - a10, 10 * kPerVersion);
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

TEST(VmpiAlloc, InFlightModeledMessageCarvesNoPoolBytes) {
  // Every rank posts its six sends before any message arrives, so all
  // 6 x 4,096 messages are in flight at once. A modeled message is its
  // event alone, envelope inline, so none of them takes a pool block. The
  // run gets a thread of its own, whose pool starts empty, so its saved
  // stack images are carved: those blocks are all the run may carve.
  if (!util::kPoolSlabs) GTEST_SKIP() << "this build takes every block from the heap";
  constexpr int kBigDim = 16;
  constexpr int kBigRanks = kBigDim * kBigDim * kBigDim;
  core::SimConfig cfg = halo_config(kBigDim);
  cfg.sim_workers = 1;  // One thread's pool, whatever EXASIM_SIM_WORKERS says.
  int errors = 0;
  core::SimResult res;
  util::Counters counts;
  std::thread([&] {
    res = test::run_app(std::move(cfg), halo_app(kBigDim, 1, &errors));
    counts = util::thread_counters();
  }).join();
  ASSERT_EQ(res.outcome, core::SimResult::Outcome::kCompleted);
  ASSERT_EQ(errors, 0);
  const std::uint64_t images = counts[util::Counter::kStackImageBytes];
  const std::uint64_t carved = counts[util::Counter::kPoolCarvedBytes] - images;
  std::printf("pool bytes carved: %llu besides %llu of stack images for %d in-flight messages\n",
              static_cast<unsigned long long>(carved), static_cast<unsigned long long>(images),
              kBigRanks * kNeighbours);
  EXPECT_EQ(carved, 0u);
}

/// util::pool_alloc calls of a two-rank ping-pong of `messages` eager
/// messages of 8 bytes, modeled or carrying the bytes.
std::uint64_t ping_pong_pool_allocs(int messages, bool real_bytes) {
  auto app = [messages, real_bytes](Context& ctx) {
    auto& w = ctx.world();
    std::uint64_t value = 0;
    for (int i = 0; i < messages; ++i) {
      const int from = i % 2;
      if (ctx.rank() == from) {
        if (real_bytes) {
          ctx.send(w, 1 - from, 0, &value, sizeof value);
        } else {
          ctx.send_modeled(w, 1 - from, 0, sizeof value);
        }
      } else if (real_bytes) {
        ctx.recv(w, from, 0, &value, sizeof value);
      } else {
        ctx.recv_modeled(w, from, 0, sizeof value);
      }
    }
    ctx.finalize();
  };
  core::SimConfig cfg = test::tiny_config(2);
  cfg.sim_workers = 1;  // This thread's counters, whatever EXASIM_SIM_WORKERS says.
  const std::uint64_t before = util::thread_counters()[util::Counter::kPoolAllocs];
  const core::SimResult res = test::run_app(std::move(cfg), app);
  EXPECT_EQ(res.outcome, core::SimResult::Outcome::kCompleted);
  return util::thread_counters()[util::Counter::kPoolAllocs] - before;
}

TEST(VmpiAlloc, ModeledMessagesTakeNoPoolBlock) {
  // What a run allocates besides its messages (the saved stack images) is
  // the same at both lengths, so the differences count the messages' own.
  const std::uint64_t modeled100 = ping_pong_pool_allocs(100, false);
  const std::uint64_t modeled1000 = ping_pong_pool_allocs(1000, false);
  const std::uint64_t real100 = ping_pong_pool_allocs(100, true);
  const std::uint64_t real1000 = ping_pong_pool_allocs(1000, true);
  std::printf("pool allocs: modeled %llu / %llu, real bytes %llu / %llu (100 / 1000 msgs)\n",
              static_cast<unsigned long long>(modeled100),
              static_cast<unsigned long long>(modeled1000),
              static_cast<unsigned long long>(real100),
              static_cast<unsigned long long>(real1000));
  EXPECT_EQ(modeled1000, modeled100);
  EXPECT_EQ(real1000 - real100, 900u);  // One attachment per message with real bytes.
}

/// The request-slot and match-bucket tables of rank 0 of a (k + 1)-rank
/// machine, after it posted a modeled receive from each of the k other
/// ranks and a modeled eager send to each (which takes no slot), then
/// waited for all of them.
vmpi::SimProcess::TableSizes hub_tables(int k) {
  vmpi::SimProcess::TableSizes sizes;
  auto app = [k, &sizes](Context& ctx) {
    auto& w = ctx.world();
    std::vector<vmpi::RequestHandle> hs;
    const int first = ctx.rank() == 0 ? 1 : 0;
    const int last = ctx.rank() == 0 ? k : 0;
    for (int p = first; p <= last; ++p) hs.push_back(ctx.irecv_modeled(w, p, 0, 64));
    for (int p = first; p <= last; ++p) hs.push_back(ctx.isend_modeled(w, p, 0, 64));
    EXPECT_EQ(ctx.waitall(w, hs), Err::kSuccess);
    if (ctx.rank() == 0) sizes = ctx.process().table_sizes();
    ctx.finalize();
  };
  const core::SimResult res = test::run_app(test::tiny_config(k + 1), app);
  EXPECT_EQ(res.outcome, core::SimResult::Outcome::kCompleted);
  return sizes;
}

TEST(VmpiAlloc, RankTablesHoldWhatTheRankUsed) {
  // The tables grow by half, so sizes 1, 2, 3, 4, 6, 9, 13, ... are reached
  // with no unused entry (an 8-entry first reserve held 7 unused slots at
  // k = 1, and doubling 3 at k = 13).
  for (const int k : {1, 6, 13}) {
    const vmpi::SimProcess::TableSizes t = hub_tables(k);
    std::printf("k = %d: slots %zu of %zu, buckets %zu of %zu\n", k, t.slots, t.slot_capacity,
                t.buckets, t.bucket_capacity);
    EXPECT_EQ(t.slots, static_cast<std::size_t>(k));
    EXPECT_EQ(t.slot_capacity, t.slots);
    EXPECT_EQ(t.buckets, static_cast<std::size_t>(k));
    EXPECT_EQ(t.bucket_capacity, t.buckets);
  }
}

TEST(VmpiAlloc, RankConstructionTakesOneAllocation) {
  // The SimProcess itself; its Fiber, the Context, the world communicator
  // and the shared wiring (application entry point included) add none.
  construction_allocs(128);  // Warm the pools and the stack cache.
  const std::uint64_t a64 = construction_allocs(64);
  const std::uint64_t a128 = construction_allocs(128);
  const double per_rank = (static_cast<double>(a128) - static_cast<double>(a64)) / 64.0;
  std::printf("construction allocs: 64 ranks %llu, 128 ranks %llu, %.3f per rank\n",
              static_cast<unsigned long long>(a64), static_cast<unsigned long long>(a128),
              per_rank);
  EXPECT_LE(per_rank, 1.0);
}

/// Heap blocks and bytes a machine holds after its launch.
struct HeapUse {
  double blocks = 0;
  double bytes = 0;
};

/// A launch in which every rank but 0 waits for a message from rank 0.
/// With `fail`, rank 0 fails at about 11 us, before sending: every survivor
/// hears of it and its receive fails one failure timeout later. Without,
/// the activation comes at 1,000 s, after the launch has ended, so both
/// launches start with the same events queued. Every rank first sends
/// itself a message, so in both launches every rank has scheduled an event
/// (the engine keeps a sequence counter per source). Counted is what the
/// machine holds once run() returned and its result is gone: the ranks and
/// their state.
HeapUse notice_launch(int ranks, bool fail) {
  core::SimConfig cfg = test::tiny_config(ranks);
  cfg.sim_workers = 1;  // One thread's pools, whatever EXASIM_SIM_WORKERS says.
  cfg.failures = {FailureSpec{0, fail ? sim_us(5) : sim_sec(1000)}};
  auto app = [](Context& ctx) {
    auto& w = ctx.world();
    ctx.set_error_handler(w, vmpi::ErrorHandlerKind::kReturn);
    ctx.send_modeled(w, ctx.rank(), 1, 8);
    ctx.recv_modeled(w, ctx.rank(), 1, 8);
    if (ctx.rank() == 0) {
      ctx.compute(1e4);  // 10 us more: past the 5 us failure time.
      for (int r = 1; r < ctx.size(); ++r) ctx.send_modeled(w, r, 0, 8);
    } else {
      ctx.recv_modeled(w, 0, 0, 8);
    }
    ctx.finalize();
  };
  const std::int64_t blocks = g_live_blocks.load(std::memory_order_relaxed);
  const std::int64_t bytes = g_live.load(std::memory_order_relaxed);
  core::Machine machine(std::move(cfg), app);
  {
    const core::SimResult res = machine.run();
    EXPECT_EQ(res.failed_count, fail ? 1 : 0);
    EXPECT_EQ(res.finished_count, fail ? ranks - 1 : ranks);
  }
  return {static_cast<double>(g_live_blocks.load(std::memory_order_relaxed) - blocks),
          static_cast<double>(g_live.load(std::memory_order_relaxed) - bytes)};
}

TEST(VmpiAlloc, FailureNoticeCostsASurvivorTwoBlocks) {
  // A survivor that heard of a failure holds its cold block, which keeps
  // the failed-process list, and the list's one entry: 2 blocks and 104
  // bytes. While the list was three std::maps, with a second copy of each
  // notice in a machine-wide log, it was 3 blocks and 264 bytes.
  if (!util::kPoolSlabs) GTEST_SKIP() << "this build takes every block from the heap";
  notice_launch(128, true);  // Warm the pools and the stack cache.
  notice_launch(128, false);
  const HeapUse f64 = notice_launch(64, true);
  const HeapUse n64 = notice_launch(64, false);
  const HeapUse f128 = notice_launch(128, true);
  const HeapUse n128 = notice_launch(128, false);
  const double blocks = ((f128.blocks - n128.blocks) - (f64.blocks - n64.blocks)) / 64.0;
  const double bytes = ((f128.bytes - n128.bytes) - (f64.bytes - n64.bytes)) / 64.0;
  std::printf("failure notice: %.3f blocks, %.1f bytes per extra survivor\n", blocks, bytes);
  EXPECT_LE(blocks, 2.0);
  EXPECT_LE(bytes, 104.0);
}

/// One modeled heat3d launch on a 16 x 16 x (ranks / 256) torus: two halo
/// exchanges and two checkpoints, the Table II workload's shape, with its
/// checkpoint store.
void heat3d_table2_shape(int ranks) {
  apps::HeatParams p;
  p.px = p.py = 16;
  p.pz = ranks / 256;
  p.nx = p.ny = 64;
  p.nz = 4 * p.pz;
  p.total_iterations = 250;
  p.halo_interval = p.checkpoint_interval = 125;
  p.real_compute = false;
  core::SimConfig cfg = test::tiny_config(ranks);
  cfg.topology = "torus:16x16x" + std::to_string(p.pz);
  cfg.sim_workers = 1;  // One thread's pools, whatever EXASIM_SIM_WORKERS says.
  ckpt::CheckpointStore store(ranks);
  const core::SimResult res = test::run_app(std::move(cfg), apps::make_heat3d(p), &store);
  EXPECT_EQ(res.outcome, core::SimResult::Outcome::kCompleted);
}

/// Heap high-water mark of heat3d_table2_shape, in bytes above the live
/// bytes at its start.
std::int64_t heat3d_heap_high_water(int ranks) {
  const std::int64_t base = g_live.load(std::memory_order_relaxed);
  g_peak.store(base, std::memory_order_relaxed);
  heat3d_table2_shape(ranks);
  return g_peak.load(std::memory_order_relaxed) - base;
}

TEST(VmpiAlloc, HeapHighWaterStaysWithin1800BytesPerRank) {
  // The event pool keeps its slabs, so warming it at the larger size takes
  // its bytes out of both measurements (the in-flight guard above bounds
  // them).
  if (!util::kPoolSlabs) GTEST_SKIP() << "this build takes every block from the heap";
  heat3d_heap_high_water(4096);  // Warm the pools and the stack cache.
  const std::int64_t h2k = heat3d_heap_high_water(2048);
  const std::int64_t h4k = heat3d_heap_high_water(4096);
  const double per_rank = static_cast<double>(h4k - h2k) / 2048.0;
  std::printf("heap high-water: 2048 ranks %lld B, 4096 ranks %lld B, %.0f B per rank\n",
              static_cast<long long>(h2k), static_cast<long long>(h4k), per_rank);
  EXPECT_LE(per_rank, 1800.0);
}

TEST(VmpiAlloc, SavedStackImagesStayWithin600BytesPerRank) {
  // A suspended rank keeps its live frames in a pool block sized to them
  // (fiber.hpp), not in a resident stack page. Counted are every image
  // allocated, regrowth included, so the bound holds for the peak too.
  // Frame sizes are the compiler's: the bound is for optimized builds
  // (576 B per rank at -O2 with GCC 12), and instrumented ones run deeper.
#if !defined(__OPTIMIZE__)
  GTEST_SKIP() << "frame sizes are pinned for optimized builds";
#endif
  for (const int ranks : {2048, 4096}) {
    const std::uint64_t before = util::thread_counters()[util::Counter::kStackImageBytes];
    heat3d_table2_shape(ranks);
    const std::uint64_t bytes =
        util::thread_counters()[util::Counter::kStackImageBytes] - before;
    const double per_rank = static_cast<double>(bytes) / ranks;
    std::printf("saved stack images: %d ranks %llu B, %.0f B per rank\n", ranks,
                static_cast<unsigned long long>(bytes), per_rank);
    EXPECT_LE(per_rank, 600.0 + util::kPoolHeaderBytes);
  }
}

}  // namespace
}  // namespace exasim
