// fiber: cooperative user-space threads (the per-simulated-process contexts).

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/heat3d.hpp"
#include "core/runner.hpp"
#include "fiber/fiber.hpp"
#include "fiber/stack_pool.hpp"
#include "sim_test_util.hpp"
#include "util/counters.hpp"
#include "util/pool.hpp"

namespace exasim {
namespace {

test::QuietLogs quiet;

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  Fiber f([&] { x = 42; });
  EXPECT_FALSE(f.started());
  f.resume();
  EXPECT_EQ(x, 42);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> trace;
  Fiber f([&] {
    trace.push_back(1);
    Fiber::yield();
    trace.push_back(3);
    Fiber::yield();
    trace.push_back(5);
  });
  f.resume();
  trace.push_back(2);
  f.resume();
  trace.push_back(4);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, LocalStateSurvivesYields) {
  long sum = 0;
  Fiber f([&] {
    long local = 0;
    for (int i = 1; i <= 5; ++i) {
      local += i;
      Fiber::yield();
    }
    sum = local;
  });
  while (!f.finished()) f.resume();
  EXPECT_EQ(sum, 15);
}

TEST(Fiber, ResumeAfterFinishThrows) {
  Fiber f([] {});
  f.resume();
  EXPECT_THROW(f.resume(), std::logic_error);
}

TEST(Fiber, YieldOutsideFiberThrows) { EXPECT_THROW(Fiber::yield(), std::logic_error); }

TEST(Fiber, DestroyingSuspendedFiberUnwindsItsFrames) {
  // Frame-held resources of a fiber abandoned mid-yield must be released via
  // stack unwinding (Fiber::Unwind), not leaked with the parked stack. This
  // is what keeps a deadlocked simulation LeakSanitizer-clean.
  auto resource = std::make_shared<int>(7);
  std::weak_ptr<int> observer = resource;
  bool resumed_past_yield = false;
  {
    Fiber f([held = std::move(resource), &resumed_past_yield] {
      Fiber::yield();
      resumed_past_yield = true;  // Unreachable: the fiber is never resumed.
    });
    f.resume();
    EXPECT_FALSE(f.finished());
    EXPECT_FALSE(observer.expired());
  }  // ~Fiber drives the unwind.
  EXPECT_TRUE(observer.expired());
  EXPECT_FALSE(resumed_past_yield);
}

TEST(Fiber, DestroyingUnstartedFiberDoesNotRunBody) {
  bool ran = false;
  { Fiber f([&] { ran = true; }); }
  EXPECT_FALSE(ran);
}

TEST(Fiber, InFiberReflectsState) {
  bool inside = false;
  EXPECT_FALSE(Fiber::in_fiber());
  Fiber f([&] { inside = Fiber::in_fiber(); });
  f.resume();
  EXPECT_TRUE(inside);
  EXPECT_FALSE(Fiber::in_fiber());
}

TEST(Fiber, InterleavesManyFibers) {
  constexpr int kFibers = 50;
  std::vector<int> counters(kFibers, 0);
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&counters, i] {
      for (int k = 0; k < 10; ++k) {
        ++counters[static_cast<std::size_t>(i)];
        Fiber::yield();
      }
    }));
  }
  bool any = true;
  while (any) {
    any = false;
    for (auto& f : fibers) {
      if (!f->finished()) {
        f->resume();
        any = true;
      }
    }
  }
  for (int c : counters) EXPECT_EQ(c, 10);
}

TEST(Fiber, StackIsRoundedUpAndUsable) {
  Fiber f([] {}, 1);  // Below minimum -> rounded to >= 16 KiB.
  EXPECT_GE(f.stack_bytes(), std::size_t{16 * 1024});
  f.resume();
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, DeepStackUseWithinBounds) {
  // Touch a decent chunk of a 256 KiB stack via recursion.
  int depth_reached = 0;
  Fiber f(
      [&] {
        struct Rec {
          static int go(int d, int* max_out) {
            volatile char pad[512];
            pad[0] = static_cast<char>(d);
            *max_out = d;
            if (d >= 200) return d + pad[0] - pad[0];
            return Rec::go(d + 1, max_out);
          }
        };
        Rec::go(0, &depth_reached);
      },
      256 * 1024);
  f.resume();
  EXPECT_EQ(depth_reached, 200);
}

TEST(Fiber, ThousandsOfLazyStacksAreCheap) {
  // 4,096 fibers with 128 KiB virtual stacks: must construct fine (lazy
  // commit) and each runs.
  constexpr int kMany = 4096;
  std::vector<std::unique_ptr<Fiber>> fibers;
  fibers.reserve(kMany);
  int ran = 0;
  for (int i = 0; i < kMany; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&ran] { ++ran; }));
  }
  for (auto& f : fibers) f->resume();
  EXPECT_EQ(ran, kMany);
}

TEST(Fiber, DestroyUnstartedAndSuspendedFibersSafely) {
  {
    Fiber f([] {});  // Never started.
  }
  {
    auto f = std::make_unique<Fiber>([] {
      Fiber::yield();
      Fiber::yield();
    });
    f->resume();  // Suspended at first yield, then destroyed.
  }
  SUCCEED();
}

TEST(FiberDeathTest, StackOverflowHitsGuardPage) {
  // Running off the low end of the stack must fault on the PROT_NONE guard
  // page (SIGSEGV), not silently scribble over a neighboring mapping.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Fiber f(
            [] {
              struct Rec {
                static std::uint64_t go(std::uint64_t d) {
                  volatile char pad[1024];
                  pad[0] = static_cast<char>(d);
                  if (d > 1'000'000) return d;
                  return Rec::go(d + 1) + static_cast<std::uint64_t>(pad[0]);
                }
              };
              Rec::go(0);
            },
            16 * 1024);
        f.resume();
      },
      "");
}

TEST(FiberDeathTest, OverflowOfAnUnguardedStackTripsItsCanary) {
  // Past the guard budget a stack has no guard page, so an overflow faults
  // nowhere; the canary at its low end must catch it on the switch back.
  constexpr std::size_t kBytes = 16 * 1024;
  if (FiberStackPool::instance().guard_budget() > 200'000) {
    GTEST_SKIP() << "guard budget too large to exhaust in a test";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        auto& pool = FiberStackPool::instance();
        std::vector<FiberStackPool::Stack> held;  // Never released: the child dies.
        do {
          held.push_back(pool.acquire(kBytes));
        } while (held.back().guarded);
        Fiber f(
            [] {
              // The stack is [top - kBytes, top), and this frame sits in its
              // top page. Scribble everything below it down to the low end,
              // as a runaway recursion would on its way off the stack.
              const auto frame = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
              const std::uintptr_t top = (frame | 4095) + 1;
              auto* low = reinterpret_cast<volatile std::uint64_t*>(top - kBytes);
              for (auto* p = reinterpret_cast<volatile std::uint64_t*>(frame - 512); p >= low;
                   --p) {
                *p = 0xABABABABABABABABull;
              }
            },
            kBytes);
        f.resume();
      },
      "fiber stack overflow");
}

using util::Counter;

TEST(FiberStackPool, RecyclesStacksAndTracksHighWater) {
  if (!util::pool_enabled()) GTEST_SKIP() << "pooling disabled in this run";
  auto& pool = FiberStackPool::instance();
  pool.trim();  // Isolate from earlier tests: start with empty free lists.
  const auto before = pool.stats();
  const util::Counters c0 = util::thread_counters();

  constexpr std::size_t kBytes = 128 * 1024;
  {
    Fiber a([] {}, kBytes);
    Fiber b([] {}, kBytes);
    a.resume();
    b.resume();
  }  // Both stacks parked.
  const auto parked = pool.stats();
  const util::Counters c1 = util::thread_counters();
  EXPECT_EQ(c1[Counter::kStacksMapped] - c0[Counter::kStacksMapped], 2u);
  EXPECT_GE(parked.pooled, 2u);
  EXPECT_GE(parked.high_water, before.outstanding + 2);

  {
    Fiber c([] {}, kBytes);  // Must reuse a parked stack, not map.
    c.resume();
  }
  const auto after = pool.stats();
  const util::Counters c2 = util::thread_counters();
  EXPECT_EQ(c2[Counter::kStacksMapped], c1[Counter::kStacksMapped]);
  EXPECT_EQ(c2[Counter::kStacksReused] - c1[Counter::kStacksReused], 1u);

  // trim() unmaps every parked stack and empties the pool.
  pool.trim();
  const auto trimmed = pool.stats();
  EXPECT_EQ(trimmed.pooled, 0u);
  EXPECT_GT(trimmed.unmapped, after.unmapped);
}

TEST(FiberStackPool, ReleasedStackStaysWarmForTheNextFiber) {
  // A parked stack keeps the pages its fiber touched: the top frame's page
  // is still resident after release, and the next fiber of that size runs
  // on the same stack, at the same address, without mapping a new one.
  if (!util::pool_enabled()) GTEST_SKIP() << "pooling disabled in this run";
  constexpr std::size_t kBytes = 96 * 1024;  // A size no other test parks.
  auto& pool = FiberStackPool::instance();
  pool.trim();
  auto frame = [](std::uintptr_t* out) {
    return [out] { *out = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0)); };
  };
  std::uintptr_t first = 0, second = 0;
  {
    Fiber f(frame(&first), kBytes);
    f.resume();
  }
  const auto ps = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  unsigned char resident = 0;
  ASSERT_EQ(::mincore(reinterpret_cast<void*>(first & ~(ps - 1)), ps, &resident), 0);
  EXPECT_EQ(resident & 1u, 1u) << "release dropped the parked stack's pages";

  const util::Counters parked = util::thread_counters();
  {
    Fiber g(frame(&second), kBytes);
    g.resume();
  }
  const util::Counters after = util::thread_counters() - parked;
  EXPECT_EQ(second, first);
  EXPECT_EQ(after[Counter::kStacksMapped], 0u);
  EXPECT_EQ(after[Counter::kStacksReused], 1u);
  pool.trim();
}

TEST(FiberStackPool, WarmStacksMoveAcrossEngineWorkersOnRelaunch) {
  // A 64-rank heat3d run under ResilientRunner on 4 engine workers, failed
  // in its first two launches: every relaunch builds its fibers on stacks
  // the previous launch's fibers ran on, possibly on another worker thread
  // (the ThreadSanitizer leg runs this).
  apps::HeatParams p;
  p.nx = p.ny = p.nz = 16;
  p.px = p.py = p.pz = 4;
  p.total_iterations = 20;
  p.halo_interval = p.checkpoint_interval = 5;
  p.real_compute = false;
  p.work_units_per_point = 1000.0;  // 64 us per iteration at 1 ns/unit.
  core::RunnerConfig rc;
  rc.base = test::tiny_config(64);
  rc.base.sim_workers = 4;
  auto heat = apps::make_heat3d(p);
  auto app = [heat](vmpi::Context& ctx) {
    if (core::services_of(ctx).run_index < 2 && ctx.rank() == 5) {
      ctx.inject_failure(sim_us(500));
    }
    heat(ctx);
  };
  const core::RunnerResult res = core::ResilientRunner(rc, app).run();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.launches, 3);
  // Each launch's perf counts the reuses of every worker thread that ran it.
  std::uint64_t reused = 0;
  for (const core::SimResult& r : res.run_results) reused += r.perf.stacks_reused;
  if (util::pool_enabled()) {
    EXPECT_GE(reused, 2u * 64u);
  }
}

TEST(FiberStackPool, UnpooledReleaseUnmaps) {
  const bool before = util::pool_enabled();
  util::set_pool_enabled(false);
  auto& pool = FiberStackPool::instance();
  const auto s0 = pool.stats();
  const util::Counters c0 = util::thread_counters();
  {
    Fiber f([] {}, 64 * 1024);
    f.resume();
  }
  const auto s1 = pool.stats();
  const util::Counters c1 = util::thread_counters();
  util::set_pool_enabled(before);
  EXPECT_EQ(c1[Counter::kStacksMapped] - c0[Counter::kStacksMapped], 1u);
  EXPECT_EQ(s1.unmapped - s0.unmapped, 1u);
  EXPECT_EQ(s1.pooled, s0.pooled);
}

}  // namespace
}  // namespace exasim
