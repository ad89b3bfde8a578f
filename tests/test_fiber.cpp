// fiber: cooperative user-space threads (the per-simulated-process contexts).

#include <gtest/gtest.h>
#include <csignal>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "apps/heat3d.hpp"
#include "core/runner.hpp"
#include "fiber/fiber.hpp"
#include "sim_test_util.hpp"
#include "util/counters.hpp"
#include "util/pool.hpp"

namespace exasim {
namespace {

test::QuietLogs quiet;

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  auto body = [&] { x = 42; };
  Fiber f(body);
  EXPECT_FALSE(f.started());
  f.resume();
  EXPECT_EQ(x, 42);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> trace;
  auto body = [&] {
    trace.push_back(1);
    Fiber::yield();
    trace.push_back(3);
    Fiber::yield();
    trace.push_back(5);
  };
  Fiber f(body);
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
  auto body = [&] {
    long local = 0;
    for (int i = 1; i <= 5; ++i) {
      local += i;
      Fiber::yield();
    }
    sum = local;
  };
  Fiber f(body);
  while (!f.finished()) f.resume();
  EXPECT_EQ(sum, 15);
}

TEST(Fiber, ResumeAfterFinishThrows) {
  auto body = [] {};
  Fiber f(body);
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
  // The body outlives the fiber, and its frame holds the only reference.
  auto body = [held = std::move(resource), &resumed_past_yield]() mutable {
    const std::shared_ptr<int> local = std::move(held);
    Fiber::yield();
    resumed_past_yield = true;  // Unreachable: the fiber is never resumed.
  };
  {
    Fiber f(body);
    f.resume();
    EXPECT_FALSE(f.finished());
    EXPECT_FALSE(observer.expired());
  }  // ~Fiber drives the unwind.
  EXPECT_TRUE(observer.expired());
  EXPECT_FALSE(resumed_past_yield);
}

TEST(Fiber, DestroyingUnstartedFiberDoesNotRunBody) {
  bool ran = false;
  auto body = [&] { ran = true; };
  { Fiber f(body); }
  EXPECT_FALSE(ran);
}

TEST(Fiber, InFiberReflectsState) {
  bool inside = false;
  EXPECT_FALSE(Fiber::in_fiber());
  auto body = [&] { inside = Fiber::in_fiber(); };
  Fiber f(body);
  f.resume();
  EXPECT_TRUE(inside);
  EXPECT_FALSE(Fiber::in_fiber());
}

TEST(Fiber, InterleavesManyFibers) {
  constexpr int kFibers = 50;
  std::vector<int> counters(kFibers, 0);
  auto body = [&counters](int i) {
    for (int k = 0; k < 10; ++k) {
      ++counters[static_cast<std::size_t>(i)];
      Fiber::yield();
    }
  };
  std::vector<std::function<void()>> bodies;
  bodies.reserve(kFibers);  // Fibers reference their bodies: no reallocation.
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int i = 0; i < kFibers; ++i) {
    bodies.emplace_back([&body, i] { body(i); });
    fibers.push_back(std::make_unique<Fiber>(bodies.back()));
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
  auto body = [] {};
  Fiber f(body, 1);  // Below minimum -> rounded to >= 16 KiB.
  EXPECT_GE(f.stack_bytes(), std::size_t{16 * 1024});
  f.resume();
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, DeepStackUseWithinBounds) {
  // Touch a decent chunk of a 256 KiB stack via recursion.
  int depth_reached = 0;
  auto body = [&] {
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
  };
  Fiber f(body, 256 * 1024);
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
  auto body = [&ran] { ++ran; };
  for (int i = 0; i < kMany; ++i) fibers.push_back(std::make_unique<Fiber>(body));
  for (auto& f : fibers) f->resume();
  EXPECT_EQ(ran, kMany);
}

TEST(Fiber, DestroyUnstartedAndSuspendedFibersSafely) {
  auto idle = [] {};
  auto yields = [] {
    Fiber::yield();
    Fiber::yield();
  };
  {
    Fiber f(idle);  // Never started.
  }
  {
    auto f = std::make_unique<Fiber>(yields);
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
        auto body = [] {
          struct Rec {
            static std::uint64_t go(std::uint64_t d) {
              volatile char pad[1024];
              pad[0] = static_cast<char>(d);
              if (d > 1'000'000) return d;
              return Rec::go(d + 1) + static_cast<std::uint64_t>(pad[0]);
            }
          };
          Rec::go(0);
        };
        Fiber f(body, 16 * 1024);
        f.resume();
      },
      "");
}

TEST(FiberDeathTest, RankOfA32kMachineOverflowsIntoTheGuardPage) {
  // Every rank runs on the engine's one guarded stack, so one rank of a
  // paper-scale machine running off its stack faults on the guard page
  // (SIGSEGV) like a raw fiber does.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto overflow = [] {
    core::SimConfig cfg = test::tiny_config(32768);
    cfg.process.fiber_stack_bytes = 64 * 1024;
    test::run_app(std::move(cfg), [](vmpi::Context& ctx) {
      struct Rec {
        static std::uint64_t go(std::uint64_t d) {
          volatile char pad[1024];
          pad[0] = static_cast<char>(d);
          if (d > 1'000'000) return d;
          return Rec::go(d + 1) + static_cast<std::uint64_t>(pad[0]);
        }
      };
      if (ctx.rank() == 12345) Rec::go(0);
      ctx.finalize();
    });
  };
#if defined(EXASIM_ASAN_FIBERS) || defined(EXASIM_TSAN_FIBERS)
  // The sanitizers catch the fault on their own signal stack and exit.
  EXPECT_DEATH(overflow(), "");
#else
  EXPECT_EXIT(overflow(), ::testing::KilledBySignal(SIGSEGV), "");
#endif
}

/// Recurses `depth` frames, each holding a 256-byte local filled from its
/// depth, yields at the bottom, and returns whether every frame still holds
/// its bytes afterwards.
bool frames_survive_a_yield(int depth, std::uint8_t salt) {
  std::uint8_t local[256];
  for (std::size_t i = 0; i < sizeof local; ++i) {
    local[i] = static_cast<std::uint8_t>(salt + depth + i);
  }
  bool deeper = true;
  if (depth > 0) {
    deeper = frames_survive_a_yield(depth - 1, salt);
  } else {
    Fiber::yield();
  }
  for (std::size_t i = 0; i < sizeof local; ++i) {
    if (local[i] != static_cast<std::uint8_t>(salt + depth + i)) return false;
  }
  return deeper;
}

TEST(Fiber, LocalsSurviveWhileTheStackDepthGrowsShrinksAndGrows) {
  // Two fibers take turns on one stack, so every resume copies the other's
  // frames out and this one's back in. The saved depth goes from shallow to
  // deep (the image grows), shallow and deeper still.
  const int depths[] = {1, 12, 2, 30, 3};
  bool intact = true;
  int yields = 0;
  auto grows_body = [&] {
    for (int d : depths) {
      intact = frames_survive_a_yield(d, 0x5a) && intact;
      ++yields;
    }
  };
  auto scribbles_body = [] {
    for (;;) {
      volatile std::uint8_t junk[4096];
      for (std::size_t i = 0; i < sizeof junk; ++i) junk[i] = 0xee;
      Fiber::yield();
    }
  };
  Fiber grows(grows_body);
  Fiber scribbles(scribbles_body);
  while (!grows.finished()) {
    grows.resume();
    scribbles.resume();
  }
  EXPECT_EQ(yields, 5);
  EXPECT_TRUE(intact);
}

TEST(Fiber, DestroyingASuspendedFiberUnwindsItWhileAnotherHoldsTheStack) {
  // The fiber to destroy is saved away; the other one occupies the stack.
  // The unwind must swap it back in, and the other fiber must resume intact.
  auto resource = std::make_shared<int>(7);
  std::weak_ptr<int> observer = resource;
  bool other_intact = false;
  auto other_body = [&other_intact] {
    volatile std::uint64_t local = 0x0123456789abcdefull;
    Fiber::yield();
    other_intact = local == 0x0123456789abcdefull;
  };
  Fiber other(other_body);
  // The body outlives the fiber, and its frame holds the only reference.
  auto body = [held = std::move(resource)]() mutable {
    const std::shared_ptr<int> local = std::move(held);
    volatile std::uint64_t pad[64] = {};
    pad[0] = 1;
    Fiber::yield();
    (void)pad[0];
  };
  {
    Fiber f(body);
    f.resume();
    other.resume();  // Saves f's frames and takes the stack.
    EXPECT_FALSE(observer.expired());
  }  // ~Fiber restores f's frames and unwinds them.
  EXPECT_TRUE(observer.expired());
  other.resume();
  EXPECT_TRUE(other.finished());
  EXPECT_TRUE(other_intact);
}

using util::Counter;

TEST(Fiber, FibersShareOneStackAndCopyOnlyWhenTheOccupantChanges) {
  // Fibers of one size bind to this thread's default stack of that size,
  // mapped once. Resuming the fiber whose frames are in place copies
  // nothing; a switch to another fiber copies both live regions.
  constexpr std::size_t kBytes = 80 * 1024;  // A size no other test uses.
  const util::Counters c0 = util::thread_counters();
  auto forever = [] {
    for (;;) Fiber::yield();
  };
  Fiber a(forever, kBytes);
  Fiber b(forever, kBytes);
  a.resume();
  b.resume();  // Saves a's frames.
  const util::Counters c1 = util::thread_counters() - c0;
  EXPECT_EQ(c1[Counter::kStacksMapped] + c1[Counter::kStacksReused], 1u);
  EXPECT_GT(c1[Counter::kStackBytesCopied], 0u);
  b.resume();  // Still the occupant.
  const util::Counters c2 = util::thread_counters() - c0;
  EXPECT_EQ(c2[Counter::kStackBytesCopied], c1[Counter::kStackBytesCopied]);
  a.resume();  // Saves b's frames and restores a's.
  const util::Counters c3 = util::thread_counters() - c0;
  EXPECT_GT(c3[Counter::kStackBytesCopied], c2[Counter::kStackBytesCopied]);
  EXPECT_LT(c3[Counter::kStackBytesCopied], 4096u);  // Live frames, not whole stacks.
}

TEST(Fiber, LocateRedirectsOnlyTheLiveRegionOfASavedFiber) {
  std::uint64_t* slot = nullptr;
  std::uint64_t seen = 0;
  auto a_body = [&] {
    std::uint64_t local = 0;
    slot = &local;
    Fiber::yield();
    seen = local;
  };
  auto b_body = [] { Fiber::yield(); };
  Fiber a(a_body);
  Fiber b(b_body);
  a.resume();
  EXPECT_EQ(a.locate(slot, sizeof *slot), slot);  // a's frames are in place.
  b.resume();
  void* saved = a.locate(slot, sizeof *slot);
  EXPECT_NE(saved, slot);
  const std::uint64_t value = 0xfeedfacecafebeefull;
  std::memcpy(saved, &value, sizeof value);
  std::uint64_t heap = 0;
  EXPECT_EQ(a.locate(&heap, sizeof heap), &heap);  // Not stack memory.
  a.resume();
  EXPECT_EQ(seen, value);
  b.resume();
}

TEST(Fiber, RanksShareOneStackAcrossRelaunches) {
  // A 64-rank heat3d run under ResilientRunner, failed in its first two
  // launches. Every rank binds to the engine's one stack, and each relaunch
  // takes over the parked mapping of the previous launch's stack.
  apps::HeatParams p;
  p.nx = p.ny = p.nz = 16;
  p.px = p.py = p.pz = 4;
  p.total_iterations = 20;
  p.halo_interval = p.checkpoint_interval = 5;
  p.real_compute = false;
  p.work_units_per_point = 1000.0;  // 64 us per iteration at 1 ns/unit.
  core::RunnerConfig rc;
  rc.base = test::tiny_config(64);
  auto heat = apps::make_heat3d(p);
  auto app = [heat](vmpi::Context& ctx) {
    if (core::services_of(ctx).run_index < 2 && ctx.rank() == 5) {
      ctx.inject_failure(sim_us(500));
    }
    heat(ctx);
  };
  const core::RunnerResult res = core::ResilientRunner(rc, app).run();
  EXPECT_TRUE(res.completed);
  ASSERT_EQ(res.run_results.size(), 3u);
  for (const core::SimResult& r : res.run_results) {
    EXPECT_EQ(r.perf.stacks_mapped + r.perf.stacks_reused, 1u);  // The engine's one.
    EXPECT_GT(r.perf.stack_bytes_copied, 0u);
  }
  EXPECT_EQ(res.run_results[1].perf.stacks_mapped, 0u);
  EXPECT_EQ(res.run_results[2].perf.stacks_mapped, 0u);
}

}  // namespace
}  // namespace exasim
