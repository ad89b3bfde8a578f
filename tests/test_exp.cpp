// Tests for the exp experiment subsystem: plan enumeration, seed derivation
// stability, the parallel executor's determinism contract (identical result
// tables for any job count), per-item error reporting and per-run switches.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/heat3d.hpp"
#include "apps/ring.hpp"
#include "core/runner.hpp"
#include "exp/executor.hpp"
#include "exp/plan.hpp"
#include "metrics/table.hpp"
#include "sim_test_util.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

using namespace exasim;
using exp::Axis;
using exp::ExperimentPlan;
using exp::ExecutorOptions;
using exp::ParallelExecutor;
using exp::SeedMode;
using exp::WorkItem;

TEST(ExperimentPlan, CrossProductEnumeratesFirstAxisOutermost) {
  const auto plan = ExperimentPlan::cross_product(
      {Axis{"alpha", {"a0", "a1"}}, Axis{"beta", {"b0", "b1", "b2"}}});
  ASSERT_EQ(plan.axis_count(), 2u);
  ASSERT_EQ(plan.point_count(), 6u);
  // The order the old serial nested loops used: alpha outer, beta inner.
  const std::size_t expect[6][2] = {{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(plan.point(i).index, i);
    EXPECT_EQ(plan.point(i).at(0), expect[i][0]);
    EXPECT_EQ(plan.point(i).at(1), expect[i][1]);
  }
}

TEST(ExperimentPlan, ItemsEnumeratePointMajor) {
  const auto plan =
      ExperimentPlan::cross_product({Axis{"x", {"0", "1"}}}, /*replicates=*/3, /*base_seed=*/9);
  ASSERT_EQ(plan.item_count(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    const WorkItem w = plan.item(i);
    EXPECT_EQ(w.item_index, i);
    EXPECT_EQ(w.point_index, i / 3);
    EXPECT_EQ(w.replicate, static_cast<int>(i % 3));
  }
  EXPECT_THROW(plan.item(6), std::out_of_range);
}

TEST(ExperimentPlan, SeedDerivationIsStable) {
  // Pinned values: recorded experiment seeds must stay reproducible across
  // releases. If this test fails, derive_seed changed — that is a breaking
  // change to every published campaign result.
  EXPECT_EQ(ExperimentPlan::derive_seed(1, 0, 0), UINT64_C(0x1e1f5efcf993416d));
  EXPECT_EQ(ExperimentPlan::derive_seed(1, 1, 0), UINT64_C(0x8c38532494e82b7e));
  EXPECT_EQ(ExperimentPlan::derive_seed(1, 0, 1), UINT64_C(0xe5e2906340b7b270));
  EXPECT_EQ(ExperimentPlan::derive_seed(7, 3, 2), UINT64_C(0x996110b67c6095da));

  // Distinctness over a whole campaign.
  std::set<std::uint64_t> seen;
  for (std::size_t p = 0; p < 16; ++p) {
    for (int r = 0; r < 16; ++r) seen.insert(ExperimentPlan::derive_seed(1, p, r));
  }
  EXPECT_EQ(seen.size(), 256u);
}

TEST(ExperimentPlan, SequentialSeedModeMatchesLegacyBenchScheme) {
  auto plan = ExperimentPlan::cross_product({Axis{"mttf", {"64", "16"}}}, /*replicates=*/10,
                                            /*base_seed=*/7000);
  plan.set_seed_mode(SeedMode::kSequentialPerReplicate);
  // The old serial loops seeded `7000 + seed_index` for every row.
  EXPECT_EQ(plan.item(0).seed, 7000u);
  EXPECT_EQ(plan.item(9).seed, 7009u);
  EXPECT_EQ(plan.item(10).seed, 7000u);  // Next point restarts the seeds.
  EXPECT_EQ(plan.item(19).seed, 7009u);
}

namespace {

/// Runs a tiny ring simulation — a real simulation, so parallel execution
/// exercises the whole engine/fiber/vmpi stack (and TSan sees it).
double ring_e2_seconds(int laps, int ranks, std::uint64_t seed) {
  core::SimConfig machine;
  machine.ranks = ranks;
  machine.topology = "star:" + std::to_string(ranks);
  core::RunnerConfig rc;
  rc.base = machine;
  rc.seed = seed;
  apps::RingParams ring;
  ring.laps = laps;
  return to_seconds(core::ResilientRunner(rc, apps::make_ring(ring)).run().total_time);
}

/// The determinism contract: one full campaign -> rendered result table.
std::string campaign_csv(int jobs) {
  auto plan = ExperimentPlan::cross_product(
      {Axis{"laps", {"1", "2"}}, Axis{"ranks", {"2", "4", "8"}}}, /*replicates=*/3,
      /*base_seed=*/11);
  const int laps_of[] = {1, 2};
  const int ranks_of[] = {2, 4, 8};

  ParallelExecutor pool(ExecutorOptions{jobs, {}});
  auto outcomes = pool.run(plan, [&](const exp::Point& point, const WorkItem& item) {
    // Mix the derived seed into the row so seed derivation differences would
    // show up in the table, not just run-to-run timing.
    Rng rng(item.seed);
    const double e2 =
        ring_e2_seconds(laps_of[point.at(0)], ranks_of[point.at(1)], item.seed);
    return e2 + 1e-9 * static_cast<double>(rng.next_below(1000));
  });

  TablePrinter table({"laps", "ranks", "replicate", "seed", "e2"});
  for (std::size_t i = 0; i < plan.item_count(); ++i) {
    const WorkItem item = plan.item(i);
    const exp::Point& point = plan.point(item.point_index);
    EXPECT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    table.add_row({plan.axis(0).values[point.at(0)], plan.axis(1).values[point.at(1)],
                   TablePrinter::integer(item.replicate), std::to_string(item.seed),
                   TablePrinter::num(*outcomes[i] * 1e6, 6)});
  }
  return table.to_csv();
}

}  // namespace

TEST(ParallelExecutor, TableIdenticalForAnyJobCount) {
  Log::set_level(LogLevel::kOff);
  const std::string serial = campaign_csv(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, campaign_csv(4));
  EXPECT_EQ(serial, campaign_csv(exp::hardware_jobs()));
}

TEST(ParallelExecutor, ThrowingEvaluateIsReportedPerItem) {
  ParallelExecutor pool(ExecutorOptions{4, {}});
  auto outcomes = pool.map(8, [](std::size_t i) -> int {
    if (i % 2 == 1) throw std::runtime_error("boom " + std::to_string(i));
    return static_cast<int>(i) * 10;
  });
  ASSERT_EQ(outcomes.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    if (i % 2 == 1) {
      EXPECT_FALSE(outcomes[i].ok());
      EXPECT_EQ(outcomes[i].error, "boom " + std::to_string(i));
    } else {
      ASSERT_TRUE(outcomes[i].ok());
      EXPECT_EQ(*outcomes[i], static_cast<int>(i) * 10);
    }
  }
}

TEST(ParallelExecutor, DereferencingAFailedItemThrowsItsError) {
  struct Row {
    double seconds = 0;
  };
  ParallelExecutor pool(ExecutorOptions{2, {}});
  auto outcomes = pool.map(2, [](std::size_t i) -> Row {
    if (i == 1) throw std::invalid_argument("malformed storage spec: ");
    return Row{1.5};
  });
  EXPECT_EQ((*outcomes[0]).seconds, 1.5);
  EXPECT_EQ(outcomes[0]->seconds, 1.5);
  ASSERT_FALSE(outcomes[1].ok());
  EXPECT_THROW((void)outcomes[1]->seconds, std::runtime_error);
  try {
    (void)*outcomes[1];
    ADD_FAILURE() << "a failed item dereferenced without throwing";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "work item failed: malformed storage spec: ");
  }
}

TEST(ParallelExecutor, NonStandardExceptionIsCaptured) {
  ParallelExecutor pool(ExecutorOptions{2, {}});
  auto outcomes = pool.map(2, [](std::size_t i) -> int {
    if (i == 0) throw 42;  // NOLINT: deliberately not a std::exception.
    return 1;
  });
  EXPECT_FALSE(outcomes[0].ok());
  EXPECT_EQ(outcomes[0].error, "non-standard exception");
  EXPECT_TRUE(outcomes[1].ok());
}

TEST(ParallelExecutor, ProgressCallbackIsSerializedAndComplete) {
  std::vector<std::size_t> done_values;
  ExecutorOptions options;
  options.jobs = 4;
  options.progress = [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, 20u);
    done_values.push_back(done);
  };
  ParallelExecutor pool(options);
  auto outcomes = pool.map(20, [](std::size_t i) { return i; });
  ASSERT_EQ(outcomes.size(), 20u);
  ASSERT_EQ(done_values.size(), 20u);
  for (std::size_t i = 0; i < done_values.size(); ++i) EXPECT_EQ(done_values[i], i + 1);
}

TEST(ParallelExecutor, JobsOneRunsInOrder) {
  std::vector<std::size_t> order;
  ParallelExecutor pool(ExecutorOptions{1, {}});
  pool.map(5, [&](std::size_t i) {
    order.push_back(i);  // Safe: jobs=1 executes inline on this thread.
    return i;
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Jobs, ResolutionRules) {
  EXPECT_EQ(exp::resolve_jobs(3), 3);
  EXPECT_EQ(exp::resolve_jobs(0), exp::hardware_jobs());  // 0 = usable CPUs.
  EXPECT_GE(exp::hardware_jobs(), 1);
#if defined(__linux__)
  // No more than the CPUs this process may run on.
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  EXPECT_LE(exp::hardware_jobs(), CPU_COUNT(&set));
#endif

  const char* args[] = {"bench", "--jobs=5"};
  EXPECT_EQ(exp::jobs_from_cli(2, const_cast<char**>(args)), 5);
  const char* args2[] = {"bench", "--jobs", "7"};
  EXPECT_EQ(exp::jobs_from_cli(3, const_cast<char**>(args2)), 7);
  const char* args3[] = {"bench"};
  EXPECT_EQ(exp::jobs_from_cli(1, const_cast<char**>(args3)), -1);
}

TEST(ParallelExecutor, ConcurrentRunsCountOnlyTheirOwnTraffic) {
  // Two copies of one failure + restart simulation run side by side, held
  // together at rank 0's first entry. Each launch's counters must equal a
  // solo run's: what the other simulation does on its own thread is not
  // its traffic.
  Log::set_level(LogLevel::kOff);
  apps::HeatParams heat;
  heat.nx = heat.ny = heat.nz = 8;
  heat.total_iterations = 8;
  heat.halo_interval = heat.checkpoint_interval = 2;
  heat.real_compute = false;
  heat.work_units_per_point = 1000.0;  // 64 us per iteration per rank.
  const vmpi::AppMain heat_app = apps::make_heat3d(heat);
  auto app = [&heat_app](std::latch* overlap) -> vmpi::AppMain {
    return [&heat_app, overlap](vmpi::Context& ctx) {
      if (overlap != nullptr && ctx.rank() == 0 && core::services_of(ctx).run_index == 0) {
        overlap->arrive_and_wait();
      }
      heat_app(ctx);
    };
  };
  core::RunnerConfig rc;
  rc.base = test::tiny_config(8);
  rc.base.storage = "hpc";
  rc.base.ckpt_mode = "staged";
  rc.first_run_failures = {FailureSpec{1, sim_us(5 * 64)}};
  const core::RunnerResult solo = core::ResilientRunner(rc, app(nullptr)).run();
  ASSERT_TRUE(solo.completed);
  ASSERT_EQ(solo.launches, 2);

  std::latch overlap(2);
  ParallelExecutor pool(ExecutorOptions{2, {}});
  const auto pair = pool.map(
      2, [&](std::size_t) { return core::ResilientRunner(rc, app(&overlap)).run(); });
  for (const auto& outcome : pair) {
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    ASSERT_EQ(outcome->total_time, solo.total_time);
    ASSERT_EQ(outcome->run_results.size(), solo.run_results.size());
    for (std::size_t launch = 0; launch < solo.run_results.size(); ++launch) {
      SCOPED_TRACE(launch);
      const PerfSnapshot& want = solo.run_results[launch].perf;
      const PerfSnapshot& got = outcome->run_results[launch].perf;
      EXPECT_EQ(got.pool_allocs, want.pool_allocs);
      EXPECT_EQ(got.fiber_resumes, want.fiber_resumes);
      EXPECT_EQ(got.wakeups_suppressed, want.wakeups_suppressed);
      EXPECT_EQ(got.queue_near_hits, want.queue_near_hits);
      EXPECT_EQ(got.fanout_notices, want.fanout_notices);
      EXPECT_EQ(got.fanout_relays, want.fanout_relays);
      EXPECT_EQ(got.fanout_dead_skips, want.fanout_dead_skips);
      EXPECT_EQ(got.ckpt_stages, want.ckpt_stages);
      EXPECT_EQ(got.ckpt_partner_copies, want.ckpt_partner_copies);
    }
  }
  EXPECT_GT(solo.run_results[0].perf.ckpt_stages, 0u);
  EXPECT_GT(solo.run_results[0].perf.fanout_notices, 0u);
}

TEST(ParallelExecutor, EagerAndFilteredRunsSideBySideKeepTheirOwnDispatch) {
  // The wakeup filter's switch belongs to a run (ProcessConfig::eager_wakeup,
  // DESIGN.md §13). An eager and a filtered simulation run side by side, held
  // together at rank 0's first entry: they deliver the same schedule, and
  // only the filtered one skips resumes.
  Log::set_level(LogLevel::kOff);
  std::latch overlap(2);
  auto run = [&overlap](bool eager) {
    core::SimConfig cfg = test::tiny_config(8);
    cfg.process.eager_wakeup = eager;
    return test::run_app(cfg, [&overlap](vmpi::Context& ctx) {
      std::uint64_t v = static_cast<std::uint64_t>(ctx.rank());
      if (ctx.rank() == 0) {
        overlap.arrive_and_wait();
        // Reverse source order: while rank 0 waits on the highest source,
        // every lower-source arrival is unexpected, a wake the filter skips.
        for (int src = ctx.size() - 1; src >= 1; --src) ctx.recv(src, 0, &v, sizeof v);
      } else {
        ctx.send(0, 0, &v, sizeof v);
      }
      ctx.finalize();
    });
  };
  ParallelExecutor pool(ExecutorOptions{2, {}});
  const auto pair = pool.map(2, [&](std::size_t i) { return run(i == 0); });
  ASSERT_TRUE(pair[0].ok()) << pair[0].error;
  ASSERT_TRUE(pair[1].ok()) << pair[1].error;
  const core::SimResult& eager = *pair[0];
  const core::SimResult& filtered = *pair[1];
  auto simulated = [](const core::SimResult& r) {
    const std::string json = core::sim_result_json(r);
    return json.substr(0, json.find(",\"wall_seconds\""));
  };
  EXPECT_EQ(eager.outcome, core::SimResult::Outcome::kCompleted);
  EXPECT_EQ(simulated(eager), simulated(filtered));
  EXPECT_EQ(eager.perf.wakeups_suppressed, 0u);
  EXPECT_GT(filtered.perf.wakeups_suppressed, 0u);
  EXPECT_GT(eager.perf.fiber_resumes, filtered.perf.fiber_resumes);
}

TEST(ParallelExecutor, ThrowingJobIsRethrownAtAnyJobCount) {
  // exp::detail::run_indexed (under map, which catches per item) lets a
  // job's exception out once every thread has joined: the lowest throwing
  // index's, as the serial loop throws it, at any job count.
  for (int jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    std::atomic<bool> ran_first{false};
    try {
      exp::detail::run_indexed(4, jobs, [&](std::size_t i) {
        if (i == 0) ran_first = true;
        if (i == 1) throw std::invalid_argument("job 1");
        if (i == 3) throw std::runtime_error("job 3");
      });
      ADD_FAILURE() << "no exception left run_indexed";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "job 1");
    } catch (const std::exception& e) {
      ADD_FAILURE() << "rethrew " << e.what() << ", want job 1";
    }
    EXPECT_TRUE(ran_first);
  }
}
