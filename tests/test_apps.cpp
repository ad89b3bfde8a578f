// Application tests: heat3d physics + checkpoint/restart transparency, ring,
// cgproxy, and the §V-D failure-mode observations.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "apps/cgproxy.hpp"
#include "apps/heat3d.hpp"
#include "apps/registry.hpp"
#include "apps/ring.hpp"
#include "core/runner.hpp"
#include "sim_test_util.hpp"

namespace exasim {
namespace {

using apps::HeatParams;
using apps::HeatReport;
using core::ResilientRunner;
using core::RunnerConfig;
using core::RunnerResult;
using core::SimResult;
using test::run_app;
using test::tiny_config;

test::QuietLogs quiet;

HeatParams heat_8ranks(int interval, int iters = 40) {
  HeatParams p;
  p.nx = p.ny = p.nz = 8;
  p.px = p.py = p.pz = 2;
  p.total_iterations = iters;
  p.halo_interval = interval;
  p.checkpoint_interval = interval;
  p.work_units_per_point = 100.0;
  return p;
}

TEST(Heat3D, CompletesAndProducesFiniteChecksum) {
  std::vector<HeatReport> reports(8);
  RunnerConfig rc;
  rc.base = tiny_config(8);
  ResilientRunner runner(rc, apps::make_heat3d(heat_8ranks(10), &reports));
  RunnerResult res = runner.run();
  ASSERT_TRUE(res.completed);
  for (const auto& r : reports) {
    EXPECT_EQ(r.completed_iterations, 40);
    EXPECT_TRUE(std::isfinite(r.checksum));
  }
}

TEST(Heat3D, DiffusionConservesHeatApproximately) {
  // With the explicit scheme and halo exchange every iteration, the global
  // sum is conserved up to boundary losses; with a symmetric initial
  // condition it stays finite and bounded.
  std::vector<HeatReport> reports(8);
  RunnerConfig rc;
  rc.base = tiny_config(8);
  ResilientRunner runner(rc, apps::make_heat3d(heat_8ranks(1, 10), &reports));
  ASSERT_TRUE(runner.run().completed);
  double total = 0;
  for (const auto& r : reports) total += r.checksum;
  EXPECT_TRUE(std::isfinite(total));
  EXPECT_LT(std::abs(total), 1e6);
}

TEST(Heat3D, ChecksumIdenticalWithAndWithoutFailure) {
  // The acid test of application-level checkpoint/restart: a failure +
  // restart must reproduce the exact same physics as a failure-free run
  // (same iteration count, bit-identical state at halo-exchange points).
  auto run_heat = [&](std::vector<FailureSpec> failures) {
    std::vector<HeatReport> reports(8);
    RunnerConfig rc;
    rc.base = tiny_config(8);
    rc.first_run_failures = std::move(failures);
    ResilientRunner runner(rc, apps::make_heat3d(heat_8ranks(10), &reports));
    EXPECT_TRUE(runner.run().completed);
    std::vector<double> sums;
    for (const auto& r : reports) sums.push_back(r.checksum);
    return sums;
  };
  const auto clean = run_heat({});
  // ~6.4 us/iteration: this failure lands around iteration 16 of 40.
  const auto failed = run_heat({FailureSpec{5, sim_us(100)}});
  ASSERT_EQ(clean.size(), failed.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_DOUBLE_EQ(clean[i], failed[i]) << "rank " << i;
  }
}

TEST(Heat3D, ModeledModeMatchesRealModeTiming) {
  // Modeled (skeleton) execution must produce the same simulated run as real
  // execution — the whole point of the modeled path (DESIGN.md §2) — with
  // and without a failure and restart. This holds on the default free PFS
  // only: a restore is charged for the bytes stored, which are the grid in
  // real mode and a header in modeled mode, so the modes differ on priced
  // tiers until restores are charged for the bytes written (ROADMAP item 2).
  auto run = [&](bool real, const std::vector<FailureSpec>& failures) {
    HeatParams p = heat_8ranks(10);
    p.real_compute = real;
    RunnerConfig rc;
    rc.base = tiny_config(8);
    rc.first_run_failures = failures;
    return ResilientRunner(rc, apps::make_heat3d(p)).run();
  };
  // Each launch's result-json without its host-dependent wall-clock tail.
  auto launch_json = [](const SimResult& r) {
    const std::string json = core::sim_result_json(r);
    return json.substr(0, json.find(",\"wall_seconds\""));
  };
  // ~6.4 us/iteration: the failure lands after the checkpoint of iteration 10.
  for (const auto& failures :
       {std::vector<FailureSpec>{}, std::vector<FailureSpec>{FailureSpec{5, sim_us(100)}}}) {
    SCOPED_TRACE(failures.size());
    const RunnerResult real = run(true, failures);
    const RunnerResult modeled = run(false, failures);
    EXPECT_TRUE(real.completed);
    EXPECT_EQ(real.failures, static_cast<int>(failures.size()));
    EXPECT_EQ(modeled.completed, real.completed);
    EXPECT_EQ(modeled.total_time, real.total_time);
    EXPECT_EQ(modeled.failures, real.failures);
    EXPECT_EQ(modeled.launches, real.launches);
    ASSERT_EQ(modeled.run_results.size(), real.run_results.size());
    for (std::size_t i = 0; i < real.run_results.size(); ++i) {
      const SimResult& m = modeled.run_results[i];
      const SimResult& r = real.run_results[i];
      EXPECT_EQ(launch_json(m), launch_json(r)) << "launch " << i;
      EXPECT_EQ(m.rank_end_times, r.rank_end_times) << "launch " << i;
      EXPECT_EQ(m.rank_outcomes, r.rank_outcomes) << "launch " << i;
    }
  }
}

TEST(Heat3D, ShorterCheckpointIntervalCostsMoreWithoutFailures) {
  // The E1 column of Table II: more checkpoint cycles -> more time.
  auto e1 = [&](int interval) {
    RunnerConfig rc;
    rc.base = tiny_config(8);
    ResilientRunner runner(rc, apps::make_heat3d(heat_8ranks(interval)));
    RunnerResult res = runner.run();
    EXPECT_TRUE(res.completed);
    return res.total_time;
  };
  EXPECT_LT(e1(40), e1(5));
}

TEST(Heat3D, PhaseTelemetryTracksProgress) {
  apps::HeatTelemetry telemetry(8);
  HeatParams p = heat_8ranks(10);
  p.telemetry = &telemetry;
  RunnerConfig rc;
  rc.base = tiny_config(8);
  ResilientRunner runner(rc, apps::make_heat3d(p));
  ASSERT_TRUE(runner.run().completed);
  for (auto phase : telemetry.last_phase) {
    EXPECT_EQ(phase, apps::HeatPhase::kDone);
  }
}

TEST(Heat3D, FailureDuringComputeIsDetectedInHaloOrBarrier) {
  // §V-D: failures during the (dominant) compute phase are detected in the
  // halo exchange; the abort leaves survivors whose last phase is halo,
  // checkpoint, or barrier — never compute-completed-normally.
  apps::HeatTelemetry telemetry(8);
  HeatParams p = heat_8ranks(10);
  p.telemetry = &telemetry;
  auto cfg = tiny_config(8);
  // Mid-compute failure around iteration 15 of 40 (~6.4 us/iteration).
  cfg.failures = {FailureSpec{4, sim_us(96)}};
  core::Machine machine(cfg, apps::make_heat3d(p));
  ckpt::CheckpointStore store(8);
  machine.set_checkpoint_store(&store);
  SimResult r = machine.run();
  EXPECT_EQ(r.outcome, SimResult::Outcome::kAborted);
  int halo_or_later = 0;
  for (int rank = 0; rank < 8; ++rank) {
    if (rank == 4) continue;
    const auto phase = telemetry.last_phase[static_cast<std::size_t>(rank)];
    if (phase == apps::HeatPhase::kHalo || phase == apps::HeatPhase::kCheckpoint ||
        phase == apps::HeatPhase::kBarrier || phase == apps::HeatPhase::kCleanup) {
      ++halo_or_later;
    }
  }
  EXPECT_GT(halo_or_later, 0);
}

TEST(Heat3D, RejectsBadDecomposition) {
  HeatParams p = heat_8ranks(10);
  p.px = 3;  // 3*2*2 != 8 ranks.
  RunnerConfig rc;
  rc.base = tiny_config(8);
  // The app throws inside the fiber -> uncaught app exception is a test
  // failure; instead verify the decomposition check via a 1-rank config.
  HeatParams q;
  q.nx = 7;  // Does not divide by px=2.
  q.px = 2;
  q.py = q.pz = 1;
  (void)p;
  core::SimConfig cfg = tiny_config(2);
  ckpt::CheckpointStore store(2);
  core::Machine machine(cfg, [&](vmpi::Context& ctx) {
    EXPECT_THROW(
        {
          auto app = apps::make_heat3d(q);
          app(ctx);
        },
        std::invalid_argument);
    ctx.finalize();
  });
  machine.set_checkpoint_store(&store);
  machine.run();
}

TEST(Ring, TokenAccumulatesAcrossLaps) {
  apps::RingParams p;
  p.laps = 3;
  std::vector<apps::RingReport> reports(5);
  SimResult r = run_app(tiny_config(5), apps::make_ring(p, &reports));
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  // Token starts at 1, +1 per hop (5 hops/lap incl. rank 0), 3 laps.
  EXPECT_EQ(reports[0].final_token, 1u + 3u * 5u - 1u + 1u);
}

TEST(Ring, ElapsedTimeGrowsWithLaps) {
  auto elapsed = [&](int laps) {
    apps::RingParams p;
    p.laps = laps;
    std::vector<apps::RingReport> reports(4);
    run_app(tiny_config(4), apps::make_ring(p, &reports));
    return reports[0].elapsed_seconds;
  };
  EXPECT_GT(elapsed(10), elapsed(1));
}

TEST(AppRegistry, AcceptsEveryListedKey) {
  EXPECT_NO_THROW(apps::make_app("ring", "laps=2, bytes=16", 8));
  EXPECT_NO_THROW(apps::make_app("ring", "", 8));
  EXPECT_NO_THROW(apps::make_app("cgproxy", "iters=4,interval=0,elements=64", 8));
  EXPECT_NO_THROW(
      apps::make_app("heat3d", "nx=8,ny=8,nz=8,px=2,py=2,pz=2,iters=4,interval=2", 8));
}

TEST(AppRegistry, RejectsUnknownKeysAndMalformedValues) {
  // Each of these once ran ring's default three laps without a word.
  for (const char* bad : {"laps=1x", "lap=1", "laps=", "laps", "=1", "laps=-1",
                          "laps=4294967299", "bytes=4"}) {
    EXPECT_THROW(apps::make_app("ring", bad, 8), std::invalid_argument) << bad;
  }
  EXPECT_THROW(apps::make_app("heat3d", "px=0", 8), std::invalid_argument);
  EXPECT_THROW(apps::make_app("cgproxy", "elements=0", 8), std::invalid_argument);
  EXPECT_THROW(apps::make_app("heat3d", "laps=1", 8), std::invalid_argument);
  EXPECT_THROW(apps::make_app("bogus", "", 8), std::invalid_argument);
}

TEST(AppRegistry, RejectsAHeatGridThatDoesNotFitTheRanks) {
  // Each once threw from decompose() inside a rank's fiber: std::terminate.
  auto message_of = [](const char* params) {
    try {
      apps::make_app("heat3d", params, 8);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_NE(message_of("px=3").find("px*py*pz"), std::string::npos) << message_of("px=3");
  EXPECT_NE(message_of("nx=9").find("nx=9"), std::string::npos) << message_of("nx=9");
  EXPECT_NE(message_of("nx=8,ny=8,nz=6,px=2,py=1,pz=4").find("nz=6"), std::string::npos);
  EXPECT_NO_THROW(apps::make_app("heat3d", "nx=8,ny=4,nz=12,px=2,py=1,pz=4", 8));
}

TEST(AppRegistry, HelpListsTheKeysMakeAppChecks) {
  const std::string help = apps::app_params_help();
  EXPECT_NE(help.find("heat3d: nx,ny,nz,px,py,pz,iters,interval"), std::string::npos) << help;
  EXPECT_NE(help.find("cgproxy: iters,interval,elements"), std::string::npos) << help;
  EXPECT_NE(help.find("ring: laps,bytes"), std::string::npos) << help;
}

TEST(CgProxy, ConvergesIdenticallyWithAndWithoutFailure) {
  auto run_cg = [&](std::vector<FailureSpec> failures) {
    apps::CgProxyParams p;
    p.total_iterations = 30;
    p.checkpoint_interval = 5;
    p.local_elements = 64;
    std::vector<apps::CgProxyReport> reports(4);
    RunnerConfig rc;
    rc.base = tiny_config(4);
    rc.first_run_failures = std::move(failures);
    ResilientRunner runner(rc, apps::make_cgproxy(p, &reports));
    EXPECT_TRUE(runner.run().completed);
    return reports[0].residual;
  };
  const double clean = run_cg({});
  const double failed = run_cg({FailureSpec{2, sim_us(400)}});
  EXPECT_DOUBLE_EQ(clean, failed);
}

TEST(CgProxy, RunsWithoutCheckpointing) {
  apps::CgProxyParams p;
  p.total_iterations = 10;
  p.checkpoint_interval = 0;
  std::vector<apps::CgProxyReport> reports(3);
  core::SimConfig cfg = tiny_config(3);
  ckpt::CheckpointStore store(3);
  core::Machine machine(cfg, apps::make_cgproxy(p, &reports));
  machine.set_checkpoint_store(&store);
  SimResult r = machine.run();
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(reports[0].completed_iterations, 10);
}

}  // namespace
}  // namespace exasim
