// ResilientRunner: the paper's operational loop — E1/E2/F/MTTF_a accounting,
// virtual-clock continuity across restarts, checkpoint scrubbing, and
// determinism (paper §IV-E, §V-E).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "apps/heat3d.hpp"
#include "core/runner.hpp"
#include "core/simtimefile.hpp"
#include "sim_test_util.hpp"

namespace exasim {
namespace {

using apps::HeatParams;
using core::ResilientRunner;
using core::RunnerConfig;
using core::RunnerResult;

test::QuietLogs quiet;

HeatParams small_heat(int ckpt_interval) {
  HeatParams p;
  p.nx = p.ny = p.nz = 8;
  p.px = p.py = p.pz = 2;  // 8 ranks, 4^3 local cubes.
  p.total_iterations = 40;
  p.halo_interval = ckpt_interval;
  p.checkpoint_interval = ckpt_interval;
  p.real_compute = true;
  p.work_units_per_point = 1000.0;  // 64 us/iteration/rank at 1 ns/unit.
  return p;
}

RunnerConfig small_runner(int ckpt_interval) {
  RunnerConfig rc;
  rc.base = test::tiny_config(8);
  (void)ckpt_interval;
  return rc;
}

TEST(Runner, BaselineWithoutFailuresCompletesInOneLaunch) {
  RunnerConfig rc = small_runner(10);
  ResilientRunner runner(rc, apps::make_heat3d(small_heat(10)));
  RunnerResult res = runner.run();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.launches, 1);
  EXPECT_EQ(res.failures, 0);
  EXPECT_GT(res.total_time, 0u);
  EXPECT_DOUBLE_EQ(res.app_mttf_seconds, to_seconds(res.total_time));
}

TEST(Runner, DeterministicFirstRunFailureCausesOneRestart) {
  RunnerConfig rc = small_runner(10);
  // Fail rank 3 mid-run (iteration ~20 of 40).
  rc.first_run_failures = {FailureSpec{3, sim_us(20 * 64)}};
  std::vector<apps::HeatReport> reports(8);
  ResilientRunner runner(rc, apps::make_heat3d(small_heat(10), &reports));
  RunnerResult res = runner.run();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.launches, 2);
  EXPECT_EQ(res.failures, 1);
  EXPECT_EQ(reports[0].restarts_used, 1);  // Second launch restored a checkpoint.
  EXPECT_NEAR(res.app_mttf_seconds, to_seconds(res.total_time) / 2.0, 1e-12);
}

TEST(Runner, E2ExceedsE1UnderFailures) {
  // E1: no failures.
  RunnerResult e1 = ResilientRunner(small_runner(10), apps::make_heat3d(small_heat(10))).run();
  ASSERT_TRUE(e1.completed);

  // E2: random failures with an MTTF comparable to the run length.
  RunnerConfig rc = small_runner(10);
  rc.system_mttf = e1.total_time;  // Aggressive but finite.
  rc.seed = 7;
  RunnerResult e2 = ResilientRunner(rc, apps::make_heat3d(small_heat(10))).run();
  ASSERT_TRUE(e2.completed);
  if (e2.failures > 0) {
    EXPECT_GT(e2.total_time, e1.total_time);
    EXPECT_LT(e2.app_mttf_seconds, to_seconds(e2.total_time));
  } else {
    EXPECT_EQ(e2.total_time, e1.total_time);
  }
}

TEST(Runner, VirtualClockIsContinuousAcrossRestarts) {
  RunnerConfig rc = small_runner(10);
  rc.first_run_failures = {FailureSpec{1, sim_us(500)}};
  ResilientRunner runner(rc, apps::make_heat3d(small_heat(10)));
  RunnerResult res = runner.run();
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(res.run_results.size(), 2u);
  // The second launch's end time continues past the first launch's abort
  // time (clocks initialized from the persisted exit time, §IV-E).
  EXPECT_GT(res.run_results[1].max_end_time, res.run_results[0].max_end_time);
  EXPECT_EQ(res.total_time, res.run_results[1].max_end_time);
}

TEST(Runner, DeterministicAcrossRepetitions) {
  auto run_once = [] {
    RunnerConfig rc;
    rc.base = test::tiny_config(8);
    rc.system_mttf = sim_ms(3);
    rc.seed = 12345;
    ResilientRunner runner(rc, apps::make_heat3d(small_heat(5)));
    return runner.run();
  };
  RunnerResult a = run_once();
  RunnerResult b = run_once();
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.launches, b.launches);
}

TEST(Runner, SeedChangesOutcome) {
  auto run_with_seed = [](std::uint64_t seed) {
    RunnerConfig rc;
    rc.base = test::tiny_config(8);
    rc.system_mttf = sim_ms(2);
    rc.seed = seed;
    ResilientRunner runner(rc, apps::make_heat3d(small_heat(5)));
    return runner.run().total_time;
  };
  // Not guaranteed different for every pair, but these seeds diverge.
  EXPECT_NE(run_with_seed(1), run_with_seed(999));
}

TEST(Runner, RestartOverheadAccumulates) {
  RunnerConfig rc = small_runner(10);
  rc.first_run_failures = {FailureSpec{1, sim_us(500)}};
  RunnerResult without = ResilientRunner(rc, apps::make_heat3d(small_heat(10))).run();
  rc.restart_overhead = sim_sec(1);
  RunnerResult with = ResilientRunner(rc, apps::make_heat3d(small_heat(10))).run();
  ASSERT_TRUE(without.completed);
  ASSERT_TRUE(with.completed);
  EXPECT_EQ(with.total_time, without.total_time + sim_sec(1));
}

TEST(Runner, DrawnFailuresAreShiftedToEachLaunchStart) {
  // One reliability draw per launch, relative to launch start; the runner
  // shifts it to absolute virtual time: the previous launch's end plus the
  // restart overhead (paper §IV-E). A failure activates at the victim's
  // first scheduling point at or after its time, within one 64 us iteration.
  RunnerConfig rc = small_runner(5);
  rc.system_mttf = sim_ms(2);
  rc.seed = 12345;
  rc.restart_overhead = sim_us(7);
  const RunnerResult res = ResilientRunner(rc, apps::make_heat3d(small_heat(5))).run();
  resilience::ReliabilityModel reference(rc.distribution, *rc.system_mttf, 8, rc.seed);
  SimTime start = 0;
  int shifted = 0;
  for (const core::SimResult& run : res.run_results) {
    const FailureSpec drawn = reference.draw().value();
    if (!run.activated_failures.empty()) {
      const FailureSpec& activated = run.activated_failures.front();
      EXPECT_EQ(activated.rank, drawn.rank);
      EXPECT_GE(activated.time, start + drawn.time);
      EXPECT_LT(activated.time, start + drawn.time + sim_us(64));
      if (start > 0) ++shifted;
    }
    start = run.max_end_time + rc.restart_overhead;
  }
  EXPECT_GT(shifted, 0);
}

TEST(Runner, RejectsManagedFieldsInBase) {
  RunnerConfig rc;
  rc.base = test::tiny_config(2);
  rc.base.initial_time = 5;
  EXPECT_THROW(ResilientRunner(rc, apps::make_heat3d(small_heat(10))), std::invalid_argument);
}

TEST(Runner, ScrubRemovesBrokenSetsBetweenLaunches) {
  RunnerConfig rc = small_runner(10);
  // Failure at an iteration boundary likely to interrupt checkpointing at
  // some rank; regardless, after completion only complete sets remain.
  rc.first_run_failures = {FailureSpec{2, sim_us(10 * 64 + 5)}};
  ResilientRunner runner(rc, apps::make_heat3d(small_heat(10)));
  RunnerResult res = runner.run();
  ASSERT_TRUE(res.completed);
  for (auto v : runner.checkpoints().versions()) {
    EXPECT_TRUE(runner.checkpoints().set_complete(v));
  }
}

TEST(SimTimeFile, SaveLoadResetRoundTrip) {
  const std::string path = "/tmp/exasim_test_simtime.txt";
  core::SimTimeFile f(path);
  f.reset();
  EXPECT_FALSE(f.load().has_value());
  ASSERT_TRUE(f.save(sim_sec(1234)));
  EXPECT_EQ(f.load(), sim_sec(1234));
  f.reset();
  EXPECT_FALSE(f.load().has_value());
}

TEST(Runner, WritesSimTimeFileWhenConfigured) {
  const std::string path = "/tmp/exasim_test_runner_time.txt";
  RunnerConfig rc = small_runner(10);
  rc.sim_time_file = path;
  ResilientRunner runner(rc, apps::make_heat3d(small_heat(10)));
  RunnerResult res = runner.run();
  ASSERT_TRUE(res.completed);
  core::SimTimeFile f(path);
  EXPECT_EQ(f.load(), res.total_time);
  f.reset();
}


// ---- The bench_smoke golden row, eager and filtered (DESIGN.md §13) --------

/// BENCH_baseline.json's "workload": the golden row of scripts/bench_smoke.sh.
constexpr const char* kGoldenRow =
    "heat3d --ranks=1024 --topology=torus:16x8x8 --link-latency=1us --bandwidth=32e9 "
    "--overhead=500ns --eager-threshold=262144 --failure-timeout=100ms --slowdown=1000 "
    "--ns-per-unit=1281 --stack-bytes=65536 "
    "--app-params=nx=128,px=16,py=8,pz=8,iters=400,interval=50 --mttf=800s --seed=1";

std::string read_source_file(const std::string& relative) {
  std::ifstream in(std::string(EXASIM_SOURCE_DIR) + "/" + relative);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The top-level "key": value pairs of a flat JSON object, in either
/// sim_result_json's compact form or jq's sorted, indented one.
std::map<std::string, std::string> json_fields(const std::string& json) {
  static const std::regex field(R"re("(\w+)"\s*:\s*(\[[^\]]*\]|"[^"]*"|[^,}\s]+))re");
  std::map<std::string, std::string> out;
  for (std::sregex_iterator it(json.begin(), json.end(), field), end; it != end; ++it) {
    out[(*it)[1]] = (*it)[2];
  }
  return out;
}

TEST(GoldenRow, EagerAndFilteredMatchTheBenchSmokeGolden) {
  // The filter only skips resumes that could not matter, so eager and
  // filtered dispatch must both reproduce the golden. Compute is modeled:
  // the golden's PFS is free, so skipping the native stencil changes no
  // simulated byte, and the row runs in a blink.
  ASSERT_NE(read_source_file("BENCH_baseline.json").find(kGoldenRow), std::string::npos)
      << "kGoldenRow is no longer BENCH_baseline.json's workload";
  auto golden = json_fields(read_source_file("scripts/bench_smoke_result.golden.json"));
  ASSERT_EQ(golden.size(), 18u);

  std::istringstream words(kGoldenRow);
  std::vector<std::string> args{"test"};
  for (std::string w; words >> w;) {
    if (w.rfind("--app-params=", 0) != 0) args.push_back(w);
  }
  std::vector<const char*> argv;
  for (const std::string& a : args) argv.push_back(a.c_str());
  std::string error;
  const auto options = core::parse_cli(static_cast<int>(argv.size()), argv.data(), &error);
  ASSERT_TRUE(options.has_value()) << error;
  HeatParams heat;
  heat.nx = heat.ny = heat.nz = 128;
  heat.px = 16;
  heat.py = heat.pz = 8;
  heat.total_iterations = 400;
  heat.halo_interval = heat.checkpoint_interval = 50;
  heat.real_compute = false;
  const vmpi::AppMain app = apps::make_heat3d(heat);

  for (const bool eager : {false, true}) {
    SCOPED_TRACE(eager ? "eager" : "filtered");
    RunnerConfig rc = core::runner_config_from(*options);
    rc.base.process.eager_wakeup = eager;
    const RunnerResult res = ResilientRunner(rc, app).run();
    ASSERT_FALSE(res.run_results.empty());
    auto got = json_fields(core::sim_result_json(res.run_results.back()));
    got.erase("wall_seconds");
    got.erase("events_per_sec");
    EXPECT_EQ(got, golden);
    const std::uint64_t suppressed = res.run_results.back().perf.wakeups_suppressed;
    if (eager) {
      EXPECT_EQ(suppressed, 0u);
    } else {
      EXPECT_GT(suppressed, 0u);
    }
  }
}

}  // namespace
}  // namespace exasim
