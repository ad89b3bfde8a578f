// core::Machine: configuration validation, outcomes, energy accounting,
// soft-error injection, reliability models, and measured-compute mode.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/heat3d.hpp"
#include "apps/registry.hpp"
#include "apps/ring.hpp"
#include "ckpt/checkpoint.hpp"
#include "netmodel/network.hpp"
#include "netmodel/routing.hpp"
#include "resilience/detector.hpp"
#include "resilience/schedule.hpp"
#include "sim_test_util.hpp"
#include "vmpi/context.hpp"

namespace exasim {
namespace {

using core::Machine;
using core::SimConfig;
using core::SimResult;
using test::run_app;
using resilience::ReliabilityModel;
using test::tiny_config;
using vmpi::Context;

test::QuietLogs quiet;

TEST(Machine, RejectsBadConfiguration) {
  auto noop = [](Context& ctx) { ctx.finalize(); };
  {
    SimConfig cfg = tiny_config(0);
    cfg.ranks = 0;
    EXPECT_THROW(Machine(cfg, noop), std::invalid_argument);
  }
  {
    SimConfig cfg = tiny_config(2);
    cfg.failures = {FailureSpec{5, 0}};  // Rank out of range.
    EXPECT_THROW(Machine(cfg, noop), std::invalid_argument);
  }
  {
    SimConfig cfg = tiny_config(4);
    cfg.topology = "star:2";  // Too small for 4 ranks.
    EXPECT_THROW(Machine(cfg, noop), std::invalid_argument);
  }
  for (int workers : {0, -1}) {
    SimConfig cfg = tiny_config(2);
    cfg.sim_workers = workers;  // Not a worker count (1 = sequential).
    EXPECT_THROW(Machine(cfg, noop), std::invalid_argument) << workers;
  }
}

TEST(Machine, RejectsPrebuiltNetworkTooSmallForRanks) {
  // The node-count check covers a prebuilt model like a built one: 4 ranks
  // at 1 per node need 4 nodes, and star:2 has 2. Unchecked, the contended
  // route of rank 3 would index links the topology does not have.
  auto noop = [](Context& ctx) { ctx.finalize(); };
  NetworkParams p;
  p.contention = true;
  SimConfig cfg = tiny_config(4);
  cfg.network = std::make_shared<NetworkModel>(make_topology("star:2"), p);
  EXPECT_THROW(Machine(cfg, noop), std::invalid_argument);
  // At 2 ranks per node the same 2 nodes hold them.
  cfg.network = std::make_shared<NetworkModel>(make_topology("star:2"), p, RoutingSpec{}, 2);
  cfg.ranks_per_node = 2;
  EXPECT_NO_THROW(Machine(cfg, noop));
}

TEST(Machine, RejectsPrebuiltNetworkWithOtherRanksPerNode) {
  // A prebuilt model brings its own rank-to-node mapping; a SimConfig that
  // says otherwise is a contradiction, not an override.
  auto noop = [](Context& ctx) { ctx.finalize(); };
  SimConfig cfg = tiny_config(4);
  cfg.network = std::make_shared<NetworkModel>(make_topology("star:4"), NetworkParams{});
  cfg.ranks_per_node = 2;
  EXPECT_THROW(Machine(cfg, noop), std::invalid_argument);
  NetworkLevel node, chip;
  cfg.network = std::make_shared<NetworkModel>(make_topology("star:4"), NetworkParams{}, node,
                                               chip, /*ranks_per_chip=*/2,
                                               /*chips_per_node=*/2);
  EXPECT_THROW(Machine(cfg, noop), std::invalid_argument);  // 4 per node, not 2.
  cfg.ranks_per_node = 4;
  EXPECT_NO_THROW(Machine(cfg, noop));
}

TEST(Machine, ExceptionInARanksFiberIsRethrownFromRun) {
  // A std::exception out of application or model code is a defect, not a
  // simulated outcome: the run stops and Machine::run rethrows it (it used
  // to end the whole process in std::terminate). The other ranks wait for
  // rank 1 in the barrier.
  auto app = [](Context& ctx) {
    if (ctx.rank() == 1) ctx.compute(-1.0);  // The processor model rejects negative work.
    ctx.barrier(ctx.world());
    ctx.finalize();
  };
  Machine machine(tiny_config(4), app);
  try {
    machine.run();
    ADD_FAILURE() << "Machine::run returned";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "negative work");
  }
}

TEST(Machine, InitialTimeShiftsAllClocks) {
  SimTime t0 = 0;
  SimConfig cfg = tiny_config(2);
  cfg.initial_time = sim_sec(100);  // Restart continuity (§IV-E).
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) t0 = ctx.now();
    ctx.compute(1e6);
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(t0, sim_sec(100));
  EXPECT_EQ(r.max_end_time, sim_sec(100) + sim_ms(1));
}

TEST(Machine, EnergyLedgerTracksComputeAndComm) {
  SimConfig cfg = tiny_config(2);
  cfg.power = PowerParams{};
  auto app = [](Context& ctx) {
    ctx.compute(1e9);  // 1 s busy.
    if (ctx.rank() == 0) {
      int v = 1;
      ctx.send(1, 0, &v, sizeof v);
    } else {
      int v = 0;
      ctx.recv(0, 0, &v, sizeof v);
    }
    ctx.finalize();
  };
  Machine machine(cfg, app);
  SimResult r = machine.run();
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  // 2 ranks x 1 s busy at 100 W = 200 J plus a little comm energy.
  EXPECT_GT(r.total_energy_joules, 199.0);
  EXPECT_LT(r.total_energy_joules, 210.0);
  ASSERT_NE(machine.energy(), nullptr);
  EXPECT_EQ(machine.energy()->busy_time(0), sim_sec(1));
  EXPECT_GT(machine.energy()->traffic_bytes(0), 0u);
}

TEST(Machine, SoftErrorFlipsRegisteredMemory) {
  // Paper future-work item 1: bit flip into tracked application memory.
  double value_after = 0;
  SimConfig cfg = tiny_config(1);
  cfg.soft_errors = {core::SoftErrorSpec{0, sim_ms(1), /*bit_index=*/52}};
  auto app = [&](Context& ctx) {
    double state = 1.0;
    ctx.register_memory("state", &state, sizeof state);
    ctx.compute(2e6);  // 2 ms: the flip activates mid-way.
    value_after = state;
    ctx.unregister_memory("state");
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  // Bit 52 of the double 1.0 flips a mantissa bit -> not 1.0 anymore.
  EXPECT_NE(value_after, 1.0);
  EXPECT_TRUE(std::isfinite(value_after));
}

TEST(Machine, SoftErrorWithoutRegisteredMemoryIsDropped) {
  SimConfig cfg = tiny_config(1);
  cfg.soft_errors = {core::SoftErrorSpec{0, sim_us(1), 7}};
  auto app = [](Context& ctx) {
    ctx.compute(1e6);
    ctx.finalize();
  };
  EXPECT_EQ(run_app(cfg, app).outcome, SimResult::Outcome::kCompleted);
}

TEST(Machine, MeasuredComputeFoldsNativeTime) {
  SimConfig cfg = tiny_config(1);
  cfg.process.measured_compute = true;
  cfg.proc.slowdown = 1000.0;
  SimTime t_end = 0;
  auto app = [&](Context& ctx) {
    // Burn real CPU time.
    volatile double x = 1.0;
    for (int i = 0; i < 2'000'000; ++i) x = x * 1.0000001 + 0.5;
    t_end = ctx.now();
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  // A couple million FLOPs take >= 1 ms native -> >= 1 s at 1000x slowdown.
  EXPECT_GT(t_end, sim_ms(100));
}

TEST(Machine, PrebuiltNetworkOverridesTopologySpec) {
  NetworkParams system;
  NetworkLevel node, chip;
  chip.link_latency = sim_ns(10);
  auto net = std::make_shared<NetworkModel>(make_topology("star:2"), system, node, chip, 2, 1);
  SimConfig cfg = tiny_config(4);
  cfg.network = net;
  cfg.topology = "";  // Ignored.
  cfg.ranks_per_node = 2;
  SimTime end = 0;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      int v = 1;
      ctx.send(1, 0, &v, sizeof v);  // On-chip: rank 0 -> 1.
    } else if (ctx.rank() == 1) {
      int v = 0;
      ctx.recv(0, 0, &v, sizeof v);
      end = ctx.now();
    }
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  // On-chip latency (10 ns link) keeps this well under a microsecond path.
  EXPECT_LT(end, sim_us(2));
}

TEST(Machine, EventsProcessedIsReported) {
  auto app = [](Context& ctx) {
    if (ctx.rank() == 0) {
      int v = 0;
      ctx.send(1, 0, &v, sizeof v);
    } else {
      int v = 0;
      ctx.recv(0, 0, &v, sizeof v);
    }
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(2), app);
  EXPECT_GE(r.events_processed, 3u);  // 2 starts + >=1 arrival.
}

TEST(Machine, StacksHighWaterIsTheRunsOwnPeak) {
  // Every rank waits in a barrier with its frames saved, so a run's peak is
  // about its rank count. A small run after a large one in the same process
  // reports its own peak, not the process's.
  auto app = [](Context& ctx) {
    ctx.compute(1e3);
    ctx.barrier(ctx.world());
    ctx.finalize();
  };
  const SimResult large = run_app(tiny_config(1024), app);
  const SimResult small = run_app(tiny_config(64), app);
  EXPECT_GT(large.perf.stacks_high_water, 64u);
  EXPECT_LE(large.perf.stacks_high_water, 1024u);
  EXPECT_GT(small.perf.stacks_high_water, 0u);
  EXPECT_LE(small.perf.stacks_high_water, 64u);
}

TEST(Machine, FailingHeat3dLaunchIsPinned) {
  // A heat3d launch whose rank 3 fails at 50 us aborts; every simulated
  // quantity of the aborted launch is pinned.
  apps::HeatParams p;
  p.nx = p.ny = p.nz = 8;
  p.px = p.py = p.pz = 2;
  p.total_iterations = 40;
  p.halo_interval = 10;
  p.checkpoint_interval = 10;
  core::SimConfig cfg = tiny_config(8);
  cfg.ranks_per_node = 2;
  cfg.failures = {FailureSpec{3, sim_us(50)}};
  ckpt::CheckpointStore store(8);
  const SimResult r = run_app(cfg, apps::make_heat3d(p), &store);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kAborted);
  EXPECT_EQ(r.max_end_time, 1056096u);
  EXPECT_EQ(r.min_end_time, sim_us(50));
  EXPECT_DOUBLE_EQ(r.avg_end_time_sec, 0.000930334);
  ASSERT_EQ(r.activated_failures.size(), 1u);
  EXPECT_EQ(r.activated_failures[0].rank, 3);
  EXPECT_EQ(r.activated_failures[0].time, sim_us(50));
  EXPECT_EQ(r.abort_time, 1056096u);
  EXPECT_EQ(r.abort_origin, 0);
  EXPECT_EQ(r.finished_count, 0);
  EXPECT_EQ(r.failed_count, 1);
  EXPECT_EQ(r.aborted_count, 7);
  EXPECT_TRUE(r.deadlocked_ranks.empty());
  EXPECT_EQ(r.total_busy_time, 20480u);
  EXPECT_EQ(r.total_comm_time, 1402276u);
  EXPECT_EQ(r.events_processed, 168u);
}

TEST(Machine, ResultJsonIsPinned) {
  // The emitted --result-json of two completing runs, with the wall-clock
  // tail (wall_seconds / events_per_sec) stripped exactly as
  // scripts/bench_smoke.sh does. The ring input is `exasim_run ring` with
  // rank 4 failing at 60 us, whose relaunch completes.
  auto heat = [] {
    apps::HeatParams p;
    p.nx = p.ny = p.nz = 8;
    p.px = p.py = p.pz = 2;
    p.total_iterations = 20;
    p.halo_interval = 5;
    p.checkpoint_interval = 10;
    SimConfig cfg = tiny_config(8);
    cfg.ranks_per_node = 2;
    ckpt::CheckpointStore store(8);
    return run_app(cfg, apps::make_heat3d(p), &store);
  };
  auto ring = [] {
    apps::RingParams p;
    p.laps = 10;
    p.payload_bytes = 8;
    core::RunnerConfig rc;
    rc.base = tiny_config(8);
    rc.first_run_failures = {FailureSpec{4, sim_us(60)}};
    return core::ResilientRunner(rc, apps::make_ring(p)).run().run_results.back();
  };
  const struct {
    const char* name;
    std::function<SimResult()> run;
    const char* pinned;  ///< Result-json fragment the run must emit.
  } inputs[] = {{"heat3d", heat, "\"scheduler\":\"fixed\""},
                {"ring", ring, "\"max_end_time_ns\":1300800"}};
  for (const auto& in : inputs) {
    SCOPED_TRACE(in.name);
    const std::string json = core::sim_result_json(in.run());
    EXPECT_NE(json.find(",\"wall_seconds\""), std::string::npos);
    EXPECT_NE(json.find("\"outcome\":\"completed\""), std::string::npos);
    EXPECT_NE(json.find(in.pinned), std::string::npos);
  }
}

TEST(Machine, StagedCheckpointResultJsonEchoesItsStorage) {
  // A priced storage hierarchy with staged (SCR-style) checkpointing
  // completes. Off-default runs echo storage/ckpt_mode into the json; the
  // default config must NOT grow new fields (the golden stays pinned).
  apps::HeatParams p;
  p.nx = p.ny = p.nz = 8;
  p.px = p.py = p.pz = 2;
  p.total_iterations = 20;
  p.halo_interval = 5;
  p.checkpoint_interval = 10;
  auto json_with = [&](const std::string& storage, const std::string& ckpt_mode) {
    core::SimConfig cfg = tiny_config(8);
    cfg.ranks_per_node = 2;
    cfg.storage = storage;
    cfg.ckpt_mode = ckpt_mode;
    ckpt::CheckpointStore store(8);
    std::string json = core::sim_result_json(run_app(cfg, apps::make_heat3d(p), &store));
    const std::size_t tail = json.find(",\"wall_seconds\"");
    EXPECT_NE(tail, std::string::npos);
    return json.substr(0, tail);
  };
  const std::string ref = json_with("hpc", "staged");
  EXPECT_NE(ref.find("\"outcome\":\"completed\""), std::string::npos);
  EXPECT_NE(ref.find("\"storage\":\"hpc\""), std::string::npos);
  EXPECT_NE(ref.find("\"ckpt_mode\":\"staged\""), std::string::npos);
  // Default config: no new fields, same simulated results as ever.
  const core::SimConfig defaults;
  const std::string plain = json_with(defaults.storage, defaults.ckpt_mode);
  EXPECT_EQ(plain.find("\"storage\""), std::string::npos);
  EXPECT_EQ(plain.find("\"ckpt_mode\""), std::string::npos);
}

TEST(Machine, LinkLevelNetworkDetectsThroughPerLinkTimeouts) {
  // The link-level path — adaptive routing over equal-cost route variants,
  // a per-link failure-timeout distribution, and the timeout detector
  // reading per-pair timeouts off canonical routes — on a launch that
  // aborts on a failure.
  apps::HeatParams p;
  p.nx = p.ny = p.nz = 8;
  p.px = p.py = p.pz = 2;
  p.total_iterations = 40;
  p.halo_interval = 10;
  p.checkpoint_interval = 10;
  auto run_with = [&](const char* link_timeouts) {
    core::SimConfig cfg = tiny_config(8);
    cfg.ranks_per_node = 2;
    cfg.routing = "adaptive:spread=8";
    cfg.net.failure_timeout = sim_ms(10);
    cfg.net.link_timeouts = *parse_link_timeout_spec(link_timeouts);
    cfg.detector = *resilience::parse_detector_spec("timeout");
    cfg.failures = {FailureSpec{3, sim_us(50)}};
    ckpt::CheckpointStore store(8);
    return run_app(cfg, apps::make_heat3d(p), &store);
  };
  const SimResult ref = run_with("uniform:50ms..200ms,seed=7");
  EXPECT_EQ(ref.outcome, SimResult::Outcome::kAborted);
  EXPECT_EQ(ref.routing, "adaptive:spread=8");
  EXPECT_EQ(ref.link_timeouts, "uniform:50ms..200ms,seed=7");
  // The per-link draws land in [50 ms, 200 ms], all above the 10 ms base:
  // detection is visibly slower than under the uniform timeout.
  EXPECT_GT(ref.failure_notices, 0u);
  EXPECT_GE(ref.max_detection_latency, sim_ms(50));
  EXPECT_LE(ref.max_detection_latency, sim_ms(200));
  const SimResult uniform = run_with("uniform");
  EXPECT_EQ(uniform.max_detection_latency, sim_ms(10));
  // The config echo stays out of the pinned --result-json schema.
  const std::string json = core::sim_result_json(ref);
  EXPECT_EQ(json.find("\"routing\""), std::string::npos);
  EXPECT_EQ(json.find("\"link_timeouts\""), std::string::npos);
}

// One exasim_run invocation: the CLI's option table, the app registry and the
// resilient runner, as tools/exasim_run wires them.
core::RunnerResult run_cli(std::vector<const char*> args, const std::string& app_params) {
  args.insert(args.begin(), "exasim_run");
  std::string error;
  const auto options = core::parse_cli(static_cast<int>(args.size()), args.data(), &error);
  if (!options) throw std::invalid_argument(error);
  auto app = apps::make_app(options->positional.front(), app_params, options->machine.ranks);
  return core::ResilientRunner(core::runner_config_from(*options), std::move(app)).run();
}

void expect_overflow(std::vector<const char*> args, const std::string& app_params) {
  try {
    run_cli(std::move(args), app_params);
    ADD_FAILURE() << "the run finished instead of naming the overflow";
  } catch (const std::overflow_error& e) {
    EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos) << e.what();
  }
}

TEST(Machine, SimWorkersDoNotChangeTheResult) {
  // --sim-workers is accepted and ignored: every launch's result-json and
  // counters are byte-identical at 1 and 4. The contended input (adaptive
  // routing on a contended fat tree, a contended burst-buffer tier and a
  // failure) is one whose 4-worker result differed from the 1-worker one
  // while a sharded engine approximated contention.
  const struct {
    const char* name;
    std::vector<const char*> args;
    const char* app_params;
  } inputs[] = {
      {"contended",
       {"heat3d", "--ranks=64", "--topology=fattree:16x4", "--ranks-per-node=2", "--contention",
        "--routing=adaptive", "--storage=bb:cbw=1e8,contend=1;pfs", "--ckpt-mode=staged",
        "--failures=5@2ms", "--seed=3"},
       "nx=16,ny=16,nz=16,px=4,py=4,pz=4,iters=40,interval=10"},
      {"heat3d", {"heat3d", "--ranks=8", "--seed=9"},
       "nx=8,ny=8,nz=8,px=2,py=2,pz=2,iters=40,interval=10"},
  };
  for (const auto& in : inputs) {
    SCOPED_TRACE(in.name);
    auto launches = [&](const char* workers) {
      std::vector<const char*> args = in.args;
      args.push_back(workers);
      return run_cli(args, in.app_params).run_results;
    };
    // Once first, so the pools and parked stacks that the compared runs
    // reuse already exist.
    launches("--sim-workers=1");
    const auto one = launches("--sim-workers=1");
    const auto four = launches("--sim-workers=4");
    ASSERT_EQ(one.size(), four.size());
    if (std::string(in.name) == "contended") {
      EXPECT_EQ(one.size(), 2u);  // Failed, restarted.
    }
    for (std::size_t i = 0; i < one.size(); ++i) {
      SCOPED_TRACE("launch " + std::to_string(i));
      auto stripped = [](const SimResult& r) {
        const std::string json = core::sim_result_json(r);
        return json.substr(0, json.find(",\"wall_seconds\""));
      };
      EXPECT_EQ(stripped(four[i]), stripped(one[i]));
      EXPECT_TRUE(four[i].perf == one[i].perf);
    }
  }
}

TEST(Machine, NetworkCostPastSimTimeStopsTheRun) {
  // 1e-300 B/s makes every message take forever, not about 0 s.
  expect_overflow({"ring", "--ranks=4", "--bandwidth=1e-300"}, "");
  EXPECT_EQ(run_cli({"ring", "--ranks=4", "--bandwidth=1"}, "").total_time, 96'000'036'000u);
}

TEST(Machine, ComputeCostPastSimTimeStopsTheRun) {
  const std::string heat = "nx=16,px=2,iters=10,interval=5";
  expect_overflow({"heat3d", "--ranks=8", "--ns-per-unit=1e300"}, heat);
  EXPECT_EQ(run_cli({"heat3d", "--ranks=8", "--ns-per-unit=1e12"}, heat).total_time,
            5'120'000'000'000'031'096u);
}

TEST(Machine, StorageCostPastSimTimeStopsTheRun) {
  expect_overflow({"heat3d", "--ranks=8", "--storage=pfs:bw=1e-300", "--failures=3@1ms"},
                  "nx=16,px=2,iters=10,interval=5");
}

TEST(Machine, ReliabilityDrawPastSimTimeIsNoFailure) {
  // A uniform draw in [0, 2e10 s) with this seed lands past 2^64 ns: the
  // launch sees no failure instead of one at about t = 0.
  const auto res = run_cli({"ring", "--ranks=4", "--mttf=1e10s", "--seed=6"}, "");
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.failures, 0);
  EXPECT_EQ(res.launches, 1);
  ReliabilityModel model(resilience::FailureDistribution::kUniform2Mttf, sim_sec(10'000'000'000),
                         4, 6);
  EXPECT_FALSE(model.draw().has_value());
}

TEST(ReliabilityModel, Uniform2MttfDrawsInRange) {
  ReliabilityModel m(resilience::FailureDistribution::kUniform2Mttf, sim_sec(6000), 32768, 42);
  for (int i = 0; i < 500; ++i) {
    FailureSpec f = m.draw().value();
    EXPECT_GE(f.rank, 0);
    EXPECT_LT(f.rank, 32768);
    EXPECT_LT(f.time, sim_sec(12000));
  }
}

TEST(ReliabilityModel, ExponentialMeanRoughlyMttf) {
  ReliabilityModel m(resilience::FailureDistribution::kExponential, sim_sec(100), 8, 7);
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) sum += to_seconds(m.draw()->time);
  EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(ReliabilityModel, WeibullMeanRoughlyMttf) {
  ReliabilityModel m(resilience::FailureDistribution::kWeibull, sim_sec(100), 8, 9);
  double sum = 0;
  const int n = 8000;
  for (int i = 0; i < n; ++i) sum += to_seconds(m.draw()->time);
  EXPECT_NEAR(sum / n, 100.0, 8.0);
}

TEST(ReliabilityModel, ExpectedFailuresFormulas) {
  ReliabilityModel uniform(resilience::FailureDistribution::kUniform2Mttf, sim_sec(100), 8, 1);
  EXPECT_DOUBLE_EQ(uniform.expected_failures(sim_sec(50)), 0.25);
  EXPECT_DOUBLE_EQ(uniform.expected_failures(sim_sec(500)), 1.0);  // Capped.
  ReliabilityModel expo(resilience::FailureDistribution::kExponential, sim_sec(100), 8, 1);
  EXPECT_DOUBLE_EQ(expo.expected_failures(sim_sec(50)), 0.5);
}

TEST(ReliabilityModel, RejectsBadArgs) {
  EXPECT_THROW(ReliabilityModel(resilience::FailureDistribution::kExponential, 0, 8, 1),
               std::invalid_argument);
  EXPECT_THROW(ReliabilityModel(resilience::FailureDistribution::kExponential, sim_sec(1), 0, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace exasim
