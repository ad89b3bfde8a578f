// core::cli — xSim-style command-line / environment configuration,
// including the paper's failure-schedule environment variable (§IV-B).

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <set>

#include "core/cli.hpp"
#include "iomodel/storage.hpp"
#include "netmodel/routing.hpp"
#include "resilience/detector.hpp"
#include "sim_test_util.hpp"
#include "util/parse.hpp"
#include "vmpi/context.hpp"

namespace exasim {
namespace {

using core::CliOptions;
using core::parse_cli;

std::optional<CliOptions> parse(std::initializer_list<const char*> args,
                                std::string* error = nullptr) {
  std::vector<const char*> argv{"exasim_run"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::string local;
  return parse_cli(static_cast<int>(argv.size()), argv.data(),
                   error != nullptr ? error : &local);
}

/// Clears every EXASIM_* variable of the option table for one test and
/// restores the previous values afterwards, so the tests see the documented
/// defaults even when the suite runs under an environment leg.
class Cli : public ::testing::Test {
 protected:
  Cli() {
    for (const core::CliOption& o : core::cli_options()) {
      if (o.env == nullptr) continue;
      if (const char* v = std::getenv(o.env)) saved_.emplace_back(o.env, v);
      ::unsetenv(o.env);
    }
  }
  ~Cli() override {
    for (const core::CliOption& o : core::cli_options()) {
      if (o.env != nullptr) ::unsetenv(o.env);
    }
    for (const auto& [name, value] : saved_) ::setenv(name.c_str(), value.c_str(), 1);
  }

 private:
  std::vector<std::pair<std::string, std::string>> saved_;
};

TEST_F(Cli, DefaultsAreSane) {
  auto opts = parse({});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->machine.ranks, 1);
  EXPECT_TRUE(opts->machine.failures.empty());
  EXPECT_FALSE(opts->mttf.has_value());
}

TEST_F(Cli, ParsesMachineOptions) {
  auto opts = parse({"--ranks=4096", "--topology=torus:16x16x16", "--link-latency=2us",
                     "--bandwidth=32e9", "--eager-threshold=262144",
                     "--failure-timeout=100ms", "--slowdown=1000", "--ns-per-unit=1281",
                     "--stack-bytes=65536"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->machine.ranks, 4096);
  EXPECT_EQ(opts->machine.topology, "torus:16x16x16");
  EXPECT_EQ(opts->machine.net.link_latency, sim_us(2));
  EXPECT_DOUBLE_EQ(opts->machine.net.bandwidth_bytes_per_sec, 32e9);
  EXPECT_EQ(opts->machine.net.eager_threshold, 262144u);
  EXPECT_EQ(opts->machine.net.failure_timeout, sim_ms(100));
  EXPECT_DOUBLE_EQ(opts->machine.proc.slowdown, 1000.0);
  EXPECT_EQ(opts->machine.process.fiber_stack_bytes, 65536u);
}

TEST_F(Cli, ParsesFailureScheduleOption) {
  auto opts = parse({"--ranks=100", "--failures=12@3s,77@1.5s"});
  ASSERT_TRUE(opts.has_value());
  ASSERT_EQ(opts->machine.failures.size(), 2u);
  EXPECT_EQ(opts->machine.failures[0], (FailureSpec{12, sim_sec(3)}));
  EXPECT_EQ(opts->machine.failures[1], (FailureSpec{77, sim_seconds(1.5)}));
}

TEST_F(Cli, ReadsScheduleFromEnvironment) {
  // Paper §IV-B: schedule "via an environment variable on startup".
  ::setenv("EXASIM_FAILURES", "3@250ms", 1);
  auto opts = parse({"--ranks=8"});
  ASSERT_TRUE(opts.has_value());
  ASSERT_EQ(opts->machine.failures.size(), 1u);
  EXPECT_EQ(opts->machine.failures[0], (FailureSpec{3, sim_ms(250)}));
}

TEST_F(Cli, CommandLineOverridesEnvironment) {
  ::setenv("EXASIM_FAILURES", "3@250ms", 1);
  auto opts = parse({"--ranks=8", "--failures=1@1s"});
  ASSERT_TRUE(opts.has_value());
  ASSERT_EQ(opts->machine.failures.size(), 1u);
  EXPECT_EQ(opts->machine.failures[0].rank, 1);
}

TEST_F(Cli, ValidatesScheduleRanks) {
  std::string error;
  EXPECT_FALSE(parse({"--ranks=4", "--failures=9@1s"}, &error).has_value());
  EXPECT_NE(error.find("out of range"), std::string::npos);
}

TEST_F(Cli, ParsesExperimentOptions) {
  auto opts = parse({"--mttf=3000s", "--distribution=exponential", "--seed=77",
                     "--max-restarts=5", "--sim-time-file=/tmp/t.txt"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->mttf, sim_sec(3000));
  EXPECT_EQ(opts->distribution, resilience::FailureDistribution::kExponential);
  EXPECT_EQ(opts->seed, 77u);
  EXPECT_EQ(opts->max_restarts, 5);
  EXPECT_EQ(opts->sim_time_file, "/tmp/t.txt");
}

TEST_F(Cli, ParsesSimWorkers) {
  auto defaulted = parse({"--ranks=8"});
  ASSERT_TRUE(defaulted.has_value());
  EXPECT_EQ(defaulted->machine.sim_workers, 1);  // Accepted, no effect.
  auto literal = parse({"--sim-workers=4"});
  ASSERT_TRUE(literal.has_value());
  EXPECT_EQ(literal->machine.sim_workers, 4);
  for (auto bad : {"--sim-workers=0", "--sim-workers=-1", "--sim-workers=auto",
                   "--sim-workers=x"}) {
    std::string error;
    EXPECT_FALSE(parse({bad}, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST_F(Cli, ParsesRoutingAndLinkModel) {
  auto defaulted = parse({"--ranks=8"});
  ASSERT_TRUE(defaulted.has_value());
  EXPECT_EQ(defaulted->machine.routing, "deterministic");
  EXPECT_TRUE(defaulted->machine.net.link_timeouts.uniform());
  EXPECT_FALSE(defaulted->machine.net.contention);

  auto tuned = parse({"--routing=adaptive:spread=8",
                      "--link-timeouts=hot:0=500ms,3=2s", "--contention"});
  ASSERT_TRUE(tuned.has_value());
  EXPECT_EQ(tuned->machine.routing, "adaptive:spread=8");
  EXPECT_EQ(tuned->machine.net.link_timeouts.kind, LinkTimeoutKind::kHot);
  ASSERT_EQ(tuned->machine.net.link_timeouts.hot.size(), 2u);
  EXPECT_EQ(tuned->machine.net.link_timeouts.hot[0],
            (std::pair<std::uint64_t, SimTime>{0, sim_ms(500)}));
  EXPECT_TRUE(tuned->machine.net.contention);

  auto dist = parse({"--link-timeouts=uniform:50ms..200ms,seed=7"});
  ASSERT_TRUE(dist.has_value());
  EXPECT_EQ(dist->machine.net.link_timeouts.kind, LinkTimeoutKind::kDistribution);
  EXPECT_EQ(dist->machine.net.link_timeouts.seed, 7u);

  for (auto bad : {"--routing=bogus", "--routing=adaptive:spread=0",
                   "--routing=deterministic:spread=2", "--link-timeouts=bogus",
                   "--link-timeouts=uniform:200ms..50ms", "--link-timeouts=plane:x=1s"}) {
    std::string error;
    EXPECT_FALSE(parse({bad}, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST_F(Cli, ParsesStorageAndCkptMode) {
  auto defaulted = parse({"--ranks=8"});
  ASSERT_TRUE(defaulted.has_value());
  EXPECT_EQ(defaulted->machine.storage, "pfs");
  EXPECT_EQ(defaulted->machine.ckpt_mode, "pfs");

  auto tiered = parse({"--storage=hpc", "--ckpt-mode=staged"});
  ASSERT_TRUE(tiered.has_value());
  EXPECT_EQ(tiered->machine.storage, "hpc");
  EXPECT_EQ(tiered->machine.ckpt_mode, "staged");

  auto custom = parse({"--storage=mem:cbw=5e10,cap=4e9;bb:lat=10us;pfs:bw=1e11,lat=1ms",
                       "--ckpt-mode=partner"});
  ASSERT_TRUE(custom.has_value());
  EXPECT_EQ(custom->machine.storage, "mem:cbw=5e10,cap=4e9;bb:lat=10us;pfs:bw=1e11,lat=1ms");
  EXPECT_EQ(custom->machine.ckpt_mode, "partner");

  for (auto bad : {"--storage=bogus", "--storage=mem", "--storage=pfs;mem",
                   "--storage=pfs:bw=1e999", "--storage=pfs:bw=1e9x",
                   "--storage=pfs:contend=2", "--ckpt-mode=scr", "--ckpt-mode=",
                   "--pfs-bandwidth=1e6", "--pfs-latency=1ms"}) {
    std::string error;
    EXPECT_FALSE(parse({bad}, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST_F(Cli, RejectsMalformedOptions) {
  // --scheduler and --speculate are unknown: the engine has one sequential
  // loop (DESIGN.md §8). --no-pool is unknown: the memory pools have
  // no switch (DESIGN.md §9).
  for (auto bad : {"--ranks=abc", "--mttf=xyz", "--distribution=bogus", "--unknown=1",
                   "--failures=nope", "--ranks", "--verbose=1", "--replicates=0",
                   "--scheduler=fixed", "--speculate=8", "--no-pool"}) {
    std::string error;
    EXPECT_FALSE(parse({bad}, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty());
  }
}

// A value its option's type cannot hold, or its model cannot run, is an
// error naming the flag. Each of these once started a run with a different
// value (a truncated rank count, SIZE_MAX, a wrapped seed) or crashed.
TEST_F(Cli, RejectsValuesOutsideTheOptionsRange) {
  for (const std::string bad : {
           "--ranks=4294967298",    // Ran 2 ranks.
           "--ranks-per-node=0",    // SIGFPE in the default topology.
           "--eager-threshold=-1",  // SIZE_MAX.
           "--jobs=-3",             // The EXASIM_JOBS default.
           "--bandwidth=0",         // std::terminate at the first message.
           "--ranks=0", "--ranks=8x", "--seed=-1", "--stack-bytes=-1", "--max-restarts=-1",
           "--bandwidth=nan", "--slowdown=0", "--ns-per-unit=-1", "--mttf=1e30s",
           "--sim-workers=4294967297"}) {
    std::string error;
    EXPECT_FALSE(parse({bad.c_str()}, &error).has_value()) << bad;
    EXPECT_NE(error.find(bad.substr(0, bad.find('='))), std::string::npos) << error;
  }
}

TEST_F(Cli, KeepsEveryInRangeSpelling) {
  auto opts = parse({"--ranks=+8", "--ranks-per-node=2", "--eager-threshold=0", "--jobs=0",
                     "--seed=18446744073709551615", "--bandwidth=3.2e10", "--slowdown=0.5",
                     "--ns-per-unit=0", "--max-restarts=0", "--stack-bytes=65536"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->machine.ranks, 8);
  EXPECT_EQ(opts->machine.topology, "star:4");
  EXPECT_EQ(opts->machine.net.eager_threshold, 0u);
  EXPECT_EQ(opts->jobs, 0);
  EXPECT_EQ(opts->seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(opts->machine.net.bandwidth_bytes_per_sec, 3.2e10);
  EXPECT_EQ(opts->machine.proc.slowdown, 0.5);
  EXPECT_EQ(opts->max_restarts, 0);
  EXPECT_EQ(opts->machine.process.fiber_stack_bytes, 65536u);
}

// Every routing, link-timeout, storage and detector spelling in scripts/, the
// goldens and the README, with the canonical string result-json and reports
// print for it. The renderings must not move.
TEST(SpecSpellings, RenderTheSameCanonicalString) {
  struct Case {
    std::string (*render)(const std::string&);
    const char* text;
    const char* canonical;
  };
  auto routing = [](const std::string& t) { return to_string(*parse_routing_spec(t)); };
  auto links = [](const std::string& t) { return to_string(*parse_link_timeout_spec(t)); };
  auto storage = [](const std::string& t) { return to_string(*parse_storage_spec(t)); };
  auto detector = [](const std::string& t) {
    return resilience::to_string(*resilience::parse_detector_spec(t));
  };
  const Case cases[] = {
      {routing, "deterministic", "deterministic"},
      {routing, "adaptive", "adaptive"},
      {routing, "adaptive:spread=8", "adaptive:spread=8"},
      {routing, "adaptive:spread=4", "adaptive"},
      {links, "uniform", "uniform"},
      {links, "uniform:50ms..200ms,seed=7", "uniform:50ms..200ms,seed=7"},
      {links, "uniform:0..1.5s", "uniform:0s..1500ms"},
      {links, "hot:0=500ms,7=2s", "hot:0=500ms;7=2s"},
      {links, "plane:0=300ms", "plane:0=300ms"},
      {storage, "pfs", "pfs"},
      {storage, "hpc", "hpc"},
      {storage, "pfs:lat=1ms", "pfs:lat=1ms"},
      {storage, "mem:cbw=5e10,cap=4e9;bb:lat=10us;pfs:bw=1e11,lat=1ms",
       "mem:cbw=50000000000,cap=4000000000;bb:lat=10us;pfs:bw=100000000000,lat=1ms"},
      {storage, "bb:lat=10us,contend=1+pfs:bw=1e11",
       "bb:lat=10us,contend=1;pfs:bw=100000000000"},
      {detector, "paper-instant", "paper-instant"},
      {detector, "timeout", "timeout"},
      {detector, "heartbeat", "heartbeat:period=auto,miss=3"},
      {detector, "gossip", "gossip:period=auto,fanout=2,seed=1"},
      {detector, "gossip:period=auto,fanout=2,seed=1", "gossip:period=auto,fanout=2,seed=1"},
      {detector, "gossip:period=1ms,fanout=2", "gossip:period=1ms,fanout=2,seed=1"},
      {detector, "heartbeat:period=100ms,miss=3", "heartbeat:period=100ms,miss=3"},
      {detector, "heartbeat:period=1.5s", "heartbeat:period=1500ms,miss=3"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.render(c.text), c.canonical) << c.text;
    EXPECT_EQ(c.render(c.canonical), c.canonical) << c.canonical;
  }
}

TEST_F(Cli, RejectsMalformedEnvironment) {
  ::setenv("EXASIM_FAILURES", "garbage", 1);
  std::string error;
  EXPECT_FALSE(parse({}, &error).has_value());
}

TEST_F(Cli, CollectsPositionalArguments) {
  auto opts = parse({"heat3d", "--ranks=8"});
  ASSERT_TRUE(opts.has_value());
  ASSERT_EQ(opts->positional.size(), 1u);
  EXPECT_EQ(opts->positional[0], "heat3d");
}

TEST_F(Cli, RunnerConfigMovesScheduleToFirstLaunch) {
  auto opts = parse({"--ranks=16", "--failures=2@1s", "--mttf=100s", "--seed=5"});
  ASSERT_TRUE(opts.has_value());
  core::RunnerConfig rc = core::runner_config_from(*opts);
  EXPECT_TRUE(rc.base.failures.empty());
  ASSERT_EQ(rc.first_run_failures.size(), 1u);
  EXPECT_EQ(rc.first_run_failures[0].rank, 2);
  EXPECT_EQ(rc.system_mttf, sim_sec(100));
  EXPECT_EQ(rc.seed, 5u);
}

// ---- Every environment variable of the option table -----------------------

/// One EXASIM_* variable: a valid value for it, a different valid value for
/// its flag, and the CliOptions field both set (as a string).
struct EnvCase {
  const char* env;
  const char* flag;
  const char* env_value;
  const char* flag_value;
  std::string (*field)(const CliOptions&);
};

const EnvCase kEnvCases[] = {
    {"EXASIM_CKPT_MODE", "--ckpt-mode", "staged", "partner",
     [](const CliOptions& o) { return o.machine.ckpt_mode; }},
    {"EXASIM_FAILURES", "--failures", "3@250ms", "1@1s",
     [](const CliOptions& o) { return format_failure_schedule(o.machine.failures); }},
};

class CliEnvVar : public Cli, public ::testing::WithParamInterface<EnvCase> {};

TEST_P(CliEnvVar, AppliesRejectsMalformedAndLosesToTheFlag) {
  const EnvCase& c = GetParam();
  const std::string flag = std::string(c.flag) + "=" + c.flag_value;
  auto defaulted = parse({"--ranks=8"});
  auto flagged = parse({"--ranks=8", flag.c_str()});
  ASSERT_TRUE(defaulted.has_value());
  ASSERT_TRUE(flagged.has_value());

  ::setenv(c.env, c.env_value, 1);
  auto from_env = parse({"--ranks=8"});
  ASSERT_TRUE(from_env.has_value());
  EXPECT_NE(c.field(*from_env), c.field(*defaulted));  // The variable applies.
  EXPECT_NE(c.field(*from_env), c.field(*flagged));
  auto both = parse({"--ranks=8", flag.c_str()});
  ASSERT_TRUE(both.has_value());
  EXPECT_EQ(c.field(*both), c.field(*flagged));  // The flag wins.

  // A malformed value is an error naming the variable, flag or no flag.
  ::setenv(c.env, "garbage", 1);
  for (auto args : {std::vector<const char*>{"--ranks=8"},
                    std::vector<const char*>{"--ranks=8", flag.c_str()}}) {
    std::string error;
    args.insert(args.begin(), "exasim_run");
    EXPECT_FALSE(parse_cli(static_cast<int>(args.size()), args.data(), &error).has_value());
    EXPECT_NE(error.find(c.env), std::string::npos) << error;
  }
  // The same value as a flag is rejected too, naming the flag.
  const std::string bad_flag = std::string(c.flag) + "=garbage";
  ::unsetenv(c.env);
  std::string error;
  EXPECT_FALSE(parse({"--ranks=8", bad_flag.c_str()}, &error).has_value());
  EXPECT_NE(error.find(c.flag), std::string::npos) << error;
}

INSTANTIATE_TEST_SUITE_P(AllTableVariables, CliEnvVar, ::testing::ValuesIn(kEnvCases),
                         [](const ::testing::TestParamInfo<EnvCase>& info) {
                           return std::string(info.param.env);
                         });

TEST(CliTable, EveryEnvironmentVariableHasACase) {
  std::set<std::string> table;
  std::set<std::string> cases;
  for (const core::CliOption& o : core::cli_options()) {
    if (o.env != nullptr) table.insert(o.env);
  }
  for (const EnvCase& c : kEnvCases) cases.insert(c.env);
  EXPECT_EQ(table, cases);
}

TEST(CliTable, UsageListsEveryOption) {
  const std::string usage = core::cli_usage();
  for (const core::CliOption& o : core::cli_options()) {
    EXPECT_NE(usage.find(std::string("--") + o.flag), std::string::npos) << o.flag;
    if (o.env != nullptr) {
      EXPECT_NE(usage.find(o.env), std::string::npos) << o.env;
    }
  }
  // The one host switch outside the table.
  EXPECT_NE(usage.find("EXASIM_JOBS"), std::string::npos);
}

// The tier-1 environment legs reach their suites only through tiny_config():
// if it stopped seeing the environment, those legs would quietly run with
// the default presets.
TEST_F(Cli, EnvironmentReachesTinyConfig) {
  test::QuietLogs quiet;
  ::setenv("EXASIM_CKPT_MODE", "staged", 1);
  auto app = [](vmpi::Context& ctx) {
    for (int i = 0; i < 4; ++i) {
      ctx.compute(1e3);
      ctx.barrier(ctx.world());
    }
    ctx.finalize();
  };
  const core::SimResult r = test::run_app(test::tiny_config(4), app);
  EXPECT_EQ(r.outcome, core::SimResult::Outcome::kCompleted);
  EXPECT_EQ(r.ckpt_mode, "staged");
}

}  // namespace
}  // namespace exasim
