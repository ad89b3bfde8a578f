#include "core/cli.hpp"

#include <cstdlib>
#include <sstream>

#include "ckpt/tiered.hpp"
#include "core/failure.hpp"
#include "iomodel/storage.hpp"
#include "netmodel/routing.hpp"
#include "pdes/scheduler.hpp"
#include "resilience/detector.hpp"
#include "util/log.hpp"
#include "util/parse.hpp"
#include "util/pool.hpp"

namespace exasim::core {
namespace {

bool parse_double(const std::string& v, double* out) {
  try {
    std::size_t pos = 0;
    *out = std::stod(v, &pos);
    return pos == v.size();
  } catch (...) {
    return false;
  }
}

bool parse_int(const std::string& v, long long* out) {
  try {
    std::size_t pos = 0;
    *out = std::stoll(v, &pos);
    return pos == v.size();
  } catch (...) {
    return false;
  }
}

}  // namespace

std::string cli_usage() {
  return
      "options:\n"
      "  --ranks=N --topology=SPEC --ranks-per-node=N\n"
      "  --link-latency=DUR --bandwidth=B/s --overhead=DUR\n"
      "  --eager-threshold=BYTES --failure-timeout=DUR\n"
      "  --routing=deterministic|adaptive[:spread=K]\n"
      "                   (route-variant policy over equal-cost minimal\n"
      "                    routes; adaptive spreads flows keyed by\n"
      "                    (src,dst,seq); or env EXASIM_ROUTING; default\n"
      "                    deterministic)\n"
      "  --link-timeouts=uniform[:LO..HI[,seed=N]]|hot:ID=DUR[;..]|plane:P=DUR[;..]\n"
      "                   (per-link failure-timeout overrides; pair timeout =\n"
      "                    max over the route's links; or env\n"
      "                    EXASIM_LINK_TIMEOUTS; default uniform)\n"
      "  --contention     (fold per-link occupancy waits into delivery times;\n"
      "                    exact at --sim-workers=1, approximate otherwise)\n"
      "  --slowdown=X --ns-per-unit=X\n"
      "  --pfs-bandwidth=B/s --pfs-latency=DUR\n"
      "  --storage=pfs|hpc|mem[:k=v,..];bb[:..];pfs[:..]\n"
      "                   (storage hierarchy; tier keys bw, cbw, lat, cap,\n"
      "                    contend; '+' accepted for ';'; or env\n"
      "                    EXASIM_STORAGE; default single free PFS)\n"
      "  --ckpt-mode=pfs|partner|staged\n"
      "                   (checkpoint placement: direct PFS, diskless partner\n"
      "                    copy in node memory, or partner + background drain\n"
      "                    through bb to PFS; or env EXASIM_CKPT_MODE;\n"
      "                    default pfs)\n"
      "  --failures=R@T,R@T   (or env EXASIM_FAILURES)\n"
      "  --failure-detector=paper-instant|timeout|heartbeat[:period=DUR][,miss=N]\n"
      "                   |gossip[:period=DUR][,fanout=K][,seed=N]\n"
      "                   (or env EXASIM_FAILURE_DETECTOR; when survivors\n"
      "                    learn of a failure; default paper-instant)\n"
      "  --mttf=DUR --distribution=uniform2m|exponential|weibull\n"
      "  --seed=N --max-restarts=N --stack-bytes=N\n"
      "  --measured-compute --sim-time-file=PATH --verbose\n"
      "  --replicates=N   (repeat with seeds seed..seed+N-1, report stats)\n"
      "  --jobs=N         (worker threads for replicates; 0 = all cores,\n"
      "                    default from EXASIM_JOBS)\n"
      "  --sim-workers=N|auto\n"
      "                   (engine worker threads inside one simulation;\n"
      "                    1 = sequential, auto = usable CPUs (affinity/\n"
      "                    cgroup aware), default from EXASIM_SIM_WORKERS;\n"
      "                    identical results for any N)\n"
      "  --scheduler=fixed|adaptive\n"
      "                   (window planner preset of the sharded engine;\n"
      "                    adaptive widens per-group windows inside the safe\n"
      "                    envelope and steals ready LP groups across\n"
      "                    workers; or env EXASIM_SCHEDULER; identical\n"
      "                    results for either preset)\n"
      "  --no-pool        (disable the hot-path memory pools — payloads and\n"
      "                    fiber stacks fall back to plain heap/mmap; also\n"
      "                    env EXASIM_NO_POOL=1; identical results either way)\n";
}

std::optional<CliOptions> parse_cli(int argc, const char* const* argv, std::string* error) {
  CliOptions opts;
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };

  // Environment first; explicit flags override (command line wins over
  // environment, like xSim).
  {
    auto schedule = FailureSchedule::from_env();
    if (!schedule) return fail(std::string("malformed ") + kFailureScheduleEnvVar);
    opts.machine.failures = schedule->specs();
  }
  if (const char* env = std::getenv(resilience::kDetectorEnvVar)) {
    auto spec = resilience::parse_detector_spec(env);
    if (!spec) return fail(std::string("malformed ") + resilience::kDetectorEnvVar);
    opts.machine.detector = *spec;
  }
  if (const char* env = std::getenv(kLinkTimeoutsEnvVar)) {
    auto spec = parse_link_timeout_spec(env);
    if (!spec) return fail(std::string("malformed ") + kLinkTimeoutsEnvVar);
    opts.machine.net.link_timeouts = *spec;
  }

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      opts.positional.push_back(arg);
      continue;
    }
    std::string key = arg.substr(2);
    std::string value;
    if (auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    }

    long long ll = 0;
    double d = 0;
    if (key == "ranks" && parse_int(value, &ll)) {
      opts.machine.ranks = static_cast<int>(ll);
    } else if (key == "topology" && !value.empty()) {
      opts.machine.topology = value;
    } else if (key == "ranks-per-node" && parse_int(value, &ll)) {
      opts.machine.ranks_per_node = static_cast<int>(ll);
    } else if (key == "link-latency") {
      auto t = parse_duration(value);
      if (!t) return fail("bad --link-latency");
      opts.machine.net.link_latency = *t;
    } else if (key == "bandwidth" && parse_double(value, &d)) {
      opts.machine.net.bandwidth_bytes_per_sec = d;
      opts.machine.net.injection_bandwidth_bytes_per_sec = d;
    } else if (key == "overhead") {
      auto t = parse_duration(value);
      if (!t) return fail("bad --overhead");
      opts.machine.net.per_message_overhead = *t;
    } else if (key == "eager-threshold" && parse_int(value, &ll)) {
      opts.machine.net.eager_threshold = static_cast<std::size_t>(ll);
    } else if (key == "failure-timeout") {
      auto t = parse_duration(value);
      if (!t) return fail("bad --failure-timeout");
      opts.machine.net.failure_timeout = *t;
    } else if (key == "routing") {
      if (!parse_routing_spec(value)) return fail("bad --routing");
      opts.machine.routing = value;
    } else if (key == "link-timeouts") {
      auto spec = parse_link_timeout_spec(value);
      if (!spec) return fail("bad --link-timeouts");
      opts.machine.net.link_timeouts = *spec;
    } else if (key == "contention") {
      opts.machine.net.contention = true;
    } else if (key == "slowdown" && parse_double(value, &d)) {
      opts.machine.proc.slowdown = d;
    } else if (key == "ns-per-unit" && parse_double(value, &d)) {
      opts.machine.proc.reference_ns_per_unit = d;
    } else if (key == "pfs-bandwidth" && parse_double(value, &d)) {
      opts.machine.pfs.aggregate_bandwidth_bytes_per_sec = d;
    } else if (key == "pfs-latency") {
      auto t = parse_duration(value);
      if (!t) return fail("bad --pfs-latency");
      opts.machine.pfs.metadata_latency = *t;
    } else if (key == "storage") {
      if (!parse_storage_spec(value)) return fail("bad --storage");
      opts.machine.storage = value;
    } else if (key == "ckpt-mode") {
      if (!ckpt::parse_ckpt_mode(value)) return fail("bad --ckpt-mode");
      opts.machine.ckpt_mode = value;
    } else if (key == "failures") {
      auto schedule = FailureSchedule::parse(value);
      if (!schedule) return fail("bad --failures");
      opts.machine.failures = schedule->specs();
    } else if (key == "failure-detector") {
      auto spec = resilience::parse_detector_spec(value);
      if (!spec) return fail("bad --failure-detector");
      opts.machine.detector = *spec;
    } else if (key == "mttf") {
      auto t = parse_duration(value);
      if (!t) return fail("bad --mttf");
      opts.mttf = *t;
    } else if (key == "distribution") {
      if (value == "uniform2m") {
        opts.distribution = FailureDistribution::kUniform2Mttf;
      } else if (value == "exponential") {
        opts.distribution = FailureDistribution::kExponential;
      } else if (value == "weibull") {
        opts.distribution = FailureDistribution::kWeibull;
      } else {
        return fail("bad --distribution");
      }
    } else if (key == "seed" && parse_int(value, &ll)) {
      opts.seed = static_cast<std::uint64_t>(ll);
    } else if (key == "max-restarts" && parse_int(value, &ll)) {
      opts.max_restarts = static_cast<int>(ll);
    } else if (key == "replicates" && parse_int(value, &ll)) {
      if (ll < 1) return fail("bad --replicates");
      opts.replicates = static_cast<int>(ll);
    } else if (key == "jobs" && parse_int(value, &ll)) {
      opts.jobs = static_cast<int>(ll);
    } else if (key == "sim-workers") {
      if (value == "auto") {
        opts.machine.sim_workers = -1;
      } else if (parse_int(value, &ll) && ll >= 1) {
        opts.machine.sim_workers = static_cast<int>(ll);
      } else {
        return fail("bad --sim-workers");
      }
    } else if (key == "scheduler") {
      if (!parse_scheduler_spec(value)) return fail("bad --scheduler");
      opts.machine.scheduler = value;
    } else if (key == "stack-bytes" && parse_int(value, &ll)) {
      opts.machine.process.fiber_stack_bytes = static_cast<std::size_t>(ll);
    } else if (key == "no-pool") {
      // Escape hatch for debugging/benchmarking: provenance headers let
      // blocks allocated before the flip still free correctly.
      util::set_pool_enabled(false);
      opts.no_pool = true;
    } else if (key == "measured-compute") {
      opts.machine.process.measured_compute = true;
    } else if (key == "sim-time-file") {
      opts.sim_time_file = value;
    } else if (key == "verbose") {
      opts.verbose = true;
      Log::set_level(LogLevel::kInfo);
    } else {
      return fail("unknown or malformed option: " + arg);
    }
  }

  // Unless a topology was given, default to a star big enough for the rank
  // count (the flat model every rank-pair is 2 hops away in).
  if (opts.machine.topology == SimConfig{}.topology) {
    const int nodes =
        (opts.machine.ranks + opts.machine.ranks_per_node - 1) / opts.machine.ranks_per_node;
    opts.machine.topology = "star:" + std::to_string(nodes);
  }

  if (auto bad = FailureSchedule(opts.machine.failures).first_invalid_rank(opts.machine.ranks)) {
    return fail("failure schedule rank out of range: " + std::to_string(*bad));
  }
  return opts;
}

RunnerConfig runner_config_from(const CliOptions& options) {
  RunnerConfig rc;
  rc.base = options.machine;
  rc.first_run_failures = options.machine.failures;
  rc.base.failures.clear();
  rc.system_mttf = options.mttf;
  rc.distribution = options.distribution;
  rc.seed = options.seed;
  rc.max_restarts = options.max_restarts;
  rc.sim_time_file = options.sim_time_file;
  return rc;
}

}  // namespace exasim::core
