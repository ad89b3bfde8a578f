#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "core/runner.hpp"

namespace exasim::core {

/// Command-line / environment configuration of a simulation, xSim-style.
///
/// The paper (§IV-B): "xSim additionally offers to pass a simulated MPI
/// process failure schedule in the form of rank/time pairs on the command
/// line or via an environment variable on startup. This is the typical
/// method for injecting failures."
///
/// Recognized options (all `--key=value`):
///   --ranks=N                 --topology=torus:32x32x32
///   --ranks-per-node=N
///   --link-latency=1us        --bandwidth=32e9        --overhead=500ns
///   --eager-threshold=262144  --failure-timeout=100ms
///   --routing=deterministic|adaptive[:spread=K]
///                             (or environment EXASIM_ROUTING)
///   --link-timeouts=uniform:LO..HI | hot:ID=DUR;.. | plane:P=DUR;..
///                             (or environment EXASIM_LINK_TIMEOUTS)
///   --contention              (per-link occupancy waits in delivery times)
///   --slowdown=1000           --ns-per-unit=1281
///   --pfs-bandwidth=0         --pfs-latency=0
///   --failures=R@T,R@T        (or environment EXASIM_FAILURES)
///   --mttf=3000s              --distribution=uniform2m|exponential|weibull
///   --seed=N                  --max-restarts=N
///   --stack-bytes=N           --measured-compute
///   --sim-time-file=PATH      --verbose
///   --replicates=N            --jobs=N
///   --sim-workers=N|auto      (or environment EXASIM_SIM_WORKERS)
///   --scheduler=fixed|adaptive
///                             (or environment EXASIM_SCHEDULER)
///   --no-pool                 (or environment EXASIM_NO_POOL=1)
struct CliOptions {
  SimConfig machine;
  std::optional<SimTime> mttf;
  FailureDistribution distribution = FailureDistribution::kUniform2Mttf;
  std::uint64_t seed = 1;
  int max_restarts = 10000;
  std::string sim_time_file;
  bool verbose = false;

  /// Replication campaign size: N > 1 repeats the whole simulation with
  /// seeds seed, seed+1, ..., seed+N-1 and reports statistics.
  int replicates = 1;

  /// Worker threads for replication campaigns: -1 = EXASIM_JOBS env default,
  /// 0 = all hardware threads. Interpreted by exp::resolve_jobs() — core
  /// itself only carries the value (layering: core must not depend on exp).
  int jobs = -1;

  /// --no-pool was given: hot-path memory pooling globally disabled (the
  /// flag also calls util::set_pool_enabled(false) as a parse side effect,
  /// mirroring the EXASIM_NO_POOL environment variable).
  bool no_pool = false;

  std::vector<std::string> positional;  ///< Non-option arguments.
};

/// Parses argv plus the EXASIM_FAILURES environment variable. Returns
/// nullopt and fills *error on malformed input.
std::optional<CliOptions> parse_cli(int argc, const char* const* argv, std::string* error);

/// The environment variable consulted for a failure schedule (paper §IV-B).
inline constexpr const char* kFailureScheduleEnvVar = "EXASIM_FAILURES";

/// One-line usage text listing the recognized options.
std::string cli_usage();

/// Builds a RunnerConfig from parsed options (failures from the schedule go
/// into the first launch; random failures come from --mttf).
RunnerConfig runner_config_from(const CliOptions& options);

}  // namespace exasim::core
