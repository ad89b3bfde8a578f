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
/// Every option is one row of the table returned by cli_options(), which
/// also generates cli_usage(). A row with an EXASIM_* variable is preset
/// from the environment; the flag, when given, wins.
struct CliOptions {
  SimConfig machine;
  std::optional<SimTime> mttf;
  resilience::FailureDistribution distribution = resilience::FailureDistribution::kUniform2Mttf;
  std::uint64_t seed = 1;
  int max_restarts = 10000;
  std::string sim_time_file;
  bool verbose = false;

  /// Replication campaign size: N > 1 repeats the whole simulation with
  /// seeds seed, seed+1, ..., seed+N-1 and reports statistics.
  int replicates = 1;

  /// Worker threads for replication campaigns: -1 = EXASIM_JOBS env default,
  /// 0 = usable CPUs. Interpreted by exp::resolve_jobs() — core
  /// itself only carries the value (layering: core must not depend on exp).
  int jobs = -1;

  std::vector<std::string> positional;  ///< Non-option arguments.
};

/// One configuration option: `--flag[=VALUE]`, optionally preset by an
/// EXASIM_* environment variable.
struct CliOption {
  const char* flag;   ///< Without the leading "--".
  const char* value;  ///< Value syntax shown in the usage; nullptr = a switch.
  const char* env;    ///< Presetting environment variable; nullptr = none.
  const char* help;
  /// Applies a value (empty for a switch); false = malformed.
  bool (*apply)(CliOptions& options, const std::string& value);
};

/// The option table, in usage order.
const std::vector<CliOption>& cli_options();

/// Parses the environment variables of cli_options(), then argv (so a flag
/// wins over its variable). Returns nullopt and fills *error on malformed
/// input from either source; the error names the flag or the variable.
std::optional<CliOptions> parse_cli(int argc, const char* const* argv, std::string* error);

/// Usage text generated from cli_options().
std::string cli_usage();

/// Builds a RunnerConfig from parsed options (failures from the schedule go
/// into the first launch; random failures come from --mttf).
RunnerConfig runner_config_from(const CliOptions& options);

}  // namespace exasim::core
