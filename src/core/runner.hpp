#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/machine.hpp"
#include "resilience/schedule.hpp"

namespace exasim::core {

/// Configuration for a full failure/restart experiment (one Table II row).
struct RunnerConfig {
  /// Machine + application config of a single launch. `failures` and
  /// `initial_time` are managed by the runner and must be left empty/zero
  /// (deterministic extra failures go in `first_run_failures`).
  SimConfig base;

  /// System MTTF for random injection; nullopt = no random failures (the E1
  /// baseline). Times are drawn per launch, relative to launch start
  /// (paper §V-C: "applies to each application run separately").
  std::optional<SimTime> system_mttf;
  resilience::FailureDistribution distribution = resilience::FailureDistribution::kUniform2Mttf;
  std::uint64_t seed = 1;

  /// Deterministic failures injected into the first launch only (relative to
  /// its start) — used by failure-mode census experiments.
  std::vector<FailureSpec> first_run_failures;

  /// Virtual time lost to relaunching (job requeue etc.); applied per
  /// restart. The paper does not model it; default 0.
  SimTime restart_overhead = 0;

  int max_restarts = 10000;

  /// Optional path for xSim-style on-disk exit-time persistence (§IV-E).
  std::string sim_time_file;
};

/// Outcome of a failure/restart experiment.
struct RunnerResult {
  bool completed = false;

  /// Total simulated execution time including all failure/restart cycles —
  /// the paper's E2 (equal to E1 when no failures were injected).
  SimTime total_time = 0;

  /// Number of failure-caused abort/restart cycles — the paper's F.
  int failures = 0;

  /// Experienced application MTTF — the paper's MTTF_a = E2 / (F + 1).
  double app_mttf_seconds = 0;

  int launches = 0;  ///< F + 1 when completed.

  std::vector<SimResult> run_results;  ///< Per-launch details.
};

/// Orchestrates the paper's operational loop: launch the application on a
/// simulated machine; on a failure-triggered MPI abort, persist the exit
/// time, scrub incomplete checkpoints (the paper's shell script), and
/// relaunch with the virtual clock restored — until the application
/// completes (paper §III-B, §IV-E, §V).
class ResilientRunner {
 public:
  ResilientRunner(RunnerConfig config, vmpi::AppMain app);

  /// Runs launches until completion (or max_restarts). The checkpoint store
  /// persists across launches and is reachable from the application via
  /// Services::checkpoints.
  RunnerResult run();

  ckpt::CheckpointStore& checkpoints() { return store_; }

 private:
  RunnerConfig config_;
  vmpi::AppMain app_;
  ckpt::CheckpointStore store_;
};

}  // namespace exasim::core
