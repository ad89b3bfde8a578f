#pragma once

#include "core/runner.hpp"
#include "mc/lattice.hpp"
#include "mc/report.hpp"
#include "vmpi/process.hpp"

namespace exasim::mc {

/// Everything mc::explore needs: the lattice to answer for, the machine and
/// runner configuration every scenario shares, and the application under
/// test.
struct ExplorerConfig {
  LatticeSpec lattice;

  /// Shared per-launch machine configuration. `base.failures`,
  /// `base.initial_time`, `base.detector` and `base.ckpt_mode` are overridden
  /// per scenario; `system_mttf` / `first_run_failures` must be left empty —
  /// the explorer owns failure injection.
  core::RunnerConfig runner;

  vmpi::AppMain app;
  std::string app_name;
  std::string app_params;  ///< Echo for the report.

  /// Campaign-level parallelism (exp::resolve_jobs semantics: -1 =
  /// EXASIM_JOBS, 0 = all hardware threads).
  int jobs = -1;

  /// Per-wave progress callback (wave number, evaluations so far, raw
  /// lattice size). Optional; called from the coordinating thread only.
  std::function<void(int wave, std::uint64_t explored, std::uint64_t raw)> progress;
};

/// Runs the model-checking loop (DESIGN.md §15):
///
///  1. Failure-free probe per recovery policy -> baseline E2 (also derives
///     the injection window when the spec left it open).
///  2. Wave 0: evaluate the coarse grid of every row in parallel
///     (exp::ParallelExecutor; results keyed by item index, so any --jobs
///     value yields identical state).
///  3. Refinement waves: subdivide exactly the intervals whose endpoint
///     signatures disagree (all intervals when pruning is off), until the
///     finest grid, the budget, or convergence.
///  4. Classify, then scan for worst detection latency, missed-notification
///     windows, non-monotonic recovery cost, and boundary/frontier intervals.
///
/// Throws std::invalid_argument on an unusable spec (no victims/detectors/
/// policies, victim out of range).
McReport explore(const ExplorerConfig& config);

/// Ranks other than `victim` that needed its failure notice in `launch` and
/// did not get it in time: each rank that ended aborted with no arrival of
/// the notice at or before its end time, or never terminated and got none.
/// O(world + notice arrivals).
int count_missed_notifications(const core::SimResult& launch, int victim);

/// Evaluates a single scenario (exposed for tests): one ResilientRunner run
/// with `victim` killed at absolute time `t` under the row's detector and
/// recovery policy.
ScenarioOutcome evaluate_scenario(const core::RunnerConfig& runner,
                                  const vmpi::AppMain& app, const LatticeRow& row,
                                  const LatticeSpec& spec, SimTime t);

}  // namespace exasim::mc
