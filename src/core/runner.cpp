#include "core/runner.hpp"

#include <stdexcept>
#include <utility>

#include "core/simtimefile.hpp"
#include "util/log.hpp"

namespace exasim::core {

ResilientRunner::ResilientRunner(RunnerConfig config, vmpi::AppMain app)
    : config_(std::move(config)), app_(std::move(app)), store_(config_.base.ranks) {
  if (!config_.base.failures.empty() || config_.base.initial_time != 0) {
    throw std::invalid_argument(
        "RunnerConfig::base.failures/initial_time are managed by the runner");
  }
}

RunnerResult ResilientRunner::run() {
  RunnerResult result;
  std::optional<resilience::ReliabilityModel> reliability;
  if (config_.system_mttf) {
    reliability.emplace(config_.distribution, *config_.system_mttf, config_.base.ranks,
                        config_.seed);
  }
  std::optional<SimTimeFile> time_file;
  if (!config_.sim_time_file.empty()) {
    time_file.emplace(config_.sim_time_file);
    time_file->reset();
  }

  SimTime accumulated = 0;
  for (int launch = 0; launch <= config_.max_restarts; ++launch) {
    SimConfig cfg = config_.base;
    cfg.initial_time = accumulated;

    // Per-launch failure schedule: one random draw per launch (paper §V-C:
    // rank uniform, time uniform within 2*MTTF, applied to each run
    // separately), plus the deterministic first-launch extras; drawn relative
    // to launch start, then shifted to absolute virtual time (§IV-E).
    if (reliability) {
      if (const auto drawn = reliability->draw()) cfg.failures.push_back(*drawn);
    }
    if (launch == 0) {
      cfg.failures.insert(cfg.failures.end(), config_.first_run_failures.begin(),
                          config_.first_run_failures.end());
    }
    for (FailureSpec& f : cfg.failures) f.time += accumulated;

    Machine machine(std::move(cfg), app_);
    machine.set_checkpoint_store(&store_);
    machine.set_run_index(launch);
    // Moved, not copied: a result holds world-sized per-rank vectors.
    const SimResult& run = result.run_results.emplace_back(machine.run());
    accumulated = run.max_end_time;
    if (time_file) time_file->save(accumulated);
    ++result.launches;

    if (run.outcome == SimResult::Outcome::kCompleted) {
      result.completed = true;
      break;
    }
    if (run.outcome == SimResult::Outcome::kDeadlock) {
      EXASIM_ERROR() << "launch " << launch << " deadlocked; stopping experiment";
      break;
    }
    // Aborted: count the failure/restart cycle, lose the checkpoint copies
    // the failures took with them (a victim's node memory, drains it was
    // sourcing, drains still in flight at abort), scrub incomplete sets (the
    // paper's pre-restart shell script), and relaunch with continuous
    // virtual time.
    if (!run.activated_failures.empty()) ++result.failures;
    store_.apply_failures(run.activated_failures, run.max_end_time);
    store_.scrub();
    accumulated += config_.restart_overhead;
  }

  result.total_time = accumulated;
  const int denominator = result.failures + 1;
  result.app_mttf_seconds = to_seconds(result.total_time) / denominator;
  return result;
}

}  // namespace exasim::core
