#include "mc/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "exp/executor.hpp"

namespace exasim::mc {
namespace {

/// One evaluated lattice point.
struct Eval {
  ScenarioOutcome outcome;
  std::uint64_t sig = 0;
};

/// Evaluated points of one row, keyed by finest-grid index.
using RowEvals = std::map<std::int64_t, Eval>;

bool usable(const Eval& e) { return e.outcome.error.empty(); }
bool activated(const Eval& e) {
  return usable(e) && e.outcome.actual_fail_time != kSimTimeNever;
}

}  // namespace

int count_missed_notifications(const core::SimResult& launch, int victim) {
  // The earliest arrival of the victim's notice at each rank: some arrival
  // falls within a rank's lifetime exactly when the earliest one does.
  const std::size_t world = launch.rank_outcomes.size();
  std::vector<std::optional<SimTime>> earliest(world);
  for (const resilience::NoticeArrival& a : launch.notice_arrivals) {
    if (a.failed_rank != victim || a.observer < 0 ||
        static_cast<std::size_t>(a.observer) >= world) {
      continue;
    }
    std::optional<SimTime>& first = earliest[static_cast<std::size_t>(a.observer)];
    if (!first || a.arrival < *first) first = a.arrival;
  }
  int missed = 0;
  for (std::size_t r = 0; r < world; ++r) {
    if (static_cast<int>(r) == victim) continue;
    const vmpi::ProcOutcome out = launch.rank_outcomes[r];
    // "Live rank the notice never reached": it ended the launch aborted (or
    // never terminated at all), so it needed the failure notice — did one
    // arrive within its lifetime? Notices can be *delivered* after the
    // rank's logical end time (a blocked process only activates a pending
    // abort at engine stall, after the event queue — including late
    // detector notices — has drained), so arrival <= end_time is the
    // informed-in-time predicate, not mere record existence.
    if (out != vmpi::ProcOutcome::kAborted && out != vmpi::ProcOutcome::kRunning) continue;
    const SimTime horizon =
        out == vmpi::ProcOutcome::kRunning ? kSimTimeNever : launch.rank_end_times[r];
    if (!earliest[r] || *earliest[r] > horizon) ++missed;
  }
  return missed;
}

ScenarioOutcome evaluate_scenario(const core::RunnerConfig& runner,
                                  const vmpi::AppMain& app, const LatticeRow& row,
                                  const LatticeSpec& spec, SimTime t) {
  core::RunnerConfig rc = runner;
  rc.system_mttf.reset();
  rc.base.failures.clear();
  rc.base.initial_time = 0;
  rc.base.detector = spec.detectors[row.detector_index];
  rc.base.ckpt_mode = ckpt::to_string(spec.policies[row.policy_index]);
  rc.first_run_failures = {FailureSpec{row.victim, t}};

  core::ResilientRunner engine(std::move(rc), app);
  const core::RunnerResult res = engine.run();

  ScenarioOutcome o;
  o.completed = res.completed;
  o.launches = res.launches;
  o.failures = res.failures;
  o.e2 = res.total_time;
  if (res.run_results.empty()) {
    o.error = "runner produced no launches";
    return o;
  }
  const core::SimResult& launch0 = res.run_results.front();
  for (const FailureSpec& f : launch0.activated_failures) {
    if (f.rank == row.victim) {
      o.actual_fail_time = f.time;
      break;
    }
  }
  o.aborted = launch0.abort_time.has_value();
  o.abort_time = launch0.abort_time.value_or(0);
  o.abort_origin = launch0.abort_origin;
  o.notices = launch0.failure_notices;
  o.max_detection_latency = launch0.max_detection_latency;
  o.mean_detection_latency =
      static_cast<SimTime>(std::llround(launch0.mean_detection_latency_sec * 1e9));
  if (o.actual_fail_time != kSimTimeNever) {
    o.missed_notifications = count_missed_notifications(launch0, row.victim);
  }
  return o;
}

McReport explore(const ExplorerConfig& config) {
  LatticeSpec spec = config.lattice;
  if (spec.victims.empty()) spec.victims = {0};
  if (spec.detectors.empty()) spec.detectors = {resilience::DetectorSpec{}};
  if (spec.policies.empty()) spec.policies = {ckpt::CkptMode::kPfs};
  const int ranks = config.runner.base.ranks;
  for (const int v : spec.victims) {
    if (v < 0 || v >= ranks) {
      throw std::invalid_argument("mc victim rank " + std::to_string(v) +
                                  " outside machine (" + std::to_string(ranks) +
                                  " ranks)");
    }
  }
  if (spec.quantum == 0) {
    const SimTime timeout = config.runner.base.net.failure_timeout;
    spec.quantum = timeout > 0 ? timeout : sim_ms(100);
  }

  exp::ParallelExecutor pool(exp::ExecutorOptions{config.jobs, {}});

  // Failure-free probe per recovery policy: the signature detrends E2
  // against these, and an open window derives its upper edge from them.
  std::vector<SimTime> baseline_e2(spec.policies.size(), 0);
  {
    auto probes = pool.map(spec.policies.size(), [&](std::size_t p) {
      core::RunnerConfig rc = config.runner;
      rc.system_mttf.reset();
      rc.first_run_failures.clear();
      rc.base.failures.clear();
      rc.base.initial_time = 0;
      rc.base.detector = spec.detectors.front();
      rc.base.ckpt_mode = ckpt::to_string(spec.policies[p]);
      core::ResilientRunner engine(std::move(rc), config.app);
      return engine.run().total_time;
    });
    for (std::size_t p = 0; p < probes.size(); ++p) {
      if (!probes[p].ok()) {
        throw std::invalid_argument("mc baseline probe failed for policy " +
                                    std::string(ckpt::to_string(spec.policies[p])) +
                                    ": " + probes[p].error);
      }
      baseline_e2[p] = *probes[p];
    }
  }
  if (spec.window_hi <= spec.window_lo) {
    const SimTime max_e2 = *std::max_element(baseline_e2.begin(), baseline_e2.end());
    // Straddle the completion boundary: injections past E2 are no-ops, and
    // having that regime in-window is what lets bisection localize the
    // boundary itself.
    spec.window_hi = max_e2 + max_e2 / 20;
  }

  const ScenarioLattice lat(spec);
  spec = lat.spec();  // Clamped grid/depth.
  const auto& rows = lat.rows();
  const std::int64_t F = lat.finest_points();

  McReport rep;
  rep.app = config.app_name;
  rep.app_params = config.app_params;
  rep.ranks = ranks;
  rep.spec = spec;
  rep.rows = rows;
  for (const auto& d : spec.detectors) rep.detector_names.push_back(resilience::to_string(d));
  for (const auto& p : spec.policies) rep.policy_names.push_back(ckpt::to_string(p));
  rep.finest_points = F;
  rep.finest_step = lat.finest_step();
  rep.raw_scenarios = lat.raw_scenarios();
  rep.baseline_runs = spec.policies.size();
  rep.baseline_e2 = baseline_e2;

  std::vector<RowEvals> evals(rows.size());
  std::uint64_t explored = 0;

  // Evaluates one wave of (row, finest-index) points. The wave is sorted and
  // mapped by item index, so the evaluated state after every wave — and
  // therefore the whole report — is byte-identical for any --jobs value.
  auto run_wave = [&](std::vector<std::pair<std::size_t, std::int64_t>> wave) {
    std::sort(wave.begin(), wave.end());
    if (spec.budget > 0 && explored + wave.size() > spec.budget) {
      wave.resize(spec.budget > explored ? spec.budget - explored : 0);
      rep.budget_exhausted = true;
    }
    if (wave.empty()) return;
    auto outcomes = pool.map(wave.size(), [&](std::size_t i) {
      const auto [row_idx, fidx] = wave[i];
      return evaluate_scenario(config.runner, config.app, rows[row_idx], spec,
                               lat.time_of(fidx));
    });
    for (std::size_t i = 0; i < wave.size(); ++i) {
      const auto [row_idx, fidx] = wave[i];
      Eval e;
      if (outcomes[i].ok()) {
        e.outcome = *outcomes[i];
      } else {
        e.outcome.error = outcomes[i].error;
        ++rep.eval_errors;
      }
      e.sig = signature_of(e.outcome, spec.quantum,
                           baseline_e2[rows[row_idx].policy_index]);
      evals[row_idx].emplace(fidx, std::move(e));
    }
    explored += wave.size();
  };

  // Wave 0: the coarse grid of every row.
  {
    std::vector<std::pair<std::size_t, std::int64_t>> wave;
    const auto initial = lat.initial_indices();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (const std::int64_t f : initial) wave.emplace_back(r, f);
    }
    run_wave(std::move(wave));
    if (config.progress) config.progress(0, explored, rep.raw_scenarios);
  }

  // Refinement waves: subdivide exactly the disagreeing intervals (all
  // intervals when pruning is off), halving the gap each round until the
  // finest grid or the budget.
  for (int d = 1; d <= spec.depth && !rep.budget_exhausted; ++d) {
    std::vector<std::pair<std::size_t, std::int64_t>> wave;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const RowEvals& row = evals[r];
      for (auto it = row.begin(); it != row.end(); ++it) {
        const auto next = std::next(it);
        if (next == row.end()) break;
        const std::int64_t gap = next->first - it->first;
        if (gap < 2) continue;
        if (spec.prune && it->second.sig == next->second.sig) continue;
        wave.emplace_back(r, it->first + gap / 2);
      }
    }
    if (wave.empty()) break;
    run_wave(std::move(wave));
    if (config.progress) config.progress(d, explored, rep.raw_scenarios);
  }
  rep.explored = explored;

  // --- classification -------------------------------------------------------
  std::map<std::uint64_t, McReport::Class> classes;
  auto credit = [&](std::uint64_t sig, std::uint64_t count, std::size_t row_idx,
                    SimTime t, const ScenarioOutcome& rep_outcome) {
    auto [it, inserted] = classes.try_emplace(sig);
    if (inserted) {
      it->second.signature = sig;
      it->second.row = row_idx;
      it->second.time = t;
      it->second.rep = rep_outcome;
    }
    it->second.covered += count;
  };
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const RowEvals& row = evals[r];
    if (row.empty()) {
      rep.unknown += static_cast<std::uint64_t>(F);
      continue;
    }
    rep.unknown += static_cast<std::uint64_t>(row.begin()->first);
    rep.unknown += static_cast<std::uint64_t>((F - 1) - row.rbegin()->first);
    for (auto it = row.begin(); it != row.end(); ++it) {
      credit(it->second.sig, 1, r, lat.time_of(it->first), it->second.outcome);
      const auto next = std::next(it);
      if (next == row.end()) continue;
      const std::int64_t gap = next->first - it->first;
      const bool same = it->second.sig == next->second.sig;
      if (gap > 1) {
        const std::uint64_t interior = static_cast<std::uint64_t>(gap - 1);
        if (same) {
          // Equivalence pruning: the interval's interior inherits the shared
          // endpoint signature without ever being simulated.
          credit(it->second.sig, interior, r, lat.time_of(it->first),
                 it->second.outcome);
          rep.pruned += interior;
        } else {
          rep.unknown += interior;
          rep.frontier.push_back({r, lat.time_of(it->first), lat.time_of(next->first)});
        }
      } else if (!same) {
        rep.boundaries.push_back({r, lat.time_of(it->first), lat.time_of(next->first)});
      }
    }
  }
  for (auto& [sig, cls] : classes) rep.classes.push_back(cls);
  std::sort(rep.classes.begin(), rep.classes.end(),
            [](const McReport::Class& a, const McReport::Class& b) {
              if (a.covered != b.covered) return a.covered > b.covered;
              return a.signature < b.signature;
            });

  // --- analyses -------------------------------------------------------------
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const RowEvals& row = evals[r];
    // Worst detection latency + missed-notification accounting.
    std::optional<std::int64_t> window_start;
    int window_missed = 0;
    auto close_window = [&](std::int64_t end_fidx) {
      if (!window_start) return;
      rep.missed_windows.push_back(
          {r, lat.time_of(*window_start), lat.time_of(end_fidx), window_missed});
      window_start.reset();
      window_missed = 0;
    };
    std::optional<std::int64_t> prev_fidx;
    for (const auto& [fidx, e] : row) {
      if (activated(e)) {
        if (e.outcome.max_detection_latency > rep.worst_latency.latency ||
            !rep.worst_latency.any) {
          rep.worst_latency = {true, r, lat.time_of(fidx),
                               e.outcome.max_detection_latency};
        }
        if (e.outcome.missed_notifications > 0) {
          ++rep.missed_scenarios;
          rep.max_missed = std::max(rep.max_missed, e.outcome.missed_notifications);
          if (!window_start) window_start = fidx;
          window_missed = std::max(window_missed, e.outcome.missed_notifications);
          prev_fidx = fidx;
          continue;
        }
      }
      if (prev_fidx) close_window(*prev_fidx);
      prev_fidx = fidx;
    }
    if (prev_fidx) close_window(*prev_fidx);

    // Non-monotonic recovery cost: between adjacent evaluated points whose
    // failures both activated, did injecting later cost more than one
    // quantum *less*? (Both-activated keeps the trivial completion cliff —
    // injection past E1 is a no-op — out of the anomaly list.)
    for (auto it = row.begin(); it != row.end(); ++it) {
      const auto next = std::next(it);
      if (next == row.end()) break;
      if (!activated(it->second) || !activated(next->second)) continue;
      if (!it->second.outcome.completed || !next->second.outcome.completed) continue;
      const std::int64_t drop =
          static_cast<std::int64_t>(it->second.outcome.e2) -
          static_cast<std::int64_t>(next->second.outcome.e2);
      if (drop > static_cast<std::int64_t>(spec.quantum)) {
        rep.non_monotonic.push_back({r, lat.time_of(it->first), lat.time_of(next->first),
                                     static_cast<SimTime>(drop)});
      }
    }
  }
  return rep;
}

}  // namespace exasim::mc
