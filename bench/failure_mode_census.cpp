// Statistical version of the paper's §V-D "First Impressions": sweep many
// random single-failure injection times across the heat application's
// compute / halo / checkpoint / barrier cycle and census
//   (a) which phase the surviving ranks were in when the abort reached them
//       (detection always happens in a communication phase), and
//   (b) the state of the checkpoint store after the abort (incomplete or
//       corrupted checkpoints, partially deleted old checkpoints).
//
// The 200 trial parameters are drawn serially from one Rng (preserving the
// original draw order), then the trials themselves — independent
// simulations — run on exp::ParallelExecutor (`--jobs N` / EXASIM_JOBS) and
// the censuses are aggregated in trial order, so every counter and statistic
// is identical at any job count.

#include <cstdio>
#include <string>
#include <vector>

#include "apps/heat3d.hpp"
#include "core/machine.hpp"
#include "exp/executor.hpp"
#include "metrics/stats.hpp"
#include "metrics/table.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

using namespace exasim;

namespace {

struct TrialResult {
  bool aborted = false;
  bool has_latency = false;
  double latency = 0;
  std::vector<std::string> survivor_phases;  // In rank order.
  bool corrupted = false;
  bool incomplete = false;
  bool partial_delete = false;
};

}  // namespace

int main(int argc, char** argv) {
  Log::set_level(LogLevel::kError);
  std::printf("=== Failure-mode census (paper 5.D 'First Impressions') ===\n\n");

  core::SimConfig machine;
  machine.ranks = 64;
  machine.topology = "torus:4x4x4";
  machine.proc.slowdown = 1.0;
  machine.proc.reference_ns_per_unit = 1000.0;
  machine.net.failure_timeout = sim_ms(1);
  machine.storage = "pfs:cbw=1e6,lat=1ms";  // Visible ckpt phase.

  apps::HeatParams heat;
  heat.nx = heat.ny = heat.nz = 32;
  heat.px = heat.py = heat.pz = 4;
  heat.total_iterations = 100;
  heat.halo_interval = 25;
  heat.checkpoint_interval = 25;
  heat.real_compute = false;

  // One clean run to learn the total runtime for uniform injection.
  SimTime total;
  {
    core::SimConfig cfg = machine;
    ckpt::CheckpointStore store(machine.ranks);
    core::Machine m(cfg, apps::make_heat3d(heat));
    m.set_checkpoint_store(&store);
    total = m.run().max_end_time;
  }

  // Draw every trial's (rank, time) up front, in the original serial order.
  const int kTrials = 200;
  Rng rng(1234);
  std::vector<FailureSpec> failures;
  failures.reserve(kTrials);
  for (int trial = 0; trial < kTrials; ++trial) {
    const int rank = static_cast<int>(rng.next_below(machine.ranks));
    const SimTime t = rng.next_below(total);
    failures.push_back(FailureSpec{rank, t});
  }

  exp::ParallelExecutor pool(exp::ExecutorOptions{exp::jobs_from_cli(argc, argv), {}});
  auto outcomes = pool.map(failures.size(), [&](std::size_t trial) {
    TrialResult res;
    apps::HeatTelemetry telemetry(machine.ranks);
    apps::HeatParams p = heat;
    p.telemetry = &telemetry;
    core::SimConfig cfg = machine;
    cfg.failures = {failures[trial]};
    ckpt::CheckpointStore store(machine.ranks);
    core::Machine m(cfg, apps::make_heat3d(p));
    m.set_checkpoint_store(&store);
    core::SimResult r = m.run();

    if (r.outcome != core::SimResult::Outcome::kAborted) return res;
    res.aborted = true;
    if (r.abort_time && !r.activated_failures.empty()) {
      res.has_latency = true;
      res.latency =
          to_seconds(*r.abort_time) - to_seconds(r.activated_failures[0].time);
    }
    for (int s = 0; s < machine.ranks; ++s) {
      if (s == failures[trial].rank) continue;
      res.survivor_phases.push_back(
          apps::to_string(telemetry.last_phase[static_cast<std::size_t>(s)]));
    }
    // Checkpoint store damage.
    for (auto v : store.versions()) {
      if (store.set_complete(v)) continue;
      int files = 0;
      for (int s = 0; s < machine.ranks; ++s) {
        if (store.file_exists(v, s)) {
          ++files;
          if (!store.file_finalized(v, s)) res.corrupted = true;
        }
      }
      if (files < machine.ranks) res.incomplete = true;
    }
    // Two complete versions at abort = the old one was only partially deleted
    // (cleanup interrupted mid-cycle).
    int complete_versions = 0;
    for (auto v : store.versions()) complete_versions += store.set_complete(v) ? 1 : 0;
    res.partial_delete = complete_versions > 1;
    return res;
  });

  // Aggregate in trial order — floating-point stats stay bit-identical.
  LabelCounter survivor_phase;   // Phase of survivors when the abort landed.
  LabelCounter store_state;      // Checkpoint store damage census.
  LabelCounter outcome;
  RunningStats detect_latency;   // Failure -> abort latency.
  for (std::size_t trial = 0; trial < failures.size(); ++trial) {
    const TrialResult& res = *outcomes[trial];
    if (!res.aborted) {
      outcome.add("completed (failure past app end)");
      continue;
    }
    outcome.add("aborted");
    if (res.has_latency) detect_latency.add(res.latency);
    for (const std::string& phase : res.survivor_phases) survivor_phase.add(phase);
    if (res.corrupted) store_state.add("corrupted checkpoint file(s)");
    if (res.incomplete) store_state.add("incomplete checkpoint set");
    if (res.partial_delete) store_state.add("old checkpoint only partially deleted");
    if (!res.corrupted && !res.incomplete && !res.partial_delete) store_state.add("clean");
  }

  auto print_counter = [](const char* title, const LabelCounter& c) {
    std::printf("%s\n", title);
    TablePrinter t({"category", "count", "share"});
    for (const auto& [label, n] : c.counts()) {
      t.add_row({label, TablePrinter::integer(static_cast<long long>(n)),
                 TablePrinter::num(100.0 * static_cast<double>(n) /
                                       static_cast<double>(c.total()),
                                   1) +
                     " %"});
    }
    t.print();
    std::printf("\n");
  };

  print_counter("trial outcomes:", outcome);
  print_counter("survivor phase when the abort landed (all survivors, all trials):",
                survivor_phase);
  print_counter("checkpoint-store damage per aborted trial:", store_state);
  std::printf("failure -> abort detection latency: min %.4f s, mean %.4f s, max %.4f s\n",
              detect_latency.min(), detect_latency.mean(), detect_latency.max());
  std::printf("\nPaper's observation: failures activate mostly in the (dominant) compute\n"
              "phase but are *detected* in the halo exchange or post-checkpoint barrier,\n"
              "so aborts strand incomplete/corrupted checkpoints or partially deleted\n"
              "old checkpoints — never a tidy store.\n");
  return 0;
}
