// Reproduces the paper's §V-D "First Impressions" narrative: inject a single
// MPI process failure at different points of the heat application's
// compute / halo / checkpoint / barrier cycle and observe
//   (a) in which phase the failure is *detected* (always a communication
//       phase, because detection is timeout-based), and
//   (b) what state the checkpoint store is left in (incomplete/corrupted
//       checkpoints, partially deleted old checkpoints).
//
// The five injection cases are independent simulations and run on
// exp::ParallelExecutor — pass `--jobs N` (or set EXASIM_JOBS).
//
// Run: ./build/examples/failure_modes [--jobs N]

#include <cstdio>

#include "apps/heat3d.hpp"
#include "core/machine.hpp"
#include "exp/executor.hpp"
#include "metrics/table.hpp"
#include "resilience/detector.hpp"
#include "util/log.hpp"

using namespace exasim;

namespace {

std::string census(const apps::HeatTelemetry& t, int failed_rank) {
  LabelCounter c;
  for (int r = 0; r < static_cast<int>(t.last_phase.size()); ++r) {
    if (r == failed_rank) continue;
    c.add(apps::to_string(t.last_phase[static_cast<std::size_t>(r)]));
  }
  std::string out;
  for (const auto& [label, n] : c.counts()) {
    if (!out.empty()) out += ", ";
    out += label + ":" + std::to_string(n);
  }
  return out;
}

std::string checkpoint_state(const ckpt::CheckpointStore& store) {
  std::string out;
  for (auto v : store.versions()) {
    if (!out.empty()) out += ", ";
    out += "v" + std::to_string(v);
    if (store.set_complete(v)) {
      out += " complete";
    } else {
      int files = 0, corrupted = 0;
      for (int r = 0; r < store.expected_ranks(); ++r) {
        if (store.file_exists(v, r)) {
          ++files;
          if (!store.file_finalized(v, r)) ++corrupted;
        }
      }
      out += " broken(" + std::to_string(files) + "/" +
             std::to_string(store.expected_ranks()) + " files";
      if (corrupted > 0) out += ", " + std::to_string(corrupted) + " corrupted";
      out += ")";
    }
  }
  return out.empty() ? "(none)" : out;
}

}  // namespace

int main(int argc, char** argv) {
  Log::set_level(LogLevel::kWarn);

  core::SimConfig machine;
  machine.ranks = 64;
  machine.topology = "torus:4x4x4";
  machine.proc.slowdown = 1.0;
  machine.proc.reference_ns_per_unit = 1000.0;  // 1 us per point update.
  machine.net.failure_timeout = sim_ms(1);
  machine.storage = "pfs:cbw=1e6,lat=1ms";  // Slow PFS: visible checkpoint phase.

  apps::HeatParams heat;
  heat.nx = heat.ny = heat.nz = 32;  // 8^3 per rank -> 512 us compute/iter.
  heat.px = heat.py = heat.pz = 4;
  heat.total_iterations = 100;
  heat.halo_interval = 25;
  heat.checkpoint_interval = 25;
  heat.real_compute = false;  // Skeleton mode; physics not needed here.

  const int kFailRank = 21;
  // Sweep the injection time across the application's cycle.
  const std::vector<std::pair<const char*, SimTime>> cases = {
      {"early compute (iter ~3)", sim_us(3 * 512)},
      {"mid compute (iter ~40)", sim_us(40 * 512 + 2000)},
      {"around halo+ckpt (iter 50)", sim_us(50 * 512 + 800)},
      {"during checkpoint write", sim_us(50 * 512 + 2500)},
      {"late compute (iter ~90)", sim_us(90 * 512 + 4000)},
  };
  // Each case runs once per detector model: the paper's instant broadcast vs
  // a heartbeat detector whose miss x period latency delays the abort vs a
  // gossip epidemic whose rounds stagger detection across the survivors.
  const std::vector<const char*> detectors = {"paper-instant", "heartbeat:period=2ms,miss=3",
                                              "gossip:period=2ms,fanout=2"};

  struct Row {
    std::string abort_at;
    std::string survivor_phases;
    std::string store_state;
  };
  exp::ParallelExecutor pool(exp::ExecutorOptions{exp::jobs_from_cli(argc, argv), {}});
  auto outcomes = pool.map(cases.size() * detectors.size(), [&](std::size_t i) {
    const std::size_t c = i / detectors.size();
    apps::HeatTelemetry telemetry(machine.ranks);
    apps::HeatParams p = heat;
    p.telemetry = &telemetry;
    core::SimConfig cfg = machine;
    cfg.failures = {FailureSpec{kFailRank, cases[c].second}};
    cfg.detector = *resilience::parse_detector_spec(detectors[i % detectors.size()]);
    ckpt::CheckpointStore store(machine.ranks);
    core::Machine m(cfg, apps::make_heat3d(p));
    m.set_checkpoint_store(&store);
    core::SimResult r = m.run();
    return Row{r.abort_time.has_value() ? format_sim_time(*r.abort_time) : "-",
               r.outcome == core::SimResult::Outcome::kAborted
                   ? census(telemetry, kFailRank)
                   : "(completed)",
               checkpoint_state(store)};
  });

  TablePrinter table({"injected at", "t_inject", "detector", "abort at",
                      "survivor phases at abort", "checkpoint store after abort"});
  for (std::size_t i = 0; i < cases.size() * detectors.size(); ++i) {
    const std::size_t c = i / detectors.size();
    table.add_row({cases[c].first, format_sim_time(cases[c].second),
                   detectors[i % detectors.size()], outcomes[i]->abort_at,
                   outcomes[i]->survivor_phases, outcomes[i]->store_state});
  }

  std::printf("Failure-mode census (paper §V-D): detection always happens in a\n"
              "communication phase; aborts strand incomplete/corrupted checkpoints.\n"
              "The heartbeat detector postpones detection (and so the abort) by up\n"
              "to miss x period beyond the instant-broadcast baseline.\n\n");
  table.print();
  return 0;
}
