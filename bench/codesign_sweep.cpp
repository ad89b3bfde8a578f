// The capstone co-design experiment — the paper's §III-A goal (c): "the
// first holistic HPC co-design toolkit that considers architectural
// performance and resilience parameters to optimize parallel application
// performance within a given power consumption budget."
//
// Sweep architecture and software knobs — interconnect topology (the full
// zoo: torus, mesh, fat tree, dragonfly, star), collective algorithm,
// checkpoint interval — for the heat application on a machine with a given
// MTTF, and report time-to-solution (E2) and energy per completed run; then
// pick the best configuration under an energy budget.
//
// A second campaign crosses the routing-policy axis with the
// failure-detector axis on the contended fat tree: with per-link contention
// folded into delivery times, the detector's notification traffic and the
// application's recovery traffic share spine links with the halo exchange,
// so routing policy and detector family become coupled co-design knobs.
// (The fat tree is the fabric where the routing axis binds: every
// inter-leaf pair has one equal-cost route per spine, whereas torus halo
// neighbors differ in a single dimension and have a unique minimal route.)
//
// The sweeps run through exp::ParallelExecutor: each configuration is one
// independent simulation, so `--jobs N` (or EXASIM_JOBS) evaluates N
// configurations concurrently with a bit-identical result table.
// Optional: --csv=PATH / --json=PATH write machine-readable copies.

#include <cstdio>
#include <string>
#include <vector>

#include "apps/heat3d.hpp"
#include "core/runner.hpp"
#include "exp/axes.hpp"
#include "exp/executor.hpp"
#include "exp/plan.hpp"
#include "metrics/table.hpp"
#include "util/log.hpp"

using namespace exasim;

namespace {

struct Config {
  std::string topology;
  vmpi::CollectiveAlgo algo;
  int ckpt_interval;
};

struct Outcome {
  double e2_seconds = 0;
  int failures = 0;
  double joules = 0;
};

core::SimConfig codesign_machine(const std::string& topology) {
  core::SimConfig machine;
  machine.ranks = 512;
  machine.topology = topology;
  machine.net.link_latency = sim_us(1);
  machine.net.bandwidth_bytes_per_sec = 32e9;
  machine.net.failure_timeout = sim_us(100);
  machine.proc.slowdown = 1.0;
  machine.proc.reference_ns_per_unit = 20.0;  // Communication-sensitive app.
  PowerParams power;
  power.busy_watts = 100;
  power.comm_watts = 60;
  power.idle_watts = 40;
  machine.power = power;
  return machine;
}

apps::HeatParams codesign_heat(int iterations, int ckpt_interval) {
  apps::HeatParams heat;
  heat.nx = heat.ny = heat.nz = 64;
  heat.px = heat.py = heat.pz = 8;
  heat.total_iterations = iterations;
  heat.halo_interval = 1;  // Halo every iteration: topology-sensitive.
  heat.checkpoint_interval = ckpt_interval;
  heat.real_compute = false;
  return heat;
}

Outcome collect(const core::RunnerResult& res) {
  Outcome out;
  out.e2_seconds = to_seconds(res.total_time);
  out.failures = res.failures;
  for (const auto& run : res.run_results) out.joules += run.total_energy_joules;
  return out;
}

Outcome evaluate(const Config& c, SimTime mttf, std::uint64_t seed) {
  core::SimConfig machine = codesign_machine(c.topology);
  machine.process.collective_algo = c.algo;

  core::RunnerConfig rc;
  rc.base = machine;
  rc.system_mttf = mttf;
  rc.seed = seed;
  return collect(
      core::ResilientRunner(rc, apps::make_heat3d(codesign_heat(1000, c.ckpt_interval))).run());
}

std::string path_arg(int argc, char** argv, const std::string& prefix) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  Log::set_level(LogLevel::kError);
  std::printf("=== Co-design sweep: time-to-solution within an energy budget ===\n");
  std::printf("(512 ranks, heat3d 1000 iterations, halo every iteration, MTTF 30 ms;\n"
              " knobs: topology x collective algorithm x checkpoint interval)\n\n");

  const SimTime mttf = sim_ms(30);

  // The full interconnect zoo, every fabric sized for 512 nodes.
  const std::vector<std::string> topologies = {
      "torus:8x8x8", "mesh:8x8x8", "fattree:64x8", "dragonfly:8x8x8", "star:512",
  };
  const std::vector<vmpi::CollectiveAlgo> algos = {vmpi::CollectiveAlgo::kLinear,
                                                   vmpi::CollectiveAlgo::kBinomialTree};
  const std::vector<int> intervals = {500, 125, 50};

  // Same enumeration order as the old serial nested loops: topology
  // outermost, checkpoint interval innermost; single realization, seed 7.
  auto plan = exp::ExperimentPlan::cross_product(
      {exp::Axis{"topology", topologies},
       exp::Axis{"collectives", {"linear", "tree"}},
       exp::Axis{"C", {"500", "125", "50"}}},
      /*replicates=*/1, /*base_seed=*/7);
  plan.set_seed_mode(exp::SeedMode::kSequentialPerReplicate);

  exp::ParallelExecutor pool(exp::ExecutorOptions{exp::jobs_from_cli(argc, argv), {}});
  auto outcomes = pool.run(plan, [&](const exp::Point& p, const exp::WorkItem& item) {
    const Config c{topologies[p.at(0)], algos[p.at(1)], intervals[p.at(2)]};
    return evaluate(c, mttf, item.seed);
  });

  const double budget_j = 800.0;  // Energy budget per completed run.
  TablePrinter table({"topology", "collectives", "C", "E2", "F", "energy", "in budget"});
  std::size_t best_point = plan.point_count();
  double best_e2 = 1e300;
  for (std::size_t i = 0; i < plan.point_count(); ++i) {
    const exp::Point& p = plan.point(i);
    const Outcome& out = *outcomes[i];
    const bool in_budget = out.joules <= budget_j;
    table.add_row({topologies[p.at(0)], plan.axis(1).values[p.at(1)],
                   TablePrinter::integer(intervals[p.at(2)]),
                   TablePrinter::num(out.e2_seconds * 1e3, 2) + " ms",
                   TablePrinter::integer(out.failures),
                   TablePrinter::num(out.joules, 0) + " J", in_budget ? "yes" : "no"});
    if (in_budget && out.e2_seconds < best_e2) {
      best_e2 = out.e2_seconds;
      best_point = i;
    }
  }
  table.print();

  if (best_point < plan.point_count()) {
    const exp::Point& p = plan.point(best_point);
    std::printf("\nbest configuration within the %.0f J budget:\n"
                "  %s, %s collectives, checkpoint every %d iterations -> %.2f ms\n",
                budget_j, topologies[p.at(0)].c_str(),
                plan.axis(1).values[p.at(1)].c_str(), intervals[p.at(2)], best_e2 * 1e3);
  }

  // Routing x detector campaign: contended fat tree, tree collectives,
  // checkpoint every 125 iterations, with MTTF sized to the contended E2 so
  // failures land inside the run and detection latency shows up in E2.
  // The campaign runs at 64 ranks (fattree:16x4): with
  // halo traffic contending every iteration AND failure-driven restart
  // replay, the 512-node fabric costs minutes per configuration; the
  // 4-spine fat tree shows the same routing/contention coupling at a
  // bench-affordable scale.
  const auto routing_axis = exp::routing_axis();
  const auto detector_axis = exp::failure_detector_axis();
  auto plan2 = exp::ExperimentPlan::cross_product({routing_axis, detector_axis},
                                                  /*replicates=*/1, /*base_seed=*/7);
  plan2.set_seed_mode(exp::SeedMode::kSequentialPerReplicate);
  auto outcomes2 = pool.run(plan2, [&](const exp::Point& p, const exp::WorkItem& item) {
    core::SimConfig machine = codesign_machine("fattree:16x4");
    machine.ranks = 64;
    machine.process.collective_algo = vmpi::CollectiveAlgo::kBinomialTree;
    machine.proc.reference_ns_per_unit = 2.0;  // Comm-bound: contention binds.
    machine.net.contention = true;
    machine.routing = routing_axis.values[p.at(0)];
    machine.detector = exp::detector_spec_for(p.at(1));

    apps::HeatParams heat = codesign_heat(300, 125);
    heat.px = heat.py = heat.pz = 4;  // 64 ranks, 16^3 cells per rank.

    core::RunnerConfig rc;
    rc.base = machine;
    rc.system_mttf = sim_ms(20);
    rc.seed = item.seed;
    return collect(core::ResilientRunner(rc, apps::make_heat3d(heat)).run());
  });

  TablePrinter table2({"routing", "failure detector", "E2", "F", "energy"});
  for (std::size_t i = 0; i < plan2.point_count(); ++i) {
    const exp::Point& p = plan2.point(i);
    const Outcome& out = *outcomes2[i];
    table2.add_row({routing_axis.values[p.at(0)], detector_axis.values[p.at(1)],
                    TablePrinter::num(out.e2_seconds * 1e3, 3) + " ms",
                    TablePrinter::integer(out.failures),
                    TablePrinter::num(out.joules, 0) + " J"});
  }
  std::printf("\nrouting x failure detector on the contended fat tree (fattree:16x4,\n"
              "64 ranks, comm-bound heat3d, 300 iterations, tree collectives,\n"
              "checkpoint every 125, MTTF 20 ms):\n\n");
  table2.print();

  std::printf(
      "\nThis is the loop the paper's toolkit exists to close: architectural\n"
      "knobs (topology, routing policy, collective algorithm) and resilience\n"
      "knobs (checkpoint interval, failure detector) evaluated together\n"
      "against performance AND energy, under the machine's failure behavior —\n"
      "not in isolation.\n");

  if (const std::string csv = path_arg(argc, argv, "--csv="); !csv.empty()) {
    if (table.write_csv(csv)) std::printf("(CSV copy written to %s)\n", csv.c_str());
  }
  if (const std::string json = path_arg(argc, argv, "--json="); !json.empty()) {
    if (table.write_json(json)) std::printf("(JSON copy written to %s)\n", json.c_str());
  }
  return 0;
}
