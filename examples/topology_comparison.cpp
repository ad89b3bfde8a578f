// Hardware/software co-design sweep: run two communication-bound workloads —
// the halo-exchange-heavy heat application and the allreduce-heavy CG proxy —
// on the full interconnect zoo (torus, mesh, fat tree, dragonfly, star) and
// compare communication cost. This is the architectural what-if loop the
// xSim toolkit exists for.
//
// A second sweep turns on per-link contention (--contention semantics) and
// compares deterministic vs adaptive routing on the same fabrics: adaptive
// routing spreads flows over equal-cost minimal routes (spine choices in the
// fat tree, gateway choices in the dragonfly, dimension orders in the grids),
// relieving hot links where the topology offers path diversity.
//
// The topology x application grid is an exp::ExperimentPlan evaluated on
// exp::ParallelExecutor — pass `--jobs N` (or set EXASIM_JOBS) to evaluate
// configurations concurrently; the table is identical at any job count.
//
// Run: ./build/examples/topology_comparison [--jobs N]

#include <cstdio>
#include <string>
#include <vector>

#include "apps/cgproxy.hpp"
#include "apps/heat3d.hpp"
#include "core/runner.hpp"
#include "exp/axes.hpp"
#include "exp/executor.hpp"
#include "exp/plan.hpp"
#include "metrics/table.hpp"
#include "util/log.hpp"

using namespace exasim;

namespace {

core::SimConfig machine_on(const std::string& topo) {
  core::SimConfig machine;
  machine.ranks = 512;
  machine.topology = topo;
  machine.net.link_latency = sim_us(1);
  machine.net.bandwidth_bytes_per_sec = 32e9;
  machine.proc.slowdown = 1.0;
  machine.proc.reference_ns_per_unit = 2.0;  // Light compute: comm-bound.
  return machine;
}

double run_seconds(const core::SimConfig& machine, vmpi::AppMain app) {
  core::RunnerConfig rc;
  rc.base = machine;
  core::RunnerResult res = core::ResilientRunner(rc, std::move(app)).run();
  return to_seconds(res.total_time);
}

}  // namespace

int main(int argc, char** argv) {
  Log::set_level(LogLevel::kWarn);

  // Halo-exchange workload: nearest-neighbor messages every iteration.
  apps::HeatParams heat;
  heat.nx = heat.ny = heat.nz = 64;  // 8^3 per rank on 512 ranks.
  heat.px = heat.py = heat.pz = 8;
  heat.total_iterations = 100;
  heat.halo_interval = 1;
  heat.checkpoint_interval = 100;
  heat.real_compute = false;

  // Global-reduction workload: two allreduces per iteration.
  apps::CgProxyParams cg;
  cg.total_iterations = 100;
  cg.checkpoint_interval = 0;
  cg.local_elements = 256;
  cg.work_units_per_element = 2.0;

  // The full zoo, every fabric sized for 512 nodes.
  const std::vector<std::string> topologies = {
      "torus:8x8x8", "mesh:8x8x8", "fattree:64x8", "dragonfly:8x8x8", "star:512",
  };

  const auto plan = exp::ExperimentPlan::cross_product(
      {exp::Axis{"topology", topologies}, exp::Axis{"app", {"heat", "cg"}}});
  exp::ParallelExecutor pool(exp::ExecutorOptions{exp::jobs_from_cli(argc, argv), {}});
  auto outcomes = pool.run(plan, [&](const exp::Point& p, const exp::WorkItem&) {
    const auto machine = machine_on(topologies[p.at(0)]);
    return run_seconds(machine, p.at(1) == 0 ? apps::make_heat3d(heat)
                                             : apps::make_cgproxy(cg));
  });

  TablePrinter table({"topology", "diameter", "heat (halo)", "cg (allreduce)"});
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    const std::string& topo = topologies[i];
    const double t_heat = *outcomes[i * 2 + 0];
    const double t_cg = *outcomes[i * 2 + 1];
    table.add_row({topo, TablePrinter::integer(make_topology(topo)->diameter()),
                   TablePrinter::num(t_heat * 1e3, 3) + " ms",
                   TablePrinter::num(t_cg * 1e3, 3) + " ms"});
  }
  std::printf("512 ranks, one per node, 1 us link latency, communication-bound:\n\n");
  table.print();
  std::printf(
      "\nNearest-neighbor halo traffic favors the torus (rank-adjacent nodes are\n"
      "1 hop; the fat tree pays 2-4 hops for the same neighbors). The linear\n"
      "collectives of the CG proxy are serialization-bound at the root's NIC —\n"
      "~512 sequential messages per phase — so interconnect diameter barely\n"
      "moves them: a co-design argument for better collective algorithms, not\n"
      "more expensive networks.\n");

  // Routing x contention sweep: same halo workload with per-link occupancy
  // windows folded into delivery times. Contention modeling is exact at one
  // engine worker, the SimConfig default.
  const auto routing_axis = exp::routing_axis();
  const auto plan2 = exp::ExperimentPlan::cross_product(
      {exp::Axis{"topology", topologies}, routing_axis});
  auto outcomes2 = pool.run(plan2, [&](const exp::Point& p, const exp::WorkItem&) {
    auto machine = machine_on(topologies[p.at(0)]);
    machine.net.contention = true;
    machine.routing = routing_axis.values[p.at(1)];
    return run_seconds(machine, apps::make_heat3d(heat));
  });

  TablePrinter table2({"topology", "deterministic", "adaptive", "speedup"});
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    const double t_det = *outcomes2[i * routing_axis.values.size() + 0];
    const double t_adp = *outcomes2[i * routing_axis.values.size() + 1];
    table2.add_row({topologies[i], TablePrinter::num(t_det * 1e3, 3) + " ms",
                    TablePrinter::num(t_adp * 1e3, 3) + " ms",
                    TablePrinter::num(t_det / t_adp, 3) + "x"});
  }
  std::printf("\nheat halo with per-link contention, deterministic vs adaptive routing:\n\n");
  table2.print();
  std::printf(
      "\nWith contention on, flows queue behind busy links. Adaptive routing\n"
      "spreads each (src,dst) flow over equal-cost minimal routes — spine\n"
      "choices in the fat tree, dimension orders in the grids — so fabrics\n"
      "whose path diversity covers the bottleneck recover time. Two fabrics\n"
      "do not: the star has exactly one route per pair, and the dragonfly's\n"
      "gateway choices all funnel a group pair's traffic over the same single\n"
      "global link — spreading moves the local hops but not the bottleneck.\n"
      "Routing policy cannot fix those; only more links can.\n");
  return 0;
}
