// Ablation of Table II's E1 column: failure-free execution time vs checkpoint
// interval, decomposed into compute, halo-exchange, checkpoint-write, and
// barrier contributions. Explains *why* shorter intervals cost more: each
// cycle adds a (linear-algorithm) barrier over all ranks plus the halo
// exchange the application ties to it.
//
// All 17 failure-free runs are independent simulations, so they go through
// exp::ParallelExecutor (`--jobs N` / EXASIM_JOBS) and the tables are
// assembled in fixed order afterwards — identical at any job count.

#include <cstdio>
#include <string>
#include <vector>

#include "apps/heat3d.hpp"
#include "core/runner.hpp"
#include "exp/executor.hpp"
#include "metrics/table.hpp"
#include "util/log.hpp"

using namespace exasim;

namespace {

// Scaled-down paper system: 4,096 ranks so the sweep runs in seconds.
core::SimConfig machine() {
  core::SimConfig m;
  m.ranks = 4096;
  m.topology = "torus:16x16x16";
  m.net.link_latency = sim_us(1);
  m.net.bandwidth_bytes_per_sec = 32e9;
  m.proc.slowdown = 1000.0;
  m.proc.reference_ns_per_unit = 1281.0;
  m.process.fiber_stack_bytes = 64 * 1024;
  return m;
}

struct RunSpec {
  int interval = 1000;
  bool do_halo = false;
  bool do_ckpt = false;
  /// Storage-hierarchy spec; "pfs" is the paper's free PFS.
  std::string storage = "pfs";
};

double e1_seconds(const RunSpec& spec) {
  apps::HeatParams heat;
  heat.nx = heat.ny = heat.nz = 256;  // 16^3 per rank.
  heat.px = heat.py = heat.pz = 16;
  heat.total_iterations = 1000;
  heat.halo_interval = spec.do_halo ? spec.interval : 0;
  heat.checkpoint_interval = spec.do_ckpt ? spec.interval : 0;
  heat.real_compute = false;
  core::RunnerConfig rc;
  rc.base = machine();
  rc.base.storage = spec.storage;
  return to_seconds(core::ResilientRunner(rc, apps::make_heat3d(heat)).run().total_time);
}

}  // namespace

int main(int argc, char** argv) {
  Log::set_level(LogLevel::kWarn);
  std::printf("=== E1 decomposition: checkpoint-cycle overhead vs interval ===\n");
  std::printf("(4,096 ranks, 1,000 iterations, free checkpoint I/O like the paper)\n\n");

  // With a real parallel-file-system cost model (the paper's future-work
  // item 4), checkpoint writes stop being free: a 100 GB/s PFS tier with
  // 1 ms metadata latency, as a StorageHierarchy spec.
  const std::string pfs_storage = "pfs:bw=1e11,lat=1ms";

  const std::vector<int> intervals = {1000, 500, 250, 125, 63};
  const std::vector<int> pfs_intervals = {500, 250, 125};
  std::vector<RunSpec> specs;
  specs.push_back({1000, false, false});  // Compute-only baseline.
  for (int c : intervals) {
    specs.push_back({c, true, false});  // Halo only.
    specs.push_back({c, true, true});   // Full cycle.
  }
  for (int c : pfs_intervals) {
    specs.push_back({c, true, true});               // Free I/O.
    specs.push_back({c, true, true, pfs_storage});  // PFS model.
  }

  exp::ParallelExecutor pool(exp::ExecutorOptions{exp::jobs_from_cli(argc, argv), {}});
  auto outcomes = pool.map(specs.size(), [&](std::size_t i) { return e1_seconds(specs[i]); });

  const double compute_only = *outcomes[0];
  TablePrinter table({"C", "cycles", "E1", "halo part", "ckpt+barrier part", "overhead"});
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const int c = intervals[i];
    const double halo_only = *outcomes[1 + 2 * i];
    const double full = *outcomes[2 + 2 * i];
    table.add_row({TablePrinter::integer(c), TablePrinter::integer(1000 / c),
                   TablePrinter::num(full, 2) + " s",
                   TablePrinter::num((halo_only - compute_only) * 1e3, 3) + " ms",
                   TablePrinter::num((full - halo_only) * 1e3, 3) + " ms",
                   TablePrinter::num(100.0 * (full - compute_only) / compute_only, 4) + " %"});
  }
  table.print();
  std::printf("\ncompute-only baseline: %.2f s\n", compute_only);

  std::printf("\nwith a 100 GB/s PFS model (32 KiB/rank checkpoints):\n\n");
  TablePrinter t2({"C", "E1 (free I/O)", "E1 (PFS model)", "I/O overhead"});
  const std::size_t pfs_base = 1 + 2 * intervals.size();
  for (std::size_t i = 0; i < pfs_intervals.size(); ++i) {
    const double free_io = *outcomes[pfs_base + 2 * i];
    const double pfs_io = *outcomes[pfs_base + 2 * i + 1];
    t2.add_row({TablePrinter::integer(pfs_intervals[i]), TablePrinter::num(free_io, 2) + " s",
                TablePrinter::num(pfs_io, 2) + " s",
                TablePrinter::num(pfs_io - free_io, 3) + " s"});
  }
  t2.print();
  return 0;
}
