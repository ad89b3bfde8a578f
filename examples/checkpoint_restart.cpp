// End-to-end checkpoint/restart experiment (a single Table II-style row):
// run the heat application on a simulated 4,096-node torus with random MPI
// process failures (uniform within 2*MTTF per launch, §V-C) and report
// E1, E2, F, and MTTF_a = E2/(F+1).
//
// Run: ./build/examples/checkpoint_restart [mttf_seconds] [ckpt_interval]

#include <cstdio>

#include "apps/heat3d.hpp"
#include "core/runner.hpp"
#include "util/log.hpp"
#include "util/parse.hpp"

using namespace exasim;

int main(int argc, char** argv) {
  Log::set_level(LogLevel::kInfo);

  // Defaults produce a failure-free baseline around 1.6 s of virtual time;
  // an MTTF of the same order makes failure/restart cycles likely.
  const auto mttf_arg = parse_double(argc > 1 ? argv[1] : "1");
  const auto interval_arg = parse_int(argc > 2 ? argv[2] : "50", 0, kIntMax);
  if (!mttf_arg || !interval_arg) {
    std::fprintf(stderr, "usage: checkpoint_restart [mttf_seconds] [ckpt_interval]\n");
    return 2;
  }
  const double mttf_s = *mttf_arg;
  const int ckpt_interval = static_cast<int>(*interval_arg);

  core::SimConfig machine;
  machine.ranks = 4096;
  machine.topology = "torus:16x16x16";
  machine.net.link_latency = sim_us(1);
  machine.net.bandwidth_bytes_per_sec = 32e9;
  machine.net.failure_timeout = sim_ms(100);
  machine.proc.slowdown = 100.0;
  machine.proc.reference_ns_per_unit = 10.0;
  machine.process.fiber_stack_bytes = 64 * 1024;

  apps::HeatParams heat;
  heat.nx = heat.ny = heat.nz = 256;  // 16^3 per rank.
  heat.px = heat.py = heat.pz = 16;
  heat.total_iterations = 400;
  heat.halo_interval = ckpt_interval;
  heat.checkpoint_interval = ckpt_interval;
  heat.real_compute = false;  // Modeled compute: 4,096 points/rank/iter.

  // E1: failure-free baseline.
  core::RunnerConfig base;
  base.base = machine;
  core::RunnerResult e1 = core::ResilientRunner(base, apps::make_heat3d(heat)).run();

  // E2: random failures at the requested system MTTF.
  core::RunnerConfig with_failures = base;
  with_failures.system_mttf = sim_seconds(mttf_s);
  with_failures.seed = 20130710;  // ICPP 2013.
  core::RunnerResult e2 =
      core::ResilientRunner(with_failures, apps::make_heat3d(heat)).run();

  std::printf("\nsimulated system : %d ranks, %s, node 100x slower than reference\n",
              machine.ranks, machine.topology.c_str());
  std::printf("application      : heat3d %d^3, %d iterations, checkpoint every %d\n",
              heat.nx, heat.total_iterations, ckpt_interval);
  std::printf("system MTTF      : %.0f s (uniform within 2*MTTF per launch)\n\n", mttf_s);
  std::printf("  E1 (no failures)        : %9.2f s\n", to_seconds(e1.total_time));
  std::printf("  E2 (failures+restarts)  : %9.2f s\n", to_seconds(e2.total_time));
  std::printf("  F  (failures)           : %9d\n", e2.failures);
  std::printf("  MTTF_a = E2/(F+1)       : %9.2f s\n", e2.app_mttf_seconds);
  std::printf("  lost+overhead time      : %9.2f s\n",
              to_seconds(e2.total_time) - to_seconds(e1.total_time));
  return 0;
}
