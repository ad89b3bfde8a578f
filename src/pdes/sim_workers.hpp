#pragma once

namespace exasim {

/// Number of CPUs this process may actually use, never less than 1: hardware
/// threads, capped by the process CPU affinity mask (sched_getaffinity — a
/// `taskset`/container restriction) and by the cgroup CPU quota (v2 cpu.max
/// or v1 cfs_quota/cfs_period, rounded up). Plain hardware_concurrency()
/// oversubscribes restricted environments and the extra workers only add
/// window-barrier idle time.
int hardware_sim_workers();

/// Resolves a configured worker count (e.g. SimConfig::sim_workers) to the
/// count the engine should use: a positive request is taken literally and a
/// negative value means "auto" (hardware_sim_workers()). Throws
/// std::invalid_argument on 0.
int resolve_sim_workers(int requested);

}  // namespace exasim
