#include "pdes/sim_workers.hpp"

#include <cstdio>
#include <stdexcept>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace exasim {

namespace {

/// CPUs allowed by the process affinity mask, 0 when unknown. A container or
/// `taskset` can restrict the process to far fewer CPUs than the machine has;
/// std::thread::hardware_concurrency() is allowed to (and on glibc does not)
/// reflect that, so ask the kernel directly.
int affinity_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
  return 0;
}

/// CPUs implied by the cgroup CPU quota (cgroup v2 `cpu.max`, then cgroup v1
/// cfs_quota/cfs_period), rounded up; 0 when unlimited or unknown. Kubernetes
/// and CI runners typically cap simulators this way without shrinking the
/// affinity mask, and oversubscribing the quota just adds barrier idle time.
int cgroup_quota_cpus() {
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/sys/fs/cgroup/cpu.max", "r")) {
    char buf[64] = {0};
    const std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    if (got > 0) {
      long long quota = 0;
      long long period = 0;
      if (std::sscanf(buf, "%lld %lld", &quota, &period) == 2 && quota > 0 && period > 0) {
        return static_cast<int>((quota + period - 1) / period);
      }
      // "max <period>" means unlimited.
    }
  }
  long long quota = 0;
  long long period = 0;
  if (std::FILE* f = std::fopen("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "r")) {
    const int n = std::fscanf(f, "%lld", &quota);
    std::fclose(f);
    if (n != 1) quota = 0;
  }
  if (std::FILE* f = std::fopen("/sys/fs/cgroup/cpu/cpu.cfs_period_us", "r")) {
    const int n = std::fscanf(f, "%lld", &period);
    std::fclose(f);
    if (n != 1) period = 0;
  }
  if (quota > 0 && period > 0) return static_cast<int>((quota + period - 1) / period);
#endif
  return 0;
}

}  // namespace

int hardware_sim_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  int n = hw == 0 ? 1 : static_cast<int>(hw);
  if (const int affinity = affinity_cpus(); affinity > 0 && affinity < n) n = affinity;
  if (const int quota = cgroup_quota_cpus(); quota > 0 && quota < n) n = quota;
  return n < 1 ? 1 : n;
}

int resolve_sim_workers(int requested) {
  if (requested == 0) throw std::invalid_argument("sim_workers == 0 (1 = sequential, -1 = auto)");
  return requested > 0 ? requested : hardware_sim_workers();
}

}  // namespace exasim
