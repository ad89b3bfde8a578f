#include "exp/executor.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "util/parse.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace exasim::exp {

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
/// and CI runners typically cap a process this way without shrinking the
/// affinity mask, and jobs beyond the quota only slow each other down.
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

/// A --jobs / EXASIM_JOBS value (0 = hardware_jobs(), at most 2^20) as a worker
/// count; nullopt when absent or malformed.
std::optional<int> parse_jobs(const char* text) {
  if (text == nullptr) return std::nullopt;
  const auto v = parse_int(text, 0, 1 << 20);
  if (!v) return std::nullopt;
  return *v == 0 ? hardware_jobs() : static_cast<int>(*v);
}

}  // namespace

int hardware_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  int n = hw == 0 ? 1 : static_cast<int>(hw);
  if (const int affinity = affinity_cpus(); affinity > 0 && affinity < n) n = affinity;
  if (const int quota = cgroup_quota_cpus(); quota > 0 && quota < n) n = quota;
  return n < 1 ? 1 : n;
}

int default_jobs() { return parse_jobs(std::getenv("EXASIM_JOBS")).value_or(1); }

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  if (requested == 0) return hardware_jobs();
  return default_jobs();
}

int jobs_from_cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::optional<int> v;
    if (arg.rfind("--jobs=", 0) == 0) {
      v = parse_jobs(argv[i] + 7);
    } else if (arg == "--jobs" && i + 1 < argc) {
      v = parse_jobs(argv[i + 1]);
    }
    if (v) return *v;
  }
  return -1;
}

namespace detail {

void run_indexed(std::size_t n, int jobs, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t workers =
      std::min(n, static_cast<std::size_t>(std::max(jobs, 1)));
  if (workers <= 1) {
    // Inline serial execution: exactly the old single-threaded bench loop.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // A throwing item stops the claiming of new ones. Items are claimed in
  // index order, so every item below the first one to throw was claimed and
  // runs to its end; rethrowing the lowest index's exception after the join
  // is exactly what the serial loop throws.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::size_t error_index = n;
  std::exception_ptr error;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (i < error_index) {
            error_index = i;
            error = std::current_exception();
          }
          next.store(n, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace detail

}  // namespace exasim::exp
