#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "exp/plan.hpp"

namespace exasim::exp {

/// Number of CPUs this process may actually use, never less than 1: hardware
/// threads, capped by the process CPU affinity mask (sched_getaffinity — a
/// `taskset`/container restriction) and by the cgroup CPU quota (v2 cpu.max
/// or v1 cfs_quota/cfs_period, rounded up). Plain hardware_concurrency()
/// would start more jobs than the CPUs a restricted process may use.
int hardware_jobs();

/// Job count from the EXASIM_JOBS environment variable: a positive value is
/// used as-is, 0 means hardware_jobs(), unset/invalid means 1.
int default_jobs();

/// Resolves a requested job count: > 0 as-is, 0 = hardware_jobs(),
/// < 0 = default_jobs() (the environment knob).
int resolve_jobs(int requested);

/// Scans argv for the `--jobs=N` / `--jobs N` knob every campaign binary
/// supports; returns -1 (use the environment default) when absent. Other
/// arguments are ignored, so benches with no further CLI stay one-liners.
int jobs_from_cli(int argc, char** argv);

struct ExecutorOptions {
  /// Worker thread count; see resolve_jobs(). Default: EXASIM_JOBS or 1.
  int jobs = -1;

  /// Invoked after each completed item with (done, total). Calls are
  /// serialized; `done` is monotonic. Safe to print from.
  std::function<void(std::size_t done, std::size_t total)> progress;
};

/// Result of one work item: either a value or the error that evaluate threw.
/// Dereferencing a failed item throws std::runtime_error carrying its error,
/// so a failed item can never be read as a number.
template <typename R>
struct ItemOutcome {
  std::optional<R> value;
  std::string error;

  bool ok() const { return value.has_value(); }
  const R& operator*() const {
    if (!ok()) throw std::runtime_error("work item failed: " + error);
    return *value;
  }
  const R* operator->() const { return &**this; }
};

namespace detail {
/// Runs body(i) for every i in [0, n) on up to `jobs` threads (inline when
/// jobs <= 1). If a body throws, no further index is claimed and the exception
/// of the lowest throwing index is rethrown once every thread has joined —
/// what the serial loop throws, at any job count.
void run_indexed(std::size_t n, int jobs, const std::function<void(std::size_t)>& body);
}  // namespace detail

/// Deterministic parallel campaign executor (the paper's §V experiment
/// campaigns, run one full simulation per work item).
///
/// Work items are claimed dynamically by a fixed-size std::thread pool, but
/// results are collected *by item index*, so the result vector — and
/// everything aggregated from it in order — is bit-identical for any job
/// count, including jobs=1, which executes inline in plain serial order.
class ParallelExecutor {
 public:
  explicit ParallelExecutor(ExecutorOptions options = {})
      : options_(std::move(options)), jobs_(resolve_jobs(options_.jobs)) {}

  /// Resolved worker count.
  int jobs() const { return jobs_; }

  /// Parallel map: evaluates fn(i) for every i in [0, n); returns outcomes
  /// in index order. An exception inside fn is captured per item and does
  /// not take down the pool or the other items.
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn) -> std::vector<ItemOutcome<std::invoke_result_t<Fn&, std::size_t>>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    std::vector<ItemOutcome<R>> out(n);
    std::size_t done = 0;  // Guarded by progress_mutex.
    std::mutex progress_mutex;
    detail::run_indexed(n, jobs_, [&](std::size_t i) {
      try {
        out[i].value.emplace(fn(i));
      } catch (const std::exception& e) {
        out[i].error = e.what()[0] != '\0' ? e.what() : "(empty std::exception message)";
      } catch (...) {
        out[i].error = "non-standard exception";
      }
      if (options_.progress) {
        std::lock_guard<std::mutex> lock(progress_mutex);
        options_.progress(++done, n);
      }
    });
    return out;
  }

  /// Runs every work item of the plan through
  ///   evaluate(const Point&, const WorkItem&) -> row
  /// and returns the outcomes in plan item order (point-major).
  template <typename Fn>
  auto run(const ExperimentPlan& plan, Fn&& evaluate) {
    return map(plan.item_count(), [&](std::size_t i) {
      const WorkItem item = plan.item(i);
      return evaluate(plan.point(item.point_index), item);
    });
  }

 private:
  ExecutorOptions options_;
  int jobs_ = 1;
};

}  // namespace exasim::exp
