#include "pdes/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace exasim {

namespace {

// Process-wide scheduler counters (relaxed: statistics, not synchronization),
// mirroring the fan-out counters in engine.cpp so metrics/perf can read them
// without a handle on the engine.
std::atomic<std::uint64_t> g_sched_windows{0};
std::atomic<std::uint64_t> g_sched_widenings{0};
std::atomic<std::uint64_t> g_sched_steals{0};
std::atomic<std::uint64_t> g_sched_idle_ns{0};

/// Feedback thresholds for the stretch controller: a group that
/// delivered fewer events than kSparseEvents in its last window is running
/// windows too fine (barrier overhead dominates) and may widen; one that
/// delivered more than kDenseEvents narrows back so no group runs unboundedly
/// far ahead of the merge point.
constexpr std::uint64_t kSparseEvents = 64;
constexpr std::uint64_t kDenseEvents = 8192;

}  // namespace

std::optional<SchedulerSpec> parse_scheduler_spec(const std::string& text) {
  if (text == "fixed") return SchedulerSpec{SchedulerKind::kFixed};
  if (text == "adaptive") return SchedulerSpec{SchedulerKind::kAdaptive};
  return std::nullopt;
}

std::string to_string(const SchedulerSpec& spec) {
  return spec.kind == SchedulerKind::kAdaptive ? "adaptive" : "fixed";
}

SchedulerSpec resolve_scheduler_spec(const std::string& configured) {
  auto spec = parse_scheduler_spec(configured);
  if (!spec) throw std::invalid_argument("malformed scheduler spec: " + configured);
  return *spec;
}

int WindowPlanner::plan(const std::vector<SimTime>& mins,
                        const std::vector<std::uint64_t>& window_events, bool idled,
                        std::vector<SimTime>& bounds) {
  const std::size_t groups = mins.size();
  if (stretch_.size() != groups) stretch_.assign(groups, 1);

  // Saturating t + n*lookahead.
  auto widen = [this](SimTime t, std::uint64_t n) {
    if (t == kSimTimeNever) return kSimTimeNever;
    const SimTime span = lookahead_ > kSimTimeNever / static_cast<SimTime>(n)
                             ? kSimTimeNever
                             : lookahead_ * static_cast<SimTime>(n);
    return t > kSimTimeNever - span ? kSimTimeNever : t + span;
  };

  // Two smallest pending minima: min over i != g is global_min unless g is
  // the unique argmin, in which case it is the second smallest.
  SimTime global_min = kSimTimeNever;
  SimTime second_min = kSimTimeNever;
  std::size_t min_count = 0;
  for (SimTime t : mins) {
    if (t < global_min) {
      second_min = global_min;
      global_min = t;
      min_count = 1;
    } else if (t == global_min) {
      ++min_count;
    } else {
      second_min = std::min(second_min, t);
    }
  }
  const SimTime fixed_bound = widen(global_min, 1);  // global-min + lookahead

  // Stretch feedback: groups that delivered sparse windows (and workers did
  // idle at the barriers) widen; dense groups narrow back. The stretch only
  // caps the group's own headroom — safety comes from the envelope below.
  int widenings = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    if (window_events[g] > kDenseEvents) {
      stretch_[g] = std::max<std::uint32_t>(1, stretch_[g] / 2);
    } else if (idled && window_events[g] < kSparseEvents) {
      stretch_[g] = std::min<std::uint32_t>(stretch_max_, stretch_[g] * 2);
    }
    const SimTime others_min =
        (mins[g] == global_min && min_count == 1) ? second_min : global_min;
    const SimTime envelope = widen(others_min, 1);
    const SimTime desired = widen(mins[g], stretch_[g]);
    SimTime bound = std::min(envelope, desired);
    if (bound < fixed_bound) bound = fixed_bound;  // never narrower than fixed_bound
    bounds[g] = bound;
    if (bound > fixed_bound) ++widenings;
  }
  return widenings;
}

SchedStats sched_stats() {
  SchedStats s;
  s.windows = g_sched_windows.load(std::memory_order_relaxed);
  s.window_widenings = g_sched_widenings.load(std::memory_order_relaxed);
  s.steals = g_sched_steals.load(std::memory_order_relaxed);
  s.barrier_idle_ns = g_sched_idle_ns.load(std::memory_order_relaxed);
  return s;
}

void sched_note_window(std::uint64_t widenings) {
  g_sched_windows.fetch_add(1, std::memory_order_relaxed);
  if (widenings != 0) g_sched_widenings.fetch_add(widenings, std::memory_order_relaxed);
}

void sched_note_run(std::uint64_t steals, std::uint64_t barrier_idle_ns) {
  if (steals != 0) g_sched_steals.fetch_add(steals, std::memory_order_relaxed);
  if (barrier_idle_ns != 0) {
    g_sched_idle_ns.fetch_add(barrier_idle_ns, std::memory_order_relaxed);
  }
}

}  // namespace exasim
