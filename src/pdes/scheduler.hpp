#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace exasim {

/// Which preset of the window planner the sharded engine runs (DESIGN.md §11).
enum class SchedulerKind : std::uint8_t {
  kFixed,     ///< Stretch 1, one group per worker: bound = global-min + lookahead.
  kAdaptive,  ///< Stretch 64, four groups per worker: widened windows + stealing.
};

/// Parsed `--scheduler` configuration: "fixed" or "adaptive", two named
/// presets of the one WindowPlanner.
struct SchedulerSpec {
  SchedulerKind kind = SchedulerKind::kFixed;

  /// Maximum window width in lookahead units a group may run ahead of its own
  /// pending minimum. 1 pins every bound to global-min + lookahead.
  int stretch_max() const { return kind == SchedulerKind::kAdaptive ? 64 : 1; }
  /// LP groups per worker thread: > 1 oversubscribes groups so finished
  /// workers can steal ready groups.
  int groups_per_worker() const { return kind == SchedulerKind::kAdaptive ? 4 : 1; }
};

/// Parses a scheduler spec string ("fixed" or "adaptive"); nullopt otherwise.
std::optional<SchedulerSpec> parse_scheduler_spec(const std::string& text);

/// Canonical spec string for `spec` (round-trips through parse).
std::string to_string(const SchedulerSpec& spec);

/// Parses a configured spec string (e.g. core::SimConfig::scheduler); throws
/// std::invalid_argument on malformed text.
SchedulerSpec resolve_scheduler_spec(const std::string& configured);

/// Decides the per-group window bounds of each cycle of the sharded engine.
/// Called once per cycle, single-threaded, from WindowSync's decide barrier.
///
/// Each group's bound stays inside the safe envelope
///
///   bound_g <= min_{i != g}(mins[i]) + lookahead
///
/// which preserves the delivered schedule exactly: any event another group i
/// sends to g during the cycle carries time >= mins[i] + lookahead >=
/// bound_g, i.e. it lands beyond g's window and is merged at the next
/// barrier. Only the virtual-time straggler (the argmin group) has headroom —
/// the one group a uniform global-min + lookahead bound forces everyone to
/// wait for. Event-density / idle feedback modulates a per-group stretch
/// factor, capped at the preset's stretch_max(), that limits how far a group
/// may run ahead of its own pending minimum, bounding outbox growth and stop
/// latency. With stretch_max() == 1 every bound is global-min + lookahead.
class WindowPlanner {
 public:
  WindowPlanner(const SchedulerSpec& spec, SimTime lookahead)
      : stretch_max_(static_cast<std::uint32_t>(spec.stretch_max())),
        lookahead_(lookahead) {}

  /// Fills bounds[g] (exclusive upper bound on event *time* group g may
  /// deliver next window) for every group from its pending minimum mins[g]
  /// (at least one is not kSimTimeNever) and the events it delivered in the
  /// previous window; `idled` says whether any worker waited at a barrier
  /// since the previous call. Returns the number of groups whose bound
  /// exceeds global-min + lookahead (the window_widenings counter increment).
  int plan(const std::vector<SimTime>& mins, const std::vector<std::uint64_t>& window_events,
           bool idled, std::vector<SimTime>& bounds);

 private:
  std::uint32_t stretch_max_;
  SimTime lookahead_;
  std::vector<std::uint32_t> stretch_;  ///< Per-group widening factor, >= 1.
};

/// Process-wide scheduler counters (metrics/perf surfaces them next to the
/// pool and fan-out counters). Relaxed statistics: `steals`,
/// `window_widenings` and `barrier_idle_ns` depend on host timing — none of
/// them feed back into the simulated schedule.
struct SchedStats {
  std::uint64_t windows = 0;           ///< Window phases decided.
  std::uint64_t window_widenings = 0;  ///< Bounds wider than global-min + lookahead.
  std::uint64_t steals = 0;            ///< Groups run by a non-home worker.
  std::uint64_t barrier_idle_ns = 0;   ///< Worker ns spent waiting at barriers.
};
SchedStats sched_stats();

/// Engine-internal accumulation hooks for the process-wide SchedStats.
void sched_note_window(std::uint64_t widenings);
void sched_note_run(std::uint64_t steals, std::uint64_t barrier_idle_ns);

}  // namespace exasim
