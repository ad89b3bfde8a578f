#pragma once

#include <cstdint>

#include "util/counters.hpp"

namespace exasim {

/// Hot-path counters of one run, or of the whole process (DESIGN.md §9).
///
/// Per run: core::Machine::run fills SimResult::perf from the counter blocks
/// (util/counters.hpp) of the threads that ran it — the calling thread's
/// difference over the run plus that of each engine worker thread — so
/// simulations running side by side (--jobs, exasim_mc) never count each
/// other's traffic. Every field is such a flow except two levels:
/// stacks_high_water and ckpt_restore_tier (see their comments). Summing
/// snapshots adds the flows and takes the larger level; subtracting keeps
/// the left side's levels.
///
/// perf_snapshot() sums every thread's block instead. It stays for meters of
/// a whole process, such as simbench around one workload: with one
/// simulation at a time it equals the sum of the runs' counters.
struct PerfSnapshot {
  // util::pool (size-class free lists; see src/util/pool.hpp).
  std::uint64_t pool_allocs = 0;       ///< pool_alloc calls (any route).
  std::uint64_t pool_frees = 0;        ///< pool_free calls.
  std::uint64_t pool_recycled = 0;     ///< Allocs served from a free list.
  std::uint64_t pool_heap_allocs = 0;  ///< Allocs routed to ::operator new.
  std::uint64_t pool_slab_bytes = 0;   ///< Bytes of slab carved so far.

  // Copying fiber stacks (one guarded FiberStack per LP group, a saved
  // image per suspended fiber; see src/fiber/fiber.hpp).
  std::uint64_t stacks_mapped = 0;  ///< FiberStack mmaps.
  std::uint64_t stacks_reused = 0;  ///< FiberStacks served from a parked mapping.
  /// Peak number of saved stack images alive at once during the run: a
  /// level Machine::run reads from its engine's stacks (their peaks summed
  /// for a sharded run). perf_snapshot() leaves it 0.
  std::uint64_t stacks_high_water = 0;
  std::uint64_t stack_bytes_copied = 0;  ///< Live stack bytes switches copied out and in.

  // resilience::NotificationBus (one event per notice; DESIGN.md §10).
  std::uint64_t fanout_notices = 0;     ///< Notice events scheduled, dead targets included.
  std::uint64_t fanout_relays = 0;      ///< Always 0 (no relay carriers); simbench reads it.
  std::uint64_t fanout_dead_skips = 0;  ///< Always 0 (dropped at delivery); simbench reads it.

  // Sharded-engine windows and stealing (DESIGN.md §11). Host-timing-
  // sensitive statistics — never part of the simulated result, which is
  // identical for every worker count.
  std::uint64_t sched_windows = 0;           ///< Window phases decided.
  std::uint64_t sched_window_widenings = 0;  ///< Always 0 (no window widens); simbench reads it.
  std::uint64_t sched_steals = 0;            ///< Groups run by non-home workers.
  std::uint64_t sched_barrier_idle_ns = 0;   ///< Worker ns waiting at barriers.

  // Hot-path dispatch & queue traffic (DESIGN.md §13): fiber context
  // switches, spurious resumes the vmpi wakeup filter skipped, event-queue
  // pops (all of them, and those served from a sorted run), and bulk inbox
  // merges. Each pop delivers an event or drops one for a dead target:
  // queue_pops = events processed + events dropped dead.
  std::uint64_t fiber_resumes = 0;       ///< Fiber::resume switches.
  std::uint64_t wakeups_suppressed = 0;  ///< Spurious resumes filtered out.
  std::uint64_t queue_pops = 0;          ///< Pops by the delivery loops.
  std::uint64_t queue_near_hits = 0;     ///< Pops from a sorted run.
  std::uint64_t bulk_merges = 0;         ///< EventQueue::push_bulk calls.

  // Tiered checkpointing (DESIGN.md §14): non-PFS checkpoint stages,
  // background tier-to-tier drains, partner replicas shipped over the
  // network, and the deepest tier the counted restores reached (a level:
  // 0 = none, 1 = mem, 2 = bb, 3 = pfs): a run's own restores in
  // SimResult::perf, every restore so far in perf_snapshot().
  std::uint64_t ckpt_stages = 0;
  std::uint64_t ckpt_drains = 0;
  std::uint64_t ckpt_partner_copies = 0;
  std::uint64_t ckpt_restore_tier = 0;

  PerfSnapshot& operator+=(const PerfSnapshot& o);
  PerfSnapshot operator-(const PerfSnapshot& o) const;
};

/// Names the values of a counter block; stacks_high_water stays 0.
PerfSnapshot perf_of(const util::Counters& counters);

/// Every thread's counters since the process started. Thread-safe;
/// O(#threads).
PerfSnapshot perf_snapshot();

/// `end - begin`: the flows between two snapshots, and end's levels.
inline PerfSnapshot perf_delta(const PerfSnapshot& begin, const PerfSnapshot& end) {
  return end - begin;
}

}  // namespace exasim
