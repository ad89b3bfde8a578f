#pragma once

#include <cstdint>

namespace exasim {

/// Point-in-time snapshot of the hot-path memory counters (DESIGN.md §9):
/// the util pool (event payloads, message blocks with their bytes) and the fiber stack
/// pool. All counters are monotonic process-wide totals; meter one region —
/// e.g. one Machine::run() — by diffing two snapshots with perf_delta().
struct PerfSnapshot {
  // util::pool (size-class free lists; see src/util/pool.hpp).
  std::uint64_t pool_allocs = 0;       ///< pool_alloc calls (any route).
  std::uint64_t pool_frees = 0;        ///< pool_free calls.
  std::uint64_t pool_recycled = 0;     ///< Allocs served from a free list.
  std::uint64_t pool_heap_allocs = 0;  ///< Allocs routed to ::operator new.
  std::uint64_t pool_slab_bytes = 0;   ///< Bytes of slab carved so far.

  // FiberStackPool (guard-paged mmapped stacks; see src/fiber/stack_pool.hpp).
  std::uint64_t stacks_mapped = 0;      ///< Fresh mmaps.
  std::uint64_t stacks_reused = 0;      ///< Acquires served from the pool.
  std::uint64_t stacks_high_water = 0;  ///< Max concurrently live stacks.

  // Engine::schedule_fanout (batched notification fan-out; DESIGN.md §10).
  std::uint64_t fanout_notices = 0;     ///< Notice events created.
  std::uint64_t fanout_relays = 0;      ///< Cross-group relay carrier events.
  std::uint64_t fanout_dead_skips = 0;  ///< Dead-destination items skipped.

  // Sharded-engine windows and stealing (DESIGN.md §11). Host-timing-
  // sensitive statistics — never part of the simulated result, which is
  // identical for every worker count.
  std::uint64_t sched_windows = 0;           ///< Window phases decided.
  std::uint64_t sched_window_widenings = 0;  ///< Always 0 (no window widens); simbench reads it.
  std::uint64_t sched_steals = 0;            ///< Groups run by non-home workers.
  std::uint64_t sched_barrier_idle_ns = 0;   ///< Worker ns waiting at barriers.

  // Hot-path dispatch & queue traffic (DESIGN.md §13): fiber context
  // switches, spurious resumes the vmpi wakeup filter skipped, event-queue
  // pops served from a sorted run, and bulk inbox merges.
  std::uint64_t fiber_resumes = 0;       ///< Fiber::resume switches.
  std::uint64_t wakeups_suppressed = 0;  ///< Spurious resumes filtered out.
  std::uint64_t queue_near_hits = 0;     ///< Pops from a sorted run.
  std::uint64_t bulk_merges = 0;         ///< EventQueue::push_bulk calls.

  // Tiered checkpointing (DESIGN.md §14): non-PFS checkpoint stages,
  // background tier-to-tier drains, partner replicas shipped over the
  // network, and the deepest tier any restore had to reach (a level:
  // 0 = none, 1 = mem, 2 = bb, 3 = pfs).
  std::uint64_t ckpt_stages = 0;
  std::uint64_t ckpt_drains = 0;
  std::uint64_t ckpt_partner_copies = 0;
  std::uint64_t ckpt_restore_tier = 0;
};

/// Reads the current process-wide counters. Thread-safe; O(#threads).
PerfSnapshot perf_snapshot();

/// Component-wise `end - begin` for the monotonic counters; high_water is
/// carried over from `end` (it is a level, not a flow).
PerfSnapshot perf_delta(const PerfSnapshot& begin, const PerfSnapshot& end);

}  // namespace exasim
