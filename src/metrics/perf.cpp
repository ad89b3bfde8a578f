#include "metrics/perf.hpp"

#include "ckpt/tiered.hpp"
#include "fiber/fiber.hpp"
#include "fiber/stack_pool.hpp"
#include "pdes/engine.hpp"
#include "pdes/event_queue.hpp"
#include "util/pool.hpp"

namespace exasim {

PerfSnapshot perf_snapshot() {
  PerfSnapshot s;
  const util::PoolStats p = util::pool_stats();
  s.pool_allocs = p.allocs;
  s.pool_frees = p.frees;
  s.pool_recycled = p.recycled;
  s.pool_heap_allocs = p.heap_allocs;
  s.pool_slab_bytes = p.slab_bytes;
  const FiberStackPool::Stats f = FiberStackPool::instance().stats();
  s.stacks_mapped = f.mapped;
  s.stacks_reused = f.reused;
  s.stacks_high_water = f.high_water;
  const FanoutStats fo = fanout_stats();
  s.fanout_notices = fo.notices;
  s.fanout_relays = fo.relay_events;
  s.fanout_dead_skips = fo.dead_skips;
  const SchedStats sc = sched_stats();
  s.sched_windows = sc.windows;
  s.sched_steals = sc.steals;
  s.sched_barrier_idle_ns = sc.barrier_idle_ns;
  const FiberDispatchStats fd = fiber_dispatch_stats();
  s.fiber_resumes = fd.resumes;
  s.wakeups_suppressed = fd.wakeups_suppressed;
  const QueueStats q = queue_stats();
  s.queue_near_hits = q.near_hits;
  s.bulk_merges = q.bulk_merges;
  const ckpt::CkptStats ck = ckpt::ckpt_stats();
  s.ckpt_stages = ck.stages;
  s.ckpt_drains = ck.drains;
  s.ckpt_partner_copies = ck.partner_copies;
  s.ckpt_restore_tier = ck.restore_tier;
  return s;
}

PerfSnapshot perf_delta(const PerfSnapshot& begin, const PerfSnapshot& end) {
  PerfSnapshot d;
  d.pool_allocs = end.pool_allocs - begin.pool_allocs;
  d.pool_frees = end.pool_frees - begin.pool_frees;
  d.pool_recycled = end.pool_recycled - begin.pool_recycled;
  d.pool_heap_allocs = end.pool_heap_allocs - begin.pool_heap_allocs;
  d.pool_slab_bytes = end.pool_slab_bytes - begin.pool_slab_bytes;
  d.stacks_mapped = end.stacks_mapped - begin.stacks_mapped;
  d.stacks_reused = end.stacks_reused - begin.stacks_reused;
  d.stacks_high_water = end.stacks_high_water;
  d.fanout_notices = end.fanout_notices - begin.fanout_notices;
  d.fanout_relays = end.fanout_relays - begin.fanout_relays;
  d.fanout_dead_skips = end.fanout_dead_skips - begin.fanout_dead_skips;
  d.sched_windows = end.sched_windows - begin.sched_windows;
  d.sched_steals = end.sched_steals - begin.sched_steals;
  d.sched_barrier_idle_ns = end.sched_barrier_idle_ns - begin.sched_barrier_idle_ns;
  d.fiber_resumes = end.fiber_resumes - begin.fiber_resumes;
  d.wakeups_suppressed = end.wakeups_suppressed - begin.wakeups_suppressed;
  d.queue_near_hits = end.queue_near_hits - begin.queue_near_hits;
  d.bulk_merges = end.bulk_merges - begin.bulk_merges;
  d.ckpt_stages = end.ckpt_stages - begin.ckpt_stages;
  d.ckpt_drains = end.ckpt_drains - begin.ckpt_drains;
  d.ckpt_partner_copies = end.ckpt_partner_copies - begin.ckpt_partner_copies;
  // restore_tier is a level (deepest tier reached), not a flow.
  d.ckpt_restore_tier = end.ckpt_restore_tier;
  return d;
}

}  // namespace exasim
