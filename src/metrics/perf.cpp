#include "metrics/perf.hpp"

#include <algorithm>
#include <utility>

namespace exasim {

namespace {

using util::Counter;

/// The flow fields and the block slot each one names. sched_window_widenings,
/// fanout_relays and fanout_dead_skips have no slot: they are always 0.
constexpr std::pair<std::uint64_t PerfSnapshot::*, Counter> kFlows[] = {
    {&PerfSnapshot::pool_allocs, Counter::kPoolAllocs},
    {&PerfSnapshot::pool_frees, Counter::kPoolFrees},
    {&PerfSnapshot::pool_recycled, Counter::kPoolRecycled},
    {&PerfSnapshot::pool_heap_allocs, Counter::kPoolHeapAllocs},
    {&PerfSnapshot::pool_slab_bytes, Counter::kPoolSlabBytes},
    {&PerfSnapshot::stacks_mapped, Counter::kStacksMapped},
    {&PerfSnapshot::stacks_reused, Counter::kStacksReused},
    {&PerfSnapshot::stack_bytes_copied, Counter::kStackBytesCopied},
    {&PerfSnapshot::fanout_notices, Counter::kFanoutNotices},
    {&PerfSnapshot::sched_windows, Counter::kSchedWindows},
    {&PerfSnapshot::sched_steals, Counter::kSchedSteals},
    {&PerfSnapshot::sched_barrier_idle_ns, Counter::kSchedBarrierIdleNs},
    {&PerfSnapshot::fiber_resumes, Counter::kFiberResumes},
    {&PerfSnapshot::wakeups_suppressed, Counter::kWakeupsSuppressed},
    {&PerfSnapshot::queue_pops, Counter::kQueuePops},
    {&PerfSnapshot::queue_near_hits, Counter::kQueueRunPops},
    {&PerfSnapshot::bulk_merges, Counter::kQueueBulkMerges},
    {&PerfSnapshot::ckpt_stages, Counter::kCkptStages},
    {&PerfSnapshot::ckpt_drains, Counter::kCkptDrains},
    {&PerfSnapshot::ckpt_partner_copies, Counter::kCkptPartnerCopies},
};

/// The levels: a sum takes the larger, a difference keeps the left side's.
constexpr std::uint64_t PerfSnapshot::* kLevels[] = {&PerfSnapshot::stacks_high_water,
                                                     &PerfSnapshot::ckpt_restore_tier};

}  // namespace

PerfSnapshot& PerfSnapshot::operator+=(const PerfSnapshot& o) {
  for (const auto& [field, slot] : kFlows) this->*field += o.*field;
  for (auto level : kLevels) this->*level = std::max(this->*level, o.*level);
  return *this;
}

PerfSnapshot PerfSnapshot::operator-(const PerfSnapshot& o) const {
  PerfSnapshot d = *this;
  for (const auto& [field, slot] : kFlows) d.*field -= o.*field;
  return d;
}

PerfSnapshot perf_of(const util::Counters& counters) {
  PerfSnapshot s;
  for (const auto& [field, slot] : kFlows) s.*field = counters[slot];
  // The deepest tier any counted restore was served from.
  const Counter by_depth[] = {Counter::kCkptRestoresMem, Counter::kCkptRestoresBb,
                              Counter::kCkptRestoresPfs};
  for (std::uint64_t depth = 1; depth <= 3; ++depth) {
    if (counters[by_depth[depth - 1]] != 0) s.ckpt_restore_tier = depth;
  }
  return s;
}

PerfSnapshot perf_snapshot() { return perf_of(util::process_counters()); }

}  // namespace exasim
