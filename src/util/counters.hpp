#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace exasim::util {

// Per-thread counter block (DESIGN.md §9). Every hot-path statistic is one
// monotonic slot of one block per thread. Only the owning thread writes its
// block — a relaxed load and store, no locked RMW — and other threads may
// read it. A region is metered as the difference of two thread_counters()
// readings; core::Machine::run adds its engine workers' differences
// (pdes::Engine::worker_counters), so concurrent simulations never count
// each other's traffic. An exiting thread's block is folded into a retired
// total and freed. metrics/perf.hpp names the slots for reports.
enum class Counter : std::uint8_t {
  kPoolAllocs,          ///< util::pool_alloc calls.
  kPoolFrees,           ///< util::pool_free calls (non-null).
  kPoolRecycled,        ///< Allocs served from a free list.
  kPoolHeapAllocs,      ///< Allocs routed to ::operator new.
  kPoolSlabAllocs,      ///< Slabs carved.
  kPoolSlabBytes,       ///< Bytes reserved in slabs.
  kPoolCarvedBytes,     ///< Slab bytes handed out as new blocks, headers included.
  kStacksMapped,        ///< FiberStack mmaps.
  kStacksReused,        ///< FiberStacks served from a parked mapping.
  kStackBytesCopied,    ///< Live stack bytes fiber switches copied out and in.
  kStackImageBytes,     ///< Pool bytes of saved-stack images allocated (headers, regrowth).
  kFiberResumes,        ///< Fiber::resume switches.
  kWakeupsSuppressed,   ///< Resumes the vmpi wakeup filter skipped.
  kQueuePops,           ///< pdes::EventQueue pops by the engine's delivery loops.
  kQueueRunPops,        ///< Pops served from a sorted run.
  kQueueBulkMerges,     ///< EventQueue::push_bulk calls.
  kFanoutNotices,       ///< resilience::NotificationBus notice events scheduled.
  kSchedWindows,        ///< Sharded-engine window phases decided.
  kSchedSteals,         ///< Groups run by a non-home worker.
  kSchedBarrierIdleNs,  ///< Worker ns waiting at barriers.
  kCkptStages,          ///< Non-PFS synchronous checkpoint writes.
  kCkptDrains,          ///< Background tier-to-tier drains issued.
  kCkptPartnerCopies,   ///< Partner replicas shipped over the network.
  kCkptRestoresMem,     ///< Restores served from node memory, the burst buffer
  kCkptRestoresBb,      ///< and the PFS: counted per tier, so the deepest tier
  kCkptRestoresPfs,     ///< of a region is a difference too.
  kCount
};

inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);

/// Values of a block, or of a sum or difference of blocks.
struct Counters {
  std::array<std::uint64_t, kCounterCount> v{};

  std::uint64_t operator[](Counter c) const { return v[static_cast<std::size_t>(c)]; }
  Counters& operator+=(const Counters& o) {
    for (std::size_t i = 0; i < kCounterCount; ++i) v[i] += o.v[i];
    return *this;
  }
  Counters operator-(const Counters& o) const {
    Counters d = *this;
    for (std::size_t i = 0; i < kCounterCount; ++i) d.v[i] -= o.v[i];
    return d;
  }
};

namespace detail {
struct CounterBlock {
  std::array<std::atomic<std::uint64_t>, kCounterCount> slots{};
};
extern thread_local constinit CounterBlock* t_block;  ///< Null until first count.
CounterBlock* attach_block();
}  // namespace detail

/// Adds `n` to this thread's counter `c`.
inline void count(Counter c, std::uint64_t n = 1) {
  detail::CounterBlock* b = detail::t_block;
  if (b == nullptr) [[unlikely]] b = detail::attach_block();
  std::atomic<std::uint64_t>& s = b->slots[static_cast<std::size_t>(c)];
  s.store(s.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

/// This thread's counts since it started.
Counters thread_counters();

/// Every thread's counts since the process started: the live blocks plus the
/// retired total. O(#live threads).
Counters process_counters();

}  // namespace exasim::util
