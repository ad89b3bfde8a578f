#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace exasim {

/// Process-wide recycler for fiber stacks (DESIGN.md §9).
///
/// Stacks are anonymous mmaps with a PROT_NONE guard page at the low end, so
/// a simulated-process stack overflow faults loudly instead of silently
/// corrupting the adjacent fiber's stack. A guarded stack costs two kernel
/// VMAs (the guard and the writable region cannot merge); at xSim scale —
/// 32,768+ simulated ranks, one stack each — that would exceed the kernel's
/// default vm.max_map_count (65,530). The pool therefore guards every stack
/// up to a budget derived from vm.max_map_count and hands out unguarded
/// stacks beyond it: debugging-scale runs always get guards, extreme
/// oversubscription trades the last few thousand guards for fitting in the
/// default VMA limit. An unguarded stack has a canary instead: its lowest
/// kCanaryBytes stay zero, as the kernel mapped them, unless an overflow
/// reaches them, and Fiber checks them each time the fiber switches back.
/// The check only reads, and reading a never-written page maps the kernel's
/// shared zero page, so the canary costs no resident memory (a written
/// canary word would dirty one page of every unguarded stack).
///
/// Stacks are recycled across fibers — and therefore across simulated
/// machines, relaunches and campaign items: standing up C = 10^4–10^5
/// simulated MPI ranks used to cost one mmap/munmap pair per rank per
/// launch, which dominates short runs. A released stack is parked warm,
/// with its mapping, its guard page and the pages it touched intact, so the
/// next fiber of that size reuses it with no system call and no page fault
/// (a relaunch makes zero stack syscalls).
///
/// Memory bound: a parked stack keeps the pages its fibers touched resident,
/// and each size holds at most as many parked stacks as the high-water count
/// of its outstanding stacks — so an idle pool never holds more than the
/// largest machine built so far did. trim() is the one call that returns
/// parked memory to the kernel.
///
/// With pooling disabled (util::pool_enabled() == false, i.e. --no-pool /
/// EXASIM_NO_POOL), acquire/release degrade to plain mmap/munmap — still
/// guard-paged within the budget.
///
/// Thread-safe: fibers are created on whichever engine worker owns the LP
/// group, so the free lists are mutex-protected (stack churn is orders of
/// magnitude rarer than event churn; the lock is not on the event hot path).
class FiberStackPool {
 public:
  /// A usable stack region. `base` is the low end of the writable region;
  /// when `guarded`, the guard page sits immediately below it. `bytes` is
  /// writable size.
  struct Stack {
    void* base = nullptr;
    std::size_t bytes = 0;
    bool guarded = false;
  };

  /// The pool's state, and its munmap count. Fresh mmaps and reuses are
  /// counted in the acquiring thread's block (util::Counter::kStacksMapped,
  /// kStacksReused), so that they belong to the run that acquired.
  struct Stats {
    std::uint64_t unmapped = 0;  ///< munmaps (unpooled releases / trim).
    std::uint64_t outstanding = 0;  ///< Currently acquired stacks.
    std::uint64_t pooled = 0;       ///< Currently parked on free lists.
    std::uint64_t high_water = 0;   ///< Max outstanding ever observed.
    std::uint64_t guarded = 0;      ///< Live guard pages (mapped stacks).
    std::uint64_t unguarded = 0;    ///< Live stacks mapped past the budget.
  };

  /// Zero bytes at the low end of every unguarded stack (see above).
  static constexpr std::size_t kCanaryBytes = 64;

  static FiberStackPool& instance();

  /// Returns a stack of at least `bytes` (rounded up to whole pages),
  /// guard-paged while the VMA budget lasts. Throws std::bad_alloc on mmap
  /// failure.
  Stack acquire(std::size_t bytes);

  /// Returns a stack obtained from acquire(). Pooled stacks are parked warm
  /// (no system call); unpooled ones are munmapped.
  void release(Stack stack);

  Stats stats() const;

  /// How many guard pages may be live at once (from vm.max_map_count).
  std::uint64_t guard_budget() const { return guard_budget_; }

  /// Unmaps every parked stack, returning its pages and address space
  /// (memory pressure valve / test isolation).
  void trim();

 private:
  FiberStackPool();

  Stack map_locked(std::size_t bytes);
  void unmap_locked(const Stack& stack);

  mutable std::mutex mu_;
  std::map<std::size_t, std::vector<Stack>> free_;  ///< bytes → parked stacks.
  Stats stats_;
  std::uint64_t guard_budget_ = 0;  ///< Max concurrently live guard pages.
};

}  // namespace exasim
