#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace exasim::resilience {

/// A process's failure and abort activation times, extracted from
/// vmpi::SimProcess so the resilience pipeline's per-process timing lives in
/// one place. All four stay inline because every clock update reads them
/// (DESIGN.md §9). The failed-process list the notices fill is the
/// process's own (resilience::NoticeArrival, vmpi::SimProcess::failed_peers).
struct FaultState {
  /// Earliest virtual time this process is scheduled to fail (injection
  /// schedule or Context::inject_failure); kSimTimeNever = never.
  SimTime time_of_failure = kSimTimeNever;
  /// Earliest MPI_Abort time this process has been notified of (§IV-D).
  SimTime pending_abort = kSimTimeNever;
  /// Set by engine-side handlers to unwind a blocked fiber at a given time.
  SimTime forced_failure = kSimTimeNever;
  SimTime forced_abort = kSimTimeNever;
};

/// Soft-error injection state (paper §VI future-work item 1): registered
/// application memory regions plus the pending bit-flip schedule. Flips apply
/// at the first clock update at/after their time — the same activation
/// semantics as process failures.
class SoftErrorState {
 public:
  /// Registers (or re-registers) a named application memory region.
  void register_region(const std::string& name, void* ptr, std::size_t bytes);
  void unregister_region(const std::string& name);
  std::size_t registered_bytes() const;

  /// Schedules a single bit flip at virtual time t. bit_index selects the
  /// target bit across all registered regions (modulo total bits at
  /// activation); flips with no registered memory are dropped and counted.
  void schedule_flip(SimTime t, std::uint64_t bit_index);
  bool pending() const { return !pending_flips_.empty(); }
  /// Applies every flip due at/before `clock`.
  void apply_due(SimTime clock);

  std::uint64_t applied() const { return applied_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  struct MemRegion {
    std::string name;
    void* ptr;
    std::size_t bytes;
  };
  struct PendingFlip {
    SimTime time;
    std::uint64_t bit_index;
    std::uint64_t seq;  ///< Insertion order; deterministic tie-break.
  };
  /// std::push_heap/pop_heap build a max-heap; invert (time, seq) so the
  /// earliest pending flip sits at the front.
  static bool flip_after(const PendingFlip& a, const PendingFlip& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }

  std::vector<MemRegion> regions_;
  std::vector<PendingFlip> pending_flips_;  ///< Min-heap by (time, seq).
  std::uint64_t next_seq_ = 0;
  std::uint64_t applied_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace exasim::resilience
