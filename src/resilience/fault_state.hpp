#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace exasim::resilience {

/// Per-process failure/abort bookkeeping, extracted from vmpi::SimProcess so
/// the process class is clock + message matching and the resilience pipeline
/// state lives in one place (paper §IV-B: "each simulated MPI process
/// maintains its own list of failed simulated MPI processes and their
/// corresponding time of failure").
///
/// The four activation times are inline; the peer lists are allocated on
/// the first notice or acknowledgement, so a process that never hears of a
/// failure carries one null pointer for them (DESIGN.md §9).
class FaultState {
 public:
  /// Earliest virtual time this process is scheduled to fail (injection
  /// schedule or Context::inject_failure); kSimTimeNever = never.
  SimTime time_of_failure = kSimTimeNever;
  /// Earliest MPI_Abort time this process has been notified of (§IV-D).
  SimTime pending_abort = kSimTimeNever;
  /// Set by engine-side handlers to unwind a blocked fiber at a given time.
  SimTime forced_failure = kSimTimeNever;
  SimTime forced_abort = kSimTimeNever;

  /// Records a delivered failure notice. t_detect is the notice's delivery
  /// time per the detector model (== t_fail for paper-instant).
  void record_peer_failure(int world_rank, SimTime t_fail, SimTime t_detect);

  /// Failed peers (world rank -> actual time of failure), in the shape the
  /// public Context::failed_peers API exposes.
  const std::map<int, SimTime>& failed_peers() const;
  bool knows_failed(int world_rank) const {
    return peers_ != nullptr && peers_->failed.count(world_rank) != 0;
  }
  /// kSimTimeNever when the peer is not known failed.
  SimTime peer_failure_time(int world_rank) const;
  /// Detector delivery time of the peer's notice; kSimTimeNever if unknown.
  SimTime peer_detect_time(int world_rank) const;

  /// ULFM MPI_Comm_failure_ack: snapshots the currently-known failed peers
  /// accepted by `member` (the communicator-membership predicate) for the
  /// given communicator.
  void ack_failures(int comm_id, const std::function<bool(int)>& member);
  /// ULFM MPI_Comm_failure_get_acked for the given communicator.
  std::vector<int> acked(int comm_id) const;

 private:
  struct Peers {
    std::map<int, SimTime> failed;          ///< world rank -> time of failure.
    std::map<int, SimTime> detect_times;    ///< world rank -> notice delivery time.
    std::map<int, std::vector<int>> acked;  ///< per-comm ack snapshots.
  };
  Peers& peers();  ///< Allocates on first use.

  std::unique_ptr<Peers> peers_;
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
