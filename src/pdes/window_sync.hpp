#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <vector>

#include "util/time.hpp"

namespace exasim {

/// Lock-step conservative window synchronization for the sharded engine
/// (paper §IV-A: simulated MPI processes advance under conservative
/// synchronization): the barriers, phase machine and claim tokens. Every
/// window is bounded by the one rule global-min + lookahead (DESIGN.md §11).
///
/// There is one LP group per worker thread, and worker w's home group is
/// group w. Groups are claimed per phase through atomic claim tokens — a
/// worker first claims its home group, then scans the remaining groups in id
/// order and steals any still-unclaimed one (deterministic steal *order*;
/// which groups actually get stolen depends on host timing, which is safe
/// because group state is only ever touched by the claim holder and the
/// delivered schedule is claim-independent).
///
/// Each cycle every worker performs:
///
///   sync_outboxes();            // barrier: previous-window writes visible;
///                               // completion resets the merge claims
///   for g: try_claim_merge(g) → merge g's inbound mailboxes, publish g's
///          pending min and stall progress
///   sync_decide();              // barrier; completion runs decide() once
///   switch (phase()) {
///     kWindow: for g: try_claim_exec(g) → run events of g below bound()
///     kStall:  for g: try_claim_exec(g) → run g's on_stall hooks
///     kExit:   return
///   }
///
/// decide() — executed exactly once per cycle, by the barrier completion, so
/// every group observes an identical snapshot — picks the next phase:
///   * stop requested → kExit
///   * any event pending → kWindow with bound() = global-min + lookahead
///   * all queues empty → kStall (the two-phase global deadlock check: each
///     group runs its own LPs' on_stall hooks, then the next decide() sees
///     the OR of their progress); a stall round with no progress → kExit.
class WindowSync {
 public:
  enum class Phase : std::uint8_t { kWindow, kStall, kExit };

  /// `groups` is also the number of worker threads. `stop` is the engine's
  /// stop flag, sampled once per decide() so that all groups observe a stop
  /// request at the same window boundary.
  WindowSync(int groups, SimTime lookahead, const std::atomic<bool>* stop);

  // Per-group publications — written by the worker holding the group's merge
  // claim, read by decide() across the decide barrier.
  void publish_min(int group, SimTime t) { mins_[static_cast<std::size_t>(group)] = t; }
  void publish_progressed(int group, bool p) {
    progressed_[static_cast<std::size_t>(group)] = p ? 1 : 0;
  }

  /// Pre-merge rendezvous: after it, all groups' outbox writes of the
  /// previous phase are visible and no new writes happen until sync_decide().
  /// The completion re-arms the merge claim tokens.
  void sync_outboxes() { pre_merge_.arrive_and_wait(); }

  /// Post-publish rendezvous; the completion runs decide() and re-arms the
  /// execute claim tokens. Afterwards read phase() / bound().
  void sync_decide() { decide_barrier_.arrive_and_wait(); }

  /// Withdraws a worker from both barriers — called once by a worker that is
  /// unwinding on an exception, so the surviving workers are not left
  /// waiting. The caller must set the engine stop flag first.
  void withdraw() {
    pre_merge_.arrive_and_drop();
    decide_barrier_.arrive_and_drop();
  }

  /// Claim tokens: exactly one worker per cycle wins each group's merge
  /// claim / execute claim. Non-blocking.
  bool try_claim_merge(int group) {
    return merge_claims_[static_cast<std::size_t>(group)].exchange(
               1, std::memory_order_acq_rel) == 0;
  }
  bool try_claim_exec(int group) {
    return exec_claims_[static_cast<std::size_t>(group)].exchange(
               1, std::memory_order_acq_rel) == 0;
  }

  Phase phase() const { return phase_; }
  /// Exclusive upper bound on the event time every group may deliver in the
  /// current window phase.
  SimTime bound() const { return bound_; }
  /// Window phases decided so far.
  std::uint64_t windows() const { return windows_; }

 private:
  struct RunDecide {
    WindowSync* sync;
    void operator()() noexcept { sync->decide(); }
  };
  struct ArmMergeClaims {
    WindowSync* sync;
    void operator()() noexcept {
      for (auto& c : sync->merge_claims_) c.store(0, std::memory_order_relaxed);
    }
  };

  void decide() noexcept;

  SimTime lookahead_;
  const std::atomic<bool>* stop_;
  std::vector<SimTime> mins_;
  std::vector<std::uint8_t> progressed_;
  std::vector<std::atomic<std::uint8_t>> merge_claims_;
  std::vector<std::atomic<std::uint8_t>> exec_claims_;
  Phase phase_ = Phase::kWindow;
  SimTime bound_ = 0;
  std::uint64_t windows_ = 0;
  std::barrier<ArmMergeClaims> pre_merge_;
  std::barrier<RunDecide> decide_barrier_;
};

}  // namespace exasim
