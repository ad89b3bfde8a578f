#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <vector>

#include "pdes/scheduler.hpp"
#include "util/time.hpp"

namespace exasim {

/// Lock-step conservative window synchronization for the sharded engine
/// (paper §IV-A: simulated MPI processes advance under conservative
/// synchronization): the barriers, phase machine and claim tokens. How wide
/// each group's next window is comes from the WindowPlanner (DESIGN.md §11),
/// held by value and invoked once per cycle from the decide barrier.
///
/// Worker threads and LP groups are decoupled: `workers` threads rendezvous
/// at the barriers while `groups >= workers` groups are claimed per phase
/// through atomic claim tokens — a worker first claims its home groups, then
/// scans the remaining groups in id order and steals any still-unclaimed one
/// (deterministic steal *order*; which groups actually get stolen depends on
/// host timing, which is safe because group state is only ever touched by
/// the claim holder and the delivered schedule is claim-independent).
///
/// Each cycle every worker performs:
///
///   sync_outboxes();            // barrier: previous-window writes visible;
///                               // completion resets the merge claims
///   for g: try_claim_merge(g) → merge g's inbound mailboxes, publish g's
///          pending min + feedback
///   publish_idle_ns(worker, …);
///   sync_decide();              // barrier; completion runs decide() once
///   switch (phase()) {
///     kWindow: for g: try_claim_exec(g) → run events of g below bound(g)
///     kStall:  for g: try_claim_exec(g) → run g's on_stall hooks
///     kExit:   return
///   }
///
/// decide() — executed exactly once per cycle, by the barrier completion, so
/// every group observes an identical snapshot — picks the next phase:
///   * stop requested → kExit
///   * any event pending → kWindow; the WindowPlanner fills the per-group
///     bounds (the fixed preset: global-min + lookahead for everyone; the
///     adaptive preset widens inside the safe envelope min-over-others +
///     lookahead)
///   * all queues empty → kStall (the two-phase global deadlock check: each
///     group runs its own LPs' on_stall hooks, then the next decide() sees
///     the OR of their progress); a stall round with no progress → kExit.
class WindowSync {
 public:
  enum class Phase : std::uint8_t { kWindow, kStall, kExit };

  /// `scheduler` selects the planner preset deciding per-group bounds.
  /// `stop` is the engine's stop flag, sampled once per decide() so that all
  /// groups observe a stop request at the same window boundary.
  WindowSync(int workers, int groups, SimTime lookahead, const SchedulerSpec& scheduler,
             const std::atomic<bool>* stop);

  // Per-group publications — written by the worker holding the group's merge
  // claim, read by decide() across the decide barrier.
  void publish_min(int group, SimTime t) { mins_[static_cast<std::size_t>(group)] = t; }
  void publish_window_events(int group, std::uint64_t n) {
    window_events_[static_cast<std::size_t>(group)] = n;
  }
  void publish_progressed(int group, bool p) {
    progressed_[static_cast<std::size_t>(group)] = p ? 1 : 0;
  }
  /// Barrier-idle feedback: ns this worker spent waiting at barriers since
  /// its previous publication (consumed by the next decide()).
  void publish_idle_ns(int worker, std::uint64_t ns) {
    idle_ns_[static_cast<std::size_t>(worker)] = ns;
  }

  /// Pre-merge rendezvous: after it, all groups' outbox writes of the
  /// previous phase are visible and no new writes happen until sync_decide().
  /// The completion re-arms the merge claim tokens.
  void sync_outboxes() { pre_merge_.arrive_and_wait(); }

  /// Post-publish rendezvous; the completion runs decide() and re-arms the
  /// execute claim tokens. Afterwards read phase() / bound(g).
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
  SimTime bound(int group) const { return bounds_[static_cast<std::size_t>(group)]; }

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

  WindowPlanner planner_;
  const std::atomic<bool>* stop_;
  std::vector<SimTime> mins_;
  std::vector<std::uint64_t> window_events_;
  std::vector<std::uint8_t> progressed_;
  std::vector<std::uint64_t> idle_ns_;
  std::vector<std::atomic<std::uint8_t>> merge_claims_;
  std::vector<std::atomic<std::uint8_t>> exec_claims_;
  Phase phase_ = Phase::kWindow;
  std::vector<SimTime> bounds_;
  std::barrier<ArmMergeClaims> pre_merge_;
  std::barrier<RunDecide> decide_barrier_;
};

}  // namespace exasim
