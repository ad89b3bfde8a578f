#include "pdes/window_sync.hpp"

#include <algorithm>

namespace exasim {

WindowSync::WindowSync(int workers, int groups, SimTime lookahead, const SchedulerSpec& scheduler,
                       const std::atomic<bool>* stop)
    : planner_(scheduler, lookahead),
      stop_(stop),
      mins_(static_cast<std::size_t>(groups), kSimTimeNever),
      window_events_(static_cast<std::size_t>(groups), 0),
      progressed_(static_cast<std::size_t>(groups), 0),
      idle_ns_(static_cast<std::size_t>(workers), 0),
      merge_claims_(static_cast<std::size_t>(groups)),
      exec_claims_(static_cast<std::size_t>(groups)),
      bounds_(static_cast<std::size_t>(groups), 0),
      pre_merge_(workers, ArmMergeClaims{this}),
      decide_barrier_(workers, RunDecide{this}) {}

void WindowSync::decide() noexcept {
  // Re-arm the execute claims for the phase about to start. The barrier
  // release orders these stores before any worker's try_claim_exec.
  for (auto& c : exec_claims_) c.store(0, std::memory_order_relaxed);

  if (stop_->load(std::memory_order_acquire)) {
    phase_ = Phase::kExit;
    return;
  }
  SimTime global_min = kSimTimeNever;
  for (SimTime t : mins_) global_min = std::min(global_min, t);
  if (global_min != kSimTimeNever) {
    phase_ = Phase::kWindow;
    bool idled = false;
    for (auto& ns : idle_ns_) {
      idled = idled || ns != 0;
      ns = 0;
    }
    const int widenings = planner_.plan(mins_, window_events_, idled, bounds_);
    sched_note_window(static_cast<std::uint64_t>(widenings));
    return;
  }
  // All heaps and mailboxes drained. If the previous phase was
  // already a stall round and nobody progressed, the remaining LPs are
  // deadlocked.
  bool progressed = false;
  for (std::uint8_t p : progressed_) progressed = progressed || p != 0;
  phase_ = (phase_ == Phase::kStall && !progressed) ? Phase::kExit : Phase::kStall;
}

}  // namespace exasim
