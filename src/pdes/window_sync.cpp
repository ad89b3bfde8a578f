#include "pdes/window_sync.hpp"

#include <algorithm>

namespace exasim {

WindowSync::WindowSync(int groups, SimTime lookahead, const std::atomic<bool>* stop)
    : lookahead_(lookahead),
      stop_(stop),
      mins_(static_cast<std::size_t>(groups), kSimTimeNever),
      progressed_(static_cast<std::size_t>(groups), 0),
      merge_claims_(static_cast<std::size_t>(groups)),
      exec_claims_(static_cast<std::size_t>(groups)),
      pre_merge_(groups, ArmMergeClaims{this}),
      decide_barrier_(groups, RunDecide{this}) {}

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
    // Any event another group sends during this window carries a time at or
    // after its sender's time + lookahead >= bound_, so it lands beyond the
    // window and is merged at the next barrier. Saturating add.
    phase_ = Phase::kWindow;
    bound_ = global_min > kSimTimeNever - lookahead_ ? kSimTimeNever : global_min + lookahead_;
    ++windows_;
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
