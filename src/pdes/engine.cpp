#include "pdes/engine.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "util/counters.hpp"

namespace exasim {

void Engine::add_process(LpId id, LogicalProcess* lp) {
  if (id < 0) throw std::invalid_argument("negative LP id");
  if (static_cast<std::size_t>(id) >= processes_.size()) {
    processes_.resize(static_cast<std::size_t>(id) + 1, nullptr);
  }
  if (processes_[static_cast<std::size_t>(id)] != nullptr) {
    throw std::invalid_argument("duplicate LP id");
  }
  processes_[static_cast<std::size_t>(id)] = lp;
}

std::uint64_t Engine::next_seq_for(LpId source) {
  const std::size_t idx = static_cast<std::size_t>(source) + 1;
  if (idx >= seq_by_source_.size()) seq_by_source_.resize(idx + 1, 0);
  return seq_by_source_[idx]++;
}

std::uint64_t Engine::schedule(SimTime time, LpId target, int kind,
                               std::unique_ptr<EventPayload> payload,
                               EventPriority priority, const EventInline& inline_data) {
  if (time < now_) {
    throw std::logic_error("causality violation: scheduled event at " + std::to_string(time) +
                           " ns before local time " + std::to_string(now_) + " ns");
  }
  Event ev;
  ev.time = time;
  ev.priority = priority;
  ev.source = current_source_;
  ev.seq = next_seq_for(current_source_);
  ev.target = target;
  ev.kind = kind;
  ev.payload = std::move(payload);
  ev.inline_data = inline_data;
  const std::uint64_t seq = ev.seq;
  queue_.push(std::move(ev));
  return seq;
}

void Engine::mark_dead(LpId id) {
  if (id < 0) return;
  const std::size_t idx = static_cast<std::size_t>(id);
  if (idx >= dead_.size()) dead_.resize(idx + 1, 0);
  dead_[idx] = 1;
}

void Engine::run() {
  stop_requested_.store(false, std::memory_order_relaxed);
  fiber_stack_.reset_peak_images();
  const FiberStack::Use stack(fiber_stack_);
  for (;;) {
    while (!queue_.empty() && !stop_requested_.load(std::memory_order_relaxed)) {
      Event ev = queue_.pop();
      if (is_dead(ev.target)) {
        ++events_dropped_dead_;
        continue;
      }
      if (ev.target < 0 || static_cast<std::size_t>(ev.target) >= processes_.size() ||
          processes_[static_cast<std::size_t>(ev.target)] == nullptr) {
        throw std::logic_error("event for unknown LP");
      }
      now_ = ev.time;
      ++events_processed_;
      current_source_ = ev.target;
      processes_[static_cast<std::size_t>(ev.target)]->on_event(*this, std::move(ev));
      current_source_ = kExternalSource;
    }
    if (stop_requested_.load(std::memory_order_relaxed)) break;

    // Quiescence: give stalled LPs a chance to make progress (release failed
    // ANY_SOURCE waits etc.). If nobody progresses, stop — unterminated()
    // then reports the deadlocked set.
    bool progressed = false;
    for (std::size_t id = 0; id < processes_.size(); ++id) {
      LogicalProcess* lp = processes_[id];
      if (lp == nullptr || lp->terminated() || is_dead(static_cast<LpId>(id))) {
        continue;
      }
      current_source_ = static_cast<LpId>(id);
      if (lp->on_stall(*this)) progressed = true;
      current_source_ = kExternalSource;
    }
    if (!progressed && queue_.empty()) break;
  }
  const EventQueue::LocalStats s = queue_.take_stats();
  util::count(util::Counter::kQueuePops, s.pops);
  util::count(util::Counter::kQueueRunPops, s.run_pops);
}

std::vector<LpId> Engine::unterminated() const {
  std::vector<LpId> out;
  for (std::size_t id = 0; id < processes_.size(); ++id) {
    LogicalProcess* lp = processes_[id];
    if (lp != nullptr && !lp->terminated() && !is_dead(static_cast<LpId>(id))) {
      out.push_back(static_cast<LpId>(id));
    }
  }
  return out;
}

}  // namespace exasim
