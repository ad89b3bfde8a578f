#include "pdes/engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "pdes/lp_group.hpp"
#include "pdes/window_sync.hpp"

namespace exasim {

namespace {

/// Identifies the group worker the current thread is driving, so that
/// Engine::schedule / Engine::now called from inside an LP handler resolve
/// against the group-local state without locks.
struct WorkerCtx {
  Engine* engine = nullptr;
  LpGroup* group = nullptr;
};

thread_local WorkerCtx t_worker;

using util::Counter;
using util::count;

/// Folds one queue's traffic into this thread's counter block.
void count_queue(const EventQueue::LocalStats& s) {
  count(Counter::kQueuePops, s.pops);
  count(Counter::kQueueRunPops, s.run_pops);
  count(Counter::kQueueBulkMerges, s.bulk_merges);
}

[[noreturn]] void throw_causality_violation(const char* what, SimTime time, SimTime local_now) {
  throw std::logic_error(std::string("causality violation: ") + what + " event at " +
                         std::to_string(time) + " ns before local time " +
                         std::to_string(local_now) + " ns");
}

}  // namespace

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

void Engine::set_sharding(ShardingOptions opts) {
  if (opts.workers < 1) opts.workers = 1;
  if (opts.lookahead < 1) opts.lookahead = 1;  // windows must make progress
  if (opts.block_alignment < 1) opts.block_alignment = 1;
  sharding_ = std::move(opts);
}

std::uint64_t Engine::next_seq_for(LpId source) {
  const std::size_t idx = static_cast<std::size_t>(source) + 1;
  // Growth only happens pre-run or in sequential mode; parallel runs presize
  // the vector so worker threads only touch their own LPs' slots.
  if (idx >= seq_by_source_.size()) seq_by_source_.resize(idx + 1, 0);
  return seq_by_source_[idx]++;
}

std::uint64_t Engine::schedule(SimTime time, LpId target, int kind,
                               std::unique_ptr<EventPayload> payload,
                               EventPriority priority, const EventInline& inline_data) {
  LpGroup* grp = (t_worker.engine == this) ? t_worker.group : nullptr;
  const LpId source = grp ? grp->current_source() : current_source_;
  const SimTime local_now = grp ? grp->now() : now_;
  if (time < local_now) throw_causality_violation("scheduled", time, local_now);

  Event ev;
  ev.time = time;
  ev.priority = priority;
  ev.source = source;
  ev.seq = next_seq_for(source);
  ev.target = target;
  ev.kind = kind;
  ev.payload = std::move(payload);
  ev.inline_data = inline_data;

  // Hoisted before the moves below: reading ev.seq after std::move(ev) only
  // worked because moving leaves POD members behind, and reads as a
  // use-after-move either way.
  const std::uint64_t seq = ev.seq;

  if (grp != nullptr) {
    if (target < 0 || static_cast<std::size_t>(target) >= group_of_.size()) {
      throw std::logic_error("event for unknown LP");
    }
    const int dst = group_of_[static_cast<std::size_t>(target)];
    if (dst == grp->index()) {
      grp->queue().push(std::move(ev));
    } else {
      grp->outbox_for(dst).push_back(std::move(ev));
    }
  } else {
    queue_.push(std::move(ev));
  }
  return seq;
}

void Engine::mark_dead(LpId id) {
  if (id < 0) return;
  const std::size_t idx = static_cast<std::size_t>(id);
  // Growth only happens pre-run or in sequential mode; parallel runs presize.
  if (idx >= dead_.size()) dead_.resize(idx + 1, 0);
  dead_[idx] = 1;
}

SimTime Engine::now() const {
  if (t_worker.engine == this) return t_worker.group->now();
  return now_;
}

int Engine::plan_groups() const {
  const std::size_t align = static_cast<std::size_t>(sharding_.block_alignment);
  const std::size_t blocks = (processes_.size() + align - 1) / align;
  const std::size_t workers = static_cast<std::size_t>(sharding_.workers);
  return static_cast<int>(std::max<std::size_t>(1, std::min(workers, blocks)));
}

std::vector<int> Engine::plan_partition(int group_count) const {
  const std::size_t n = processes_.size();
  std::vector<int> map(n, 0);
  // Contiguous blocks of `align` LPs, distributed over the groups as evenly
  // as possible with the first `rem` groups holding one extra block.
  const std::size_t align = static_cast<std::size_t>(sharding_.block_alignment);
  const std::size_t blocks = (n + align - 1) / align;
  const std::size_t groups = static_cast<std::size_t>(group_count);
  const std::size_t base = blocks / groups;
  const std::size_t rem = blocks % groups;
  for (std::size_t id = 0; id < n; ++id) {
    const std::size_t b = id / align;
    std::size_t g;
    if (b < rem * (base + 1)) {
      g = b / (base + 1);
    } else {
      g = rem + (b - rem * (base + 1)) / base;
    }
    map[id] = static_cast<int>(g);
  }
  return map;
}

void Engine::run() {
  const int group_count = plan_groups();
  last_groups_ = group_count;
  worker_counters_ = util::Counters{};
  while (fiber_stacks_.size() < static_cast<std::size_t>(group_count)) {
    fiber_stacks_.push_back(std::make_unique<FiberStack>());
  }
  for (const auto& stack : fiber_stacks_) stack->reset_peak_images();
  if (group_count <= 1) {
    run_sequential();
  } else {
    run_parallel(group_count);
  }
  count_queue(queue_.take_stats());
}

std::uint64_t Engine::stack_images_peak() const {
  std::uint64_t peak = 0;
  for (const auto& stack : fiber_stacks_) peak += stack->peak_images();
  return peak;
}

void Engine::run_sequential() {
  stop_requested_.store(false, std::memory_order_relaxed);
  const FiberStack::Use stack(*fiber_stacks_.front());
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
    if (stop_requested_.load(std::memory_order_relaxed)) return;

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
    if (!progressed && queue_.empty()) return;
  }
}

/// Shared state of one run_parallel invocation, handed to every worker.
struct Engine::WorkerPlan {
  std::vector<std::unique_ptr<LpGroup>> groups;  ///< Group w is worker w's home.
  /// Worker w's counts over the run, each slot written by its own worker.
  std::vector<util::Counters> counts;
  WindowSync* sync = nullptr;
  std::exception_ptr first_error;
  std::mutex error_mu;
};

void Engine::run_parallel(int group_count) {
  stop_requested_.store(false, std::memory_order_relaxed);
  const std::size_t n = processes_.size();
  group_of_ = plan_partition(group_count);
  // Presize shared vectors so worker threads never reallocate them.
  if (dead_.size() < n) dead_.resize(n, 0);
  if (seq_by_source_.size() < n + 1) seq_by_source_.resize(n + 1, 0);

  WorkerPlan plan;
  plan.groups.reserve(static_cast<std::size_t>(group_count));
  for (int g = 0; g < group_count; ++g) {
    plan.groups.push_back(std::make_unique<LpGroup>(g, group_count));
  }
  // Presize each group's member list and queue for its share of the LPs
  // (one start event each), so distributing them allocates per group, not
  // per LP.
  std::vector<std::size_t> share(static_cast<std::size_t>(group_count), 0);
  for (std::size_t id = 0; id < n; ++id) ++share[static_cast<std::size_t>(group_of_[id])];
  for (auto& grp : plan.groups) {
    const std::size_t lps = share[static_cast<std::size_t>(grp->index())];
    grp->members().reserve(lps);
    grp->queue().reserve(lps);
  }
  for (std::size_t id = 0; id < n; ++id) {
    plan.groups[static_cast<std::size_t>(group_of_[id])]->members().push_back(
        static_cast<LpId>(id));
  }
  while (!queue_.empty()) {
    Event ev = queue_.pop();
    if (ev.target < 0 || static_cast<std::size_t>(ev.target) >= n) {
      throw std::logic_error("event for unknown LP");
    }
    plan.groups[static_cast<std::size_t>(group_of_[static_cast<std::size_t>(ev.target)])]
        ->queue()
        .push(std::move(ev));
  }
  // Distributing the pending events moves them; the group queues count
  // their pops when they deliver them.
  EventQueue::LocalStats staged = queue_.take_stats();
  staged.pops = 0;
  count_queue(staged);
  // Carry the engine clock into every group (relevant when run() is called
  // again after a previous run advanced the clock).
  for (auto& grp : plan.groups) grp->advance_now(now_);

  WindowSync sync(group_count, sharding_.lookahead, &stop_requested_);
  plan.sync = &sync;
  plan.counts.resize(static_cast<std::size_t>(group_count));

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(group_count) - 1);
  for (int w = 1; w < group_count; ++w) {
    threads.emplace_back([this, &plan, w] { worker_main(plan, w); });
  }
  worker_main(plan, 0);
  for (std::thread& t : threads) t.join();

  // Fold group-local state back into the engine for the post-run accessors.
  for (auto& grp : plan.groups) {
    events_processed_ += grp->events_processed;
    events_dropped_dead_ += grp->events_dropped_dead;
    if (grp->now() > now_) now_ = grp->now();
    count_queue(grp->queue().take_stats());  // Before the leftovers move out.
    while (!grp->queue().empty()) queue_.push(grp->queue().pop());
    for (int dst = 0; dst < group_count; ++dst) {
      for (Event& ev : grp->outbox_for(dst)) queue_.push(std::move(ev));
      grp->outbox_for(dst).clear();
    }
  }
  count(Counter::kSchedWindows, sync.windows());
  // Worker 0 ran on this thread, so its counts are already in this thread's
  // block.
  for (int w = 1; w < group_count; ++w) {
    worker_counters_ += plan.counts[static_cast<std::size_t>(w)];
  }
  group_of_.clear();
  if (plan.first_error) std::rethrow_exception(plan.first_error);
}

void Engine::worker_main(WorkerPlan& plan, int worker) {
  WindowSync& sync = *plan.sync;
  const int group_count = static_cast<int>(plan.groups.size());
  // Claim scan order: the home group first, then everyone else's in
  // ascending group id, so the steal *order* is deterministic even though
  // which claims this worker wins depends on host timing.
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(group_count));
  order.push_back(worker);
  for (int g = 0; g < group_count; ++g) {
    if (g != worker) order.push_back(g);
  }

  using Clock = std::chrono::steady_clock;
  const util::Counters counts_begin = util::thread_counters();
  std::uint64_t idle_ns = 0;  ///< Barrier wait, summed over the run.
  std::uint64_t steals = 0;
  auto note_counts = [&] {
    count(Counter::kSchedSteals, steals);
    count(Counter::kSchedBarrierIdleNs, idle_ns);
    plan.counts[static_cast<std::size_t>(worker)] = util::thread_counters() - counts_begin;
  };
  auto timed_wait = [&idle_ns](auto&& wait) {
    const Clock::time_point t0 = Clock::now();
    wait();
    idle_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  };

  try {
    for (;;) {
      timed_wait([&sync] { sync.sync_outboxes(); });
      for (int g : order) {
        if (!sync.try_claim_merge(g)) continue;
        LpGroup& grp = *plan.groups[static_cast<std::size_t>(g)];
        merge_group(plan.groups, grp);
        sync.publish_min(g, grp.queue().min_time());
        sync.publish_progressed(g, grp.stall_progressed);
      }
      timed_wait([&sync] { sync.sync_decide(); });
      switch (sync.phase()) {
        case WindowSync::Phase::kWindow:
          for (int g : order) {
            if (!sync.try_claim_exec(g)) continue;
            if (g != worker) ++steals;
            LpGroup& grp = *plan.groups[static_cast<std::size_t>(g)];
            const FiberStack::Use stack(*fiber_stacks_[static_cast<std::size_t>(g)]);
            t_worker = WorkerCtx{this, &grp};
            run_window(grp, sync.bound());
            grp.stall_progressed = false;
            t_worker = WorkerCtx{};
          }
          break;
        case WindowSync::Phase::kStall:
          for (int g : order) {
            if (!sync.try_claim_exec(g)) continue;
            LpGroup& grp = *plan.groups[static_cast<std::size_t>(g)];
            const FiberStack::Use stack(*fiber_stacks_[static_cast<std::size_t>(g)]);
            t_worker = WorkerCtx{this, &grp};
            grp.stall_progressed = run_stall(grp);
            t_worker = WorkerCtx{};
          }
          break;
        case WindowSync::Phase::kExit:
          note_counts();
          return;
      }
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(plan.error_mu);
      if (!plan.first_error) plan.first_error = std::current_exception();
    }
    // Stop before withdrawing so the next decide() already observes it; the
    // early barrier arrivals then stand in for this worker's missing ones.
    stop_requested_.store(true, std::memory_order_release);
    sync.withdraw();
    note_counts();
    t_worker = WorkerCtx{};
  }
}

void Engine::merge_group(std::vector<std::unique_ptr<LpGroup>>& groups, LpGroup& grp) {
  for (auto& src : groups) {
    if (src.get() == &grp) continue;
    std::vector<Event>& inbox = src->outbox_for(grp.index());
    // An inbound event earlier than this group's clock would be delivered
    // after events it precedes. Control events are exempt: across groups they
    // are the zero-lookahead notices of resilience::NotificationBus (failure,
    // abort and revoke), which may land up to one window late (DESIGN.md §11).
    for (const Event& ev : inbox) {
      if (ev.time < grp.now() && ev.priority != EventPriority::kControl) {
        throw_causality_violation("merged", ev.time, grp.now());
      }
    }
    grp.merge_inbox(inbox);
  }
}

void Engine::run_window(LpGroup& grp, SimTime bound) {
  EventQueue& q = grp.queue();
  // Deliberately no stop check inside the window: every group finishes the
  // full window, so the delivered set stays deterministic per worker count.
  while (q.min_time() < bound) {
    Event ev = q.pop();
    if (dead_[static_cast<std::size_t>(ev.target)] != 0) {
      ++grp.events_dropped_dead;
      continue;
    }
    LogicalProcess* lp = processes_[static_cast<std::size_t>(ev.target)];
    if (lp == nullptr) throw std::logic_error("event for unknown LP");
    grp.advance_now(ev.time);
    ++grp.events_processed;
    grp.set_current_source(ev.target);
    lp->on_event(*this, std::move(ev));
    grp.set_current_source(kExternalSource);
  }
}

bool Engine::run_stall(LpGroup& grp) {
  bool progressed = false;
  for (LpId id : grp.members()) {
    LogicalProcess* lp = processes_[static_cast<std::size_t>(id)];
    if (lp == nullptr || lp->terminated() || dead_[static_cast<std::size_t>(id)] != 0) {
      continue;
    }
    grp.set_current_source(id);
    if (lp->on_stall(*this)) progressed = true;
    grp.set_current_source(kExternalSource);
  }
  return progressed;
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
