#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "fiber/fiber.hpp"
#include "pdes/event.hpp"
#include "pdes/event_queue.hpp"
#include "util/counters.hpp"
#include "util/time.hpp"

namespace exasim {

class Engine;
class LpGroup;
class WindowSync;

/// A logical process driven by the engine. The simulated MPI layer implements
/// one LP per simulated MPI process; the LP reacts to message arrivals,
/// simulator-internal notifications, and timer wakeups.
class LogicalProcess {
 public:
  virtual ~LogicalProcess() = default;

  /// Delivers an event. The LP may advance its local state, switch into its
  /// application fiber, and schedule further events on the engine. The event
  /// is the LP's: it may keep the payload (release it from ev.payload)
  /// instead of letting it die with the event.
  virtual void on_event(Engine& engine, Event&& ev) = 0;

  /// Invoked when the event queue drains while this LP has not terminated —
  /// the conservative-PDES deadlock-detection hook ("synchronization
  /// mechanism", paper §IV-C). Return true if the LP made progress (scheduled
  /// new events or terminated); returning false from every stalled LP ends
  /// the run with those LPs reported as deadlocked.
  virtual bool on_stall(Engine& engine) { (void)engine; return false; }

  /// True once the LP needs no more events (finished, failed, or aborted).
  virtual bool terminated() const = 0;
};

/// Conservative discrete-event engine, sharded over LP groups.
///
/// Events execute in deterministic (time, priority, source, per-source seq)
/// order — a key that does not depend on cross-LP scheduling interleaving, so
/// the delivered schedule is a pure function of the simulated communication
/// plan. With `ShardingOptions::workers == 1` (the default) the engine is the
/// original sequential loop: all simulated processes interleaved on one
/// native thread using a schedule based on message receive time stamps
/// (paper §IV-A). With N > 1 workers the LPs are partitioned into N
/// contiguous groups (aligned to `block_alignment`, normally ranks-per-node,
/// so intra-node traffic stays group-local), one per worker; each group has
/// its own event heap, and the groups advance in lock-step conservative
/// windows bounded below `lookahead` — the minimum cross-node delivery
/// latency — past the global minimum (DESIGN.md §11). Each cycle, worker
/// threads claim their home group first and then steal leftovers in
/// group-id order. Cross-group events ride per-(source → target) mailboxes
/// merged at the window barrier; because the window bound and the ordering
/// key are both partition-independent, every worker count delivers the
/// identical event schedule.
///
/// The engine owns one FiberStack per LP group, which the LPs' fibers share
/// by copying their live frames in and out (DESIGN.md §9): a fiber binds to
/// the stack of the group that first resumes it. The stacks are per group,
/// not per worker, because a saved image holds absolute stack addresses and
/// stealing moves groups between workers. The engine must outlive every
/// fiber its runs resumed.
class Engine {
 public:
  /// How to shard the LPs over worker threads. Applies to the next run().
  struct ShardingOptions {
    /// Worker threads, one LP group each. 1 selects the sequential engine;
    /// clamped down to the number of alignment blocks.
    int workers = 1;
    /// Conservative window width, normally
    /// NetworkModel::min_remote_latency() — a provable lower bound over any
    /// route/variant of the network model (contention waits and per-link
    /// timeouts only ever add delay, so the bound survives the link-level
    /// layers; DESIGN.md §12). Clamped up to 1 ns so windows always make
    /// progress.
    SimTime lookahead = 1;
    /// Partition granularity in LPs: groups are unions of contiguous blocks
    /// of this many LPs (normally ranks-per-node, keeping sub-lookahead
    /// intra-node traffic inside one group).
    int block_alignment = 1;
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers an LP. Ids must be dense [0, n) for process LPs; the engine
  /// does not own the LP.
  void add_process(LpId id, LogicalProcess* lp);

  /// Sizes the LP table and the event queue for `lps` processes and one
  /// pending event each, so building a machine allocates per rank only what
  /// the rank itself needs.
  void reserve(std::size_t lps) {
    processes_.reserve(lps);
    queue_.reserve(lps);
  }

  /// Schedules an event; returns its per-source sequence number. Callable
  /// from any worker thread during a parallel run: the event is routed to
  /// the target's group-local heap or, cross-group, to the scheduling
  /// group's outbox for merge at the next window barrier.
  ///
  /// Causality violations throw std::logic_error: an event scheduled before
  /// the scheduling group's local clock, and a cross-group event merged into
  /// a group whose clock has already passed it (conservative windows only
  /// stay exact for events at or after "now"). EventPriority::kControl events
  /// are the one exception at merge: across groups they are the
  /// zero-lookahead failure, abort and revoke notices, which may land up to
  /// one window late (DESIGN.md §11).
  ///
  /// `inline_data` travels in the event itself (Event::inline_data); the
  /// engine never reads it.
  std::uint64_t schedule(SimTime time, LpId target, int kind,
                         std::unique_ptr<EventPayload> payload,
                         EventPriority priority = EventPriority::kMessage,
                         const EventInline& inline_data = {});

  /// Marks an LP dead: all pending and future events targeted at it are
  /// dropped at delivery ("all messages directed to this simulated MPI
  /// process are deleted", paper §IV-B).
  void mark_dead(LpId id);
  bool is_dead(LpId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < dead_.size() &&
           dead_[static_cast<std::size_t>(id)] != 0;
  }

  void set_sharding(ShardingOptions opts);

  /// Group count the most recent run() used (1 = sequential loop).
  int worker_groups() const { return last_groups_; }

  /// Runs until every queue drains and no stalled LP makes progress.
  void run();

  /// Requests run() to stop (used once every simulated process has aborted
  /// and the simulator shuts down). Sequential runs stop after the current
  /// event; parallel runs stop at the next window boundary, so that the set
  /// of delivered events stays deterministic for a given worker count.
  void request_stop() { stop_requested_.store(true, std::memory_order_release); }

  /// Time of the most recently delivered event — group-local when called
  /// from a worker thread during a parallel run, the global maximum after
  /// run() returns.
  SimTime now() const;

  /// LPs that had not terminated when run() returned (deadlock diagnostics).
  std::vector<LpId> unterminated() const;

  /// What the worker threads other than the calling one counted during the
  /// most recent run() (zero for a sequential run). The calling thread ran
  /// worker 0, so a caller meters a run as its own block's difference over
  /// run() plus this.
  const util::Counters& worker_counters() const { return worker_counters_; }

  /// Peak number of saved fiber stack images during the most recent run():
  /// exact for a sequential run, the sum of the LP groups' peaks (an upper
  /// bound) for a sharded one.
  std::uint64_t stack_images_peak() const;

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t events_pending() const { return queue_.size(); }
  std::uint64_t events_dropped_dead() const { return events_dropped_dead_; }

 private:
  struct WorkerPlan;  // Shared state of one run_parallel (defined in .cpp).

  void run_sequential();
  void run_parallel(int group_count);
  void worker_main(WorkerPlan& plan, int worker);
  void merge_group(std::vector<std::unique_ptr<LpGroup>>& groups, LpGroup& grp);
  void run_window(LpGroup& grp, SimTime bound);
  bool run_stall(LpGroup& grp);
  int plan_groups() const;
  std::vector<int> plan_partition(int group_count) const;
  std::uint64_t next_seq_for(LpId source);

  ShardingOptions sharding_;
  std::vector<LogicalProcess*> processes_;
  EventQueue queue_;  ///< Sequential heap; staging/leftover area otherwise.
  /// Liveness flags indexed by LP id. Preallocated before worker threads
  /// start; each slot is then written only by the owning group's worker.
  std::vector<std::uint8_t> dead_;
  /// Per-source sequence counters, indexed source + 1 (slot 0 is
  /// kExternalSource). Preallocated before worker threads start; each LP
  /// slot is then touched only by the owning group's worker.
  std::vector<std::uint64_t> seq_by_source_;
  std::vector<int> group_of_;  ///< LP id → group index; set during run().
  SimTime now_ = 0;
  LpId current_source_ = kExternalSource;  ///< Sequential-mode source tracking.
  std::uint64_t events_processed_ = 0;
  std::uint64_t events_dropped_dead_ = 0;
  int last_groups_ = 1;
  util::Counters worker_counters_;
  std::atomic<bool> stop_requested_{false};
  /// Group g's fiber stack, grown before worker threads start; a stack is
  /// mapped when its first fiber binds.
  std::vector<std::unique_ptr<FiberStack>> fiber_stacks_;
};

}  // namespace exasim
