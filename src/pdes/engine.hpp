#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "fiber/fiber.hpp"
#include "pdes/event.hpp"
#include "pdes/event_queue.hpp"
#include "util/time.hpp"

namespace exasim {

class Engine;

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

/// Sequential conservative discrete-event engine (DESIGN.md §8): every
/// simulated process interleaved on one native thread, using a schedule
/// based on message receive time stamps (paper §IV-A).
///
/// Events execute in deterministic (time, priority, source, per-source seq)
/// order — a key that does not depend on scheduling interleaving, so the
/// delivered schedule is a pure function of the simulated communication
/// plan.
///
/// The engine owns one FiberStack, which the LPs' fibers share by copying
/// their live frames in and out (DESIGN.md §9). The engine must outlive
/// every fiber its runs resumed.
class Engine {
 public:
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

  /// Schedules an event; returns its per-source sequence number. An event
  /// scheduled before now() is a causality violation and throws
  /// std::logic_error (DESIGN.md §11).
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

  /// Runs until the queue drains and no stalled LP makes progress.
  void run();

  /// Requests run() to stop after the current event (used once every
  /// simulated process has aborted and the simulator shuts down).
  void request_stop() { stop_requested_.store(true, std::memory_order_release); }

  /// Time of the most recently delivered event.
  SimTime now() const { return now_; }

  /// LPs that had not terminated when run() returned (deadlock diagnostics).
  std::vector<LpId> unterminated() const;

  /// Peak number of saved fiber stack images during the most recent run().
  std::uint64_t stack_images_peak() const { return fiber_stack_.peak_images(); }

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t events_pending() const { return queue_.size(); }
  std::uint64_t events_dropped_dead() const { return events_dropped_dead_; }

 private:
  std::uint64_t next_seq_for(LpId source);

  std::vector<LogicalProcess*> processes_;
  EventQueue queue_;
  std::vector<std::uint8_t> dead_;  ///< Liveness flags indexed by LP id.
  /// Per-source sequence counters, indexed source + 1 (slot 0 is
  /// kExternalSource).
  std::vector<std::uint64_t> seq_by_source_;
  SimTime now_ = 0;
  LpId current_source_ = kExternalSource;
  std::uint64_t events_processed_ = 0;
  std::uint64_t events_dropped_dead_ = 0;
  std::atomic<bool> stop_requested_{false};
  /// Mapped when its first fiber binds. Last, so it outlives the members
  /// above.
  FiberStack fiber_stack_;
};

}  // namespace exasim
