#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fiber/fiber.hpp"
#include "netmodel/network.hpp"
#include "pdes/engine.hpp"
#include "powermodel/power.hpp"
#include "resilience/fault_state.hpp"
#include "resilience/notice.hpp"
#include "procmodel/processor.hpp"
#include "util/time.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/context.hpp"
#include "vmpi/message.hpp"
#include "vmpi/request.hpp"
#include "vmpi/trace.hpp"
#include "vmpi/types.hpp"

namespace exasim::vmpi {

class SimProcess;

/// Control-flow signals used to unwind the application fiber on process
/// failure / abort. Deliberately NOT derived from std::exception so that
/// application-level `catch (const std::exception&)` blocks cannot swallow
/// them; applications must not use `catch (...)` without rethrowing.
struct ProcessFailedSignal {};
struct ProcessAbortSignal {};

/// Machine-level services the per-process layer calls out to. Implemented by
/// core::Machine; this interface keeps vmpi below core in the layering.
class SystemHooks {
 public:
  virtual ~SystemHooks() = default;

  /// Called once when a process fails at `when` (actual failure time).
  /// Responsible for the simulator-internal notification broadcast, marking
  /// the LP dead, and the informational message (paper §IV-B).
  virtual void process_failed(SimProcess& proc, SimTime when) = 0;

  /// Called once when a process invokes MPI_Abort at `when` (paper §IV-D).
  virtual void abort_called(SimProcess& proc, SimTime when) = 0;

  /// ULFM: broadcast a communicator revocation (paper §VI).
  virtual void comm_revoked(SimProcess& proc, int comm_id, SimTime when) = 0;

  /// Called whenever a process reaches a terminal state.
  virtual void process_terminated(SimProcess& proc) = 0;

  /// Called when a std::exception escapes the application (or the model
  /// code it calls) on a rank's fiber. The rank's fiber has ended without a
  /// simulated outcome; the machine stops the run and reports the error.
  virtual void fiber_exception(std::exception_ptr error) = 0;

  /// Global list of world ranks not (yet) failed, in ascending order so
  /// callers can binary-search it — the simulator-internal membership
  /// shortcut used by MPI_Comm_shrink (documented in DESIGN.md).
  virtual std::vector<Rank> alive_world_ranks() const = 0;
};

/// Collective algorithm family used by the simulated MPI library. The paper
/// configures linear algorithms (§V-C); binomial trees are the co-design
/// alternative the ablation benches compare against.
enum class CollectiveAlgo : std::uint8_t { kLinear, kBinomialTree };

/// Per-process configuration shared by the whole simulated machine.
struct ProcessConfig {
  std::size_t fiber_stack_bytes = 128 * 1024;  ///< Each LP group's shared stack.
  bool measured_compute = false;  ///< Also fold scaled native fiber CPU time
                                  ///< into the virtual clock (xSim's mode).
  CollectiveAlgo collective_algo = CollectiveAlgo::kLinear;  ///< Paper default.
  /// Resume a blocked rank's fiber on every delivery instead of filtering
  /// wakes against its recorded block condition (DESIGN.md §13). The
  /// delivered schedule is identical either way; tests set it to prove that.
  bool eager_wakeup = false;
};

/// Application entry point. Runs on the process's fiber with plain
/// blocking-style calls on the Context — the analog of a native MPI main().
using AppMain = std::function<void(Context&)>;

/// What every rank of one machine shares: the models, the engine, the
/// application entry point and the optional sinks. The Machine owns one and
/// each SimProcess points to it, so none of it is stored per rank
/// (DESIGN.md §9).
struct ProcessShared {
  Engine* engine = nullptr;
  const NetworkModel* network = nullptr;
  const ProcessorModel* proc_model = nullptr;
  SystemHooks* hooks = nullptr;
  CommRegistry* registry = nullptr;
  AppMain app;
  ProcessConfig config;
  int world_size = 0;
  EnergyLedger* energy = nullptr;  ///< Optional energy accounting.
  TraceSink* trace = nullptr;      ///< Optional MPI-operation tracing.
  /// Machine-provided service bag (Context::services), opaque to vmpi.
  void* services = nullptr;
};

/// One simulated MPI process: a PDES logical process owning an application
/// fiber, a virtual clock, message matching state, and failure/abort state
/// (paper §IV-A/§IV-B).
///
/// A process is one heap block: the Fiber, the Context and the world
/// communicator are members, machine-wide wiring is one pointer to the
/// ProcessShared, and state most ranks never use (failed-peer lists, soft
/// errors, extra communicators) is allocated on first use (DESIGN.md §9).
class SimProcess final : public LogicalProcess {
 public:
  /// `shared` must outlive the process (the Machine owns it).
  SimProcess(Rank world_rank, const ProcessShared& shared, SimTime initial_clock);
  ~SimProcess() override;

  SimProcess(const SimProcess&) = delete;
  SimProcess& operator=(const SimProcess&) = delete;

  // -- LogicalProcess ---------------------------------------------------
  void on_event(Engine& engine, Event&& ev) override;
  bool on_stall(Engine& engine) override;
  bool terminated() const override { return outcome() != ProcOutcome::kRunning; }

  // -- Identity / state --------------------------------------------------
  Rank world_rank() const { return world_rank_; }
  int world_size() const { return shared_->world_size; }
  SimTime clock() const { return clock_; }
  ProcOutcome outcome() const { return outcome_.load(std::memory_order_relaxed); }
  /// Final virtual time (valid once terminated).
  SimTime end_time() const { return end_time_; }
  Comm& world_comm() { return world_; }

  // -- Failure injection (paper §IV-B) ------------------------------------
  /// Sets the earliest virtual time at which this process fails. Called by
  /// the machine at startup from the failure schedule; also reachable from
  /// the application via Context::inject_failure (the "simulator-internal
  /// function" of §IV-B). kSimTimeNever = never fail.
  void set_time_of_failure(SimTime t) { fault_.time_of_failure = t; }
  SimTime time_of_failure() const { return fault_.time_of_failure; }

  /// Programmatic injection (Context::inject_failure): arms the earliest
  /// failure time AND schedules the activation event, so the process dies on
  /// time even while blocked — the same path the machine uses at startup.
  void inject_failure_at(SimTime t);

  /// Failed peers this process has been notified about, in ascending failed
  /// rank, each with its time of failure and the notice's arrival (paper
  /// §IV-B: "each simulated MPI process maintains its own list of failed
  /// simulated MPI processes and their corresponding time of failure").
  /// The one record of what the process was told: core::Machine builds
  /// SimResult::notice_arrivals from these lists.
  std::span<const resilience::NoticeArrival> failed_peers() const {
    if (rare_ == nullptr) return {};
    return rare_->failed_peers;
  }

  /// The machine's MPI-operation trace sink; nullptr when tracing is off.
  TraceSink* trace() { return shared_->trace; }

  /// Always-on performance accounting: virtual time spent computing vs in
  /// communication (blocked or transferring) — the performance-investigation
  /// numbers xSim exists to produce.
  SimTime busy_time() const { return busy_time_; }
  SimTime comm_time() const { return comm_time_; }

  /// Entries in use and reserved in the request-slot and match-bucket
  /// tables. Both grow by half their capacity (DESIGN.md §9), so a table
  /// whose size never passed a step of 1, 2, 3, 4, 6, 9, 13, ... holds no
  /// unused entry.
  struct TableSizes {
    std::size_t slots = 0;
    std::size_t slot_capacity = 0;
    std::size_t buckets = 0;
    std::size_t bucket_capacity = 0;
  };
  TableSizes table_sizes() const {
    return {slots_.size(), slots_.capacity(), buckets_.size(), buckets_.capacity()};
  }

  // -- Internal API used by Context (the simulated MPI implementation) ----
  // These run on the application fiber and may block (yield) or unwind via
  // ProcessFailedSignal / ProcessAbortSignal.

  /// Advances the virtual clock by dt, then applies failure/abort activation
  /// (paper §IV-B: failure activates when "the simulated MPI process is
  /// executing, updates its simulated process clock, and the clock reaches or
  /// goes beyond the ... time of failure"). Inline: the common step is three
  /// adds and four compares (defined below the class).
  inline void advance_clock(SimTime dt, bool busy = true);
  /// Raises the clock to at least t (no-op if already past).
  void raise_clock_to(SimTime t, bool busy = false);

  /// Measured-compute mode (xSim's native path): folds the host CPU time the
  /// application fiber consumed since the last control point into the
  /// virtual clock, scaled by the processor model. No-op unless
  /// ProcessConfig::measured_compute is set (the inline check).
  void fold_native_time() {
    if (shared_->config.measured_compute) fold_measured_time();
  }

  /// allow_revoked lets ULFM recovery operations (shrink/agree) communicate
  /// on a revoked communicator; ordinary traffic completes with kRevoked.
  RequestHandle post_send(Comm& comm, Rank dest, int tag, const void* data, std::size_t bytes,
                          bool allow_revoked = false);
  RequestHandle post_recv(Comm& comm, Rank src, int tag, void* buffer, std::size_t capacity,
                          bool allow_revoked = false);

  /// Blocks until every request is terminal; fills `statuses` (nullptr, or an
  /// array parallel to `handles`). Returns the first non-success error,
  /// Err::kSuccess otherwise, after passing it through `errors_to`'s error
  /// handler when that is not null (an application's wait; a collective
  /// applies its handler once, at its end). Completed requests are released.
  Err wait_all(std::span<const RequestHandle> handles, MsgStatus* statuses,
               Comm* errors_to = nullptr);

  /// Nonblocking completion check; releases the request when done.
  bool test(RequestHandle h, MsgStatus* status, Err* err);

  /// Blocking probe: waits until a matching message is available without
  /// receiving it. Fails like a receive if the source dies.
  Err probe(Comm& comm, Rank src, int tag, MsgStatus* status);

  /// Immediately fails this process at the current clock ("calling this
  /// simulator-internal function" — §IV-B). Does not return.
  [[noreturn]] void fail_now();

  /// MPI_Abort: prints, broadcasts the abort notification, unwinds.
  [[noreturn]] void abort_now();

  /// Applies the communicator's error handler to a non-success error from a
  /// completed operation: kFatal aborts (does not return), kUser invokes the
  /// user handler then returns e, kReturn returns e.
  Err apply_error_handler(Comm& comm, Err e);

  void mark_finalized() { finalized_ = true; }
  bool finalized() const { return finalized_; }

  // Communicator management (called by Context).
  Comm* comm_dup(Comm& parent);
  Comm* comm_shrink(Comm& parent);
  void comm_revoke(Comm& comm);
  /// Applies a revoke notice locally (called via hooks broadcast); pending
  /// operations on the communicator complete with kRevoked at `when`.
  void apply_revoke(int comm_id, SimTime when);

  const ProcessShared& shared() const { return *shared_; }
  const NetworkModel& network() const { return *shared_->network; }
  const ProcessConfig& config() const { return shared_->config; }
  const ProcessorModel& proc_model() const { return *shared_->proc_model; }
  Engine& engine() { return *shared_->engine; }
  CommRegistry& registry() { return *shared_->registry; }
  Context& context() { return context_; }

  /// ULFM MPI_Comm_failure_ack: snapshots the failed peers this process
  /// knows of that are members of `comm` into the communicator
  /// (Comm::acked_failures).
  void failure_ack(Comm& comm);

  /// Simulator-global alive set used by shrink/agree membership agreement.
  std::vector<Rank> alive_world_ranks_for_shrink() const {
    return shared_->hooks->alive_world_ranks();
  }

  // -- Soft-error injection (paper §VI future-work item 1) -----------------
  // xSim added "tracking of dynamic memory allocation of simulated MPI
  // processes ... the last piece needed to develop a soft error injector".
  // Applications register their state buffers; scheduled bit flips apply at
  // the first clock update at/after their time — same activation semantics
  // as process failures.

  /// Registers (or re-registers) a named application memory region.
  void register_memory(const std::string& name, void* ptr, std::size_t bytes);
  void unregister_memory(const std::string& name);
  std::size_t registered_bytes() const;

  /// Schedules a single bit flip at virtual time t. bit_index selects the
  /// target bit across all registered regions (modulo total bits at
  /// activation). Returns false if no memory could ever be registered —
  /// flips with no registered memory at activation are dropped and counted.
  void schedule_bit_flip(SimTime t, std::uint64_t bit_index);
  std::uint64_t bit_flips_applied() const { return soft_errors_ ? soft_errors_->applied() : 0; }
  std::uint64_t bit_flips_dropped() const { return soft_errors_ ? soft_errors_->dropped() : 0; }

 private:
  friend class Context;

  // The out-of-line halves of the inline clock step: the measured-compute
  // fold, and what follows a clock advance when an energy ledger is
  // attached, soft errors exist or an activation time is reached (in this
  // order: energy, bit flips, check_signals).
  void fold_measured_time();
  void after_clock_advance(SimTime dt, bool busy);

  // Fiber body & scheduling. The fiber's entry is fiber_entry(this).
  static void fiber_entry(void* self) { static_cast<SimProcess*>(self)->fiber_body(); }
  void fiber_body();
  void run_fiber();
  template <class Ready>
  void block_until(Ready ready);
  /// wait_all after its requests completed: statuses, trace records,
  /// release, clock, error handler. Out of line, so the frame a blocked
  /// wait keeps on the fiber's stack holds only what the wait itself needs.
  Err finish_wait(std::span<const RequestHandle> handles, MsgStatus* statuses, Comm* errors_to);

  // Wakeup filter (DESIGN.md §13). While the fiber is blocked, the block
  // condition is recorded here: the count of outstanding waited requests
  // (each flagged Request::waited) or a probe's match spec. Event handlers
  // then resume the fiber via maybe_run_fiber(), which skips the resume
  // unless something flipped the recorded condition — the last waited
  // request completed (mark_done counts down to zero, so a wait_all resumes
  // once) or a probe-visible unexpected message arrived (note_unexpected).
  // Handlers whose effect block_until itself re-evaluates (abort notices)
  // or that force an unwind (failure activation, stall release) keep
  // resuming unconditionally. Every resume the filter skips
  // would have been a pure no-op — the predicates are side-effect-free and
  // completion times never depend on when the fiber re-checks them — so the
  // delivered schedule is byte-identical to eager mode
  // (ProcessConfig::eager_wakeup disables the filter to prove it).
  enum class WaitKind : std::uint8_t { kNone, kRequests, kProbe };
  void register_probe_wait(int comm_id, Rank src, Rank src_world, int tag);
  void clear_wait();
  /// The one transition to Stage::kDone: counts down a waited request and
  /// marks the wake pending when it was the last one.
  void mark_done(Request& r);
  void note_unexpected(const Envelope& env);
  void maybe_run_fiber();

  // Event handlers.
  /// `attachment`: the event's payload, null for a modeled eager message.
  void handle_msg_arrival(const Envelope& env, std::unique_ptr<EventPayload>& attachment,
                          SimTime t);
  void handle_cts(CtsPayload& p, SimTime t);
  void handle_data(const Envelope& env, const MsgPayload& p, SimTime t);
  void handle_failure_activation(SimTime t);
  void handle_failure_notice(FailureNoticePayload& p, SimTime t);
  void handle_abort_notice(AbortNoticePayload& p, SimTime t);
  void handle_error_wakeup(ErrorWakeupPayload& p);

  // Matching engine.
  /// One (comm id, source comm rank) match key: heads and tails of the
  /// intrusive FIFOs of posted receives (through Request::next) and of
  /// unexpected messages (through UnexpectedMsg::next).
  struct MatchBucket {
    int comm_id = 0;
    Rank src = 0;
    std::uint32_t posted_head = kNoSlot;
    std::uint32_t posted_tail = kNoSlot;
    std::uint32_t unexpected_head = kNoSlot;
    std::uint32_t unexpected_tail = kNoSlot;
  };
  /// Earliest-arrived unexpected message matching a spec: its bucket, slab
  /// slot and FIFO predecessor (msg == kNoSlot: none).
  struct UnexpectedHit {
    std::uint32_t bucket = kNoSlot;
    std::uint32_t msg = kNoSlot;
    std::uint32_t prev = kNoSlot;
  };
  /// The next request serial. Throws std::overflow_error once a rank has
  /// posted 2^32 - 1 requests, before a serial could repeat.
  std::uint32_t take_serial();
  std::uint32_t slot_of(const Request& r) const {
    return static_cast<std::uint32_t>(&r - slots_.data());
  }
  RequestHandle handle_of(const Request& r) const { return RequestHandle{r.serial, slot_of(r)}; }
  Request& acquire_request(Request::Kind kind, const Comm& comm, Rank peer, int tag,
                           std::size_t bytes, SimTime post_time);
  Request* find_request(RequestHandle h);
  void release_request(RequestHandle h);
  /// Request slots, the first kInline in place and the rest on the heap: a
  /// failure notice, stall or revoke usually finds a handful, and a survivor
  /// should not pay a heap block for them.
  class SlotList {
   public:
    void push_back(std::uint32_t slot) {
      if (size_ < kInline) {
        inline_[size_++] = slot;
        return;
      }
      if (size_ == kInline) heap_.assign(inline_.begin(), inline_.end());
      heap_.push_back(slot);
      ++size_;
    }
    std::uint32_t* begin() { return size_ > kInline ? heap_.data() : inline_.data(); }
    std::uint32_t* end() { return begin() + size_; }
    const std::uint32_t* begin() const { return size_ > kInline ? heap_.data() : inline_.data(); }
    const std::uint32_t* end() const { return begin() + size_; }
    bool empty() const { return size_ == 0; }

   private:
    static constexpr std::size_t kInline = 8;
    std::array<std::uint32_t, kInline> inline_{};
    std::size_t size_ = 0;
    std::vector<std::uint32_t> heap_;
  };
  /// Live requests satisfying `pred`, as slots in post (serial) order — the
  /// order the cold paths that schedule events while iterating must keep.
  template <class Pred>
  SlotList live_requests_by_serial(Pred pred) const;
  // Each message looks its bucket up once on each side: an arrival
  // resolves its (comm, source) bucket once for the posted scan and the
  // unexpected push, and a receive resolves its FIFO once for the
  // unexpected scan and the indexing, then keeps it in Request::fifo. The
  // lookup scans buckets_ while there are at most kScanBuckets (a halo
  // rank has up to seven) and probes the bucket table from the next one on.
  static constexpr std::size_t kScanBuckets = 8;
  std::uint32_t find_bucket(int comm_id, Rank src) const;  ///< kNoSlot if none.
  std::uint32_t add_bucket(int comm_id, Rank src);         ///< Must be absent.
  std::uint32_t bucket_for(int comm_id, Rank src);         ///< Finds or adds.
  /// `fifo` as in Request::fifo: one bucket, kAnyFifo (every bucket of
  /// comm_id), or kNoSlot (none, so no hit).
  UnexpectedHit find_unexpected(std::uint32_t fifo, int comm_id, int tag) const;
  bool match(const Envelope& env, const Request& r) const;
  /// `m`: the message's attachment, null when it carries no bytes.
  void complete_recv_from_msg(Request& r, const Envelope& env, const MsgPayload* m,
                              SimTime arrival);
  void start_rendezvous_recv(Request& r, const Envelope& env, RequestHandle send_req,
                             SimTime arrival);
  /// `b`: the arrival's bucket (kNoSlot if it has none yet).
  bool try_match_posted(const Envelope& env, const MsgPayload* m, std::uint32_t b,
                        SimTime arrival);
  bool try_match_unexpected(Request& r, std::uint32_t fifo);
  void record_trace(const Request& r);

  // Failure/abort plumbing. Release times honor both the §IV-C per-request
  // timeout and the detector's notice delivery time (t_detect): an error
  // cannot surface before the process has been told about the failure.
  void check_signals();  ///< Throws Failed/Abort signals if activation is due.
  /// The notice of `peer_world`'s failure; nullptr while this process has
  /// not been told of it. The "no failure known" test is peers_failed_,
  /// which sits on the line the post paths already read.
  const resilience::NoticeArrival* failure_notice(Rank peer_world) const {
    return peers_failed_ ? resilience::find_notice(rare_->failed_peers, peer_world) : nullptr;
  }
  /// `notice`: the failed peer, its time of failure and its detection time.
  void schedule_error_wakeup(Request& r, const resilience::NoticeArrival& notice);
  void fail_requests_on_notice(const resilience::NoticeArrival& notice);
  void terminate(ProcOutcome outcome, SimTime when);

  Comm* new_comm(int id, std::vector<Rank> members, const Comm& inherit_from);
  /// The world communicator or one this process created; nullptr if none.
  Comm* find_comm(int id);

  /// State few ranks ever use, in one block allocated on first use: the
  /// bucket table of a rank with more than kScanBuckets sources (a linear
  /// collective's root), the communicators comm_dup / comm_split /
  /// comm_shrink add, the failed-process list the first failure notice
  /// starts, and the measured-compute CPU-time snapshot.
  struct RareState {
    std::vector<std::uint32_t> bucket_table;  ///< Power-of-two size; kNoSlot = empty.
    std::vector<std::unique_ptr<Comm>> comms;
    /// Delivered failure notices, sorted by failed rank (failed_peers()).
    std::vector<resilience::NoticeArrival> failed_peers;
    std::uint64_t last_native_ns = 0;  ///< Measured-compute snapshot.
  };
  RareState& rare();  ///< Allocates on first use.

  // Fields are ordered by first touch. An arrival reads the identity and
  // wiring, the recorded block condition and the matching heads, so they
  // come first and share cache lines; the clock step reads the clock, the
  // time accounts, the soft-error pointer and the activation times at the
  // head of fault_, which come next (DESIGN.md §9).

  // Identity & wiring. The four one-byte flags fill the gap before shared_.
  Rank world_rank_;
  /// Atomic: Machine::alive_world_ranks reads every rank's outcome from
  /// whichever engine worker executes MPI_Comm_shrink.
  std::atomic<ProcOutcome> outcome_{ProcOutcome::kRunning};
  bool started_ = false;
  bool finalized_ = false;
  bool in_fiber_ = false;
  const ProcessShared* shared_;

  // Recorded block condition (see the wakeup-filter note above).
  WaitKind wait_kind_ = WaitKind::kNone;
  bool wake_pending_ = false;  ///< Condition flipped; resume at next wake site.
  /// A failure notice arrived, so rare_->failed_peers is not empty. In the
  /// padding before waiting_, on the line post_send and post_recv read.
  bool peers_failed_ = false;
  std::uint32_t waiting_ = 0;  ///< Waited requests not yet done (kRequests).
  int wait_comm_id_ = 0;       ///< Probe spec: communicator id,
  Rank wait_src_ = kAnySource;        ///< source comm rank (may be kAnySource),
  Rank wait_src_world_ = -1;          ///< resolved world rank (-1 = ANY),
  int wait_tag_ = kAnyTag;            ///< tag (may be kAnyTag).

  // Messaging state (DESIGN.md §13), flat per-process arrays that a message
  // in steady state reuses without touching the general heap.
  //
  // Requests live in a slot table; free slots are chained through
  // Request::next from free_slot_. A handle is (slot, serial) and the serial
  // rejects stale handles, so lookup and release are O(1). Slot order is
  // not post order once slots are reused: paths that must visit requests in
  // post order sort by serial. A completed eager send takes no slot
  // (RequestHandle::completed_send). Like every table below, it grows by
  // half its capacity, at least one entry (DESIGN.md §9).
  std::vector<Request> slots_;
  std::uint32_t next_serial_ = 1;
  std::uint32_t free_slot_ = kNoSlot;
  // Match index from (comm id, source comm rank) to a MatchBucket. Buckets
  // are append-only (never erased), so steady traffic causes no churn. Up
  // to kScanBuckets of them are found by scanning buckets_, which fits in a
  // few cache lines; the bucket that exceeds it builds the open-addressing
  // RareState::bucket_table, grown geometrically at load <= 1/2, so a linear
  // collective's root with tens of thousands of sources still finds its
  // bucket in O(1). Most ranks never build one. ANY_SOURCE receives have
  // their own post-ordered FIFO; every transition out of Stage::kPosted
  // calls unindex_posted, a no-op for a receive that was never indexed.
  void index_posted(Request& r, std::uint32_t fifo);
  void unindex_posted(Request& r);
  std::uint32_t any_head_ = kNoSlot;
  std::uint32_t any_tail_ = kNoSlot;
  std::uint32_t free_unexpected_ = kNoSlot;  ///< See unexpected_msgs_.
  std::vector<MatchBucket> buckets_;
  // Unexpected messages in a slab whose free entries are chained through
  // UnexpectedMsg::next from free_unexpected_, linked into buckets; each
  // entry holds its arrival's envelope and owns its attachment, if any.
  std::vector<UnexpectedMsg> unexpected_msgs_;
  std::uint64_t next_arrival_seq_ = 1;

  // Clock step state.
  SimTime clock_ = 0;
  SimTime busy_time_ = 0;
  SimTime comm_time_ = 0;
  // Soft-error state, allocated by the first registration or scheduled flip.
  std::unique_ptr<resilience::SoftErrorState> soft_errors_;
  resilience::SoftErrorState& soft_errors();  ///< Allocates on first use.
  // Failure and abort activation times, owned by the resilience subsystem.
  resilience::FaultState fault_;

  // Execution state.
  Context context_{this};
  SimTime end_time_ = 0;

  // MPI_COMM_WORLD inline; the ones comm_dup / comm_split / comm_shrink add
  // are in rare_.
  Comm world_;
  Comm* add_comm(std::unique_ptr<Comm> c);
  std::unique_ptr<RareState> rare_;

  // Declared last: destroying the fiber unwinds any frames it still holds
  // (a process left blocked at teardown, e.g. after a deadlock verdict), and
  // those frames reference the context/request/comm state above.
  Fiber fiber_;
};

inline void SimProcess::advance_clock(SimTime dt, bool busy) {
  (busy ? busy_time_ : comm_time_) += dt;
  clock_ += dt;
  if (shared_->energy != nullptr || soft_errors_ != nullptr ||
      clock_ >= fault_.time_of_failure || clock_ >= fault_.pending_abort) [[unlikely]] {
    after_clock_advance(dt, busy);
  }
}

// Declared in context.hpp, which includes this header at its end, so every
// caller sees the definition: a modeled compute step runs inline.
inline void Context::compute(double units) {
  proc_->fold_native_time();
  proc_->advance_clock(proc_->proc_model().work_time(units));
}

}  // namespace exasim::vmpi
