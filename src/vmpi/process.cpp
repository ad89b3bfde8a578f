#include "vmpi/process.hpp"

#include <ctime>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <utility>

#include "resilience/policy.hpp"
#include "util/counters.hpp"
#include "util/log.hpp"
#include "util/parse.hpp"
#include "vmpi/context.hpp"

namespace exasim::vmpi {

namespace {

// Slab and intrusive-FIFO primitives over the matching engine's flat arrays
// (element types carry a `next` index). A slab's free entries form a stack
// chained through `next` from `free`, so the last released is reused first.
//
// Every per-rank table grows by half its capacity, at least one entry, not
// by doubling: a table's size is the most entries the rank ever had in use
// at once, so its first growths (1, 2, 3, 4, 6, 9, 13, ...) leave it with
// little or no unused room, while a linear collective's root, whose tables
// reach the world size, still copies each entry O(1) times (DESIGN.md §9).
template <class T>
void make_room_for_one(std::vector<T>& store) {
  if (store.size() == store.capacity()) {
    store.reserve(store.capacity() + std::max<std::size_t>(1, store.capacity() / 2));
  }
}

template <class T>
std::uint32_t slab_acquire(std::vector<T>& store, std::uint32_t& free) {
  if (free != kNoSlot) {
    const std::uint32_t i = free;
    free = store[i].next;
    store[i].next = kNoSlot;
    return i;
  }
  make_room_for_one(store);
  store.emplace_back();
  return static_cast<std::uint32_t>(store.size() - 1);
}

template <class T>
void slab_release(std::vector<T>& store, std::uint32_t& free, std::uint32_t i) {
  store[i] = T{};  // Frees any message block the entry holds; a free slot has serial 0.
  store[i].next = free;
  free = i;
}

template <class T>
void fifo_push(std::vector<T>& store, std::uint32_t& head, std::uint32_t& tail,
               std::uint32_t i) {
  store[i].next = kNoSlot;
  if (tail == kNoSlot) {
    head = i;
  } else {
    store[tail].next = i;
  }
  tail = i;
}

template <class T>
void fifo_unlink(std::vector<T>& store, std::uint32_t& head, std::uint32_t& tail,
                 std::uint32_t prev, std::uint32_t i) {
  if (prev == kNoSlot) {
    head = store[i].next;
  } else {
    store[prev].next = store[i].next;
  }
  if (tail == i) tail = prev;
}

std::size_t bucket_hash(int comm_id, Rank src) {
  const std::uint64_t key = (std::uint64_t{static_cast<std::uint32_t>(comm_id)} << 32) |
                            static_cast<std::uint32_t>(src);
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32);
}

}  // namespace

SimProcess::SimProcess(Rank world_rank, const ProcessShared& shared, SimTime initial_clock)
    : world_rank_(world_rank),
      shared_(&shared),
      clock_(initial_clock),
      fiber_(&SimProcess::fiber_entry, this, shared.config.fiber_stack_bytes) {
  if (shared.engine == nullptr || shared.network == nullptr || shared.proc_model == nullptr ||
      shared.hooks == nullptr || shared.registry == nullptr) {
    throw std::invalid_argument("null wiring");
  }
  world_.id = CommRegistry::kWorldId;
  world_.set_identity_members(shared.world_size);  // O(1): no per-process member list.
  world_.my_rank = world_rank_;
}

SimProcess::~SimProcess() {
  for (const Request& r : slots_) {
    if (r.serial != 0 && r.kind == Request::Kind::kSend) delete r.rdv_data;
  }
}

// ---------------------------------------------------------------------------
// Fiber lifecycle
// ---------------------------------------------------------------------------

void SimProcess::fiber_body() {
  try {
    check_signals();  // "fail immediately" schedules activate before any work.
    shared_->app(context_);
    if (!finalized_) {
      // Returning from the application main without MPI_Finalize is a
      // failure-injection trigger (paper §IV-B).
      throw ProcessFailedSignal{};
    }
    terminate(ProcOutcome::kFinished, clock_);
  } catch (const ProcessFailedSignal&) {
    terminate(ProcOutcome::kFailed, clock_);
  } catch (const ProcessAbortSignal&) {
    terminate(ProcOutcome::kAborted, clock_);
  } catch (const std::exception&) {
    // Not a simulated outcome but a defect in application or model code
    // (say, negative work): hand it to the machine, which stops the run and
    // rethrows it from Machine::run. Fiber::Unwind and the two signals are
    // not std::exceptions, so they never land here.
    shared_->hooks->fiber_exception(std::current_exception());
  }
}

namespace {

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

void SimProcess::fold_measured_time() {
  const std::uint64_t now = thread_cpu_ns();
  std::uint64_t& last = rare().last_native_ns;
  if (last != 0 && now > last) advance_clock(shared_->proc_model->scale_native(now - last));
  last = now;
}

SimProcess::RareState& SimProcess::rare() {
  if (rare_ == nullptr) rare_ = std::make_unique<RareState>();
  return *rare_;
}

void SimProcess::run_fiber() {
  if (terminated() || fiber_.finished()) return;
  if (shared_->config.measured_compute) rare().last_native_ns = thread_cpu_ns();
  in_fiber_ = true;
  fiber_.resume();
  in_fiber_ = false;
}

void SimProcess::maybe_run_fiber() {
  if (!started_ || in_fiber_) return;
  // Resume unless a recorded block condition says this wake cannot matter.
  // kNone (blocked outside a registered wait, or not blocked at all) always
  // resumes — the filter only ever skips provably spurious wakes.
  if (shared_->config.eager_wakeup || wait_kind_ == WaitKind::kNone || wake_pending_) {
    wake_pending_ = false;
    run_fiber();
    return;
  }
  util::count(util::Counter::kWakeupsSuppressed);
}

void SimProcess::register_probe_wait(int comm_id, Rank src, Rank src_world, int tag) {
  wait_kind_ = WaitKind::kProbe;
  wait_comm_id_ = comm_id;
  wait_src_ = src;
  wait_src_world_ = src_world;
  wait_tag_ = tag;
}

void SimProcess::clear_wait() {
  wait_kind_ = WaitKind::kNone;
  wake_pending_ = false;
}

void SimProcess::mark_done(Request& r) {
  r.stage = Request::Stage::kDone;
  if (r.waited) {
    r.waited = false;
    // wait_all is blocked until every waited request is done: only the last
    // completion can flip its predicate.
    if (--waiting_ == 0) wake_pending_ = true;
  }
}

void SimProcess::note_unexpected(const Envelope& env) {
  // Mirrors the probe() scan: a blocked probe observes exactly the messages
  // matching its (comm, source, tag) spec.
  if (wait_kind_ != WaitKind::kProbe) return;
  if (env.comm_id != wait_comm_id_) return;
  if (wait_src_ != kAnySource && env.src_comm_rank != wait_src_) return;
  if (wait_tag_ != kAnyTag && env.tag != wait_tag_) return;
  wake_pending_ = true;
}

template <class Ready>
void SimProcess::block_until(Ready ready) {
  for (;;) {
    if (fault_.forced_failure != kSimTimeNever) {
      clock_ = std::max(clock_, fault_.forced_failure);
      fault_.forced_failure = kSimTimeNever;
      throw ProcessFailedSignal{};
    }
    if (fault_.forced_abort != kSimTimeNever) {
      clock_ = std::max(clock_, fault_.forced_abort);
      fault_.forced_abort = kSimTimeNever;
      throw ProcessAbortSignal{};
    }
    if (ready()) return;
    Fiber::yield();
  }
}

void SimProcess::terminate(ProcOutcome outcome, SimTime when) {
  assert(outcome != ProcOutcome::kRunning);
  outcome_ = outcome;
  end_time_ = when;
  if (outcome == ProcOutcome::kFailed) {
    shared_->hooks->process_failed(*this, when);
  }
  shared_->hooks->process_terminated(*this);
}

// ---------------------------------------------------------------------------
// Clock & signals
// ---------------------------------------------------------------------------

void SimProcess::after_clock_advance(SimTime dt, bool busy) {
  if (EnergyLedger* energy = shared_->energy; energy != nullptr && dt > 0) {
    if (busy) {
      energy->add_busy(world_rank_, dt);
    } else {
      energy->add_comm(world_rank_, dt);
    }
  }
  if (soft_errors_ != nullptr && soft_errors_->pending()) soft_errors_->apply_due(clock_);
  check_signals();
}

resilience::SoftErrorState& SimProcess::soft_errors() {
  if (soft_errors_ == nullptr) soft_errors_ = std::make_unique<resilience::SoftErrorState>();
  return *soft_errors_;
}

void SimProcess::register_memory(const std::string& name, void* ptr, std::size_t bytes) {
  soft_errors().register_region(name, ptr, bytes);
}

void SimProcess::unregister_memory(const std::string& name) {
  if (soft_errors_ != nullptr) soft_errors_->unregister_region(name);
}

std::size_t SimProcess::registered_bytes() const {
  return soft_errors_ != nullptr ? soft_errors_->registered_bytes() : 0;
}

void SimProcess::schedule_bit_flip(SimTime t, std::uint64_t bit_index) {
  soft_errors().schedule_flip(t, bit_index);
}

void SimProcess::raise_clock_to(SimTime t, bool busy) {
  if (t > clock_) advance_clock(t - clock_, busy);
}

void SimProcess::check_signals() {
  // Failure takes precedence over abort at the same activation point.
  if (clock_ >= fault_.time_of_failure) throw ProcessFailedSignal{};
  if (clock_ >= fault_.pending_abort) throw ProcessAbortSignal{};
}

void SimProcess::fail_now() {
  fault_.time_of_failure = std::min(fault_.time_of_failure, clock_);
  throw ProcessFailedSignal{};
}

void SimProcess::abort_now() {
  // Paper §IV-D: informational message, then simulator-internal broadcast of
  // the abort and its time.
  shared_->hooks->abort_called(*this, clock_);
  throw ProcessAbortSignal{};
}

Err SimProcess::apply_error_handler(Comm& comm, Err e) {
  if (e == Err::kSuccess) return e;
  using resilience::ErrorAction;
  const UserErrorHandler* user = comm.user_handler();
  switch (resilience::ErrorHandlerPolicy::dispatch(comm.handler, user != nullptr)) {
    case ErrorAction::kAbort:
      abort_now();  // does not return
    case ErrorAction::kInvokeUserThenReturn:
      (*user)(context_, comm, e);
      return e;
    case ErrorAction::kReturn:
      return e;
  }
  return e;
}

// ---------------------------------------------------------------------------
// Engine-side event handling
// ---------------------------------------------------------------------------

void SimProcess::on_event(Engine& engine, Event&& ev) {
  (void)engine;
  if (ev.kind == kEvStart) {
    if (terminated()) return;
    started_ = true;
    run_fiber();
    return;
  }
  if (terminated()) return;  // Late arrivals to finished/aborted processes.
  // One waited request left: this event probably completes it and resumes
  // the fiber, so start fetching the fiber's saved frames now. The handler's
  // own cache misses hide most of the latency.
  if (waiting_ == 1 && wait_kind_ == WaitKind::kRequests) fiber_.prefetch();

  switch (ev.kind) {
    case kEvMsgArrival:
      handle_msg_arrival(ev.inline_data.get<Envelope>(), ev.payload, ev.time);
      break;
    case kEvCtsArrival:
      handle_cts(static_cast<CtsPayload&>(*ev.payload), ev.time);
      break;
    case kEvDataArrival:
      handle_data(ev.inline_data.get<Envelope>(), static_cast<MsgPayload&>(*ev.payload),
                  ev.time);
      break;
    case kEvFailureActivation:
      handle_failure_activation(ev.time);
      break;
    case kEvFailureNotice:
      handle_failure_notice(static_cast<FailureNoticePayload&>(*ev.payload), ev.time);
      break;
    case kEvAbortNotice:
      handle_abort_notice(static_cast<AbortNoticePayload&>(*ev.payload), ev.time);
      break;
    case kEvErrorWakeup:
      handle_error_wakeup(static_cast<ErrorWakeupPayload&>(*ev.payload));
      break;
    case kEvRevokeNotice: {
      auto& p = static_cast<RevokeNoticePayload&>(*ev.payload);
      apply_revoke(p.comm_id, p.time);
      break;
    }
    default:
      throw std::logic_error("unknown event kind");
  }
}

void SimProcess::handle_msg_arrival(const Envelope& env,
                                    std::unique_ptr<EventPayload>& attachment, SimTime t) {
  const auto* m = static_cast<const MsgPayload*>(attachment.get());
  std::uint32_t b = find_bucket(env.comm_id, env.src_comm_rank);
  if (!try_match_posted(env, m, b, t)) {
    // No matching posted receive yet: unexpected queue (normal MPI behavior),
    // which copies the envelope and takes any attachment over as is.
    note_unexpected(env);
    if (b == kNoSlot) b = add_bucket(env.comm_id, env.src_comm_rank);
    const std::uint32_t i = slab_acquire(unexpected_msgs_, free_unexpected_);
    UnexpectedMsg& u = unexpected_msgs_[i];
    u.env = env;
    u.attachment.reset(static_cast<MsgPayload*>(attachment.release()));
    u.arrival_time = t;
    u.arrival_seq = next_arrival_seq_++;
    fifo_push(unexpected_msgs_, buckets_[b].unexpected_head, buckets_[b].unexpected_tail, i);
  }
  maybe_run_fiber();
}

void SimProcess::handle_cts(CtsPayload& p, SimTime t) {
  // A sender request that errored out (timeout release) is done, or already
  // released and its slot reused: drop the CTS.
  Request* r = find_request(p.send_req);
  if (r == nullptr || r->stage != Request::Stage::kAwaitingCts) return;
  // Clear-to-send: the NIC injects the payload now. The sender's request
  // completes once injection finishes; the receiver gets the bulk data
  // (built at post time) after the in-flight time.
  std::unique_ptr<MsgPayload> data{std::exchange(r->rdv_data, nullptr)};
  data->req = p.recv_req;
  const Envelope env{r->comm_id, find_comm(r->comm_id)->my_rank, world_rank_, r->tag, r->bytes};
  const NetworkModel& net = *shared_->network;
  shared_->engine->schedule(t + net.delivery_time_at(t, world_rank_, r->peer_world_rank, r->bytes),
                            r->peer_world_rank, kEvDataArrival, std::move(data),
                            EventPriority::kMessage, EventInline::of(env));
  if (shared_->energy != nullptr) shared_->energy->add_traffic(world_rank_, r->bytes);
  r->complete_time = t + net.sender_occupancy(r->bytes);
  r->error = Err::kSuccess;
  mark_done(*r);
  maybe_run_fiber();
}

void SimProcess::handle_data(const Envelope& env, const MsgPayload& p, SimTime t) {
  // Same rule as the CTS: a receive that timed out meanwhile drops the data.
  Request* r = find_request(p.req);
  if (r == nullptr || r->stage != Request::Stage::kAwaitingData) return;
  if (r->recv_buffer != nullptr && p.data_bytes != 0) {
    // The buffer may lie on the fiber's stack while another fiber occupies it.
    const std::size_t n = std::min(r->bytes, p.data_bytes);
    std::memcpy(fiber_.locate(r->recv_buffer, n), p.data(), n);
  }
  r->error = env.bytes > r->bytes ? Err::kTruncate : Err::kSuccess;
  r->bytes = env.bytes;
  r->delivered = true;
  r->complete_time = t + shared_->network->receiver_overhead();
  mark_done(*r);
  maybe_run_fiber();
}

void SimProcess::inject_failure_at(SimTime t) {
  const SimTime when = std::max(t, clock_);
  fault_.time_of_failure = std::min(fault_.time_of_failure, when);
  shared_->engine->schedule(when, world_rank_, kEvFailureActivation, nullptr,
                            EventPriority::kControl);
}

void SimProcess::handle_failure_activation(SimTime t) {
  // The scheduled time is the *earliest* failure time; the process actually
  // fails when the simulator has control with clock >= that time (§IV-B).
  if (fault_.time_of_failure == kSimTimeNever) fault_.time_of_failure = t;
  if (!started_) {
    // Failure before the process ever ran.
    terminate(ProcOutcome::kFailed, std::max(clock_, t));
    return;
  }
  // The process is blocked (a started, non-terminated process is always
  // parked in block_until between events). Force the unwind at
  // max(clock, scheduled time).
  fault_.forced_failure = std::max(clock_, t);
  run_fiber();
}

void SimProcess::handle_failure_notice(FailureNoticePayload& p, SimTime t) {
  // The notice arrives at this process's detection time (the bus schedules
  // it there), so the event time is the detection time.
  const resilience::NoticeArrival notice{world_rank_, p.failed_rank, p.time_of_failure, t};
  resilience::insert_notice(rare().failed_peers, notice);
  peers_failed_ = true;
  fail_requests_on_notice(notice);
  // A probe on the failed rank can now return kProcFailed. Notices never
  // resume the fiber themselves (eager mode doesn't either); mark the flip so
  // the next wake site lets the probe re-scan.
  if (wait_kind_ == WaitKind::kProbe && wait_src_world_ == p.failed_rank) {
    wake_pending_ = true;
  }
}

void SimProcess::fail_requests_on_notice(const resilience::NoticeArrival& notice) {
  // Release (and fail) blocked requests involving the failed process after a
  // simulated communication timeout (paper §IV-C): unmatched and rendezvous
  // receives, and sends waiting for a clear-to-send. Post order keeps the
  // scheduled wakeups in a stable sequence.
  const Rank failed_rank = notice.failed_rank;
  const auto blocked_on_failed = live_requests_by_serial([failed_rank](const Request& r) {
    if (r.done() || r.error_wakeup_scheduled || r.peer_world_rank != failed_rank) return false;
    return r.kind == Request::Kind::kRecv ? r.stage == Request::Stage::kPosted ||
                                                r.stage == Request::Stage::kAwaitingData
                                          : r.stage == Request::Stage::kAwaitingCts;
  });
  for (const std::uint32_t i : blocked_on_failed) {
    schedule_error_wakeup(slots_[i], notice);
  }
}

void SimProcess::schedule_error_wakeup(Request& r, const resilience::NoticeArrival& notice) {
  auto p = std::make_unique<ErrorWakeupPayload>();
  p->request = handle_of(r);
  p->error = Err::kProcFailed;
  // §IV-C timeout release, floored at the detector's notice delivery time:
  // the error cannot surface before this process learned of the failure.
  // With the paper-instant detector t_detect == t_fail and the floor is a
  // no-op, preserving the paper's exact release times.
  p->error_time = std::max(std::max(r.post_time, notice.t_fail) +
                               shared_->network->failure_timeout(world_rank_, notice.failed_rank),
                           notice.arrival);
  r.error_wakeup_scheduled = true;
  // Read the time out before std::move(p): parameter construction order is
  // unspecified, and moving first would null p under this call.
  const SimTime when = p->error_time;
  shared_->engine->schedule(when, world_rank_, kEvErrorWakeup, std::move(p),
                            EventPriority::kControl);
}

void SimProcess::handle_error_wakeup(ErrorWakeupPayload& p) {
  // Completed successfully in the meantime (its slot may even hold a newer
  // request by now, which the serial check rejects).
  Request* r = find_request(p.request);
  if (r == nullptr || r->done()) return;
  unindex_posted(*r);
  r->complete_time = p.error_time;
  r->error = p.error;
  mark_done(*r);
  maybe_run_fiber();
}

void SimProcess::handle_abort_notice(AbortNoticePayload& p, SimTime t) {
  (void)t;
  // Abort activates when the process's clock reaches/passes the abort time
  // (§IV-D). A process with a completion in flight finishes that operation
  // first; one blocked with nothing coming is released at engine stall.
  fault_.pending_abort = std::min(fault_.pending_abort, p.time_of_abort);
  if (started_ && !in_fiber_) run_fiber();  // Re-evaluate wait predicates.
}

bool SimProcess::on_stall(Engine& engine) {
  (void)engine;
  if (!started_ || terminated()) return false;

  // Pending abort with nothing left in flight: abort now at
  // max(clock, time of abort).
  if (fault_.pending_abort != kSimTimeNever) {
    fault_.forced_abort = std::max(clock_, fault_.pending_abort);
    run_fiber();
    return true;
  }

  // Scheduled failure whose activation event was consumed... cannot happen
  // (activation resumes us). What can strand us: unmatched MPI_ANY_SOURCE
  // receives (and probes) whose peers failed — released here through the
  // conservative-sync deadlock detection (paper §IV-C).
  bool progressed = false;
  const auto any_source_recvs = live_requests_by_serial([](const Request& r) {
    return r.kind == Request::Kind::kRecv && r.stage == Request::Stage::kPosted &&
           r.peer_comm_rank == kAnySource;
  });
  for (const std::uint32_t i : any_source_recvs) {
    Request& r = slots_[i];
    // Earliest failed member of the request's communicator (the lowest rank
    // among equal times).
    const Comm* comm = find_comm(r.comm_id);
    if (comm == nullptr) continue;
    const resilience::NoticeArrival* first = nullptr;
    for (const resilience::NoticeArrival& n : failed_peers()) {
      if (comm->rank_of_world(n.failed_rank) < 0) continue;
      if (first == nullptr || n.t_fail < first->t_fail) first = &n;
    }
    if (first == nullptr) continue;
    unindex_posted(r);
    const SimTime timeout = shared_->network->failure_timeout(world_rank_, first->failed_rank);
    r.complete_time = std::max(std::max(r.post_time, first->t_fail) + timeout, first->arrival);
    r.error = Err::kProcFailed;
    mark_done(r);
    progressed = true;
  }
  if (progressed) {
    run_fiber();
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Matching engine
// ---------------------------------------------------------------------------

std::uint32_t SimProcess::take_serial() {
  if (next_serial_ == 0) throw std::overflow_error("vmpi: request serials exhausted");
  return next_serial_++;
}

Request& SimProcess::acquire_request(Request::Kind kind, const Comm& comm, Rank peer, int tag,
                                     std::size_t bytes, SimTime post_time) {
  const std::uint32_t slot = slab_acquire(slots_, free_slot_);
  Request& r = slots_[slot];
  r.serial = take_serial();
  r.kind = kind;
  r.comm_id = comm.id;
  r.peer_comm_rank = peer;
  r.peer_world_rank = peer == kAnySource ? -1 : comm.world_of(peer);
  r.tag = tag;
  r.bytes = bytes;
  r.post_time = post_time;
  return r;
}

Request* SimProcess::find_request(RequestHandle h) {
  if (h.serial == 0 || h.slot >= slots_.size() || slots_[h.slot].serial != h.serial) {
    return nullptr;
  }
  return &slots_[h.slot];
}

void SimProcess::release_request(RequestHandle h) {
  Request* r = find_request(h);
  if (r == nullptr) return;
  unindex_posted(*r);
  if (r->kind == Request::Kind::kSend) delete r->rdv_data;
  slab_release(slots_, free_slot_, h.slot);
}

template <class Pred>
std::vector<std::uint32_t> SimProcess::live_requests_by_serial(Pred pred) const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].serial != 0 && pred(slots_[i])) out.push_back(i);
  }
  std::sort(out.begin(), out.end(), [this](std::uint32_t a, std::uint32_t b) {
    return slots_[a].serial < slots_[b].serial;
  });
  return out;
}

std::uint32_t SimProcess::find_bucket(int comm_id, Rank src) const {
  if (buckets_.size() <= kScanBuckets) {
    // At most kScanBuckets: one pass over a few contiguous lines beats a
    // hash into a second array.
    for (std::uint32_t b = 0; b < buckets_.size(); ++b) {
      if (buckets_[b].comm_id == comm_id && buckets_[b].src == src) return b;
    }
    return kNoSlot;
  }
  const std::vector<std::uint32_t>& table = rare_->bucket_table;
  const std::size_t mask = table.size() - 1;
  for (std::size_t i = bucket_hash(comm_id, src) & mask;; i = (i + 1) & mask) {
    const std::uint32_t b = table[i];
    if (b == kNoSlot || (buckets_[b].comm_id == comm_id && buckets_[b].src == src)) return b;
  }
}

std::uint32_t SimProcess::bucket_for(int comm_id, Rank src) {
  const std::uint32_t found = find_bucket(comm_id, src);
  return found != kNoSlot ? found : add_bucket(comm_id, src);
}

std::uint32_t SimProcess::add_bucket(int comm_id, Rank src) {
  make_room_for_one(buckets_);
  buckets_.push_back(MatchBucket{comm_id, src});
  const auto b = static_cast<std::uint32_t>(buckets_.size() - 1);
  if (buckets_.size() <= kScanBuckets) return b;  // Found by scanning.
  std::vector<std::uint32_t>& table = rare().bucket_table;
  auto insert = [this, &table](std::uint32_t k) {
    const std::size_t mask = table.size() - 1;
    std::size_t i = bucket_hash(buckets_[k].comm_id, buckets_[k].src) & mask;
    while (table[i] != kNoSlot) i = (i + 1) & mask;
    table[i] = k;
  };
  if (2 * buckets_.size() > table.size()) {
    // Build or grow to the smallest power of two keeping the load at most
    // 1/2 (32 entries for the first build at 9 buckets), then reinsert
    // every bucket.
    table.assign(std::bit_ceil(2 * buckets_.size()), kNoSlot);
    for (std::uint32_t k = 0; k <= b; ++k) insert(k);
  } else {
    insert(b);
  }
  return b;
}

SimProcess::UnexpectedHit SimProcess::find_unexpected(std::uint32_t fifo, int comm_id,
                                                      int tag) const {
  UnexpectedHit best;
  auto consider_bucket = [&](std::uint32_t b) {
    std::uint32_t prev = kNoSlot;
    for (std::uint32_t i = buckets_[b].unexpected_head; i != kNoSlot;
         prev = i, i = unexpected_msgs_[i].next) {
      const UnexpectedMsg& m = unexpected_msgs_[i];
      if (tag != kAnyTag && m.env.tag != tag) continue;
      if (best.msg == kNoSlot || m.arrival_seq < unexpected_msgs_[best.msg].arrival_seq) {
        best = UnexpectedHit{b, i, prev};
      }
      return;  // Per-source FIFOs are arrival-ordered: first match wins.
    }
  };
  if (fifo != kAnyFifo) {
    if (fifo != kNoSlot) consider_bucket(fifo);
  } else {
    // ANY_SOURCE: the earliest matching arrival across all of this
    // communicator's source buckets (deterministic via arrival_seq).
    for (std::uint32_t b = 0; b < buckets_.size(); ++b) {
      if (buckets_[b].comm_id == comm_id) consider_bucket(b);
    }
  }
  return best;
}

bool SimProcess::match(const Envelope& env, const Request& r) const {
  if (r.kind != Request::Kind::kRecv || r.stage != Request::Stage::kPosted) return false;
  if (r.comm_id != env.comm_id) return false;
  if (r.peer_comm_rank != kAnySource && r.peer_comm_rank != env.src_comm_rank) return false;
  if (r.tag != kAnyTag && r.tag != env.tag) return false;
  return true;
}

void SimProcess::index_posted(Request& r, std::uint32_t fifo) {
  if (fifo == kAnyFifo) {
    fifo_push(slots_, any_head_, any_tail_, slot_of(r));
  } else {
    fifo_push(slots_, buckets_[fifo].posted_head, buckets_[fifo].posted_tail, slot_of(r));
  }
  r.fifo = fifo;
}

void SimProcess::unindex_posted(Request& r) {
  if (r.fifo == kNoSlot) return;  // Not indexed (or matched when posted).
  std::uint32_t& head = r.fifo == kAnyFifo ? any_head_ : buckets_[r.fifo].posted_head;
  std::uint32_t& tail = r.fifo == kAnyFifo ? any_tail_ : buckets_[r.fifo].posted_tail;
  r.fifo = kNoSlot;
  // The entry is almost always the head: receives match in post order.
  const std::uint32_t slot = slot_of(r);
  std::uint32_t prev = kNoSlot;
  for (std::uint32_t i = head; i != kNoSlot; prev = i, i = slots_[i].next) {
    if (i == slot) {
      fifo_unlink(slots_, head, tail, prev, i);
      return;
    }
  }
}

void SimProcess::complete_recv_from_msg(Request& r, const Envelope& env, const MsgPayload* m,
                                        SimTime arrival) {
  unindex_posted(r);
  if (r.recv_buffer != nullptr && m != nullptr && m->data_bytes != 0) {
    // Also reached from an arrival handler, outside the fiber (see handle_data).
    const std::size_t n = std::min(r.bytes, m->data_bytes);
    std::memcpy(fiber_.locate(r.recv_buffer, n), m->data(), n);
  }
  r.complete_time = std::max(r.post_time, arrival) + shared_->network->receiver_overhead();
  r.matched = true;
  r.peer_comm_rank = env.src_comm_rank;
  r.peer_world_rank = env.src_world_rank;
  r.tag = env.tag;
  r.error = env.bytes > r.bytes ? Err::kTruncate : Err::kSuccess;
  r.bytes = env.bytes;
  r.delivered = true;
  mark_done(r);
}

void SimProcess::start_rendezvous_recv(Request& r, const Envelope& env, RequestHandle send_req,
                                       SimTime arrival) {
  unindex_posted(r);
  // Match time: when this receiver processes the RTS. CTS flies back to the
  // sender; the bulk data will arrive as a kEvDataArrival.
  const NetworkModel& net = *shared_->network;
  const SimTime match_time = std::max(r.post_time, arrival) + net.receiver_overhead();
  auto cts = std::make_unique<CtsPayload>();
  cts->send_req = send_req;
  cts->recv_req = handle_of(r);
  shared_->engine->schedule(
      match_time + net.delivery_time_at(match_time, world_rank_, env.src_world_rank, 0),
      env.src_world_rank, kEvCtsArrival, std::move(cts));
  r.stage = Request::Stage::kAwaitingData;
  r.matched = true;
  r.peer_comm_rank = env.src_comm_rank;
  r.peer_world_rank = env.src_world_rank;
  r.tag = env.tag;
}

bool SimProcess::try_match_posted(const Envelope& env, const MsgPayload* m, std::uint32_t b,
                                  SimTime arrival) {
  // MPI matching order: the earliest-posted matching receive wins. Serials
  // are post-ordered and both FIFOs keep post order, so the winner is the
  // lower-serial of the first tag-compatible entry in the explicit
  // (comm, source) bucket and in the ANY_SOURCE FIFO.
  Request* best = nullptr;
  if (b != kNoSlot) {
    for (std::uint32_t i = buckets_[b].posted_head; i != kNoSlot; i = slots_[i].next) {
      if (match(env, slots_[i])) {
        best = &slots_[i];
        break;
      }
    }
  }
  for (std::uint32_t i = any_head_; i != kNoSlot; i = slots_[i].next) {
    if (best != nullptr && slots_[i].serial >= best->serial) break;
    if (match(env, slots_[i])) {
      best = &slots_[i];
      break;
    }
  }
  if (best == nullptr) return false;
  if (MsgPayload::rendezvous(m)) {
    start_rendezvous_recv(*best, env, m->req, arrival);
  } else {
    complete_recv_from_msg(*best, env, m, arrival);
  }
  return true;
}

bool SimProcess::try_match_unexpected(Request& r, std::uint32_t fifo) {
  const UnexpectedHit hit = find_unexpected(fifo, r.comm_id, r.tag);
  if (hit.msg == kNoSlot) return false;
  const UnexpectedMsg& u = unexpected_msgs_[hit.msg];
  if (MsgPayload::rendezvous(u.attachment.get())) {
    start_rendezvous_recv(r, u.env, u.attachment->req, u.arrival_time);
  } else {
    complete_recv_from_msg(r, u.env, u.attachment.get(), u.arrival_time);
  }
  MatchBucket& b = buckets_[hit.bucket];
  fifo_unlink(unexpected_msgs_, b.unexpected_head, b.unexpected_tail, hit.prev, hit.msg);
  slab_release(unexpected_msgs_, free_unexpected_, hit.msg);
  return true;
}

void SimProcess::record_trace(const Request& r) {
  TraceRecord rec;
  rec.op = r.kind == Request::Kind::kSend ? TraceRecord::Op::kSend : TraceRecord::Op::kRecv;
  rec.rank = world_rank_;
  rec.start = r.post_time;
  rec.end = r.complete_time;
  const MsgStatus st = r.status();
  rec.peer = r.kind == Request::Kind::kSend ? r.peer_world_rank
                                            : (r.peer_world_rank >= 0 ? r.peer_world_rank
                                                                      : kAnySource);
  rec.tag = r.kind == Request::Kind::kSend ? r.tag : st.tag;
  rec.bytes = r.kind == Request::Kind::kSend ? r.bytes : st.bytes;
  rec.error = r.error;
  shared_->trace->record(rec);
}

// ---------------------------------------------------------------------------
// Posting & waiting (application-fiber side)
// ---------------------------------------------------------------------------

RequestHandle SimProcess::post_send(Comm& comm, Rank dest, int tag, const void* data,
                                    std::size_t bytes, bool allow_revoked) {
  if (dest < 0 || dest >= comm.size()) throw std::invalid_argument("bad destination rank");
  if (tag == kAnyTag) throw std::invalid_argument("kAnyTag invalid for sends");

  const SimTime t0 = clock_;
  if (comm.revoked && !allow_revoked) {
    Request& r = acquire_request(Request::Kind::kSend, comm, dest, tag, bytes, t0);
    r.complete_time = clock_;
    r.error = Err::kRevoked;
    mark_done(r);
    return handle_of(r);
  }

  const Envelope env{comm.id, comm.my_rank, world_rank_, tag, bytes};
  // Eager: the payload is buffered into the network and the send is locally
  // complete after NIC injection. Rendezvous: a zero-byte RTS naming this
  // request goes out and the payload is captured so the data can be
  // injected when the CTS comes back (also for isend).
  const NetworkModel& net = *shared_->network;
  Engine& engine = *shared_->engine;
  const bool eager = net.protocol_for(bytes) == Protocol::kEager;
  // May unwind with ProcessFailedSignal: take the request slot only after.
  advance_clock(net.sender_occupancy(eager ? bytes : 0), /*busy=*/false);

  const Rank peer_world = comm.world_of(dest);
  const std::size_t data_bytes = data != nullptr ? bytes : 0;
  if (eager) {
    // A modeled message is the event alone; real bytes ride in an attachment.
    engine.schedule(t0 + net.delivery_time_at(t0, world_rank_, peer_world, bytes), peer_world,
                    kEvMsgArrival,
                    data_bytes != 0 ? MsgPayload::make(RequestHandle{}, data, data_bytes)
                                    : nullptr,
                    EventPriority::kMessage, EventInline::of(env));
    if (shared_->energy != nullptr) shared_->energy->add_traffic(world_rank_, bytes);
    // Complete now, so nothing is left to track: the handle names a done
    // send. A traced send keeps a slot because the trace records at wait
    // time (DESIGN.md §13).
    if (shared_->trace == nullptr) return RequestHandle{take_serial(), kNoSlot};
    Request& r = acquire_request(Request::Kind::kSend, comm, dest, tag, bytes, t0);
    r.survives_revoke = allow_revoked;
    r.complete_time = clock_;
    r.error = Err::kSuccess;
    mark_done(r);
    return handle_of(r);
  }

  Request& r = acquire_request(Request::Kind::kSend, comm, dest, tag, bytes, t0);
  r.survives_revoke = allow_revoked;
  r.rdv_data = MsgPayload::make(RequestHandle{}, data, data_bytes).release();
  engine.schedule(t0 + net.delivery_time_at(t0, world_rank_, peer_world, 0), peer_world,
                  kEvMsgArrival, MsgPayload::make(handle_of(r), nullptr, 0),
                  EventPriority::kMessage, EventInline::of(env));
  r.stage = Request::Stage::kAwaitingCts;
  // Sending to a peer already known failed: the RTS will be dropped;
  // schedule the timeout release right away (§IV-C: "any message send
  // requests waited on after receiving the ... notification fail based on
  // this list").
  if (const resilience::NoticeArrival* notice = failure_notice(peer_world)) {
    schedule_error_wakeup(r, *notice);
  }
  return handle_of(r);
}

RequestHandle SimProcess::post_recv(Comm& comm, Rank src, int tag, void* buffer,
                                    std::size_t capacity, bool allow_revoked) {
  if (src != kAnySource && (src < 0 || src >= comm.size())) {
    throw std::invalid_argument("bad source rank");
  }

  Request& r = acquire_request(Request::Kind::kRecv, comm, src, tag, capacity, clock_);
  r.recv_buffer = buffer;
  r.survives_revoke = allow_revoked;
  if (comm.revoked && !allow_revoked) {
    r.complete_time = clock_;
    r.error = Err::kRevoked;
    mark_done(r);
    return handle_of(r);
  }
  const std::uint32_t fifo = src == kAnySource ? kAnyFifo : bucket_for(comm.id, src);
  if (!try_match_unexpected(r, fifo)) {
    // Unmatched: if the explicit source is already known failed, the receive
    // can only ever time out (§IV-C).
    if (src != kAnySource) {
      if (const resilience::NoticeArrival* notice = failure_notice(r.peer_world_rank)) {
        schedule_error_wakeup(r, *notice);
      }
    }
    index_posted(r, fifo);  // Findable by future arrivals.
  } else if (r.stage == Request::Stage::kAwaitingData) {
    // Matched a rendezvous RTS from a sender that already failed (the
    // failure notice predates this post): the CTS goes to a dead process and
    // the data will never come -- release by timeout like any other wait on
    // a failed peer.
    if (const resilience::NoticeArrival* notice = failure_notice(r.peer_world_rank)) {
      schedule_error_wakeup(r, *notice);
    }
  }
  return handle_of(r);
}

Err SimProcess::wait_all(std::span<const RequestHandle> handles, MsgStatus* statuses,
                         Comm* errors_to) {
  // Count the wait-set (a duplicated handle counts once): mark_done counts
  // each completion down and flags the wake, so the fiber resumes for
  // exactly the completions this wait is blocked on (wakeup filter).
  wait_kind_ = WaitKind::kRequests;
  for (const RequestHandle h : handles) {
    Request* r = find_request(h);
    if (r != nullptr && !r->done() && !r->waited) {
      r->waited = true;
      ++waiting_;
    }
  }
  block_until([this] { return waiting_ == 0; });
  clear_wait();
  return finish_wait(handles, statuses, errors_to);
}

[[gnu::noinline]] Err SimProcess::finish_wait(std::span<const RequestHandle> handles,
                                              MsgStatus* statuses, Comm* errors_to) {
  // Raise the clock to the latest completion among the waited requests (the
  // time the whole wait set is satisfied), then report.
  SimTime latest = clock_;
  Err first_error = Err::kSuccess;
  for (std::size_t k = 0; k < handles.size(); ++k) {
    const Request* r = find_request(handles[k]);
    if (r == nullptr) {
      // A completed eager send, or already released (double wait): report
      // an empty success status. An eager send completed at post, so its
      // completion never raises the clock.
      if (statuses != nullptr) statuses[k] = MsgStatus{};
      continue;
    }
    latest = std::max(latest, r->complete_time);
    if (statuses != nullptr) statuses[k] = r->status();
    if (first_error == Err::kSuccess && r->error != Err::kSuccess) first_error = r->error;
    if (shared_->trace != nullptr) record_trace(*r);
  }
  for (const RequestHandle h : handles) release_request(h);
  raise_clock_to(latest, /*busy=*/false);
  return errors_to != nullptr ? apply_error_handler(*errors_to, first_error) : first_error;
}

bool SimProcess::test(RequestHandle h, MsgStatus* status, Err* err) {
  advance_clock(0);  // Clock-update point: failure/abort activation (§IV-A).
  if (h.completed_send()) {  // Like MPI_Test on a null request.
    if (status != nullptr) *status = MsgStatus{};
    if (err != nullptr) *err = Err::kSuccess;
    return true;
  }
  Request* r = find_request(h);
  if (r == nullptr) {
    if (err != nullptr) *err = Err::kInvalidArg;
    return true;
  }
  if (!r->done()) return false;
  if (shared_->trace != nullptr) record_trace(*r);
  raise_clock_to(r->complete_time, /*busy=*/false);
  if (status != nullptr) *status = r->status();
  if (err != nullptr) *err = r->error;
  release_request(h);
  return true;
}

Err SimProcess::probe(Comm& comm, Rank src, int tag, MsgStatus* status) {
  const SimTime post_time = clock_;
  UnexpectedHit found;
  const resilience::NoticeArrival* failed = nullptr;

  auto scan = [&]() -> bool {
    found = find_unexpected(src == kAnySource ? kAnyFifo : find_bucket(comm.id, src), comm.id,
                            tag);
    if (found.msg != kNoSlot) return true;
    if (src != kAnySource) failed = failure_notice(comm.world_of(src));
    return failed != nullptr;
  };

  register_probe_wait(comm.id, src, src == kAnySource ? -1 : comm.world_of(src), tag);
  block_until(scan);
  clear_wait();
  if (found.msg != kNoSlot) {
    const UnexpectedMsg& u = unexpected_msgs_[found.msg];
    raise_clock_to(std::max(post_time, u.arrival_time) + shared_->network->receiver_overhead(),
                   /*busy=*/false);
    if (status != nullptr) {
      const Envelope& env = u.env;
      *status = MsgStatus{env.src_comm_rank, env.tag, env.bytes, Err::kSuccess};
    }
    return Err::kSuccess;
  }
  raise_clock_to(std::max(std::max(post_time, failed->t_fail) +
                              shared_->network->failure_timeout(world_rank_, failed->failed_rank),
                          failed->arrival),
                 /*busy=*/false);
  if (status != nullptr) status->error = Err::kProcFailed;
  return Err::kProcFailed;
}

// ---------------------------------------------------------------------------
// Communicator management
// ---------------------------------------------------------------------------

Comm* SimProcess::new_comm(int id, std::vector<Rank> members, const Comm& inherit_from) {
  auto c = std::make_unique<Comm>();
  c->id = id;
  c->set_members(std::move(members));
  c->my_rank = c->rank_of_world(world_rank_);
  c->handler = inherit_from.handler;
  if (const UserErrorHandler* h = inherit_from.user_handler()) c->set_user_handler(*h);
  return add_comm(std::move(c));
}

Comm* SimProcess::add_comm(std::unique_ptr<Comm> c) {
  std::vector<std::unique_ptr<Comm>>& comms = rare().comms;
  comms.push_back(std::move(c));
  return comms.back().get();
}

Comm* SimProcess::find_comm(int id) {
  if (id == world_.id) return &world_;
  if (rare_ == nullptr) return nullptr;
  for (const auto& c : rare_->comms) {
    if (c->id == id) return c.get();
  }
  return nullptr;
}

Comm* SimProcess::comm_dup(Comm& parent) {
  const int id = shared_->registry->id_for(parent.id, parent.split_seq++, /*color=*/0);
  auto c = std::make_unique<Comm>();
  c->id = id;
  // A dup of the identity (world-shaped) communicator stays identity — O(1)
  // storage, which matters with tens of thousands of processes.
  if (parent.size() == shared_->world_size && parent.world_of(0) == 0 &&
      parent.world_of(parent.size() - 1) == parent.size() - 1) {
    c->set_identity_members(parent.size());
  } else {
    c->set_members(parent.members_snapshot());
  }
  c->my_rank = c->rank_of_world(world_rank_);
  c->handler = parent.handler;
  if (const UserErrorHandler* h = parent.user_handler()) c->set_user_handler(*h);
  return add_comm(std::move(c));
}

Comm* SimProcess::comm_shrink(Comm& parent) {
  // Surviving membership from the simulator-global view (documented
  // shortcut, ascending); ordering preserved from the parent.
  const auto alive = shared_->hooks->alive_world_ranks();
  std::vector<Rank> members;
  for (Rank r = 0; r < parent.size(); ++r) {
    const Rank m = parent.world_of(r);
    if (std::binary_search(alive.begin(), alive.end(), m)) members.push_back(m);
  }
  const int id = shared_->registry->id_for(parent.id, parent.split_seq++, /*color=*/-2);
  return new_comm(id, std::move(members), parent);
}

void SimProcess::comm_revoke(Comm& comm) {
  if (comm.revoked) return;
  comm.revoked = true;
  apply_revoke(comm.id, clock_);  // Fail own pending ops on this communicator too.
  shared_->hooks->comm_revoked(*this, comm.id, clock_);
}

void SimProcess::apply_revoke(int comm_id, SimTime when) {
  if (Comm* c = find_comm(comm_id)) c->revoked = true;
  // ULFM: pending operations on a revoked communicator complete with
  // kRevoked once the revoke notice reaches this process.
  const auto pending = live_requests_by_serial([comm_id](const Request& r) {
    return !r.done() && r.comm_id == comm_id && !r.survives_revoke;
  });
  for (const std::uint32_t i : pending) {
    Request& r = slots_[i];
    unindex_posted(r);
    r.complete_time = std::max(r.post_time, when);
    r.error = Err::kRevoked;
    mark_done(r);
  }
  if (!pending.empty()) maybe_run_fiber();
}

void SimProcess::failure_ack(Comm& comm) {
  std::vector<Rank> acked;
  for (const resilience::NoticeArrival& n : failed_peers()) {
    if (comm.rank_of_world(n.failed_rank) >= 0) acked.push_back(n.failed_rank);
  }
  comm.set_acked_failures(std::move(acked));
}

}  // namespace exasim::vmpi
