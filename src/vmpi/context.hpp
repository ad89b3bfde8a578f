#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "resilience/notice.hpp"
#include "util/time.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/request.hpp"
#include "vmpi/types.hpp"

namespace exasim::vmpi {

class SimProcess;

/// The simulated application's view of the MPI layer — the analog of the MPI
/// API a native application links against under xSim's interposition library.
///
/// All calls run on the process's fiber. Blocking calls yield to the
/// simulator and resume when the simulated operation completes; every call
/// advances the process's virtual clock according to the network/processor
/// models and is a failure/abort activation point (paper §IV-A: the clock is
/// updated "every time a timing function is called ... or MPI communication
/// is performed").
///
/// Error reporting follows the communicator's error handler (paper §IV-D):
/// with the default kFatal handler a communication failure does not return —
/// it triggers MPI_Abort. With kReturn (or a user handler) the Err comes back
/// to the caller (ULFM-style).
class Context {
 public:
  explicit Context(SimProcess* proc) : proc_(proc) {}

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // ---- Identity & time --------------------------------------------------
  int rank() const;           ///< World rank.
  int size() const;           ///< World size.
  Comm& world();              ///< MPI_COMM_WORLD.
  double wtime() const;       ///< MPI_Wtime: virtual seconds.
  SimTime now() const;        ///< Virtual clock in ns.

  // ---- Compute modeling ---------------------------------------------------
  /// Charges `units` abstract work units via the processor model. Inline
  /// (defined in process.hpp): the modeled compute step of every iteration.
  inline void compute(double units);
  /// Charges a duration given in reference-core seconds (the processor model
  /// applies the simulated node's slowdown).
  void compute_reference_seconds(double s);
  /// Advances the clock by an explicit simulated duration.
  void elapse(SimTime dt);

  // ---- Blocking point-to-point -------------------------------------------
  Err send(Comm& comm, Rank dest, int tag, const void* data, std::size_t bytes);
  Err recv(Comm& comm, Rank src, int tag, void* buffer, std::size_t capacity,
           MsgStatus* status = nullptr);
  /// Size-only transfers for modeled (skeleton) applications: timing and
  /// matching as usual, no payload bytes carried.
  Err send_modeled(Comm& comm, Rank dest, int tag, std::size_t bytes);
  Err recv_modeled(Comm& comm, Rank src, int tag, std::size_t bytes,
                   MsgStatus* status = nullptr);
  /// Combined send+recv posted concurrently (deadlock-free halo exchanges).
  Err sendrecv(Comm& comm, Rank dest, int send_tag, const void* send_data,
               std::size_t send_bytes, Rank src, int recv_tag, void* recv_buffer,
               std::size_t recv_capacity, MsgStatus* status = nullptr);

  // World-communicator conveniences.
  Err send(Rank dest, int tag, const void* data, std::size_t bytes);
  Err recv(Rank src, int tag, void* buffer, std::size_t capacity, MsgStatus* status = nullptr);

  // ---- Nonblocking point-to-point ------------------------------------------
  RequestHandle isend(Comm& comm, Rank dest, int tag, const void* data, std::size_t bytes);
  RequestHandle irecv(Comm& comm, Rank src, int tag, void* buffer, std::size_t capacity);
  RequestHandle isend_modeled(Comm& comm, Rank dest, int tag, std::size_t bytes);
  RequestHandle irecv_modeled(Comm& comm, Rank src, int tag, std::size_t bytes);

  Err wait(Comm& comm, RequestHandle h, MsgStatus* status = nullptr);
  /// Takes any contiguous handle range (vector, array, C array) or a braced
  /// list; builds no container of its own.
  Err waitall(Comm& comm, std::span<const RequestHandle> handles,
              std::vector<MsgStatus>* statuses = nullptr);
  Err waitall(Comm& comm, std::initializer_list<RequestHandle> handles,
              std::vector<MsgStatus>* statuses = nullptr) {
    return waitall(comm, std::span<const RequestHandle>(handles.begin(), handles.size()),
                   statuses);
  }
  /// True if complete; on completion fills status/err and releases the handle.
  bool test(RequestHandle h, MsgStatus* status, Err* err);
  Err probe(Comm& comm, Rank src, int tag, MsgStatus* status);

  // ---- Collectives (linear algorithms, paper §V-C) ------------------------
  Err barrier(Comm& comm);
  Err bcast(Comm& comm, Rank root, void* data, std::size_t bytes);
  Err reduce(Comm& comm, Rank root, ReduceOp op, Dtype dtype, const void* in, void* out,
             std::size_t count);
  Err allreduce(Comm& comm, ReduceOp op, Dtype dtype, const void* in, void* out,
                std::size_t count);
  /// Gathers `bytes_each` from every rank into out (size * bytes_each) at root.
  Err gather(Comm& comm, Rank root, const void* in, std::size_t bytes_each, void* out);
  Err allgather(Comm& comm, const void* in, std::size_t bytes_each, void* out);
  /// Scatters consecutive `bytes_each` blocks from root to each rank.
  Err scatter(Comm& comm, Rank root, const void* in, std::size_t bytes_each, void* out);
  Err alltoall(Comm& comm, const void* in, std::size_t bytes_each, void* out);

  // ---- Communicator management ------------------------------------------
  Comm* comm_dup(Comm& comm);
  Comm* comm_split(Comm& comm, int color, int key);
  void set_error_handler(Comm& comm, ErrorHandlerKind kind, UserErrorHandler handler = {});

  // ---- Lifecycle & resilience ----------------------------------------------
  /// MPI_Finalize. Returning from the application main without calling this
  /// counts as a process failure (paper §IV-B).
  void finalize();
  /// MPI_Abort on MPI_COMM_WORLD. Does not return.
  [[noreturn]] void abort();
  /// Simulator-internal failure trigger (paper §IV-B): schedules this
  /// process's failure at virtual time t (>= current clock fires at the next
  /// clock update; pass now() to fail immediately at the next update).
  void inject_failure_at(SimTime t);
  /// Programmatic injection relative to now: schedules this process's failure
  /// `delay` after the current clock (delay 0 fires at the next clock update).
  void inject_failure(SimTime delay = 0);
  /// Fails this process right now. Does not return.
  [[noreturn]] void fail_now();

  /// The failed peers this process has been told of, in ascending world
  /// rank: each notice's failed rank, time of failure and arrival (its
  /// detection time). Valid until the next failure notice arrives.
  std::span<const resilience::NoticeArrival> failed_peers() const;

  // ---- ULFM extension (paper §VI future-work item 3) ----------------------
  Err comm_revoke(Comm& comm);
  /// Collective among surviving members; returns the shrunken communicator.
  Comm* comm_shrink(Comm& comm);
  /// Collective agreement: flag becomes the AND of all alive contributions.
  Err comm_agree(Comm& comm, bool* flag);
  void failure_ack(Comm& comm);
  std::vector<Rank> failure_get_acked(Comm& comm) const;

  // ---- Soft-error injection (paper §VI future-work item 1) ----------------
  /// Registers an application state buffer with the simulator's memory
  /// tracking, making it a target for injected memory bit flips.
  void register_memory(const std::string& name, void* ptr, std::size_t bytes);
  void unregister_memory(const std::string& name);
  /// Schedules a memory bit flip at virtual time t (applies at the first
  /// clock update at/after t, like failure activation).
  void schedule_bit_flip(SimTime t, std::uint64_t bit_index);

  /// Emits a labeled marker into the machine's MPI trace (no-op when
  /// tracing is off) — phase annotations for performance investigation.
  void trace_marker(const std::string& label);

  /// Machine-provided service bag (checkpoint store, PFS model, ...).
  /// Opaque to vmpi; the core layer defines the concrete type.
  void* services() const;

  SimProcess& process() { return *proc_; }

 private:
  // Raw p2p used by collectives: no error-handler application.
  Err raw_send(Comm& comm, Rank dest, int tag, const void* data, std::size_t bytes);
  Err raw_recv(Comm& comm, Rank src, int tag, void* buffer, std::size_t capacity,
               MsgStatus* status);
  int coll_tag(Comm& comm, int phase) const;

  SimProcess* proc_;
};

}  // namespace exasim::vmpi

// Context::compute's inline definition needs the complete SimProcess. When
// process.hpp is included first it has already included this header, so
// this include is skipped and the definition follows in process.hpp.
#include "vmpi/process.hpp"
