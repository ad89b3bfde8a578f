#pragma once

#include <cstddef>
#include <cstdint>

#include "pdes/event.hpp"
#include "resilience/notice.hpp"
#include "util/pool.hpp"
#include "util/time.hpp"
#include "vmpi/request.hpp"
#include "vmpi/types.hpp"

namespace exasim::vmpi {

/// Event kinds used by the simulated MPI layer on the PDES engine.
enum EvKind : int {
  kEvStart = 1,         ///< Begin executing the process fiber.
  kEvMsgArrival,        ///< Eager payload or rendezvous RTS arrival.
  kEvCtsArrival,        ///< Rendezvous clear-to-send back at the sender.
  kEvDataArrival,       ///< Rendezvous bulk data arrival at the receiver.
  kEvFailureActivation, ///< Scheduled process failure reaches its time.
  kEvFailureNotice,     ///< Simulator-internal broadcast: a process failed.
  kEvAbortNotice,       ///< Simulator-internal broadcast: MPI_Abort happened.
  kEvErrorWakeup,       ///< Timed release of a request blocked on a dead peer.
  kEvRevokeNotice,      ///< ULFM: communicator revoked.
};

/// Match envelope. Matching is on (comm_id, src comm rank, tag), with
/// kAnySource / kAnyTag wildcards on the posted-receive side.
///
/// The rendezvous protocol names requests by handle, never by search: the
/// RTS carries the sender's request, the CTS carries it back together with
/// the receiver's, and the bulk data carries the receiver's. Each side
/// resolves its handle in O(1), and a stale one (the request was released,
/// say by a failure timeout, and its slot reused) resolves to nothing.
struct Envelope {
  int comm_id = 0;
  Rank src_comm_rank = 0;   ///< Sender's rank within the communicator.
  Rank src_world_rank = 0;  ///< Sender's world rank (routing, failure checks).
  int tag = 0;
  std::size_t bytes = 0;    ///< Logical payload size (drives the network model).
  /// RTS only: the sender's request. Invalid for an eager message.
  RequestHandle send_req;

  /// True: this is an RTS; the payload arrives separately.
  bool rendezvous() const { return send_req.valid(); }
};

/// Eager payload / rendezvous RTS. The byte buffer is a small-buffer-
/// optimized util::PayloadBuf: modeled (size-only) sends keep it empty, small
/// real payloads live inline inside the pooled payload block, and only large
/// payloads spill to one extra pool block — the eager path never touches the
/// general heap.
struct MsgPayload final : EventPayload {
  Envelope env;
  util::PayloadBuf data;  ///< May be empty for size-only (modeled) sends.
};

struct CtsPayload final : EventPayload {
  RequestHandle send_req;  ///< At the sender: the request to inject.
  RequestHandle recv_req;  ///< Echoed into the DataPayload.
};

struct DataPayload final : EventPayload {
  RequestHandle recv_req;  ///< At the receiver: the request to complete.
  util::PayloadBuf data;
  std::size_t bytes = 0;
};

// Failure/abort/revoke notices are owned by the resilience subsystem (the
// NotificationBus schedules them); aliased here so the MPI layer's event
// dispatch reads naturally.
using FailureNoticePayload = resilience::FailureNoticePayload;
using AbortNoticePayload = resilience::AbortNoticePayload;
using RevokeNoticePayload = resilience::RevokeNoticePayload;

struct ErrorWakeupPayload final : EventPayload {
  RequestHandle request;  ///< Stale once the request was released.
  Err error = Err::kProcFailed;
  SimTime error_time = 0;  ///< Virtual time at which the request fails.
};

/// A message sitting in a process's unexpected queue (arrived before a
/// matching receive was posted), held in a slab slot and linked into its
/// (comm, source) FIFO through `next`. `arrival_seq` totally orders arrivals
/// so that ANY_SOURCE matching across per-source queues stays deterministic.
struct UnexpectedMsg {
  Envelope env;
  util::PayloadBuf data;
  SimTime arrival_time = 0;
  std::uint64_t arrival_seq = 0;
  std::uint32_t next = kNoSlot;
};

}  // namespace exasim::vmpi
