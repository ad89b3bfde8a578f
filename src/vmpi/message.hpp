#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>

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

/// Match envelope: everything matching reads, and nothing else. Matching is
/// on (comm_id, src comm rank, tag), with kAnySource / kAnyTag wildcards on
/// the posted-receive side. Every kEvMsgArrival and kEvDataArrival carries
/// it inline in the event (EventInline), and an unexpected-queue entry
/// keeps it inline too, so neither side reads a payload block to match.
struct Envelope {
  int comm_id = 0;
  Rank src_comm_rank = 0;   ///< Sender's rank within the communicator.
  Rank src_world_rank = 0;  ///< Sender's world rank (routing, failure checks).
  int tag = 0;
  std::size_t bytes = 0;    ///< Logical payload size (drives the network model).
};
static_assert(sizeof(Envelope) <= EventInline::kBytes, "the envelope rides in the event");

/// A message's optional attachment: what its envelope cannot hold, as one
/// pool block of this header and then `data_bytes` bytes of real payload.
/// A modeled (size-only) eager message has none; one with real bytes, a
/// rendezvous RTS and rendezvous bulk data each have one. The block travels
/// by pointer from the sender to the engine to the receiver, whose
/// unexpected queue adopts it as is.
///
/// The rendezvous protocol names requests by handle, never by search: the
/// RTS carries the sender's request, the CTS carries it back together with
/// the receiver's, and the bulk data carries the receiver's. Each side
/// resolves its handle in O(1), and a stale one (the request was released,
/// say by a failure timeout, and its slot reused) resolves to nothing.
struct MsgPayload final : EventPayload {
  /// The request this message names. RTS: the sender's. Bulk data: the
  /// receiver's, filled in from the CTS. Invalid for an eager message.
  RequestHandle req;
  std::size_t data_bytes;  ///< Real bytes after the header; 0 when modeled.

  /// The only way to build one: a single pool_alloc sized to the bytes.
  /// `data` may be null only when `n` is 0.
  static std::unique_ptr<MsgPayload> make(RequestHandle req, const void* data, std::size_t n) {
    auto* m = ::new (util::pool_alloc(sizeof(MsgPayload) + n)) MsgPayload(req, n);
    if (n != 0) std::memcpy(m->data(), data, n);
    return std::unique_ptr<MsgPayload>(m);
  }

  /// On a kEvMsgArrival: true for an RTS (its payload arrives separately).
  /// `m` is the arrival's attachment, null for a modeled eager message.
  static bool rendezvous(const MsgPayload* m) { return m != nullptr && m->req.valid(); }

  std::byte* data() { return reinterpret_cast<std::byte*>(this + 1); }
  const std::byte* data() const { return reinterpret_cast<const std::byte*>(this + 1); }

 private:
  MsgPayload(RequestHandle r, std::size_t n) : req(r), data_bytes(n) {}
};

struct CtsPayload final : EventPayload {
  RequestHandle send_req;  ///< At the sender: the request to inject.
  RequestHandle recv_req;  ///< Named by the bulk data.
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
/// (comm, source) FIFO through `next` (a free slot links the next free one).
/// The envelope is copied out of the event; the attachment, if the message
/// has one, is adopted, not copied. `arrival_seq` totally orders arrivals so
/// that ANY_SOURCE matching across per-source queues stays deterministic.
struct UnexpectedMsg {
  Envelope env;
  std::unique_ptr<MsgPayload> attachment;  ///< Null for a modeled eager message.
  SimTime arrival_time = 0;
  std::uint64_t arrival_seq = 0;
  std::uint32_t next = kNoSlot;
};

}  // namespace exasim::vmpi
