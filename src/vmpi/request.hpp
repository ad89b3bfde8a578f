#pragma once

#include <cstddef>
#include <cstdint>

#include "util/time.hpp"
#include "vmpi/types.hpp"

namespace exasim::vmpi {

/// Opaque request handle returned to applications. The serial doubles as a
/// generation check: once the slot is released and reused, the old handle
/// resolves to nothing. An eager send is complete when posted and takes no
/// slot: its handle has slot kNoSlot, and waiting on it reports success with
/// an empty status (DESIGN.md §13).
struct RequestHandle {
  std::uint32_t serial = 0;
  std::uint32_t slot = 0;
  bool valid() const { return serial != 0; }
  bool completed_send() const { return serial != 0 && slot == kNoSlot; }
};

struct MsgPayload;

/// Request::fifo value of a receive indexed in the ANY_SOURCE FIFO.
inline constexpr std::uint32_t kAnyFifo = kNoSlot - 1;

/// Nonblocking operation state. Lives in a slot of the process's request
/// table; applications hold opaque handles (slot + serial) via the Context
/// API. Holds no bytes: a rendezvous send keeps its pre-built bulk-data
/// message by pointer, and a receive's MsgStatus is folded into the fields
/// below (status()). One slot is 64 bytes (DESIGN.md §9): its slot index is
/// its position in the table, and the two pointers only one kind uses share
/// a word.
struct Request {
  enum class Kind : std::uint8_t { kSend, kRecv };
  enum class Stage : std::uint8_t {
    kPosted,        ///< Recv: unmatched. Send: eager in flight / RTS sent.
    kAwaitingCts,   ///< Rendezvous send waiting for clear-to-send.
    kAwaitingData,  ///< Rendezvous recv matched RTS, waiting for bulk data.
    kDone,          ///< Terminal: complete_time and error are valid.
  };

  std::uint32_t serial = 0;       ///< Post order; 0 marks a free slot.
  /// Next receive in the same posted FIFO; in a free slot, the next free one.
  std::uint32_t next = kNoSlot;
  /// The posted FIFO this receive is linked into: a match bucket, kAnyFifo,
  /// or kNoSlot while not indexed.
  std::uint32_t fifo = kNoSlot;
  Kind kind = Kind::kRecv;
  Stage stage = Stage::kPosted;
  Err error = Err::kSuccess;     ///< Terminal state (with complete_time).
  /// Guards against scheduling duplicate timeout releases for one request.
  bool error_wakeup_scheduled : 1 = false;
  /// ULFM recovery traffic (shrink/agree) is not failed by a revoke notice.
  bool survives_revoke : 1 = false;
  /// The process fiber is blocked in a wait_all that counts this request —
  /// its completion decrements the count and wakes the fiber.
  bool waited : 1 = false;
  /// Receive matched a message: peer_comm_rank and tag now hold the
  /// sender's, and status() reports them.
  bool matched : 1 = false;
  /// Receive got its data: bytes now holds the message's logical size.
  bool delivered : 1 = false;

  int comm_id = 0;
  Rank peer_comm_rank = kAnySource;  ///< Dest (send) or source (recv; may be kAnySource).
  Rank peer_world_rank = -1;         ///< Resolved world rank; -1 for kAnySource until match.
  int tag = kAnyTag;
  std::size_t bytes = 0;             ///< Send size / recv capacity (see delivered).

  union {
    /// Receive: its destination; nullptr for modeled (size-only) transfers.
    void* recv_buffer = nullptr;
    /// Rendezvous send: its bulk data, built at post time and kept until
    /// the CTS hands it to the engine. The process owns it and frees it
    /// with the request (SimProcess::release_request).
    MsgPayload* rdv_data;
  };

  SimTime post_time = 0;
  SimTime complete_time = 0;

  bool done() const { return stage == Stage::kDone; }
  MsgStatus status() const {
    if (!matched) return MsgStatus{kAnySource, kAnyTag, 0, error};
    return MsgStatus{peer_comm_rank, tag, delivered ? bytes : 0, error};
  }
};

}  // namespace exasim::vmpi
