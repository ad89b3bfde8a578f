#pragma once

#include <cstddef>
#include <cstdint>

#include "util/pool.hpp"
#include "util/time.hpp"
#include "vmpi/types.hpp"

namespace exasim::vmpi {

/// Opaque request handle returned to applications. The serial doubles as a
/// generation check: once the slot is released and reused, the old handle
/// resolves to nothing.
struct RequestHandle {
  std::uint64_t serial = 0;
  std::uint32_t slot = 0;
  bool valid() const { return serial != 0; }
};

/// Nonblocking operation state. Lives in a slot of the process's request
/// table; applications hold opaque handles (slot + serial) via the Context
/// API.
struct Request {
  enum class Kind : std::uint8_t { kSend, kRecv };
  enum class Stage : std::uint8_t {
    kPosted,        ///< Recv: unmatched. Send: eager in flight / RTS sent.
    kAwaitingCts,   ///< Rendezvous send waiting for clear-to-send.
    kAwaitingData,  ///< Rendezvous recv matched RTS, waiting for bulk data.
    kDone,          ///< Terminal: complete_time and error are valid.
  };

  std::uint64_t serial = 0;       ///< Post order; 0 marks a free slot.
  std::uint32_t slot = 0;         ///< Own index in the request table.
  std::uint32_t next = kNoSlot;   ///< Next receive in the same posted FIFO.
  Kind kind = Kind::kRecv;
  Stage stage = Stage::kPosted;

  int comm_id = 0;
  Rank peer_comm_rank = kAnySource;  ///< Dest (send) or source (recv; may be kAnySource).
  Rank peer_world_rank = -1;         ///< Resolved world rank; -1 for kAnySource until match.
  int tag = kAnyTag;
  std::size_t bytes = 0;             ///< Send size / recv capacity.

  /// Receive destination; nullptr for modeled (size-only) transfers.
  void* recv_buffer = nullptr;

  /// Send payload (captured at post time); empty for modeled sends.
  util::PayloadBuf send_data;

  SimTime post_time = 0;

  /// Terminal state.
  SimTime complete_time = 0;
  MsgStatus status;

  /// Guards against scheduling duplicate timeout releases for one request.
  bool error_wakeup_scheduled = false;

  /// ULFM recovery traffic (shrink/agree) is not failed by a revoke notice.
  bool survives_revoke = false;

  /// The process fiber is blocked in a wait_all that counts this request —
  /// its completion decrements the count and wakes the fiber.
  bool waited = false;

  bool done() const { return stage == Stage::kDone; }
  RequestHandle handle() const { return RequestHandle{serial, slot}; }
};

}  // namespace exasim::vmpi
