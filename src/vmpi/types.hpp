#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "resilience/policy.hpp"
#include "util/time.hpp"

namespace exasim::vmpi {

/// Simulated MPI rank (within MPI_COMM_WORLD unless stated otherwise).
using Rank = int;

inline constexpr Rank kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// "No entry" for the matching engine's slot indices and intrusive lists.
inline constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

/// Error classes surfaced to the simulated application. Mirrors the subset of
/// MPI error semantics the paper exercises, plus the ULFM extension codes
/// (paper §VI: MPI_ERR_PROC_FAILED, MPI_Comm_revoke, MPI_Comm_shrink).
enum class Err : std::uint8_t {
  kSuccess = 0,
  kProcFailed,   ///< ULFM MPI_ERR_PROC_FAILED: a peer process failed.
  kRevoked,      ///< ULFM MPI_ERR_REVOKED: the communicator was revoked.
  kTruncate,     ///< Receive buffer smaller than the incoming message.
  kInvalidArg,   ///< Malformed call (bad rank/tag/comm).
  kPending,      ///< Internal: request not complete (never returned by wait).
};

std::string to_string(Err e);

/// Error handler attached to a communicator (paper §IV-D) — the resilience
/// subsystem's ErrorPolicy (kFatal/kReturn/kUser), whose dispatch is decided
/// by resilience::ErrorHandlerPolicy.
using ErrorHandlerKind = resilience::ErrorPolicy;

/// Receive/operation status returned by waits and receives.
struct MsgStatus {
  Rank source = kAnySource;   ///< Communicator rank of the sender.
  int tag = kAnyTag;
  std::size_t bytes = 0;      ///< Logical payload size.
  Err error = Err::kSuccess;
};

/// Element types for reductions.
enum class Dtype : std::uint8_t { kI32, kI64, kU64, kF64, kByte };

std::size_t dtype_size(Dtype d);

/// Reduction operations (applied element-wise on matching Dtype buffers).
/// kReplace (MPI_REPLACE) takes the later operand — associative but NOT
/// commutative, so tree algorithms must not reorder its operands.
enum class ReduceOp : std::uint8_t { kSum, kMin, kMax, kProd, kReplace };

/// Whether operand order is irrelevant for the op. Tree-shaped reduction
/// algorithms combine contributions in mask order rather than rank order and
/// are only valid for commutative ops; non-commutative ops fall back to the
/// linear algorithm (which combines in ascending rank order).
bool is_commutative(ReduceOp op);

/// In-place combine: acc[i] = op(acc[i], in[i]) for `count` elements.
void reduce_combine(ReduceOp op, Dtype dtype, void* acc, const void* in, std::size_t count);

/// Why a simulated process stopped executing.
enum class ProcOutcome : std::uint8_t {
  kRunning = 0,
  kFinished,  ///< Returned from app main after Finalize.
  kFailed,    ///< Injected (or self-inflicted) process failure.
  kAborted,   ///< Terminated by MPI_Abort (own or remote).
};

std::string to_string(ProcOutcome o);

}  // namespace exasim::vmpi
