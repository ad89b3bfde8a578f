#pragma once

#include <cstdint>
#include <string>

namespace exasim::resilience {

/// Error-handler policy attached to a communicator (paper §IV-D: supports
/// MPI_ERRORS_ARE_FATAL (default), MPI_ERRORS_RETURN, and user handlers).
/// The simulated MPI layer aliases this as vmpi::ErrorHandlerKind; ULFM
/// recovery (paper §VI) runs on top of kReturn/kUser.
enum class ErrorPolicy : std::uint8_t { kFatal, kReturn, kUser };

std::string to_string(ErrorPolicy p);

}  // namespace exasim::resilience
