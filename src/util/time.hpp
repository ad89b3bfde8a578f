#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace exasim {

/// Simulated (virtual) time in nanoseconds since simulation epoch.
///
/// A plain integer type keeps event-queue comparisons cheap and makes the
/// simulation bit-deterministic. 2^64 ns ~ 584 years, far beyond any run.
using SimTime = std::uint64_t;

/// Signed difference of two SimTime values.
using SimDuration = std::int64_t;

inline constexpr SimTime kSimTimeNever = std::numeric_limits<SimTime>::max();

inline constexpr SimTime sim_ns(std::uint64_t v) { return v; }
inline constexpr SimTime sim_us(std::uint64_t v) { return v * 1000ull; }
inline constexpr SimTime sim_ms(std::uint64_t v) { return v * 1000'000ull; }
inline constexpr SimTime sim_sec(std::uint64_t v) { return v * 1000'000'000ull; }

/// True when a floating-point nanosecond count rounds to a SimTime: at or
/// past 2^64 ns (about 584 years), a NaN or a value below zero does not.
inline constexpr bool fits_sim_ns(double ns) {
  const double rounded = ns + 0.5;
  return rounded > -1.0 && rounded < 0x1p64;
}

/// The overflow path of checked_sim_ns, kept out of line: the conversion
/// sits on the hot paths of the network and processor models.
[[noreturn]] void throw_sim_time_overflow(double ns);

/// Converts a floating-point nanosecond count to SimTime, rounding to
/// nearest ns; throws std::overflow_error when it does not fit. Every model
/// that turns a double into virtual time goes through here, so an
/// out-of-range cost stops the run instead of wrapping to about zero.
inline SimTime checked_sim_ns(double ns) {
  if (!fits_sim_ns(ns)) [[unlikely]] {
    throw_sim_time_overflow(ns);
  }
  return static_cast<SimTime>(ns + 0.5);
}

/// Converts a floating-point second count to SimTime, rounding to nearest
/// ns; throws std::overflow_error when it does not fit.
inline SimTime sim_seconds(double s) { return checked_sim_ns(s * 1e9); }

inline constexpr double to_seconds(SimTime t) { return static_cast<double>(t) / 1e9; }
inline constexpr double to_micros(SimTime t) { return static_cast<double>(t) / 1e3; }

/// Renders a SimTime as a human-readable string ("12.345 s", "87 us", ...).
std::string format_sim_time(SimTime t);

}  // namespace exasim
