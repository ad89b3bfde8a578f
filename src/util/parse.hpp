#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace exasim {

// The one place configuration text becomes values: flags, EXASIM_*
// variables, spec fields, `--app-params` and the `--mc-*` options all go
// through these functions. A value is the whole string (surrounding ASCII
// whitespace aside); anything else, including a number outside the asked
// range, is std::nullopt.

/// The largest value an `int` field holds, the usual `hi` of parse_int.
inline constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

/// Decimal integer with an optional sign, within [lo, hi].
std::optional<std::int64_t> parse_int(std::string_view text,
                                      std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
                                      std::int64_t hi = std::numeric_limits<std::int64_t>::max());

/// Decimal integer with an optional '+' (a '-' never wraps), within [lo, hi].
std::optional<std::uint64_t> parse_u64(
    std::string_view text, std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/// Finite, non-negative decimal number ("32e9", "0.5", "1.5e-3").
std::optional<double> parse_double(std::string_view text);

/// "0" or "1".
std::optional<bool> parse_switch(std::string_view text);

/// Parses a duration with unit suffix: "12ns", "3us", "4ms", "5s", "1.5s",
/// "2m", "1h". A bare number is seconds (the paper gives MTTFs in seconds).
std::optional<SimTime> parse_duration(std::string_view text);

/// "LO..HI": two durations with LO <= HI.
std::optional<std::pair<SimTime, SimTime>> parse_duration_range(std::string_view text);

/// The spelling parse_duration reads back: the largest unit that divides
/// `t` exactly ("100ms", "2s", "750ns"; 0 is "0s").
std::string format_duration(SimTime t);

/// Stores a parsed value; false (and `out` untouched) when parsing failed.
template <class T, class U>
bool assign(T& out, const std::optional<U>& parsed) {
  if (!parsed) return false;
  out = static_cast<T>(*parsed);
  return true;
}

/// One `key=value` field of a spec.
using Field = std::pair<std::string, std::string>;

/// Splits "key=value<sep>key=value..." into trimmed fields, dropping empty
/// pieces. nullopt when a piece has no '=' or an empty key.
std::optional<std::vector<Field>> parse_fields(std::string_view text, char sep = ',');

/// A "name[:key=value,...]" spec: routing, storage tiers, detectors.
struct Spec {
  std::string name;
  std::vector<Field> fields;
};

/// Splits a spec at its first ':'; the fields follow parse_fields.
std::optional<Spec> parse_spec(std::string_view text);

/// One scheduled process failure: MPI rank and earliest virtual failure time.
struct FailureSpec {
  int rank = -1;
  SimTime time = kSimTimeNever;

  friend bool operator==(const FailureSpec&, const FailureSpec&) = default;
};

/// Parses a failure schedule of the form "rank@time[,rank@time...]"
/// (also accepts ';' separators), e.g. "12@3000s,77@1.5s".
/// Returns std::nullopt on malformed input.
std::optional<std::vector<FailureSpec>> parse_failure_schedule(std::string_view text);

/// Renders a schedule back to its canonical "rank@time" form.
std::string format_failure_schedule(const std::vector<FailureSpec>& specs);

/// Splits `text` on `sep`, trimming ASCII whitespace from each piece and
/// dropping empty pieces.
std::vector<std::string> split_trimmed(std::string_view text, char sep);

}  // namespace exasim
