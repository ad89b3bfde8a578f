#pragma once

#include <cstdint>
#include <optional>

#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace exasim::resilience {

/// How failure times are drawn for random injection.
enum class FailureDistribution : std::uint8_t {
  /// The paper's worst-case scenario (§V-C): time uniform in [0, 2*MTTF),
  /// one draw per application launch, rank uniform.
  kUniform2Mttf,
  /// First arrival of a Poisson process with the given system MTTF.
  kExponential,
  /// Weibull with shape 0.7 (infant-mortality-heavy, a common HPC fit)
  /// scaled so the mean equals the system MTTF.
  kWeibull,
};

/// Weibull shape used by FailureDistribution::kWeibull.
inline constexpr double kWeibullShape = 0.7;

/// Component-based system reliability model (paper future-work item 2, in
/// its simplest useful form): the system fails when its least-lucky node
/// fails; we expose the equivalent single-draw system-level model plus
/// explicit deterministic schedules.
class ReliabilityModel {
 public:
  ReliabilityModel(FailureDistribution dist, SimTime system_mttf, int ranks,
                   std::uint64_t seed);

  /// Draws the next application launch's failure (rank + time relative to
  /// launch start). The caller decides whether the time lands inside the
  /// run. Each call advances the deterministic RNG stream. A time past what
  /// SimTime holds (2^64 ns) lands after any run: nullopt, no failure.
  std::optional<FailureSpec> draw();

  /// Expected failures for an execution of the given length (diagnostics).
  double expected_failures(SimTime run_length) const;

  SimTime system_mttf() const { return system_mttf_; }
  FailureDistribution distribution() const { return dist_; }

 private:
  FailureDistribution dist_;
  SimTime system_mttf_;
  int ranks_;
  Rng rng_;
};

}  // namespace exasim::resilience
