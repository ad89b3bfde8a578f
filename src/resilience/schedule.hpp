#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

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
  /// run. Each call advances the deterministic RNG stream.
  FailureSpec draw();

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

/// Owns a rank/time failure schedule: parsing the paper's `R@T,R@T` notation
/// from the command line or environment (§IV-B: "xSim additionally offers to
/// pass a simulated MPI process failure schedule in the form of rank/time
/// pairs on the command line or via an environment variable"), derivation of
/// per-launch random failures from a ReliabilityModel, and the
/// relative-to-absolute time shift a restarting runner applies.
class FailureSchedule {
 public:
  FailureSchedule() = default;
  explicit FailureSchedule(std::vector<FailureSpec> specs) : specs_(std::move(specs)) {}

  /// Parses the `R@T,R@T,...` notation; nullopt on malformed input.
  static std::optional<FailureSchedule> parse(const std::string& text);

  void add(FailureSpec f) { specs_.push_back(f); }
  /// Derivation: appends one random failure drawn from the model (times
  /// relative to launch start; shift() afterwards for restart continuity).
  void add_draw(ReliabilityModel& model) { specs_.push_back(model.draw()); }
  /// Shifts every failure time by `offset` (relative -> absolute virtual
  /// time when relaunching at accumulated time `offset`, paper §IV-E).
  void shift(SimTime offset);

  /// First out-of-range rank for a machine of `ranks`, or nullopt if valid.
  std::optional<int> first_invalid_rank(int ranks) const;

  bool empty() const { return specs_.empty(); }
  std::size_t size() const { return specs_.size(); }
  const std::vector<FailureSpec>& specs() const { return specs_; }
  std::string to_string() const { return format_failure_schedule(specs_); }

 private:
  std::vector<FailureSpec> specs_;
};

}  // namespace exasim::resilience
