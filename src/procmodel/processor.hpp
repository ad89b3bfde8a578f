#pragma once

#include <cstdint>

#include "util/time.hpp"

namespace exasim {

/// Processor model parameters.
///
/// xSim scales native execution time onto the simulated processor; the paper
/// (§V-C) runs the simulated node at 1000x *slower* than one 1.7 GHz AMD
/// Opteron 6164 HE core. We support both paths:
///  * measured: native (host) time is first normalized from the host to the
///    reference core (`host_to_reference`), then slowed by `slowdown`;
///  * modeled: work is described in reference-core terms (seconds or
///    abstract work units at `reference_ns_per_unit`), then slowed.
struct ProcessorParams {
  double slowdown = 1000.0;          ///< Simulated node vs. reference core.
  double host_to_reference = 1.0;    ///< Host-second → reference-second factor.
  double reference_ns_per_unit = 1.0;  ///< Reference-core cost per work unit.
};

class ProcessorModel {
 public:
  explicit ProcessorModel(ProcessorParams params);

  const ProcessorParams& params() const { return params_; }

  /// Scales a measured native (host) duration to simulated time.
  SimTime scale_native(SimTime native) const;

  /// Simulated time to execute `units` abstract work units. Inline: every
  /// modeled compute step calls it.
  SimTime work_time(double units) const {
    if (units < 0.0) throw_negative_work();
    return static_cast<SimTime>(units * params_.reference_ns_per_unit * params_.slowdown + 0.5);
  }

  /// Simulated time for a duration expressed in reference-core seconds.
  SimTime reference_seconds(double s) const;

 private:
  ProcessorParams params_;

  [[noreturn]] static void throw_negative_work();
};

}  // namespace exasim
