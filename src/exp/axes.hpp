#pragma once

#include "ckpt/tiered.hpp"
#include "exp/plan.hpp"
#include "netmodel/routing.hpp"
#include "resilience/detector.hpp"

namespace exasim::exp {

/// The canonical failure-detector axis: one value per registered detector
/// family (paper-instant, timeout, heartbeat), in registry order. Benches
/// resolve a point's value with `detector_spec_for(point.at(axis))`.
Axis failure_detector_axis();

/// DetectorSpec for a failure_detector_axis() value index (defaults for the
/// parameterized families: heartbeat period auto, miss 3).
resilience::DetectorSpec detector_spec_for(std::size_t value_index);

/// The routing-policy axis: one value per registered routing family
/// (deterministic, adaptive), in registry order — for campaigns comparing
/// route-variant spreading under contention or heterogeneous link timeouts.
Axis routing_axis();

/// The checkpoint-mode axis: pfs / partner / staged, in registry order.
Axis ckpt_mode_axis();

/// CkptMode for a ckpt_mode_axis() value index.
ckpt::CkptMode ckpt_mode_for(std::size_t value_index);

}  // namespace exasim::exp
