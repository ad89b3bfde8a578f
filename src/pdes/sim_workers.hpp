#pragma once

namespace exasim {

/// Validates a configured engine worker count (e.g. SimConfig::sim_workers):
/// returns a positive request as it is and throws std::invalid_argument on
/// anything below 1.
int resolve_sim_workers(int requested);

}  // namespace exasim
