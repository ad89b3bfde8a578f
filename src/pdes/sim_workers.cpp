#include "pdes/sim_workers.hpp"

#include <stdexcept>

namespace exasim {

int resolve_sim_workers(int requested) {
  if (requested < 1) throw std::invalid_argument("sim_workers < 1 (1 = sequential)");
  return requested;
}

}  // namespace exasim
