#include "procmodel/processor.hpp"

#include <stdexcept>

namespace exasim {

ProcessorModel::ProcessorModel(ProcessorParams params) : params_(params) {
  if (params_.slowdown <= 0.0 || params_.host_to_reference <= 0.0 ||
      params_.reference_ns_per_unit < 0.0) {
    throw std::invalid_argument("bad processor parameters");
  }
}

SimTime ProcessorModel::scale_native(SimTime native) const {
  return checked_sim_ns(static_cast<double>(native) * params_.host_to_reference *
                        params_.slowdown);
}

void ProcessorModel::throw_negative_work() { throw std::invalid_argument("negative work"); }

SimTime ProcessorModel::reference_seconds(double s) const {
  if (s < 0.0) throw std::invalid_argument("negative time");
  return sim_seconds(s * params_.slowdown);
}

}  // namespace exasim
