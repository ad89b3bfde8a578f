#include "exp/axes.hpp"

#include <stdexcept>

namespace exasim::exp {

Axis failure_detector_axis() {
  Axis axis;
  axis.name = "failure_detector";
  for (const auto& d : resilience::list_detectors()) axis.values.push_back(d.name);
  return axis;
}

resilience::DetectorSpec detector_spec_for(std::size_t value_index) {
  const auto& detectors = resilience::list_detectors();
  if (value_index >= detectors.size()) throw std::out_of_range("detector axis index");
  auto spec = resilience::parse_detector_spec(detectors[value_index].name);
  if (!spec) throw std::logic_error("unparsable registered detector name");
  return *spec;
}

Axis routing_axis() {
  Axis axis;
  axis.name = "routing";
  for (const auto& name : list_routings()) axis.values.push_back(name);
  return axis;
}

Axis ckpt_mode_axis() {
  Axis axis;
  axis.name = "ckpt_mode";
  for (const auto& name : ckpt::list_ckpt_modes()) axis.values.push_back(name);
  return axis;
}

ckpt::CkptMode ckpt_mode_for(std::size_t value_index) {
  const auto& names = ckpt::list_ckpt_modes();
  if (value_index >= names.size()) throw std::out_of_range("ckpt mode axis index");
  auto mode = ckpt::parse_ckpt_mode(names[value_index]);
  if (!mode) throw std::logic_error("unparsable registered ckpt mode");
  return *mode;
}

}  // namespace exasim::exp
