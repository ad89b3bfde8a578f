#include "resilience/schedule.hpp"

#include <cmath>
#include <stdexcept>

namespace exasim::resilience {

ReliabilityModel::ReliabilityModel(FailureDistribution dist, SimTime system_mttf, int ranks,
                                   std::uint64_t seed)
    : dist_(dist), system_mttf_(system_mttf), ranks_(ranks), rng_(seed) {
  if (system_mttf == 0) throw std::invalid_argument("zero MTTF");
  if (ranks <= 0) throw std::invalid_argument("ranks <= 0");
}

std::optional<FailureSpec> ReliabilityModel::draw() {
  FailureSpec spec;
  spec.rank = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(ranks_)));
  const double mttf_s = to_seconds(system_mttf_);
  double t_s = 0;
  switch (dist_) {
    case FailureDistribution::kUniform2Mttf:
      t_s = rng_.uniform(0.0, 2.0 * mttf_s);
      break;
    case FailureDistribution::kExponential:
      t_s = rng_.exponential(mttf_s);
      break;
    case FailureDistribution::kWeibull: {
      // Scale so the Weibull mean equals the MTTF: mean = scale * Gamma(1 + 1/k).
      const double scale = mttf_s / std::tgamma(1.0 + 1.0 / kWeibullShape);
      t_s = rng_.weibull(kWeibullShape, scale);
      break;
    }
  }
  if (!fits_sim_ns(t_s * 1e9)) return std::nullopt;
  spec.time = sim_seconds(t_s);
  return spec;
}

double ReliabilityModel::expected_failures(SimTime run_length) const {
  const double len = to_seconds(run_length);
  const double mttf = to_seconds(system_mttf_);
  switch (dist_) {
    case FailureDistribution::kUniform2Mttf:
      // One draw per launch; P(failure inside run) = min(1, len / (2*MTTF)).
      return std::min(1.0, len / (2.0 * mttf));
    case FailureDistribution::kExponential:
    case FailureDistribution::kWeibull:
      return len / mttf;
  }
  return 0;
}

}  // namespace exasim::resilience
