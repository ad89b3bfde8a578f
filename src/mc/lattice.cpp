#include "mc/lattice.hpp"

#include <algorithm>

#include "util/parse.hpp"

namespace exasim::mc {

ScenarioLattice::ScenarioLattice(LatticeSpec spec) : spec_(std::move(spec)) {
  spec_.grid = std::max(spec_.grid, 2);
  spec_.depth = std::clamp(spec_.depth, 0, 20);
  if (spec_.window_hi < spec_.window_lo) spec_.window_hi = spec_.window_lo;
  finest_points_ =
      static_cast<std::int64_t>(spec_.grid - 1) * (std::int64_t{1} << spec_.depth) + 1;
  // Row order is the report/schedule order: victim-major, then detector, then
  // policy — fixed so mc-report.json is stable across flag spellings.
  rows_.reserve(spec_.victims.size() * spec_.detectors.size() * spec_.policies.size());
  for (std::size_t v = 0; v < spec_.victims.size(); ++v) {
    for (std::size_t d = 0; d < spec_.detectors.size(); ++d) {
      for (std::size_t p = 0; p < spec_.policies.size(); ++p) {
        rows_.push_back(LatticeRow{spec_.victims[v], d, p});
      }
    }
  }
}

SimTime ScenarioLattice::finest_step() const {
  return (spec_.window_hi - spec_.window_lo) / std::max<std::int64_t>(finest_points_ - 1, 1);
}

SimTime ScenarioLattice::time_of(std::int64_t f) const {
  const std::int64_t span = finest_points_ - 1;
  if (span <= 0) return spec_.window_lo;
  // Integer interpolation keyed on the finest index: deterministic and exact
  // at both window endpoints. (window * f stays well inside int64 for any
  // realistic window/grid: hours of virtual time x tens of thousands of
  // points.)
  return spec_.window_lo + (spec_.window_hi - spec_.window_lo) * f / span;
}

std::vector<std::int64_t> ScenarioLattice::initial_indices() const {
  const std::int64_t stride = std::int64_t{1} << spec_.depth;
  std::vector<std::int64_t> out;
  out.reserve(spec_.grid);
  for (std::int64_t f = 0; f < finest_points_; f += stride) out.push_back(f);
  return out;
}

std::optional<std::vector<int>> parse_victims(const std::string& text, int ranks) {
  std::vector<int> out;
  if (text == "all") {
    for (int r = 0; r < ranks; ++r) out.push_back(r);
    return out;
  }
  if (text.rfind("stride:", 0) == 0) {
    const auto stride = parse_int(text.substr(7), 1, kIntMax);
    if (!stride) return std::nullopt;
    for (std::int64_t r = 0; r < ranks; r += *stride) out.push_back(static_cast<int>(r));
    return out;
  }
  for (const auto& piece : split_trimmed(text, ',')) {
    const auto r = parse_int(piece, 0, ranks - 1);
    if (!r) return std::nullopt;
    out.push_back(static_cast<int>(*r));
  }
  if (out.empty()) return std::nullopt;
  return out;
}

std::optional<std::vector<resilience::DetectorSpec>> parse_detector_list(
    const std::string& text) {
  std::vector<resilience::DetectorSpec> out;
  for (const auto& piece : split_trimmed(text, ';')) {
    auto spec = resilience::parse_detector_spec(piece);
    if (!spec) return std::nullopt;
    out.push_back(*spec);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

std::optional<std::vector<ckpt::CkptMode>> parse_policy_list(const std::string& text) {
  std::vector<ckpt::CkptMode> out;
  for (const auto& piece : split_trimmed(text, ',')) {
    auto mode = ckpt::parse_ckpt_mode(piece);
    if (!mode) return std::nullopt;
    out.push_back(*mode);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

}  // namespace exasim::mc
