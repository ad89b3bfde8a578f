#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "netmodel/topology.hpp"
#include "util/time.hpp"

namespace exasim {

/// Which route-variant selection policy the network model runs (DESIGN.md
/// §12) — the policy half of the route split (route_variant); the mechanism
/// half is Topology::route_into's equal-cost variants.
enum class RoutingKind : std::uint8_t {
  kDeterministic,  ///< Always the canonical variant 0 — byte-identical to the
                   ///< pre-route-refactor hop-count model.
  kAdaptive,       ///< Deterministically spreads flows over up to `spread`
                   ///< equal-cost variants keyed by (src, dst, seq).
};

/// Parsed `--routing` configuration. Canonical spec strings are
/// "deterministic" and "adaptive[:spread=K]".
struct RoutingSpec {
  RoutingKind kind = RoutingKind::kDeterministic;
  /// Maximum number of equal-cost route variants an adaptive policy spreads
  /// one (src, dst) flow over (clamped to the pair's route_count).
  int spread = 4;

  friend bool operator==(const RoutingSpec&, const RoutingSpec&) = default;
};

/// Parses a routing spec string ("deterministic", "adaptive",
/// "adaptive:spread=K"); nullopt on malformed input.
std::optional<RoutingSpec> parse_routing_spec(const std::string& text);

/// Canonical spec string for `spec` (round-trips through parse).
std::string to_string(const RoutingSpec& spec);

/// Registered routing policy names, registry order ("deterministic",
/// "adaptive") — the values of exp::routing_axis().
const std::vector<std::string>& list_routings();

/// Parses a configured spec string (e.g. core::SimConfig::routing); throws
/// std::invalid_argument on malformed text.
RoutingSpec resolve_routing_spec(const std::string& configured);

/// Route variant (< equal_cost) for the seq-th message of the (src, dst)
/// flow, where equal_cost = Topology::route_count(src, dst). Pure: the
/// variant depends only on the arguments, so route choice is reproducible
/// across runs and engine worker counts. Deterministic routing always takes
/// the canonical variant 0; adaptive routing hashes (src, dst, seq) onto
/// min(spread, equal_cost) variants, modeling per-message adaptive routing
/// while staying deterministic (the per-pair seq counter follows fiber
/// program order, which the engine keeps identical across worker counts).
std::uint64_t route_variant(const RoutingSpec& spec, int src, int dst, std::uint64_t seq,
                            std::uint64_t equal_cost);

// -- Per-link failure-timeout overrides --------------------------------------

/// How NetworkParams::link_timeouts assigns a failure-detection timeout to
/// each link (DESIGN.md §12). The default (kUniform with no overrides) keeps
/// the single NetworkParams::failure_timeout for every link.
enum class LinkTimeoutKind : std::uint8_t {
  kUniform,       ///< One timeout for all links (NetworkParams::failure_timeout).
  kDistribution,  ///< Deterministic per-link draw from [lo, hi] keyed by seed.
  kHot,           ///< Base timeout + explicit per-link overrides ("hot links").
  kPlane,         ///< Base timeout + per-plane overrides (e.g. all global links).
};

/// Parsed `--link-timeouts` configuration. Grammar:
///   "uniform"                          (default)
///   "uniform:LO..HI[,seed=N]"          per-link draw from [LO, HI]
///   "hot:ID=DUR[;ID=DUR...]"           explicit link-id overrides
///   "plane:P=DUR[;P=DUR...]"           per-plane overrides
/// Durations use util/parse.hpp suffixes ("500ms", "2s"); ',' is accepted in
/// place of ';' in hot/plane lists.
struct LinkTimeoutSpec {
  LinkTimeoutKind kind = LinkTimeoutKind::kUniform;
  SimTime lo = 0, hi = 0;      ///< kDistribution range (inclusive).
  std::uint64_t seed = 1;      ///< kDistribution hash seed.
  std::vector<std::pair<std::uint64_t, SimTime>> hot;  ///< kHot (link id, timeout).
  std::vector<std::pair<int, SimTime>> planes;         ///< kPlane (plane, timeout).

  bool uniform() const { return kind == LinkTimeoutKind::kUniform; }

  friend bool operator==(const LinkTimeoutSpec&, const LinkTimeoutSpec&) = default;
};

/// Parses a link-timeout spec string; nullopt on malformed input.
std::optional<LinkTimeoutSpec> parse_link_timeout_spec(const std::string& text);

/// Canonical spec string for `spec` (round-trips through parse).
std::string to_string(const LinkTimeoutSpec& spec);

/// Materializes the per-link timeout table for `topology`: empty for the
/// uniform spec (callers fall back to the base timeout — the fast path), else
/// one entry per link id. Throws std::invalid_argument on hot-link ids >=
/// link_count(), planes the topology does not have, or link-id spaces too
/// large to tabulate.
std::vector<SimTime> build_link_timeouts(const LinkTimeoutSpec& spec,
                                         const Topology& topology, SimTime base);

}  // namespace exasim
