#include "netmodel/routing.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "util/parse.hpp"

namespace exasim {

namespace {

/// splitmix64 finalizer — a cheap, well-mixed stateless hash; the same mix
/// the failure-schedule and soft-error layers use for deterministic draws.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::optional<RoutingSpec> parse_routing_spec(const std::string& text) {
  const auto parsed = parse_spec(text);
  if (!parsed) return std::nullopt;
  RoutingSpec spec;
  if (parsed->name == "deterministic") {
    if (!parsed->fields.empty()) return std::nullopt;  // Deterministic takes no options.
    return spec;
  }
  if (parsed->name != "adaptive") return std::nullopt;
  spec.kind = RoutingKind::kAdaptive;
  for (const auto& [key, value] : parsed->fields) {
    const auto spread = parse_int(value, 1, 1 << 20);
    if (key != "spread" || !spread) return std::nullopt;
    spec.spread = static_cast<int>(*spread);
  }
  return spec;
}

std::string to_string(const RoutingSpec& spec) {
  if (spec.kind == RoutingKind::kDeterministic) return "deterministic";
  std::string s = "adaptive";
  const RoutingSpec defaults{RoutingKind::kAdaptive};
  if (spec.spread != defaults.spread) s += ":spread=" + std::to_string(spec.spread);
  return s;
}

const std::vector<std::string>& list_routings() {
  static const std::vector<std::string> kNames = {"deterministic", "adaptive"};
  return kNames;
}

RoutingSpec resolve_routing_spec(const std::string& configured) {
  auto spec = parse_routing_spec(configured);
  if (!spec) throw std::invalid_argument("malformed routing spec: " + configured);
  return *spec;
}

std::uint64_t route_variant(const RoutingSpec& spec, int src, int dst, std::uint64_t seq,
                            std::uint64_t equal_cost) {
  if (spec.kind == RoutingKind::kDeterministic || equal_cost <= 1) return 0;
  const std::uint64_t fanout =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(std::max(spec.spread, 1)), equal_cost);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst));
  return mix64(mix64(key) ^ seq) % fanout;
}

std::optional<LinkTimeoutSpec> parse_link_timeout_spec(const std::string& text) {
  LinkTimeoutSpec spec;
  std::string head = text;
  std::string opts;
  if (auto colon = text.find(':'); colon != std::string::npos) {
    head = text.substr(0, colon);
    opts = text.substr(colon + 1);
  }

  if (head == "uniform") {
    if (opts.empty()) return spec;  // Plain "uniform": no table at all.
    spec.kind = LinkTimeoutKind::kDistribution;
    // "LO..HI[,seed=N]".
    const auto comma = opts.find(',');
    const auto range = parse_duration_range(opts.substr(0, comma));
    const auto fields =
        parse_fields(comma == std::string::npos ? "" : opts.substr(comma + 1));
    if (!range || !fields) return std::nullopt;
    std::tie(spec.lo, spec.hi) = *range;
    for (const auto& [key, value] : *fields) {
      const auto seed = parse_u64(value);
      if (key != "seed" || !seed) return std::nullopt;
      spec.seed = *seed;
    }
    return spec;
  }

  if (head == "hot" || head == "plane") {
    if (opts.empty()) return std::nullopt;
    // Accept ',' in place of ';' so the spec survives shells that treat ';'
    // specially.
    std::replace(opts.begin(), opts.end(), ',', ';');
    const auto fields = parse_fields(opts, ';');
    if (!fields) return std::nullopt;
    for (const auto& [key, value] : *fields) {
      const auto dur = parse_duration(value);
      if (!dur) return std::nullopt;
      if (head == "hot") {
        const auto id = parse_u64(key);
        if (!id) return std::nullopt;
        spec.hot.emplace_back(*id, *dur);
      } else {
        const auto plane = parse_int(key, 0, 9);
        if (!plane) return std::nullopt;
        spec.planes.emplace_back(static_cast<int>(*plane), *dur);
      }
    }
    spec.kind = head == "hot" ? LinkTimeoutKind::kHot : LinkTimeoutKind::kPlane;
    return spec;
  }

  return std::nullopt;
}

std::string to_string(const LinkTimeoutSpec& spec) {
  switch (spec.kind) {
    case LinkTimeoutKind::kUniform:
      return "uniform";
    case LinkTimeoutKind::kDistribution: {
      std::string s = "uniform:" + format_duration(spec.lo) + ".." + format_duration(spec.hi);
      if (spec.seed != 1) s += ",seed=" + std::to_string(spec.seed);
      return s;
    }
    case LinkTimeoutKind::kHot: {
      std::string s = "hot:";
      for (std::size_t i = 0; i < spec.hot.size(); ++i) {
        if (i > 0) s += ';';
        s += std::to_string(spec.hot[i].first) + "=" + format_duration(spec.hot[i].second);
      }
      return s;
    }
    case LinkTimeoutKind::kPlane: {
      std::string s = "plane:";
      for (std::size_t i = 0; i < spec.planes.size(); ++i) {
        if (i > 0) s += ';';
        s += std::to_string(spec.planes[i].first) + "=" + format_duration(spec.planes[i].second);
      }
      return s;
    }
  }
  return "uniform";
}

std::vector<SimTime> build_link_timeouts(const LinkTimeoutSpec& spec,
                                         const Topology& topology, SimTime base) {
  if (spec.uniform()) return {};

  const std::uint64_t links = topology.link_count();
  // The table is a flat vector; refuse absurd id spaces rather than OOM.
  constexpr std::uint64_t kMaxTabulatedLinks = 1ull << 26;
  if (links > kMaxTabulatedLinks) {
    throw std::invalid_argument(
        "link-timeout table over " + topology.name() + " needs " + std::to_string(links) +
        " entries (limit " + std::to_string(kMaxTabulatedLinks) +
        "); use a uniform timeout for fabrics this large");
  }

  std::vector<SimTime> table(static_cast<std::size_t>(links), base);
  switch (spec.kind) {
    case LinkTimeoutKind::kUniform:
      break;
    case LinkTimeoutKind::kDistribution: {
      const std::uint64_t span = static_cast<std::uint64_t>(spec.hi - spec.lo) + 1;
      for (std::uint64_t id = 0; id < links; ++id) {
        table[static_cast<std::size_t>(id)] =
            spec.lo + static_cast<SimTime>(mix64(spec.seed ^ mix64(id)) % span);
      }
      break;
    }
    case LinkTimeoutKind::kHot:
      for (const auto& [id, timeout] : spec.hot) {
        if (id >= links) {
          throw std::invalid_argument("hot-link id " + std::to_string(id) + " out of range: " +
                                      topology.name() + " has " + std::to_string(links) +
                                      " link ids");
        }
        table[static_cast<std::size_t>(id)] = timeout;
      }
      break;
    case LinkTimeoutKind::kPlane: {
      for (const auto& [plane, timeout] : spec.planes) {
        bool found = false;
        for (std::uint64_t id = 0; id < links; ++id) {
          if (topology.link_plane(id) == plane) {
            table[static_cast<std::size_t>(id)] = timeout;
            found = true;
          }
        }
        if (!found) {
          throw std::invalid_argument("plane " + std::to_string(plane) + " has no links in " +
                                      topology.name() +
                                      " (planes are 0=x/terminal, 1=y/spine/local, 2=z/global)");
        }
      }
      break;
    }
  }
  return table;
}

}  // namespace exasim
