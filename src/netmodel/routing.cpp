#include "netmodel/routing.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

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

bool parse_int_field(const std::string& v, int* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  const long parsed = std::strtol(v.c_str(), &end, 10);
  if (end != v.c_str() + v.size() || parsed < 1 || parsed > 1 << 20) return false;
  *out = static_cast<int>(parsed);
  return true;
}

bool parse_u64_field(const std::string& v, std::uint64_t* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
  if (end != v.c_str() + v.size()) return false;
  *out = parsed;
  return true;
}

std::string format_duration(SimTime t) {
  if (t % 1'000'000'000 == 0) return std::to_string(t / 1'000'000'000) + "s";
  if (t % 1'000'000 == 0) return std::to_string(t / 1'000'000) + "ms";
  if (t % 1'000 == 0) return std::to_string(t / 1'000) + "us";
  return std::to_string(t) + "ns";
}

}  // namespace

std::optional<RoutingSpec> parse_routing_spec(const std::string& text) {
  RoutingSpec spec;
  std::string head = text;
  std::string opts;
  if (auto colon = text.find(':'); colon != std::string::npos) {
    head = text.substr(0, colon);
    opts = text.substr(colon + 1);
  }
  if (head == "deterministic") {
    spec.kind = RoutingKind::kDeterministic;
    if (!opts.empty()) return std::nullopt;  // Deterministic takes no options.
    return spec;
  }
  if (head != "adaptive") return std::nullopt;
  spec.kind = RoutingKind::kAdaptive;
  for (const auto& field : split_trimmed(opts, ',')) {
    const auto eq = field.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "spread") {
      if (!parse_int_field(value, &spec.spread)) return std::nullopt;
    } else {
      return std::nullopt;
    }
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

std::uint64_t AdaptiveRouting::variant(int src, int dst, std::uint64_t seq,
                                       std::uint64_t equal_cost) const {
  if (equal_cost <= 1) return 0;
  const std::uint64_t fanout =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(spread_), equal_cost);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst));
  return mix64(mix64(key) ^ seq) % fanout;
}

std::unique_ptr<RoutingPolicy> make_routing(const RoutingSpec& spec) {
  if (spec.kind == RoutingKind::kAdaptive) {
    return std::make_unique<AdaptiveRouting>(spec.spread);
  }
  return std::make_unique<DeterministicRouting>();
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
    std::string range = opts;
    if (auto comma = opts.find(','); comma != std::string::npos) {
      range = opts.substr(0, comma);
      for (const auto& field : split_trimmed(opts.substr(comma + 1), ',')) {
        const auto eq = field.find('=');
        if (eq == std::string::npos || field.substr(0, eq) != "seed") return std::nullopt;
        if (!parse_u64_field(field.substr(eq + 1), &spec.seed)) return std::nullopt;
      }
    }
    const auto dots = range.find("..");
    if (dots == std::string::npos) return std::nullopt;
    const auto lo = parse_duration(range.substr(0, dots));
    const auto hi = parse_duration(range.substr(dots + 2));
    if (!lo || !hi || *hi < *lo) return std::nullopt;
    spec.lo = *lo;
    spec.hi = *hi;
    return spec;
  }

  if (head == "hot" || head == "plane") {
    if (opts.empty()) return std::nullopt;
    // Accept ',' in place of ';' so the spec survives shells and ParamMaps
    // that treat ';' specially.
    std::replace(opts.begin(), opts.end(), ',', ';');
    for (const auto& field : split_trimmed(opts, ';')) {
      const auto eq = field.find('=');
      if (eq == std::string::npos) return std::nullopt;
      const std::string key = field.substr(0, eq);
      const auto dur = parse_duration(field.substr(eq + 1));
      if (!dur) return std::nullopt;
      if (head == "hot") {
        std::uint64_t id = 0;
        if (!parse_u64_field(key, &id)) return std::nullopt;
        spec.hot.emplace_back(id, *dur);
      } else {
        int plane = -1;
        if (key.size() != 1 || key[0] < '0' || key[0] > '9') return std::nullopt;
        plane = key[0] - '0';
        spec.planes.emplace_back(plane, *dur);
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
