#include "resilience/detector.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "netmodel/network.hpp"
#include "util/parse.hpp"

namespace exasim::resilience {

std::optional<DetectorSpec> parse_detector_spec(const std::string& text) {
  const auto parsed = parse_spec(text);
  if (!parsed) return std::nullopt;
  DetectorSpec spec;
  if (parsed->name == "paper-instant") {
    spec.kind = DetectorKind::kPaperInstant;
  } else if (parsed->name == "timeout") {
    spec.kind = DetectorKind::kTimeout;
  } else if (parsed->name == "heartbeat") {
    spec.kind = DetectorKind::kHeartbeat;
  } else if (parsed->name == "gossip") {
    spec.kind = DetectorKind::kGossip;
  } else {
    return std::nullopt;
  }

  const bool heartbeat = spec.kind == DetectorKind::kHeartbeat;
  const bool gossip = spec.kind == DetectorKind::kGossip;
  for (const auto& [key, value] : parsed->fields) {
    bool ok = false;  // Unknown keys, and every key of paper-instant and timeout.
    if (key == "period" && (heartbeat || gossip)) {
      if (value == "auto") {
        spec.period = 0;  // Resolved to the network timeout by the Detector.
        ok = true;
      } else {
        const auto t = parse_duration(value);
        ok = t && *t > 0 && assign(spec.period, t);
      }
    } else if (key == "miss" && heartbeat) {
      ok = assign(spec.heartbeat_miss, parse_int(value, 1, kIntMax));
    } else if (key == "fanout" && gossip) {
      ok = assign(spec.gossip_fanout, parse_int(value, 1, kIntMax));
    } else if (key == "seed" && gossip) {
      ok = assign(spec.gossip_seed, parse_u64(value));
    }
    if (!ok) return std::nullopt;
  }
  return spec;
}

std::string to_string(const DetectorSpec& spec) {
  const std::string period = spec.period == 0 ? std::string("auto") : format_duration(spec.period);
  switch (spec.kind) {
    case DetectorKind::kPaperInstant:
      return "paper-instant";
    case DetectorKind::kTimeout:
      return "timeout";
    case DetectorKind::kHeartbeat:
      return "heartbeat:period=" + period + ",miss=" + std::to_string(spec.heartbeat_miss);
    case DetectorKind::kGossip:
      return "gossip:period=" + period + ",fanout=" + std::to_string(spec.gossip_fanout) +
             ",seed=" + std::to_string(spec.gossip_seed);
  }
  return "?";
}

const std::vector<DetectorInfo>& list_detectors() {
  static const std::vector<DetectorInfo> infos = {
      {"paper-instant",
       "simulator-internal broadcast at the failure time (paper SIV-B, default)"},
      {"timeout",
       "notice after the per-pair network failure-detection timeout (paper SIV-C)"},
      {"heartbeat",
       "declared dead after N missed heartbeats; options :period=DUR,miss=N "
       "(default period=network timeout, miss=3)"},
      {"gossip",
       "SWIM-style epidemic: notice after hop-distance latency plus epidemic "
       "rounds; options :period=DUR,fanout=K,seed=N (default period=network "
       "timeout, fanout=2, seed=1)"},
  };
  return infos;
}

namespace {

/// splitmix64 finalizer — a cheap, well-mixed 64-bit hash used to shuffle
/// equidistant observers deterministically from (seed, failed, observer).
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Detector::Detector(const DetectorSpec& spec, const NetworkModel& network, int ranks)
    : spec_(spec), network_(&network), ranks_(ranks) {
  if (ranks_ <= 0) throw std::invalid_argument("detector needs a positive rank count");
  const bool heartbeat = spec_.kind == DetectorKind::kHeartbeat;
  const bool gossip = spec_.kind == DetectorKind::kGossip;
  if (!heartbeat && !gossip) return;
  if (spec_.period == 0) {
    spec_.period = network.max_failure_timeout();
    if (spec_.period == 0) {
      throw std::invalid_argument("failure detector '" + to_string(spec) +
                                  "': period=auto found a zero network failure timeout");
    }
  }
  if (heartbeat && spec_.heartbeat_miss < 1) throw std::invalid_argument("heartbeat miss < 1");
  if (gossip && spec_.gossip_fanout < 1) throw std::invalid_argument("gossip fanout < 1");
}

SimTime Detector::detection_time(int observer, int failed, SimTime t_fail) const {
  switch (spec_.kind) {
    case DetectorKind::kPaperInstant:
      return t_fail;
    case DetectorKind::kTimeout:
      return t_fail + network_->failure_timeout(observer, failed);
    case DetectorKind::kHeartbeat:
      return (t_fail / spec_.period + static_cast<SimTime>(spec_.heartbeat_miss)) * spec_.period;
    case DetectorKind::kGossip:
      if (observer == failed) return t_fail;
      return t_fail + static_cast<SimTime>(rounds(observer, failed)) * spec_.period +
             network_->delivery_time(observer, failed, 0);
  }
  return t_fail;
}

const std::vector<int>& Detector::rounds_for(int failed) const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = rounds_cache_.find(failed);
  if (it != rounds_cache_.end()) return it->second;

  struct Entry {
    SimTime latency;
    std::uint64_t hash;
    int rank;
  };
  std::vector<Entry> order;
  order.reserve(static_cast<std::size_t>(ranks_ - 1));
  for (int r = 0; r < ranks_; ++r) {
    if (r == failed) continue;
    const std::uint64_t pair =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(failed)) << 32) |
        static_cast<std::uint32_t>(r);
    order.push_back({network_->delivery_time(r, failed, 0),
                     splitmix64(spec_.gossip_seed ^ splitmix64(pair)), r});
  }
  std::sort(order.begin(), order.end(), [](const Entry& a, const Entry& b) {
    if (a.latency != b.latency) return a.latency < b.latency;
    if (a.hash != b.hash) return a.hash < b.hash;
    return a.rank < b.rank;
  });

  std::vector<int> rounds(static_cast<std::size_t>(ranks_), 0);
  // The epidemic multiplies (fanout + 1)-fold per round: after round r the
  // rumor has reached (fanout + 1)^r members including the origin, so the
  // observer at 0-based position p joins in the first round r with
  // (fanout + 1)^r >= p + 2. Walk the boundary instead of taking logs.
  std::uint64_t boundary = 1;  // Members infected after `round` rounds.
  int round = 0;
  const std::uint64_t growth = static_cast<std::uint64_t>(spec_.gossip_fanout) + 1;
  for (std::size_t p = 0; p < order.size(); ++p) {
    while (boundary < p + 2) {
      boundary = boundary > (~0ULL) / growth ? ~0ULL : boundary * growth;
      ++round;
    }
    rounds[static_cast<std::size_t>(order[p].rank)] = round;
  }
  return rounds_cache_.emplace(failed, std::move(rounds)).first->second;
}

int Detector::rounds(int observer, int failed) const {
  if (observer == failed) return 0;
  return rounds_for(failed)[static_cast<std::size_t>(observer)];
}

}  // namespace exasim::resilience
