#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace exasim {
class NetworkModel;
}

namespace exasim::resilience {

/// Failure-detector families (the pipeline stage between a process failure
/// and the moment each survivor learns about it):
///
///  - kPaperInstant: xSim's simulator-internal broadcast — every survivor is
///    notified at the failure time itself (paper §IV-B). Zero detection
///    latency; the observable failure semantics are produced entirely by the
///    per-request communication timeouts of §IV-C. The default.
///  - kTimeout: the notice reaches each observer one network failure-detection
///    timeout after the failure, using the per-pair timeout of the network
///    level connecting observer and failed rank (§IV-C: "each simulated
///    network ... has its own network communication timeout").
///  - kHeartbeat: the failed process emits heartbeats every `period`; an
///    observer declares it dead after `miss` consecutive missed beats, giving
///    a detection latency between (miss-1) and miss periods (the
///    fault-scenario literature's model of real deployed detectors).
///  - kGossip: SWIM-style epidemic dissemination — the death rumor spreads in
///    rounds of `period`, each infected member telling `fanout` others, so an
///    observer's detection latency grows with its (network-distance-ordered)
///    position in the epidemic: close survivors learn within one round, far
///    ones after O(log_{fanout+1} ranks) rounds, giving the non-uniform
///    per-observer detection-latency distributions of real deployed
///    detectors.
enum class DetectorKind : std::uint8_t { kPaperInstant, kTimeout, kHeartbeat, kGossip };

/// Parsed `--failure-detector` configuration. A zero period (heartbeat or
/// gossip) means "derive from the network": the detector substitutes the
/// network model's largest failure-detection timeout as the period.
struct DetectorSpec {
  DetectorKind kind = DetectorKind::kPaperInstant;
  SimTime period = 0;         ///< Heartbeat or epidemic round period; 0 = auto.
  int heartbeat_miss = 3;     ///< Missed beats before a heartbeat observer gives up.
  int gossip_fanout = 2;      ///< Rumor targets per infected member per round.
  std::uint64_t gossip_seed = 1;  ///< Tie-break stream for equal-distance observers.

  friend bool operator==(const DetectorSpec&, const DetectorSpec&) = default;
};

/// Grammar: `paper-instant` | `timeout` | `heartbeat[:period=DUR][,miss=N]`
/// | `gossip[:period=DUR][,fanout=K][,seed=N]` (options separated by ','
/// after a ':'; `period=auto` selects the network-derived default). Returns
/// nullopt on malformed text.
std::optional<DetectorSpec> parse_detector_spec(const std::string& text);

/// Canonical round-trippable form, e.g. "heartbeat:period=100ms,miss=3".
std::string to_string(const DetectorSpec& spec);

/// One row of `exasim_run --list-failure-detectors`.
struct DetectorInfo {
  std::string name;
  std::string summary;
};
const std::vector<DetectorInfo>& list_detectors();

/// The failure detector of one machine: at what virtual time does
/// `observer` learn that `failed` died at `t_fail`? The NotificationBus uses
/// the answer as the delivery time of the failure notice. Each family reads
/// the network model directly, addressed by rank:
///  - timeout: t_fail + network.failure_timeout(observer, failed), the
///    timeout of the pair's network level; with per-link timeout overrides
///    (NetworkParams::link_timeouts, DESIGN.md §12) the max over the pair's
///    canonical route, so a hot link anywhere on the path stretches the
///    observer's detection bound.
///  - heartbeat: the failed process's last beat is at the last period
///    boundary at/before t_fail and the observer declares death after `miss`
///    missed beats: (floor(t_fail / period) + miss) * period.
///  - gossip: observers of a failed rank f are ordered by
///    (network.delivery_time(o, f, 0), seeded per-pair hash, rank) — network
///    distance first, with a deterministic seeded shuffle breaking ties among
///    equidistant observers — and the epidemic grows `fanout + 1`-fold per
///    round: the observer at 0-based position p in that order is infected in
///    round r(p) = min { r >= 1 : (fanout + 1)^r >= p + 2 }. Its notice is
///    delivered at
///      t_fail + r(p) * period + network.delivery_time(o, f, 0),
///    which is strictly increasing in hop distance (the latency term) while
///    the round term spreads equidistant observers across epidemic
///    generations.
/// `period=auto` resolves once, at construction, to
/// network.max_failure_timeout(). detection_time is a pure function of its
/// arguments (the gossip rounds cache is guarded and value-deterministic):
/// the bus may call it from any engine worker thread, and determinism across
/// `--sim-workers` settings depends on it.
class Detector {
 public:
  /// Throws std::invalid_argument for a period that resolves to 0, a miss
  /// count or fanout below 1, or a non-positive rank count.
  Detector(const DetectorSpec& spec, const NetworkModel& network, int ranks);

  /// Always >= t_fail (a notice cannot precede the failure).
  SimTime detection_time(int observer, int failed, SimTime t_fail) const;

  /// The heartbeat or gossip period after `period=auto` is resolved.
  SimTime period() const { return spec_.period; }

  /// Gossip only: the epidemic round in which `observer` is infected (>= 1;
  /// 0 for the failed rank itself). Exposed for tests.
  int rounds(int observer, int failed) const;

 private:
  const std::vector<int>& rounds_for(int failed) const;

  DetectorSpec spec_;  ///< With the period resolved.
  const NetworkModel* network_;
  int ranks_;
  /// Per-failed-rank gossip infection rounds, computed once per failure
  /// target (O(ranks log ranks)) so a ranks-wide broadcast costs O(1) per
  /// observer. Guarded: detection_time may run on any engine worker.
  mutable std::mutex cache_mutex_;
  mutable std::map<int, std::vector<int>> rounds_cache_;
};

}  // namespace exasim::resilience
