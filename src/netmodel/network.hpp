#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "netmodel/routing.hpp"
#include "netmodel/topology.hpp"
#include "util/time.hpp"

namespace exasim {

/// Message transfer protocol selected by payload size (paper §V-C: eager
/// threshold 256 kB; larger payloads use the rendezvous protocol).
enum class Protocol { kEager, kRendezvous };

/// LogGP-style link/NIC parameters of the system network.
struct NetworkParams {
  SimTime link_latency = sim_us(1);            ///< L: per-hop wire latency.
  double bandwidth_bytes_per_sec = 32e9;       ///< Per-link bandwidth (32 GB/s, §V-C).
  SimTime per_message_overhead = sim_ns(500);  ///< o: software send/recv overhead.
  double injection_bandwidth_bytes_per_sec = 32e9;  ///< NIC serialization at the sender.
  std::size_t eager_threshold = 256 * 1024;    ///< Bytes; above this, rendezvous.
  SimTime failure_timeout = sim_ms(100);       ///< Communication timeout used for
                                               ///< failure detection (paper §IV-C).
  /// Per-link failure-timeout overrides (DESIGN.md §12). The default uniform
  /// spec keeps `failure_timeout` for every link and builds no table.
  LinkTimeoutSpec link_timeouts;
  /// Fold per-link occupancy windows into delivery times (off by default;
  /// exactly deterministic only at --sim-workers=1).
  bool contention = false;
};

/// The four values the model reads for one on-node or on-chip level of a
/// hierarchical network (the system level reads its NetworkParams).
struct NetworkLevel {
  SimTime link_latency = sim_us(1);            ///< L: latency of the level's one hop.
  double bandwidth_bytes_per_sec = 32e9;       ///< Level bandwidth.
  SimTime per_message_overhead = sim_ns(500);  ///< o: software overhead at this level.
  SimTime failure_timeout = sim_ms(100);       ///< The level's communication timeout.
};

/// The network model the MPI layer, the detectors and the engine ask,
/// addressed by rank.
///
/// `ranks_per_node` consecutive ranks share a node (node = rank /
/// ranks_per_node); the system level routes between nodes over the topology.
/// A hierarchical model adds two levels inside a node, each with its own
/// parameters and failure-detection timeout (paper §IV-C: "each simulated
/// network, such as the on-chip, on-node, and system-wide network, has its
/// own network communication timeout"): ranks on the same chip
/// (`ranks_per_chip` consecutive ranks) talk on-chip, other ranks of the
/// same node on-node. The flat model has no such levels: a same-node pair
/// crosses 0 system hops with the system parameters.
///
/// For a payload of B bytes over h hops of a level the one-way delivery time
/// is
///   o + h*L + B / bandwidth
/// with h the topology's hop count between the nodes at the system level and
/// 1 (0 from a rank to itself) at the on-node and on-chip levels. The
/// sender's NIC is occupied for
///   o + B / injection_bandwidth
/// (charged to the sender's virtual clock — this is what serializes linear
/// collectives at the root). Sender occupancy, receiver overhead and the
/// eager/rendezvous choice use the system parameters. Control messages
/// (RTS/CTS) use B = 0.
///
/// On top of the hop-count cost the model knows the *route* each flow of the
/// system level takes (Topology::route_into + route_variant), which feeds two
/// optional layers, both off by default and both system-level only:
///  - per-link contention (NetworkParams::contention): each link keeps a
///    busy-until window; delivery_time_at() adds the wait a message's route
///    accumulates behind earlier flows sharing its links.
///  - per-link failure timeouts (NetworkParams::link_timeouts): when a table
///    is configured, a cross-node pair's failure_timeout is the max over the
///    canonical route's link timeouts.
class NetworkModel {
 public:
  enum class Level : std::uint8_t { kOnChip, kOnNode, kSystem };

  /// Flat model: `ranks_per_node` consecutive ranks per node.
  NetworkModel(std::shared_ptr<const Topology> topology, NetworkParams params,
               RoutingSpec routing = {}, int ranks_per_node = 1);

  /// Hierarchical model: `ranks_per_chip` ranks per chip, `chips_per_node`
  /// chips per node. With ranks_per_chip * chips_per_node == 1 this is the
  /// paper's experiment configuration (one MPI rank per node, MPI+X assumed).
  NetworkModel(std::shared_ptr<const Topology> topology, NetworkParams system,
               NetworkLevel on_node, NetworkLevel on_chip, int ranks_per_chip,
               int chips_per_node, RoutingSpec routing = {});

  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;

  const Topology& topology() const { return *topology_; }
  const NetworkParams& params() const { return params_; }
  const RoutingSpec& routing() const { return routing_spec_; }

  int ranks_per_node() const { return ranks_per_node_; }
  int node_of(int rank) const { return rank / ranks_per_node_; }

  /// The level a pair talks on: kSystem across nodes, and for every pair of
  /// the flat model.
  Level level_for(int src_rank, int dst_rank) const {
    if (ranks_per_chip_ == 0 || node_of(src_rank) != node_of(dst_rank)) return Level::kSystem;
    return src_rank / ranks_per_chip_ == dst_rank / ranks_per_chip_ ? Level::kOnChip
                                                                    : Level::kOnNode;
  }

  Protocol protocol_for(std::size_t bytes) const {
    return bytes <= params_.eager_threshold ? Protocol::kEager : Protocol::kRendezvous;
  }

  /// One-way in-flight time for `bytes` between two ranks, with no
  /// contention: the LogGP cost, identical for every route variant of a
  /// pair (all variants are minimal). Detector wiring uses this as its
  /// latency estimate: detection configuration must not depend on transient
  /// link occupancy.
  SimTime delivery_time(int src_rank, int dst_rank, std::size_t bytes) const;

  /// delivery_time plus the contention wait of the flow's route when
  /// NetworkParams::contention is on and the ranks sit on different nodes
  /// (`now` is the send time). Otherwise exactly delivery_time — the
  /// default fast path. The message path in vmpi::SimProcess uses this.
  SimTime delivery_time_at(SimTime now, int src_rank, int dst_rank, std::size_t bytes) const;

  /// Time the sender's virtual clock is charged to push `bytes` into the NIC.
  SimTime sender_occupancy(std::size_t bytes) const;

  /// Receiver-side software overhead charged at match time.
  SimTime receiver_overhead() const { return params_.per_message_overhead; }

  /// Failure-detection timeout for the (src, dst) rank pair: the timeout of
  /// the pair's level; across nodes with a per-link table, the max over the
  /// canonical (variant-0) route's links, so a hot link anywhere on the path
  /// stretches the pair's detection bound. The canonical route keeps this
  /// independent of per-flow adaptive variant choices (detection
  /// configuration must not depend on message interleaving). Throws
  /// std::out_of_range when it would route from or to a node outside the
  /// topology.
  SimTime failure_timeout(int src_rank, int dst_rank) const;

  /// Largest failure-detection timeout across all links and network levels —
  /// the conservative system-wide detection bound, computed at construction.
  /// Used by the resilience layer as the default heartbeat period (a
  /// heartbeat slower than the worst-case timeout would detect later than
  /// the timeout detector).
  SimTime max_failure_timeout() const { return max_failure_timeout_; }

  /// Lower bound on the delivery time of any message between two distinct
  /// nodes — the engine's conservative-window lookahead: no cross-node event
  /// scheduled at virtual time t can arrive before t + min_remote_latency().
  /// Provable over any route: every route between distinct nodes traverses
  /// at least one link (o + at least one hop of L with zero payload), every
  /// route variant is minimal, and the optional layers (contention waits,
  /// link timeouts) only ever *add* delay. It is the system level's, matching
  /// the engine's node-aligned LP grouping (intra-node traffic never crosses
  /// groups).
  SimTime min_remote_latency() const {
    return params_.per_message_overhead + params_.link_latency;
  }

 private:
  const NetworkLevel& level(Level l) const { return levels_[static_cast<std::size_t>(l)]; }

  /// Throws std::out_of_range unless both nodes are in the topology. The
  /// paths that index per-link tables by a route call it; the uncontended
  /// delivery_time does not.
  void check_nodes(int src_node, int dst_node) const;

  /// Contention wait accumulated by the (src, dst) node flow's next message
  /// when sent at `now`. Advances the flow's seq counter and the busy
  /// windows of the chosen route's links. Throws std::out_of_range for a
  /// node outside the topology.
  SimTime contention_delay(SimTime now, int src_node, int dst_node, std::size_t bytes) const;

  std::shared_ptr<const Topology> topology_;
  NetworkParams params_;
  RoutingSpec routing_spec_;
  int ranks_per_node_;
  int ranks_per_chip_ = 0;  ///< 0 in the flat model: no on-node/on-chip levels.
  /// Indexed by Level; the kSystem entry holds params_'s four level values.
  std::array<NetworkLevel, 3> levels_;
  /// Per-link failure timeouts; empty = uniform params_.failure_timeout.
  std::vector<SimTime> link_timeouts_;
  SimTime max_failure_timeout_;

  /// Contention state (only touched when params_.contention). Guarded by
  /// net_mutex_: delivery queries come from any engine worker thread.
  mutable std::mutex net_mutex_;
  mutable std::vector<SimTime> link_busy_;  ///< Busy-until per link id.
  mutable std::unordered_map<std::uint64_t, std::uint64_t> flow_seq_;
  mutable std::vector<LinkId> route_scratch_;
};

}  // namespace exasim
