#include "netmodel/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace exasim {
namespace {

SimTime bytes_over_bandwidth(std::size_t bytes, double bytes_per_sec) {
  if (bytes == 0) return 0;
  if (bytes_per_sec <= 0.0) throw std::invalid_argument("non-positive bandwidth");
  return sim_seconds(static_cast<double>(bytes) / bytes_per_sec);
}

int ranks_per_node_of(int ranks_per_chip, int chips_per_node) {
  if (ranks_per_chip <= 0 || chips_per_node <= 0) {
    throw std::invalid_argument("non-positive hierarchy factor");
  }
  return ranks_per_chip * chips_per_node;
}

}  // namespace

NetworkModel::NetworkModel(std::shared_ptr<const Topology> topology, NetworkParams params,
                           RoutingSpec routing, int ranks_per_node)
    : topology_(std::move(topology)),
      params_(std::move(params)),
      routing_spec_(routing),
      ranks_per_node_(ranks_per_node) {
  if (!topology_) throw std::invalid_argument("null topology");
  if (ranks_per_node_ <= 0) throw std::invalid_argument("ranks_per_node <= 0");
  levels_[static_cast<std::size_t>(Level::kSystem)] =
      NetworkLevel{params_.link_latency, params_.bandwidth_bytes_per_sec,
                   params_.per_message_overhead, params_.failure_timeout};
  link_timeouts_ = build_link_timeouts(params_.link_timeouts, *topology_,
                                       params_.failure_timeout);
  max_failure_timeout_ = params_.failure_timeout;
  for (const SimTime t : link_timeouts_) {
    max_failure_timeout_ = std::max(max_failure_timeout_, t);
  }
}

NetworkModel::NetworkModel(std::shared_ptr<const Topology> topology, NetworkParams system,
                           NetworkLevel on_node, NetworkLevel on_chip, int ranks_per_chip,
                           int chips_per_node, RoutingSpec routing)
    : NetworkModel(std::move(topology), std::move(system), routing,
                   ranks_per_node_of(ranks_per_chip, chips_per_node)) {
  ranks_per_chip_ = ranks_per_chip;
  levels_[static_cast<std::size_t>(Level::kOnNode)] = on_node;
  levels_[static_cast<std::size_t>(Level::kOnChip)] = on_chip;
  max_failure_timeout_ =
      std::max({max_failure_timeout_, on_node.failure_timeout, on_chip.failure_timeout});
}

SimTime NetworkModel::delivery_time(int src_rank, int dst_rank, std::size_t bytes) const {
  const Level l = level_for(src_rank, dst_rank);
  const int hops = l == Level::kSystem
                       ? topology_->hop_count(node_of(src_rank), node_of(dst_rank))
                       : (src_rank == dst_rank ? 0 : 1);
  const NetworkLevel& p = level(l);
  return p.per_message_overhead + static_cast<SimTime>(hops) * p.link_latency +
         bytes_over_bandwidth(bytes, p.bandwidth_bytes_per_sec);
}

SimTime NetworkModel::delivery_time_at(SimTime now, int src_rank, int dst_rank,
                                       std::size_t bytes) const {
  SimTime base = delivery_time(src_rank, dst_rank, bytes);
  if (params_.contention) {
    const int src_node = node_of(src_rank), dst_node = node_of(dst_rank);
    if (src_node != dst_node) base += contention_delay(now, src_node, dst_node, bytes);
  }
  return base;
}

SimTime NetworkModel::contention_delay(SimTime now, int src, int dst,
                                       std::size_t bytes) const {
  // Per-link occupancy: a link is busy for one wire latency plus its share of
  // the payload serialization; a message waits wherever its route hits a
  // still-busy link (cut-through: only the waits are charged on top of the
  // uncontended pipeline cost). The per-pair seq counter follows fiber
  // program order, so variant choice is reproducible for a given worker
  // count; busy-window interleaving across pairs makes the added waits exact
  // only at --sim-workers=1 (core::Machine warns otherwise).
  check_nodes(src, dst);
  const SimTime occupancy =
      params_.link_latency + bytes_over_bandwidth(bytes, params_.bandwidth_bytes_per_sec);
  std::lock_guard<std::mutex> lock(net_mutex_);
  if (link_busy_.empty()) link_busy_.resize(static_cast<std::size_t>(topology_->link_count()), 0);

  const std::uint64_t key = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
                            static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst));
  const std::uint64_t seq = flow_seq_[key]++;
  const std::uint64_t variant =
      route_variant(routing_spec_, src, dst, seq, topology_->route_count(src, dst));

  route_scratch_.clear();
  topology_->route_into(src, dst, variant, route_scratch_);

  SimTime cursor = now + params_.per_message_overhead;
  SimTime waited = 0;
  for (const LinkId link : route_scratch_) {
    auto& busy = link_busy_[static_cast<std::size_t>(link)];
    const SimTime start = std::max(cursor, busy);
    waited += start - cursor;
    busy = start + occupancy;
    cursor = start + occupancy;
  }
  return waited;
}

void NetworkModel::check_nodes(int src_node, int dst_node) const {
  const int nodes = topology_->node_count();
  for (const int node : {src_node, dst_node}) {
    if (node < 0 || node >= nodes) {
      throw std::out_of_range("node " + std::to_string(node) + " outside " + topology_->name());
    }
  }
}

SimTime NetworkModel::sender_occupancy(std::size_t bytes) const {
  return params_.per_message_overhead +
         bytes_over_bandwidth(bytes, params_.injection_bandwidth_bytes_per_sec);
}

SimTime NetworkModel::failure_timeout(int src_rank, int dst_rank) const {
  const Level l = level_for(src_rank, dst_rank);
  const int src_node = node_of(src_rank), dst_node = node_of(dst_rank);
  if (l != Level::kSystem || link_timeouts_.empty() || src_node == dst_node) {
    return level(l).failure_timeout;
  }
  check_nodes(src_node, dst_node);
  // The canonical (variant-0) route: detection configuration must not depend
  // on per-flow adaptive variant choices or message interleaving.
  SimTime timeout = 0;
  std::vector<LinkId> links;
  topology_->route_into(src_node, dst_node, 0, links);
  for (const LinkId link : links) {
    timeout = std::max(timeout, link_timeouts_[static_cast<std::size_t>(link)]);
  }
  return timeout;
}

}  // namespace exasim
