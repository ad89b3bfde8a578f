// netmodel: topology routing properties and LogGP-style timing.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "netmodel/network.hpp"
#include "netmodel/routing.hpp"
#include "netmodel/topology.hpp"
#include "util/rng.hpp"

namespace exasim {
namespace {

TEST(Torus3D, CoordinateRoundTrip) {
  Torus3D t(4, 5, 6);
  EXPECT_EQ(t.node_count(), 120);
  for (int n = 0; n < t.node_count(); ++n) EXPECT_EQ(t.node_of(t.coord_of(n)), n);
}

TEST(Torus3D, WrapAroundShortensPaths) {
  Torus3D t(8, 8, 8);
  // Nodes 0 and 7 on the x ring: distance 1 via the wrap link.
  EXPECT_EQ(t.hop_count(0, 7), 1);
  // Opposite corners: each dimension contributes its half-ring (4).
  const int far = t.node_of({4, 4, 4});
  EXPECT_EQ(t.hop_count(0, far), 12);
  EXPECT_EQ(t.diameter(), 12);
}

TEST(Torus3D, PaperConfiguration) {
  // The paper's simulated system: 32,768 nodes in a 32x32x32 wrapped torus.
  Torus3D t(32, 32, 32);
  EXPECT_EQ(t.node_count(), 32768);
  EXPECT_EQ(t.diameter(), 48);
}

TEST(Torus3D, FaceNeighborsAreOneHop) {
  Torus3D t(4, 4, 4);
  for (int n : {0, 21, 63}) {
    for (int nb : t.face_neighbors(n)) {
      EXPECT_EQ(t.hop_count(n, nb), 1);
      EXPECT_NE(nb, n);
    }
  }
}

TEST(Mesh3D, NoWrapLinks) {
  Torus3D m(8, 1, 1, /*wrap=*/false);
  EXPECT_EQ(m.hop_count(0, 7), 7);
  EXPECT_EQ(m.diameter(), 7);
}

TEST(FatTree, TwoAndFourHopTiers) {
  FatTree f(4, 3);
  EXPECT_EQ(f.node_count(), 12);
  EXPECT_EQ(f.hop_count(0, 0), 0);
  EXPECT_EQ(f.hop_count(0, 3), 2);   // Same leaf switch.
  EXPECT_EQ(f.hop_count(0, 4), 4);   // Cross switch.
  EXPECT_EQ(f.diameter(), 4);
}

TEST(Dragonfly, HopTiers) {
  Dragonfly d(4, 3, 2);  // 4 groups x 3 routers x 2 nodes = 24 nodes.
  EXPECT_EQ(d.node_count(), 24);
  EXPECT_EQ(d.hop_count(0, 0), 0);
  EXPECT_EQ(d.hop_count(0, 1), 2);   // Same router.
  EXPECT_EQ(d.hop_count(0, 2), 3);   // Same group, other router.
  EXPECT_EQ(d.hop_count(0, 6), 5);   // Other group.
  EXPECT_EQ(d.diameter(), 5);
  EXPECT_EQ(d.group_of(7), 1);
  EXPECT_EQ(d.name(), "dragonfly:4x3x2");
}

TEST(Star, TwoHopsViaHub) {
  Star s(5);
  EXPECT_EQ(s.hop_count(1, 4), 2);
  EXPECT_EQ(s.hop_count(2, 2), 0);
}

// Property sweep over all topology kinds: hop counts are symmetric,
// zero-on-diagonal, and bounded by the diameter.
class TopologyProperties : public ::testing::TestWithParam<const char*> {};

TEST_P(TopologyProperties, MetricInvariants) {
  auto topo = make_topology(GetParam());
  Rng rng(99);
  const int n = topo->node_count();
  for (int trial = 0; trial < 300; ++trial) {
    const int a = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    const int b = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    const int ab = topo->hop_count(a, b);
    EXPECT_EQ(ab, topo->hop_count(b, a)) << GetParam();
    EXPECT_GE(ab, 0);
    EXPECT_LE(ab, topo->diameter()) << GetParam();
    EXPECT_EQ(topo->hop_count(a, a), 0);
    if (a != b) {
      EXPECT_GE(ab, 1);
    }
  }
}

// Route-level invariants across the full zoo: every route variant is
// minimal (same length as hop_count), uses only valid link ids with valid
// planes, and variant selection wraps modulo route_count.
TEST_P(TopologyProperties, RouteInvariants) {
  auto topo = make_topology(GetParam());
  Rng rng(42);
  const int n = topo->node_count();
  std::vector<LinkId> route;
  for (int trial = 0; trial < 200; ++trial) {
    const int a = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    const int b = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    const int variants = topo->route_count(a, b);
    EXPECT_GE(variants, 1) << GetParam();
    if (a == b) {
      EXPECT_EQ(topo->route(a, b).size(), 0u) << GetParam();
      continue;
    }
    for (int v = 0; v < variants; ++v) {
      route = topo->route(a, b, v);
      EXPECT_EQ(static_cast<int>(route.size()), topo->hop_count(a, b))
          << GetParam() << " " << a << "->" << b << " variant " << v;
      for (LinkId id : route) {
        EXPECT_LT(id, topo->link_count()) << GetParam();
        EXPECT_GE(topo->link_plane(id), 0) << GetParam();
      }
      // Variant indices wrap: v + route_count picks the same route.
      EXPECT_EQ(route, topo->route(a, b, v + variants)) << GetParam();
    }
  }
}

// Exhaustive check on small instances: diameter() equals the max pairwise
// hop count, and routes agree with hop counts for every pair.
class TopologySmall : public ::testing::TestWithParam<const char*> {};

TEST_P(TopologySmall, DiameterIsMaxPairwiseHops) {
  auto topo = make_topology(GetParam());
  const int n = topo->node_count();
  int max_hops = 0;
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      const int ab = topo->hop_count(a, b);
      max_hops = std::max(max_hops, ab);
      EXPECT_EQ(static_cast<int>(topo->route(a, b).size()), ab)
          << GetParam() << " " << a << "->" << b;
    }
  }
  EXPECT_EQ(topo->diameter(), max_hops) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Kinds, TopologyProperties,
                         ::testing::Values("torus:6x7x8", "mesh:5x4x3", "fattree:8x6",
                                           "star:40", "dragonfly:4x4x4"));

INSTANTIATE_TEST_SUITE_P(Kinds, TopologySmall,
                         ::testing::Values("torus:3x4x5", "mesh:4x3x2", "fattree:4x5",
                                           "star:7", "dragonfly:3x3x2", "torus:1x1x1",
                                           "mesh:1x1x1", "fattree:4x1", "star:1",
                                           "dragonfly:1x1x1", "dragonfly:1x3x2"));

TEST(TopologyFactory, ParsesSpecs) {
  EXPECT_EQ(make_topology("torus:2x3x4")->node_count(), 24);
  EXPECT_EQ(make_topology("mesh:2x2x2")->name(), "mesh:2x2x2");
  EXPECT_THROW(make_topology("torus:2x3"), std::invalid_argument);
  EXPECT_THROW(make_topology("blah:4"), std::invalid_argument);
  EXPECT_THROW(make_topology("noseparator"), std::invalid_argument);
}

TEST(TopologyFactory, RejectsMalformedDimensions) {
  // Trailing garbage, signs, and embedded spaces are errors, not silent
  // truncation (the pre-hardening parser accepted "4garbage" as 4).
  EXPECT_THROW(make_topology("torus:4x4x4garbage"), std::invalid_argument);
  EXPECT_THROW(make_topology("torus:4x4x"), std::invalid_argument);
  EXPECT_THROW(make_topology("torus:-2x4x4"), std::invalid_argument);
  EXPECT_THROW(make_topology("torus:0x4x4"), std::invalid_argument);
  EXPECT_THROW(make_topology("star:0"), std::invalid_argument);
  EXPECT_THROW(make_topology("fattree:4x0"), std::invalid_argument);
  EXPECT_THROW(make_topology("dragonfly:2x2"), std::invalid_argument);
  EXPECT_THROW(make_topology("torus:2x2x2x2"), std::invalid_argument);
  // Overflow: per-dimension and total node count.
  EXPECT_THROW(make_topology("torus:9999999999x2x2"), std::invalid_argument);
  EXPECT_THROW(make_topology("torus:2000000x2000000x2000000"), std::invalid_argument);
  // Errors carry the offending spec and the expected format.
  try {
    make_topology("torus:4x4x4garbage");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("torus:4x4x4garbage"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("expected"), std::string::npos);
  }
}

TEST(TopologyFactory, ListsEveryKind) {
  const auto& kinds = list_topologies();
  ASSERT_EQ(kinds.size(), 5u);
  for (const char* name : {"torus", "mesh", "fattree", "dragonfly", "star"}) {
    const bool found = std::any_of(kinds.begin(), kinds.end(),
                                   [&](const TopologyInfo& info) { return info.name == name; });
    EXPECT_TRUE(found) << name;
  }
  for (const auto& info : kinds) {
    EXPECT_FALSE(info.format.empty()) << info.name;
    EXPECT_FALSE(info.summary.empty()) << info.name;
  }
}

TEST(RoutingSpecParse, AcceptsAndRoundTrips) {
  auto det = parse_routing_spec("deterministic");
  ASSERT_TRUE(det.has_value());
  EXPECT_EQ(det->kind, RoutingKind::kDeterministic);
  EXPECT_EQ(to_string(*det), "deterministic");

  auto adp = parse_routing_spec("adaptive");
  ASSERT_TRUE(adp.has_value());
  EXPECT_EQ(adp->kind, RoutingKind::kAdaptive);
  EXPECT_EQ(adp->spread, 4);
  EXPECT_EQ(to_string(*adp), "adaptive");

  auto wide = parse_routing_spec("adaptive:spread=8");
  ASSERT_TRUE(wide.has_value());
  EXPECT_EQ(wide->spread, 8);
  EXPECT_EQ(to_string(*wide), "adaptive:spread=8");
}

TEST(RoutingSpecParse, RejectsMalformed) {
  EXPECT_FALSE(parse_routing_spec("bogus").has_value());
  EXPECT_FALSE(parse_routing_spec("adaptive:spread=0").has_value());
  EXPECT_FALSE(parse_routing_spec("adaptive:spread=").has_value());
  EXPECT_FALSE(parse_routing_spec("adaptive:width=2").has_value());
  EXPECT_FALSE(parse_routing_spec("deterministic:spread=2").has_value());
  EXPECT_FALSE(parse_routing_spec("").has_value());
}

TEST(RouteVariant, DeterministicBoundedAndSpreading) {
  const RoutingSpec adaptive{RoutingKind::kAdaptive, 4};
  bool hit_nonzero = false;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    const std::uint64_t v = route_variant(adaptive, 3, 9, seq, 6);
    EXPECT_LT(v, 4u);  // Clamped to spread, not route_count.
    EXPECT_EQ(v, route_variant(adaptive, 3, 9, seq, 6));  // Pure function of args.
    if (v != 0) hit_nonzero = true;
  }
  EXPECT_TRUE(hit_nonzero);  // Actually spreads across variants.
  // A single equal-cost route leaves no choice.
  EXPECT_EQ(route_variant(adaptive, 3, 9, 17, 1), 0u);
  // Deterministic routing always picks the canonical variant.
  EXPECT_EQ(route_variant(RoutingSpec{}, 3, 9, 17, 6), 0u);
}

TEST(LinkTimeoutSpecParse, AcceptsAndRoundTrips) {
  EXPECT_TRUE(parse_link_timeout_spec("uniform").has_value());
  EXPECT_TRUE(parse_link_timeout_spec("uniform")->uniform());

  auto dist = parse_link_timeout_spec("uniform:50us..200us,seed=7");
  ASSERT_TRUE(dist.has_value());
  EXPECT_EQ(dist->kind, LinkTimeoutKind::kDistribution);
  EXPECT_EQ(dist->lo, sim_us(50));
  EXPECT_EQ(dist->hi, sim_us(200));
  EXPECT_EQ(dist->seed, 7u);
  EXPECT_EQ(to_string(*dist), "uniform:50us..200us,seed=7");

  auto hot = parse_link_timeout_spec("hot:0=500ms,7=2s");  // ',' works as ';'.
  ASSERT_TRUE(hot.has_value());
  EXPECT_EQ(hot->kind, LinkTimeoutKind::kHot);
  ASSERT_EQ(hot->hot.size(), 2u);
  EXPECT_EQ(hot->hot[1], (std::pair<std::uint64_t, SimTime>{7, sim_seconds(2)}));
  EXPECT_EQ(to_string(*hot), "hot:0=500ms;7=2s");

  auto plane = parse_link_timeout_spec("plane:2=1s");
  ASSERT_TRUE(plane.has_value());
  EXPECT_EQ(plane->kind, LinkTimeoutKind::kPlane);
  EXPECT_EQ(to_string(*plane), "plane:2=1s");
}

TEST(LinkTimeoutSpecParse, RejectsMalformed) {
  EXPECT_FALSE(parse_link_timeout_spec("uniform:200us..50us").has_value());  // hi < lo.
  EXPECT_FALSE(parse_link_timeout_spec("uniform:50us").has_value());        // No range.
  EXPECT_FALSE(parse_link_timeout_spec("hot:").has_value());
  EXPECT_FALSE(parse_link_timeout_spec("hot:x=1s").has_value());
  EXPECT_FALSE(parse_link_timeout_spec("plane:x=1s").has_value());
  EXPECT_FALSE(parse_link_timeout_spec("bogus").has_value());
}

TEST(LinkTimeouts, TableSemantics) {
  const auto topo = make_topology("torus:4x4x4");  // 192 link ids.
  const SimTime base = sim_ms(100);

  // Uniform: no table — callers fall back to the base timeout.
  EXPECT_TRUE(build_link_timeouts(LinkTimeoutSpec{}, *topo, base).empty());

  // Distribution: every link lands in [lo, hi]; draws are seed-stable.
  const auto dist = *parse_link_timeout_spec("uniform:50ms..200ms,seed=7");
  const auto table = build_link_timeouts(dist, *topo, base);
  ASSERT_EQ(table.size(), topo->link_count());
  for (SimTime t : table) {
    EXPECT_GE(t, sim_ms(50));
    EXPECT_LE(t, sim_ms(200));
  }
  EXPECT_EQ(table, build_link_timeouts(dist, *topo, base));

  // Hot: overrides named ids, leaves the rest at base.
  const auto hot = build_link_timeouts(*parse_link_timeout_spec("hot:0=500ms"), *topo, base);
  EXPECT_EQ(hot[0], sim_ms(500));
  EXPECT_EQ(hot[1], base);

  // Out-of-range ids and absent planes are configuration errors.
  const auto star = make_topology("star:4");
  EXPECT_THROW(build_link_timeouts(*parse_link_timeout_spec("hot:999=1s"), *star, base),
               std::invalid_argument);
  EXPECT_THROW(build_link_timeouts(*parse_link_timeout_spec("plane:2=1s"), *star, base),
               std::invalid_argument);
}

TEST(NetworkModel, PerLinkFailureTimeouts) {
  NetworkParams p;
  p.failure_timeout = sim_ms(100);
  p.link_timeouts = *parse_link_timeout_spec("hot:0=500ms");
  NetworkModel net(make_topology("torus:4x4x4"), p);
  // Link 0 is node 0's +x link: the 0 -> 1 canonical route crosses it (in
  // both directions), so that pair's timeout stretches to the hot link's.
  EXPECT_EQ(net.failure_timeout(0, 1), sim_ms(500));
  EXPECT_EQ(net.failure_timeout(1, 0), sim_ms(500));
  // A pair routed elsewhere keeps the base timeout; self-pairs always do.
  EXPECT_EQ(net.failure_timeout(1, 2), sim_ms(100));
  EXPECT_EQ(net.failure_timeout(1, 1), sim_ms(100));
  // The detector-period bound reflects the hottest link, not just the base.
  EXPECT_EQ(net.max_failure_timeout(), sim_ms(500));

  // Detection config is independent of the routing policy: the canonical
  // route decides, even under adaptive spreading.
  NetworkModel adaptive(make_topology("torus:4x4x4"), p, RoutingSpec{RoutingKind::kAdaptive});
  EXPECT_EQ(adaptive.failure_timeout(0, 1), sim_ms(500));
  EXPECT_EQ(adaptive.max_failure_timeout(), sim_ms(500));
}

TEST(NetworkModel, PlaneTimeoutsOnDragonfly) {
  NetworkParams p;
  p.failure_timeout = sim_ms(100);
  p.link_timeouts = *parse_link_timeout_spec("plane:2=2s");  // All global links.
  NetworkModel net(make_topology("dragonfly:3x3x2"), p);
  // Cross-group routes traverse a global link; intra-router routes do not.
  EXPECT_EQ(net.failure_timeout(0, 6), sim_seconds(2));
  EXPECT_EQ(net.failure_timeout(0, 1), sim_ms(100));
  EXPECT_EQ(net.max_failure_timeout(), sim_seconds(2));
}

TEST(NetworkModel, ContentionQueuesFlowsOnSharedLinks) {
  NetworkParams p;
  p.link_latency = sim_us(1);
  p.bandwidth_bytes_per_sec = 1e9;
  p.contention = true;
  NetworkModel net(make_topology("star:4"), p);
  // First flow sees an idle fabric: contended == uncontended.
  const SimTime uncontended = net.delivery_time(1, 2, 100000);
  EXPECT_EQ(net.delivery_time_at(0, 1, 2, 100000), uncontended);
  // A second identical flow at the same instant queues behind the first's
  // occupancy windows on the shared hub links.
  EXPECT_GT(net.delivery_time_at(0, 1, 2, 100000), uncontended);
  // Self-delivery never touches links.
  EXPECT_EQ(net.delivery_time_at(0, 2, 2, 100000), net.delivery_time(2, 2, 100000));

  // With contention off (the default), delivery_time_at is delivery_time.
  NetworkParams quiet = p;
  quiet.contention = false;
  NetworkModel off(make_topology("star:4"), quiet);
  EXPECT_EQ(off.delivery_time_at(0, 1, 2, 100000), off.delivery_time(1, 2, 100000));
  EXPECT_EQ(off.delivery_time_at(0, 1, 2, 100000), off.delivery_time(1, 2, 100000));
}

TEST(NetworkModel, DeliveryTimeComposition) {
  NetworkParams p;
  p.link_latency = sim_us(1);
  p.bandwidth_bytes_per_sec = 1e9;
  p.per_message_overhead = sim_ns(100);
  NetworkModel net(make_topology("mesh:4x1x1"), p);
  // 0 -> 3: 3 hops; 1000 bytes -> 1 us serialization.
  EXPECT_EQ(net.delivery_time(0, 3, 1000), sim_ns(100) + 3 * sim_us(1) + sim_us(1));
  // Zero-byte control message.
  EXPECT_EQ(net.delivery_time(0, 1, 0), sim_ns(100) + sim_us(1));
}

TEST(NetworkModel, SenderOccupancyUsesInjectionBandwidth) {
  NetworkParams p;
  p.per_message_overhead = sim_ns(100);
  p.injection_bandwidth_bytes_per_sec = 1e9;
  NetworkModel net(make_topology("star:4"), p);
  EXPECT_EQ(net.sender_occupancy(1000), sim_ns(100) + sim_us(1));
}

TEST(NetworkModel, ProtocolThreshold) {
  NetworkParams p;
  p.eager_threshold = 1024;
  NetworkModel net(make_topology("star:2"), p);
  EXPECT_EQ(net.protocol_for(1024), Protocol::kEager);
  EXPECT_EQ(net.protocol_for(1025), Protocol::kRendezvous);
}

TEST(NetworkModel, MonotoneInSizeAndDistance) {
  NetworkParams p;
  NetworkModel net(make_topology("torus:8x8x8"), p);
  EXPECT_LE(net.delivery_time(0, 1, 100), net.delivery_time(0, 1, 10000));
  const Torus3D t(8, 8, 8);
  EXPECT_LT(net.delivery_time(0, t.node_of({1, 0, 0}), 64),
            net.delivery_time(0, t.node_of({4, 4, 4}), 64));
}

TEST(HierarchicalNetwork, LevelsAndTimeouts) {
  NetworkParams system;
  NetworkLevel node, chip;
  system.failure_timeout = sim_ms(100);
  node.failure_timeout = sim_ms(10);
  chip.failure_timeout = sim_ms(1);
  chip.link_latency = sim_ns(50);
  node.link_latency = sim_ns(200);
  NetworkModel net(make_topology("torus:4x4x4"), system, node, chip,
                   /*ranks_per_chip=*/2, /*chips_per_node=*/2);
  using Level = NetworkModel::Level;
  EXPECT_EQ(net.level_for(0, 1), Level::kOnChip);    // Same chip.
  EXPECT_EQ(net.level_for(0, 2), Level::kOnNode);    // Same node, other chip.
  EXPECT_EQ(net.level_for(0, 4), Level::kSystem);    // Next node.
  EXPECT_EQ(net.failure_timeout(0, 1), sim_ms(1));
  EXPECT_EQ(net.failure_timeout(0, 2), sim_ms(10));
  EXPECT_EQ(net.failure_timeout(0, 4), sim_ms(100));
  EXPECT_EQ(net.max_failure_timeout(), sim_ms(100));
  EXPECT_EQ(net.ranks_per_node(), 4);
  EXPECT_EQ(net.node_of(7), 1);
  // On-chip transfer is faster than cross-system.
  EXPECT_LT(net.delivery_time(0, 1, 64), net.delivery_time(0, 60, 64));
  // One hop of the pair's level (none from a rank to itself); across nodes,
  // the system hops between the nodes.
  const SimTime o = system.per_message_overhead;  // Every level's default o.
  EXPECT_EQ(net.delivery_time(0, 1, 0), o + sim_ns(50));
  EXPECT_EQ(net.delivery_time(0, 2, 0), o + sim_ns(200));
  EXPECT_EQ(net.delivery_time(3, 3, 0), o);
  EXPECT_EQ(net.delivery_time(0, 4, 0), o + system.link_latency);
  // A slow on-node level raises the detection bound above the system's.
  node.failure_timeout = sim_seconds(1);
  NetworkModel slow_node(make_topology("torus:4x4x4"), system, node, chip, 2, 2);
  EXPECT_EQ(slow_node.max_failure_timeout(), sim_seconds(1));
  EXPECT_THROW(NetworkModel(make_topology("torus:4x4x4"), system, node, chip, 0, 2),
               std::invalid_argument);
}

TEST(NetworkModel, FlatModelPutsRanksOnNodes) {
  NetworkParams p;
  p.failure_timeout = sim_ms(100);
  p.link_timeouts = *parse_link_timeout_spec("hot:0=500ms");
  NetworkModel net(make_topology("torus:4x4x4"), p, RoutingSpec{}, /*ranks_per_node=*/2);
  EXPECT_EQ(net.ranks_per_node(), 2);
  EXPECT_EQ(net.level_for(0, 1), NetworkModel::Level::kSystem);
  // Ranks 0 and 1 share node 0: zero system hops, the system parameters.
  EXPECT_EQ(net.delivery_time(0, 1, 0), p.per_message_overhead);
  EXPECT_EQ(net.failure_timeout(0, 1), sim_ms(100));
  // Ranks 1 and 2 sit on nodes 0 and 1, whose route crosses the hot link.
  EXPECT_EQ(net.delivery_time(1, 2, 0), p.per_message_overhead + p.link_latency);
  EXPECT_EQ(net.failure_timeout(1, 2), sim_ms(500));
  EXPECT_THROW(NetworkModel(make_topology("star:2"), p, RoutingSpec{}, 0),
               std::invalid_argument);
}

TEST(NetworkModel, RoutedPathsRejectNodesOutsideTheTopology) {
  // fattree:2x2 has 4 nodes; at 4 ranks per node, rank 31 sits on node 7.
  // The paths that index link tables by route must refuse it, not write or
  // read past the table.
  NetworkParams p;
  p.contention = true;
  p.link_timeouts = *parse_link_timeout_spec("hot:0=500ms");
  const NetworkModel net(make_topology("fattree:2x2"), p, NetworkLevel{}, NetworkLevel{},
                         /*ranks_per_chip=*/2, /*chips_per_node=*/2);
  EXPECT_THROW(net.delivery_time_at(0, 0, 31, 64), std::out_of_range);
  EXPECT_THROW(net.delivery_time_at(0, 31, 0, 64), std::out_of_range);
  EXPECT_THROW(net.failure_timeout(0, 31), std::out_of_range);
  EXPECT_THROW(net.failure_timeout(31, 0), std::out_of_range);
  EXPECT_THROW(net.failure_timeout(-4, 0), std::out_of_range);
  // Ranks on the topology's last node still route.
  EXPECT_GE(net.delivery_time_at(0, 0, 15, 64), net.delivery_time(0, 15, 64));
  EXPECT_EQ(net.failure_timeout(15, 0), sim_ms(500));
}

TEST(NetworkModel, RejectsBadParameters) {
  NetworkParams p;
  p.bandwidth_bytes_per_sec = -1;
  NetworkModel net(make_topology("star:2"), NetworkParams{});
  EXPECT_THROW(NetworkModel(nullptr, NetworkParams{}), std::invalid_argument);
  EXPECT_THROW(NetworkModel(make_topology("star:2"), p).delivery_time(0, 1, 10),
               std::invalid_argument);
}

}  // namespace
}  // namespace exasim
