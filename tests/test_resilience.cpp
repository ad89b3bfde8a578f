// Resilience subsystem tests: detector specs and the detector over real
// network models, the failure schedule, failed-process lists and the
// notice records built from them, soft-error state, programmatic failure
// injection, and collective failure semantics under both error policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <tuple>
#include <vector>

#include "metrics/perf.hpp"
#include "netmodel/network.hpp"
#include "netmodel/topology.hpp"
#include "pdes/engine.hpp"
#include "resilience/bus.hpp"
#include "resilience/detector.hpp"
#include "resilience/fault_state.hpp"
#include "resilience/notice.hpp"
#include "resilience/schedule.hpp"
#include "sim_test_util.hpp"
#include "vmpi/context.hpp"
#include "vmpi/process.hpp"

namespace exasim {
namespace {

using core::SimConfig;
using core::SimResult;
using test::run_app;
using test::tiny_config;
using vmpi::Context;
using vmpi::Err;

test::QuietLogs quiet;

// ---------------------------------------------------------------- detectors

TEST(DetectorSpec, ParsesEveryRegisteredName) {
  for (const resilience::DetectorInfo& info : resilience::list_detectors()) {
    auto spec = resilience::parse_detector_spec(info.name);
    ASSERT_TRUE(spec.has_value()) << info.name;
  }
}

TEST(DetectorSpec, ParsesHeadsAndHeartbeatOptions) {
  auto instant = resilience::parse_detector_spec("paper-instant");
  ASSERT_TRUE(instant.has_value());
  EXPECT_EQ(instant->kind, resilience::DetectorKind::kPaperInstant);

  auto timeout = resilience::parse_detector_spec("timeout");
  ASSERT_TRUE(timeout.has_value());
  EXPECT_EQ(timeout->kind, resilience::DetectorKind::kTimeout);

  auto hb = resilience::parse_detector_spec("heartbeat:period=5ms,miss=2");
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(hb->kind, resilience::DetectorKind::kHeartbeat);
  EXPECT_EQ(hb->period, sim_ms(5));
  EXPECT_EQ(hb->heartbeat_miss, 2);

  auto defaults = resilience::parse_detector_spec("heartbeat");
  ASSERT_TRUE(defaults.has_value());
  EXPECT_EQ(defaults->period, 0u);  // 0 = auto (network timeout).
  EXPECT_EQ(defaults->heartbeat_miss, 3);
}

TEST(DetectorSpec, ParsesGossipOptions) {
  auto defaults = resilience::parse_detector_spec("gossip");
  ASSERT_TRUE(defaults.has_value());
  EXPECT_EQ(defaults->kind, resilience::DetectorKind::kGossip);
  EXPECT_EQ(defaults->period, 0u);  // 0 = auto (network timeout).
  EXPECT_EQ(defaults->gossip_fanout, 2);
  EXPECT_EQ(defaults->gossip_seed, 1u);

  auto full = resilience::parse_detector_spec("gossip:period=1ms,fanout=3,seed=42");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->period, sim_ms(1));
  EXPECT_EQ(full->gossip_fanout, 3);
  EXPECT_EQ(full->gossip_seed, 42u);
}

TEST(DetectorSpec, RejectsMalformedSpecs) {
  EXPECT_FALSE(resilience::parse_detector_spec("swim").has_value());
  EXPECT_FALSE(resilience::parse_detector_spec("timeout:period=1s").has_value());
  EXPECT_FALSE(resilience::parse_detector_spec("paper-instant:x").has_value());
  EXPECT_FALSE(resilience::parse_detector_spec("heartbeat:period=0").has_value());
  EXPECT_FALSE(resilience::parse_detector_spec("heartbeat:miss=0").has_value());
  EXPECT_FALSE(resilience::parse_detector_spec("heartbeat:miss=x").has_value());
  EXPECT_FALSE(resilience::parse_detector_spec("heartbeat:flavor=fast").has_value());
  EXPECT_FALSE(resilience::parse_detector_spec("heartbeat:period").has_value());
  EXPECT_FALSE(resilience::parse_detector_spec("heartbeat:fanout=2").has_value());
  EXPECT_FALSE(resilience::parse_detector_spec("gossip:period=0").has_value());
  EXPECT_FALSE(resilience::parse_detector_spec("gossip:fanout=0").has_value());
  EXPECT_FALSE(resilience::parse_detector_spec("gossip:fanout=x").has_value());
  EXPECT_FALSE(resilience::parse_detector_spec("gossip:seed=-1").has_value());
  EXPECT_FALSE(resilience::parse_detector_spec("gossip:miss=3").has_value());
  EXPECT_FALSE(resilience::parse_detector_spec("timeout:fanout=2").has_value());
}

TEST(DetectorSpec, ToStringRoundTrips) {
  for (const char* text : {"paper-instant", "timeout", "heartbeat:period=auto,miss=3",
                           "gossip:period=auto,fanout=2,seed=1",
                           "gossip:period=5ms,fanout=4,seed=7"}) {
    auto spec = resilience::parse_detector_spec(text);
    ASSERT_TRUE(spec.has_value()) << text;
    EXPECT_EQ(resilience::to_string(*spec), text);
  }
  auto hb = resilience::parse_detector_spec("heartbeat:period=5ms,miss=2");
  ASSERT_TRUE(hb.has_value());
  auto again = resilience::parse_detector_spec(resilience::to_string(*hb));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->period, hb->period);
  EXPECT_EQ(again->heartbeat_miss, hb->heartbeat_miss);
}

resilience::DetectorSpec spec_of(const std::string& text) {
  const auto spec = resilience::parse_detector_spec(text);
  EXPECT_TRUE(spec.has_value()) << text;
  return spec.value_or(resilience::DetectorSpec{});
}

// A flat network over `topology`, one rank per node, with `link_latency`
// per hop, `overhead` per message and a uniform failure timeout.
std::unique_ptr<NetworkModel> flat_network(const std::string& topology, SimTime link_latency,
                                           SimTime overhead, SimTime timeout = sim_ms(50)) {
  NetworkParams p;
  p.link_latency = link_latency;
  p.per_message_overhead = overhead;
  p.failure_timeout = timeout;
  return std::make_unique<NetworkModel>(make_topology(topology), p);
}

// 32 ranks: 8 nodes of torus:2x2x2, each node 2 chips of 2 ranks, so a pair
// talks on-chip (5 ms timeout), on-node (20 ms) or over the system network.
// Node 0's three +links carry a 500 ms timeout and every other link the
// base 100 ms, so a system pair's timeout depends on its canonical route.
std::unique_ptr<NetworkModel> hot_link_machine() {
  NetworkParams system;
  system.link_latency = sim_us(2);
  system.per_message_overhead = sim_ns(700);
  system.failure_timeout = sim_ms(100);
  system.link_timeouts = *parse_link_timeout_spec("hot:0=500ms,1=500ms,2=500ms");
  NetworkLevel on_node;
  on_node.link_latency = sim_ns(300);
  on_node.per_message_overhead = sim_ns(200);
  on_node.failure_timeout = sim_ms(20);
  NetworkLevel on_chip;
  on_chip.link_latency = sim_ns(50);
  on_chip.per_message_overhead = sim_ns(100);
  on_chip.failure_timeout = sim_ms(5);
  return std::make_unique<NetworkModel>(make_topology("torus:2x2x2"), system, on_node, on_chip,
                                        /*ranks_per_chip=*/2, /*chips_per_node=*/2);
}

TEST(Detector, InstantDetectsAtFailureTime) {
  const auto net = hot_link_machine();
  const resilience::Detector d(spec_of("paper-instant"), *net, 32);
  EXPECT_EQ(d.detection_time(0, 1, sim_ms(7)), sim_ms(7));
  EXPECT_EQ(d.detection_time(31, 0, sim_ms(7)), sim_ms(7));
}

TEST(Detector, TimeoutAddsPerLevelAndPerRouteTimeout) {
  // The notice comes one failure timeout of the pair's network level after
  // the failure; across nodes, the max over the canonical route's links.
  const auto net = hot_link_machine();
  const resilience::Detector d(spec_of("timeout"), *net, 32);
  const SimTime t_fail = sim_ms(1);
  EXPECT_EQ(d.detection_time(1, 0, t_fail), t_fail + sim_ms(5));   // Same chip.
  EXPECT_EQ(d.detection_time(2, 0, t_fail), t_fail + sim_ms(20));  // Same node.
  std::vector<SimTime> system_timeouts;
  for (int f = 0; f < 32; ++f) {
    for (int o = 0; o < 32; ++o) {
      if (net->node_of(o) == net->node_of(f)) continue;
      const SimTime latency = d.detection_time(o, f, t_fail) - t_fail;
      EXPECT_EQ(latency, net->failure_timeout(o, f)) << o << " " << f;
      system_timeouts.push_back(latency);
    }
  }
  // Some canonical routes cross node 0's hot links and some do not.
  EXPECT_EQ(*std::min_element(system_timeouts.begin(), system_timeouts.end()), sim_ms(100));
  EXPECT_EQ(*std::max_element(system_timeouts.begin(), system_timeouts.end()), sim_ms(500));
}

TEST(Detector, HeartbeatRoundsUpToMissedPeriods) {
  const auto net = flat_network("star:4", sim_us(1), sim_ns(500));
  const resilience::Detector d(spec_of("heartbeat:period=100ms,miss=3"), *net, 4);
  // Failure inside period 0 -> declared after 3 more period boundaries.
  EXPECT_EQ(d.detection_time(0, 1, sim_ms(5)), sim_ms(300));
  // Failure exactly on a boundary counts that period as already begun.
  EXPECT_EQ(d.detection_time(0, 1, sim_ms(100)), sim_ms(400));
}

TEST(Detector, AutoPeriodIsTheNetworksLargestFailureTimeout) {
  // The hot links' 500 ms is the largest timeout on any level or link.
  const auto net = hot_link_machine();
  const resilience::Detector heartbeat(spec_of("heartbeat:miss=1"), *net, 32);
  EXPECT_EQ(heartbeat.period(), sim_ms(500));
  EXPECT_EQ(heartbeat.detection_time(0, 1, 0), sim_ms(500));
  // Gossip: one round of the auto period plus the pair's zero-byte latency.
  const resilience::Detector gossip(spec_of("gossip:fanout=1"), *net, 32);
  EXPECT_EQ(gossip.period(), sim_ms(500));
  EXPECT_EQ(gossip.rounds(1, 0), 1);  // Rank 1 shares rank 0's chip: closest.
  EXPECT_EQ(gossip.detection_time(1, 0, 0), sim_ms(500) + net->delivery_time(1, 0, 0));
}

TEST(Detector, GossipRoundsFollowEpidemicGrowth) {
  // Observers of rank 0 on a line of 8 nodes: the latency strictly
  // increases with rank, so position order == rank order. fanout=2 -> the
  // rumor triples per round: positions 0-1 in round 1 (3 infected),
  // positions 2-6 in round 2 (9 infected).
  const auto net = flat_network("mesh:8x1x1", sim_us(10), sim_us(1));
  const resilience::Detector d(spec_of("gossip:period=1ms,fanout=2,seed=1"), *net, 8);
  EXPECT_EQ(d.rounds(0, 0), 0);  // The failed rank itself.
  EXPECT_EQ(d.rounds(1, 0), 1);
  EXPECT_EQ(d.rounds(2, 0), 1);
  EXPECT_EQ(d.rounds(3, 0), 2);
  EXPECT_EQ(d.rounds(7, 0), 2);
  EXPECT_EQ(d.detection_time(1, 0, sim_ms(10)), sim_ms(11) + sim_us(11));
  EXPECT_EQ(d.detection_time(7, 0, sim_ms(10)), sim_ms(12) + sim_us(71));
}

TEST(Detector, GossipDetectionTimeMonotoneInLatency) {
  const auto net = flat_network("mesh:32x1x1", sim_us(3), sim_us(2));
  const resilience::Detector d(spec_of("gossip:period=1ms,fanout=2,seed=1"), *net, 32);
  SimTime prev = 0;
  for (int o = 1; o < 32; ++o) {  // Rank 0 is the failed one.
    const SimTime t = d.detection_time(o, 0, sim_ms(5));
    EXPECT_GT(t, prev) << "observer " << o;
    EXPECT_GE(t, sim_ms(5));
    prev = t;
  }
}

TEST(Detector, GossipMonotoneWithHierarchicalNetworkHops) {
  // 2-level machine: 8 nodes in a 1-D mesh line, 2 ranks per node. The
  // zero-byte pair latency grows with node hop count, so detection times
  // must strictly increase with hop distance from the failed rank.
  NetworkParams system;
  system.link_latency = sim_us(10);
  NetworkLevel on_node;
  on_node.link_latency = sim_us(1);
  NetworkLevel on_chip;
  on_chip.link_latency = sim_ns(100);
  const NetworkModel net(make_topology("mesh:8x1x1"), system, on_node, on_chip,
                         /*ranks_per_chip=*/2, /*chips_per_node=*/1);
  const int ranks = 16;
  const resilience::Detector d(spec_of("gossip:period=1ms,fanout=2,seed=1"), net, ranks);

  const int failed = 0;
  for (int a = 1; a < ranks; ++a) {
    for (int b = 1; b < ranks; ++b) {
      if (net.delivery_time(a, failed, 0) < net.delivery_time(b, failed, 0)) {
        EXPECT_LT(d.detection_time(a, failed, sim_ms(1)),
                  d.detection_time(b, failed, sim_ms(1)))
            << "observers " << a << " vs " << b;
      }
    }
  }
}

TEST(Detector, GossipSeedStableAndSeedSensitive) {
  // A star network gives every observer the same latency, so the epidemic
  // order is purely the seeded shuffle: the same seed must reproduce the
  // same times across instances, a different seed must change some of them,
  // and the multiset of rounds (the epidemic's shape) must not depend on
  // the seed.
  const int ranks = 64;
  const auto net = flat_network("star:64", sim_us(2), sim_us(1));
  const resilience::Detector a(spec_of("gossip:period=1ms,fanout=2,seed=9"), *net, ranks);
  const resilience::Detector b(spec_of("gossip:period=1ms,fanout=2,seed=9"), *net, ranks);
  const resilience::Detector c(spec_of("gossip:period=1ms,fanout=2,seed=10"), *net, ranks);
  bool any_diff = false;
  std::vector<int> rounds_a, rounds_c;
  for (int o = 1; o < ranks; ++o) {
    EXPECT_EQ(a.detection_time(o, 0, 0), b.detection_time(o, 0, 0)) << o;
    if (a.detection_time(o, 0, 0) != c.detection_time(o, 0, 0)) any_diff = true;
    rounds_a.push_back(a.rounds(o, 0));
    rounds_c.push_back(c.rounds(o, 0));
  }
  EXPECT_TRUE(any_diff);
  std::sort(rounds_a.begin(), rounds_a.end());
  std::sort(rounds_c.begin(), rounds_c.end());
  EXPECT_EQ(rounds_a, rounds_c);
}

TEST(Detector, ValidatesSpecAndRankCount) {
  const auto net = flat_network("star:4", sim_us(1), sim_ns(500));
  auto gossip = spec_of("gossip:period=1ms");
  gossip.gossip_fanout = 0;
  EXPECT_THROW(resilience::Detector(gossip, *net, 4), std::invalid_argument);
  auto heartbeat = spec_of("heartbeat:period=1ms");
  heartbeat.heartbeat_miss = 0;
  EXPECT_THROW(resilience::Detector(heartbeat, *net, 4), std::invalid_argument);
  EXPECT_THROW(resilience::Detector(spec_of("timeout"), *net, 0), std::invalid_argument);

  // An auto period on a network whose every failure timeout is 0 resolves
  // to 0: the error names the spec and where the period came from.
  const auto zero = flat_network("star:4", sim_us(1), sim_ns(500), /*timeout=*/0);
  for (const char* text : {"heartbeat:period=auto,miss=3", "gossip:period=auto,fanout=2,seed=1"}) {
    SCOPED_TRACE(text);
    try {
      resilience::Detector d(spec_of(text), *zero, 4);
      ADD_FAILURE() << "no throw";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(text), std::string::npos) << what;
      EXPECT_NE(what.find("failure timeout"), std::string::npos) << what;
    }
  }
  // An explicit period needs no network timeout; paper-instant and timeout
  // have no period at all.
  EXPECT_NO_THROW(resilience::Detector(spec_of("heartbeat:period=1ms"), *zero, 4));
  EXPECT_NO_THROW(resilience::Detector(spec_of("paper-instant"), *zero, 4));
  EXPECT_NO_THROW(resilience::Detector(spec_of("timeout"), *zero, 4));
}

TEST(DetectorPin, EveryPairOnHierarchicalHotLinkMachine) {
  // On hot_link_machine(), for each family the row pins an FNV-1a digest of
  // detection_time(o, f, t_fail(f)) over every ordered pair (f outer, o
  // inner), with the largest and summed latency.
  const auto net = hot_link_machine();
  const int ranks = 32;

  struct Pin {
    const char* spec;
    std::uint64_t digest;
    SimTime max_latency;
    SimTime total_latency;
  };
  const Pin pins[] = {
      {"paper-instant", 0x84070261323d9274ULL, 0, 0},
      {"timeout", 0x41416c60bd187829ULL, sim_ms(500), 167840000000},
      {"heartbeat:period=auto,miss=3", 0xae5bcdd7b12b4125ULL, 1499963000, 1472587296000},
      {"heartbeat:period=7ms,miss=2", 0x2a1c5b41ad57beccULL, 13963000, 11061296000},
      {"gossip:period=auto,fanout=2,seed=1", 0xe25c8df84c3b7d79ULL, 2000006700, 1408003736000},
      {"gossip:period=3ms,fanout=3,seed=5", 0x51b70b410b9ca5b0ULL, 9006700, 7203736000},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.spec);
    const resilience::Detector detector(spec_of(pin.spec), *net, ranks);
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    SimTime max_latency = 0, total_latency = 0;
    for (int f = 0; f < ranks; ++f) {
      const SimTime t_fail = sim_ms(1) * static_cast<SimTime>(f) + sim_us(37);
      for (int o = 0; o < ranks; ++o) {
        if (o == f) continue;
        const SimTime t = detector.detection_time(o, f, t_fail);
        ASSERT_GE(t, t_fail);
        for (int byte = 0; byte < 8; ++byte) {
          digest = (digest ^ ((t >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
        }
        max_latency = std::max(max_latency, t - t_fail);
        total_latency += t - t_fail;
      }
    }
    EXPECT_EQ(digest, pin.digest);
    EXPECT_EQ(max_latency, pin.max_latency);
    EXPECT_EQ(total_latency, pin.total_latency);
  }
}

// ------------------------------------------------------------ notice state

TEST(NoticeList, RecordsPeerFailuresWithDetectTimesInRankOrder) {
  std::vector<resilience::NoticeArrival> list;
  EXPECT_EQ(resilience::find_notice(list, 4), nullptr);

  resilience::insert_notice(list, {0, 4, sim_ms(1), sim_ms(3)});
  resilience::insert_notice(list, {0, 9, sim_ms(2), sim_ms(2)});
  resilience::insert_notice(list, {0, 2, sim_ms(5), sim_ms(6)});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].failed_rank, 2);
  EXPECT_EQ(list[1].failed_rank, 4);
  EXPECT_EQ(list[2].failed_rank, 9);

  const resilience::NoticeArrival* four = resilience::find_notice(list, 4);
  ASSERT_NE(four, nullptr);
  EXPECT_EQ(four->t_fail, sim_ms(1));
  EXPECT_EQ(four->arrival, sim_ms(3));
  EXPECT_EQ(resilience::find_notice(list, 3), nullptr);
  EXPECT_EQ(resilience::find_notice(list, 10), nullptr);
}

TEST(SoftErrorState, AppliesDueFlipsAndDropsWithoutMemory) {
  resilience::SoftErrorState se;
  se.schedule_flip(sim_ms(1), 0);
  se.apply_due(sim_ms(2));  // No registered regions -> dropped.
  EXPECT_EQ(se.applied(), 0u);
  EXPECT_EQ(se.dropped(), 1u);

  std::uint8_t byte = 0;
  se.register_region("buf", &byte, sizeof byte);
  EXPECT_EQ(se.registered_bytes(), 1u);
  se.schedule_flip(sim_ms(3), 0);
  se.apply_due(sim_ms(2));  // Not yet due.
  EXPECT_TRUE(se.pending());
  se.apply_due(sim_ms(3));
  EXPECT_EQ(se.applied(), 1u);
  EXPECT_EQ(byte, 1);  // Bit 0 flipped.
  se.unregister_region("buf");
  EXPECT_EQ(se.registered_bytes(), 0u);
}

// ------------------------------------------------------- detector simulation

TEST(ResilienceSim, HeartbeatDetectorDelaysErrorRelease) {
  // Rank 1 dies at 5 ms; a 100 ms / miss=3 heartbeat declares it dead at
  // 300 ms. The survivor's blocked receive is released at
  // max(max(post, t_fail) + failure_timeout, t_detect) = 300 ms exactly.
  Err got = Err::kSuccess;
  SimTime released_at = 0;
  auto cfg = tiny_config(2);
  cfg.failures = {FailureSpec{1, sim_ms(5)}};
  auto spec = resilience::parse_detector_spec("heartbeat:period=100ms,miss=3");
  ASSERT_TRUE(spec.has_value());
  cfg.detector = *spec;
  auto app = [&](Context& ctx) {
    ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
    if (ctx.rank() == 0) {
      int v = 0;
      got = ctx.recv(1, 0, &v, sizeof v);
      released_at = ctx.now();
    } else {
      int v = 0;
      ctx.recv(0, 0, &v, sizeof v);  // Dies blocked.
    }
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(got, Err::kProcFailed);
  EXPECT_EQ(released_at, sim_ms(300));
  EXPECT_EQ(r.detector, "heartbeat:period=100ms,miss=3");
  EXPECT_EQ(r.failure_notices, 1u);
  EXPECT_EQ(r.max_detection_latency, sim_ms(295));
}

TEST(ResilienceSim, FailureNoticeForcesProbeWakeupUnderFiltering) {
  // A probe blocked on a rank that dies never sees a matching arrival; the
  // failure notice flips its predicate instead. The filtered dispatcher must
  // honor that flip (wake_pending_) when the next unrelated event arrives —
  // identically to eager dispatch, where the same arrival triggers a re-scan.
  auto run_mode = [&](bool eager, Err* got, SimTime* released_at) {
    auto cfg = tiny_config(3);
    cfg.process.eager_wakeup = eager;
    cfg.failures = {FailureSpec{1, sim_ms(1)}};
    auto app = [&](Context& ctx) {
      ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
      if (ctx.rank() == 0) {
        vmpi::MsgStatus st;
        *got = ctx.probe(ctx.world(), 1, 7, &st);
        *released_at = ctx.now();
        int v = 0;
        EXPECT_EQ(ctx.recv(2, 3, &v, sizeof v), Err::kSuccess);
      } else if (ctx.rank() == 2) {
        // The unrelated arrival that gives the blocked probe its wake site
        // (tag 3 does not match the probe's tag-7 spec on rank 1).
        ctx.compute(2.5e6);
        int v = 99;
        ctx.send(0, 3, &v, sizeof v);
      } else {
        int v = 0;
        ctx.recv(0, 1, &v, sizeof v);  // Dies blocked at 1 ms.
      }
      ctx.finalize();
    };
    return run_app(cfg, app);
  };
  Err got_f = Err::kSuccess, got_e = Err::kSuccess;
  SimTime rel_f = 0, rel_e = 0;
  SimResult rf = run_mode(false, &got_f, &rel_f);
  SimResult re = run_mode(true, &got_e, &rel_e);
  EXPECT_EQ(got_f, Err::kProcFailed);
  EXPECT_EQ(got_e, Err::kProcFailed);
  // Release bound: max(max(post, t_fail) + failure_timeout, t_detect) = 2 ms.
  EXPECT_EQ(rel_f, sim_ms(2));
  EXPECT_EQ(rel_e, rel_f);
  EXPECT_EQ(rf.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(rf.outcome, re.outcome);
  EXPECT_EQ(rf.max_end_time, re.max_end_time);
  EXPECT_EQ(rf.failure_notices, re.failure_notices);
}

TEST(ResilienceSim, TimeoutDetectorReportsDetectionLatency) {
  // The timeout detector delivers each notice one per-pair failure-detection
  // timeout after the failure. Release times match paper-instant (the notice
  // floor is always <= the §IV-C wakeup bound), so the observable difference
  // is the detection-latency accounting.
  auto cfg = tiny_config(3);
  cfg.failures = {FailureSpec{2, sim_ms(1)}};
  auto spec = resilience::parse_detector_spec("timeout");
  ASSERT_TRUE(spec.has_value());
  cfg.detector = *spec;
  auto app = [&](Context& ctx) {
    ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
    if (ctx.rank() == 2) {
      int v = 0;
      ctx.recv(0, 9, &v, sizeof v);  // Dies blocked.
    } else {
      int v = 0;
      EXPECT_EQ(ctx.recv(2, 0, &v, sizeof v), Err::kProcFailed);
    }
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(r.detector, "timeout");
  EXPECT_EQ(r.failure_notices, 2u);  // One notice per survivor.
  EXPECT_EQ(r.max_detection_latency, sim_ms(1));  // = tiny_config timeout.
  EXPECT_DOUBLE_EQ(r.mean_detection_latency_sec, to_seconds(sim_ms(1)));
}

TEST(ResilienceSim, NoticeArrivalsAreTheNoticesDelivered) {
  // Rank 3 fails at 1 ms and rank 6 at 1.5 ms; the timeout detector tells
  // each observer one failure timeout later. Ranks 0 and 1 finish at once,
  // before either notice arrives; the other survivors wait on each failed
  // rank in turn, so they are alive for both notices.
  auto run = [] {
    auto cfg = tiny_config(8);
    cfg.failures = {FailureSpec{3, sim_ms(1)}, FailureSpec{6, sim_us(1500)}};
    cfg.detector = *resilience::parse_detector_spec("timeout");
    auto app = [](Context& ctx) {
      ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
      int v = 0;
      if (ctx.rank() == 3 || ctx.rank() == 6) {
        ctx.recv(0, 99, &v, sizeof v);  // Dies blocked.
      } else if (ctx.rank() >= 2) {
        EXPECT_EQ(ctx.recv(3, 0, &v, sizeof v), Err::kProcFailed);
        EXPECT_EQ(ctx.recv(6, 0, &v, sizeof v), Err::kProcFailed);
      }
      ctx.finalize();
    };
    return run_app(std::move(cfg), app);
  };
  const SimResult r = run();
  ASSERT_EQ(r.activated_failures.size(), 2u);

  // Four observers of each failure; ranks 0 and 1 had finished, and rank 6
  // was dead when rank 3's notice would have reached it.
  ASSERT_EQ(r.notice_arrivals.size(), 8u);
  for (const resilience::NoticeArrival& a : r.notice_arrivals) {
    EXPECT_NE(a.observer, 0);
    EXPECT_NE(a.observer, 1);
    EXPECT_NE(a.observer, 3);
    EXPECT_NE(a.observer, 6);
    EXPECT_EQ(a.arrival, a.t_fail + sim_ms(1));  // tiny_config's failure timeout.
  }
  EXPECT_TRUE(std::is_sorted(r.notice_arrivals.begin(), r.notice_arrivals.end(),
                             [](const resilience::NoticeArrival& a,
                                const resilience::NoticeArrival& b) {
                               return std::tie(a.t_fail, a.failed_rank, a.observer) <
                                      std::tie(b.t_fail, b.failed_rank, b.observer);
                             }));
  EXPECT_EQ(r.notice_arrivals.front().t_fail, sim_ms(1));
  EXPECT_EQ(r.notice_arrivals.back().failed_rank, 6);
  // The latency accounting counts the finished observers too: six per
  // failure.
  EXPECT_EQ(r.failure_notices, 12u);
}

/// Rank 2 of 4 (2 per node) fails at 1 ms inside a loop of allreduces;
/// with `return_errors` the survivors see the failure as an error code
/// instead of aborting.
SimResult failing_allreduce_launch(const char* detector, bool return_errors) {
  auto cfg = tiny_config(4);
  cfg.ranks_per_node = 2;
  cfg.failures = {FailureSpec{2, sim_ms(1)}};
  cfg.detector = *resilience::parse_detector_spec(detector);
  auto app = [return_errors](Context& ctx) {
    if (return_errors) ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
    std::int64_t mine = ctx.rank(), out = 0;
    for (int i = 0; i < 20; ++i) {
      ctx.compute(1e5);
      if (ctx.allreduce(ctx.world(), vmpi::ReduceOp::kSum, vmpi::Dtype::kI64, &mine, &out,
                        1) != Err::kSuccess) {
        break;
      }
    }
    ctx.finalize();
  };
  return run_app(cfg, app);
}

TEST(ResilienceSim, DefaultDetectorFailingLaunchIsPinned) {
  const SimResult r = failing_allreduce_launch("paper-instant", false);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kAborted);
  EXPECT_EQ(r.detector, "paper-instant");
  EXPECT_EQ(r.max_end_time, 2063280u);
  EXPECT_EQ(r.abort_time, 2063280u);
  EXPECT_EQ(r.aborted_count, 3);
  EXPECT_EQ(r.failure_notices, 3u);
  EXPECT_EQ(r.total_comm_time, 1252136u);
}

TEST(ResilienceSim, GossipDetectorFailingLaunchIsPinned) {
  // With gossip active the per-observer notice times are NOT rank-ordered
  // (the epidemic order is latency+hash).
  const SimResult r = failing_allreduce_launch("gossip:period=1ms,fanout=2,seed=3", true);
  EXPECT_EQ(r.detector, "gossip:period=1ms,fanout=2,seed=3");
  EXPECT_EQ(r.failure_notices, 3u);
  EXPECT_GT(r.max_detection_latency, sim_ms(1));  // >= one epidemic round.
  EXPECT_EQ(r.max_end_time, 2065780u);
  EXPECT_EQ(r.max_detection_latency, 2002500u);
  EXPECT_DOUBLE_EQ(r.mean_detection_latency_sec, 0.0013351666666666668);
  EXPECT_EQ(r.total_busy_time, 4000000u);
  EXPECT_EQ(r.total_comm_time, 1254636u);
}

TEST(ResilienceSim, RepeatedFailuresDontInflateMeanLatency) {
  // Rank 2 dies at 1 ms, rank 1 at 2 ms. With the 1 ms timeout detector,
  // rank 1's would-be notice about rank 2 lands at 2 ms — exactly when rank
  // 1 itself dies, so the engine drops it (dead destinations are skipped)
  // and the stats must not count it: each failure contributes exactly the
  // live observers, not every non-failed rank.
  auto cfg = tiny_config(3);
  cfg.failures = {FailureSpec{2, sim_ms(1)}, FailureSpec{1, sim_ms(2)}};
  auto spec = resilience::parse_detector_spec("timeout");
  ASSERT_TRUE(spec.has_value());
  cfg.detector = *spec;
  auto app = [&](Context& ctx) {
    ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
    if (ctx.rank() == 0) {
      int v = 0;
      EXPECT_EQ(ctx.recv(2, 0, &v, sizeof v), Err::kProcFailed);
      EXPECT_EQ(ctx.recv(1, 0, &v, sizeof v), Err::kProcFailed);
    } else {
      int v = 0;
      ctx.recv(0, 9, &v, sizeof v);  // Dies blocked.
    }
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  ASSERT_EQ(r.activated_failures.size(), 2u);
  // Rank 0 observes both failures; dead observers contribute nothing.
  EXPECT_EQ(r.failure_notices, 2u);
  EXPECT_EQ(r.max_detection_latency, sim_ms(1));
  EXPECT_DOUBLE_EQ(r.mean_detection_latency_sec, to_seconds(sim_ms(1)));
}

TEST(ResilienceSim, InjectFailureKillsProcessProgrammatically) {
  // Context::inject_failure arms the same activation path as the schedule:
  // the process dies at clock + delay, survivors get notices.
  Err got = Err::kSuccess;
  auto cfg = tiny_config(2);
  auto app = [&](Context& ctx) {
    ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
    if (ctx.rank() == 1) {
      ctx.inject_failure(sim_ms(2));
      int v = 0;
      ctx.recv(0, 9, &v, sizeof v);  // Blocks; dies at 2 ms.
    } else {
      int v = 0;
      got = ctx.recv(1, 0, &v, sizeof v);
    }
    ctx.finalize();
  };
  SimResult r = run_app(cfg, app);
  EXPECT_EQ(got, Err::kProcFailed);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  ASSERT_EQ(r.activated_failures.size(), 1u);
  EXPECT_EQ(r.activated_failures[0].rank, 1);
  EXPECT_EQ(r.activated_failures[0].time, sim_ms(2));
}

// ------------------------------------------------ notices are ordinary events

// An LP that ignores every event; an LP optionally fires a one-shot hook on
// its first event (used to broadcast a failure from inside a handler).
struct NullLp final : LogicalProcess {
  std::function<void(Engine&)> on_first_event;
  void on_event(Engine& engine, Event&& ev) override {
    (void)ev;
    if (on_first_event) {
      auto hook = std::move(on_first_event);
      on_first_event = nullptr;
      hook(engine);
    }
  }
  bool terminated() const override { return true; }
};

/// `ranks` NullLps with a notice bus (paper-instant detector) wired to the
/// engine.
struct NoticeRig {
  explicit NoticeRig(int ranks)
      : network(make_topology("star:1"), NetworkParams{}, RoutingSpec{}, ranks),
        lps(static_cast<std::size_t>(ranks)) {
    for (int id = 0; id < ranks; ++id) engine.add_process(id, &lps[static_cast<std::size_t>(id)]);
    resilience::NotificationBus::Wiring wiring;
    wiring.engine = &engine;
    wiring.ranks = ranks;
    wiring.failure_kind = 1;
    wiring.abort_kind = 2;
    wiring.revoke_kind = 3;
    bus = std::make_unique<resilience::NotificationBus>(wiring, resilience::DetectorSpec{},
                                                        network);
  }

  NetworkModel network;
  Engine engine;
  std::vector<NullLp> lps;
  std::unique_ptr<resilience::NotificationBus> bus;
};

TEST(NoticeEvents, FailureOn32kRanksIsOneEventPerSurvivor) {
  // A failure on a 32,768-rank run schedules one notice event per survivor,
  // through Engine::schedule like any other event: no relays.
  constexpr int kRanks = 32768;
  NoticeRig rig(kRanks);
  rig.lps[0].on_first_event = [&](Engine& eng) { rig.bus->broadcast_failure(0, eng.now()); };
  rig.engine.schedule(sim_us(2), 0, /*kind=*/99, nullptr);

  const PerfSnapshot before = perf_snapshot();
  rig.engine.run();
  const PerfSnapshot d = perf_delta(before, perf_snapshot());

  EXPECT_EQ(d.fanout_notices, static_cast<std::uint64_t>(kRanks - 1));
  EXPECT_EQ(d.fanout_relays, 0u);
  EXPECT_EQ(d.fanout_dead_skips, 0u);
  // The kick plus one notice per survivor.
  EXPECT_EQ(rig.engine.events_processed(), static_cast<std::uint64_t>(kRanks));
  EXPECT_EQ(rig.engine.events_dropped_dead(), 0u);

  const std::vector<FailureSpec> broadcast = {FailureSpec{0, sim_us(2)}};
  const resilience::NotificationBus::DetectionStats stats = rig.bus->detection_stats(broadcast);
  EXPECT_EQ(stats.notices, static_cast<std::uint64_t>(kRanks - 1));
  EXPECT_EQ(stats.max_latency, 0u);  // paper-instant.
}

TEST(NoticeEvents, NoticesToDeadRanksAreDroppedAtDelivery) {
  // Notices to ranks already dead are scheduled like the rest and dropped
  // when they come due.
  constexpr int kRanks = 64;
  NoticeRig rig(kRanks);
  rig.engine.mark_dead(3);
  rig.engine.mark_dead(40);
  rig.lps[0].on_first_event = [&](Engine& eng) { rig.bus->broadcast_failure(7, eng.now()); };
  rig.engine.schedule(sim_us(2), 0, /*kind=*/99, nullptr);

  const util::Counters before = util::thread_counters();
  rig.engine.run();
  const PerfSnapshot d = perf_of(util::thread_counters() - before);

  // 63 observers of rank 7, all of them scheduled; the 2 dead ones dropped.
  EXPECT_EQ(d.fanout_notices, static_cast<std::uint64_t>(kRanks - 1));
  EXPECT_EQ(d.fanout_dead_skips, 0u);
  EXPECT_EQ(rig.engine.events_dropped_dead(), 2u);
  // The kick and 61 notices.
  EXPECT_EQ(rig.engine.events_processed(), 62u);
}

TEST(NoticeEvents, QueuePopsAddUp) {
  // Every pop delivers an event or drops one whose target is dead.
  constexpr int kRanks = 64;
  NoticeRig rig(kRanks);
  rig.engine.mark_dead(3);
  rig.engine.mark_dead(40);
  rig.lps[0].on_first_event = [&](Engine& eng) { rig.bus->broadcast_failure(7, eng.now()); };
  rig.lps[7].on_first_event = [](Engine& eng) { eng.request_stop(); };
  rig.engine.schedule(sim_us(1), 3, /*kind=*/99, nullptr);   // Dead: popped, dropped.
  rig.engine.schedule(sim_us(2), 0, /*kind=*/99, nullptr);   // The broadcast.
  rig.engine.schedule(sim_us(5), 40, /*kind=*/99, nullptr);  // Dead: popped, dropped.
  rig.engine.schedule(sim_us(50), 7, /*kind=*/99, nullptr);  // Stops the run.
  rig.engine.schedule(sim_sec(1), 5, /*kind=*/99, nullptr);  // Left pending.

  const util::Counters before = util::thread_counters();
  rig.engine.run();
  const PerfSnapshot d = perf_of(util::thread_counters() - before);

  EXPECT_EQ(rig.engine.events_pending(), 1u);
  // The kick, the stop and 61 notices (63 observers, 2 of them dead).
  EXPECT_EQ(rig.engine.events_processed(), static_cast<std::uint64_t>(kRanks - 1));
  // Two kicks and two notices to the dead ranks.
  EXPECT_EQ(rig.engine.events_dropped_dead(), 4u);
  EXPECT_EQ(d.fanout_relays, 0u);
  EXPECT_EQ(d.queue_pops, rig.engine.events_processed() + rig.engine.events_dropped_dead());
}

// -------------------------------------------- reduce commutativity (MPI_REPLACE)

TEST(ReduceSemantics, ReplaceMatchesAcrossCollectiveAlgorithms) {
  // MPI_REPLACE is associative but not commutative: the linear algorithm
  // combines in ascending rank order, so the result is the last rank's
  // buffer. The binomial tree must fall back to linear for non-commutative
  // ops and produce the identical result.
  for (auto algo : {vmpi::CollectiveAlgo::kLinear, vmpi::CollectiveAlgo::kBinomialTree}) {
    SCOPED_TRACE(algo == vmpi::CollectiveAlgo::kLinear ? "linear" : "tree");
    std::vector<std::int32_t> got(4, -1);
    auto cfg = tiny_config(4);
    cfg.process.collective_algo = algo;
    auto app = [&](Context& ctx) {
      std::vector<std::int32_t> in(4);
      for (std::size_t i = 0; i < in.size(); ++i) {
        in[i] = ctx.rank() * 10 + static_cast<std::int32_t>(i);
      }
      std::vector<std::int32_t> out(4, -1);
      EXPECT_EQ(ctx.reduce(ctx.world(), 0, vmpi::ReduceOp::kReplace, vmpi::Dtype::kI32,
                           in.data(), out.data(), out.size()),
                Err::kSuccess);
      if (ctx.rank() == 0) got = out;
      ctx.finalize();
    };
    run_app(cfg, app);
    EXPECT_EQ(got, (std::vector<std::int32_t>{30, 31, 32, 33}));  // Rank 3's buffer.
  }
}

TEST(ReduceSemantics, CommutativeResultsMatchAcrossAlgorithms) {
  std::vector<std::int64_t> sums;
  for (auto algo : {vmpi::CollectiveAlgo::kLinear, vmpi::CollectiveAlgo::kBinomialTree}) {
    std::int64_t got = -1;
    auto cfg = tiny_config(5);
    cfg.process.collective_algo = algo;
    auto app = [&](Context& ctx) {
      std::int64_t mine = (ctx.rank() + 1) * 7, out = 0;
      EXPECT_EQ(ctx.reduce(ctx.world(), 0, vmpi::ReduceOp::kSum, vmpi::Dtype::kI64, &mine,
                           &out, 1),
                Err::kSuccess);
      if (ctx.rank() == 0) got = out;
      ctx.finalize();
    };
    run_app(cfg, app);
    sums.push_back(got);
  }
  EXPECT_EQ(sums[0], 7 * (1 + 2 + 3 + 4 + 5));
  EXPECT_EQ(sums[1], sums[0]);
}

// ------------------------------------ collective failure semantics (matrix)

// Every collective, executed by 4 ranks of which rank 3 is dead from t=0.
// Payloads are 64 ints = 256 bytes against an eager threshold of 64 bytes,
// so sends to the dead rank take the rendezvous path and surface the error.
enum class Coll {
  kBarrier,
  kBcast,
  kReduce,
  kAllreduce,
  kGather,
  kAllgather,
  kScatter,
  kAlltoall
};

const char* coll_name(Coll c) {
  switch (c) {
    case Coll::kBarrier: return "barrier";
    case Coll::kBcast: return "bcast";
    case Coll::kReduce: return "reduce";
    case Coll::kAllreduce: return "allreduce";
    case Coll::kGather: return "gather";
    case Coll::kAllgather: return "allgather";
    case Coll::kScatter: return "scatter";
    case Coll::kAlltoall: return "alltoall";
  }
  return "?";
}

constexpr std::size_t kCount = 64;  // 64 x i32 = 256 bytes > eager threshold.

Err do_collective(Context& ctx, Coll c) {
  vmpi::Comm& w = ctx.world();
  const std::size_t bytes = kCount * sizeof(std::int32_t);
  std::vector<std::int32_t> in(kCount, ctx.rank());
  std::vector<std::int32_t> all_in(kCount * static_cast<std::size_t>(w.size()), ctx.rank());
  std::vector<std::int32_t> out(kCount * static_cast<std::size_t>(w.size()), 0);
  switch (c) {
    case Coll::kBarrier:
      return ctx.barrier(w);
    case Coll::kBcast:
      return ctx.bcast(w, 0, in.data(), bytes);
    case Coll::kReduce:
      return ctx.reduce(w, 0, vmpi::ReduceOp::kSum, vmpi::Dtype::kI32, in.data(), out.data(),
                        kCount);
    case Coll::kAllreduce:
      return ctx.allreduce(w, vmpi::ReduceOp::kSum, vmpi::Dtype::kI32, in.data(), out.data(),
                           kCount);
    case Coll::kGather:
      return ctx.gather(w, 0, in.data(), bytes, out.data());
    case Coll::kAllgather:
      return ctx.allgather(w, in.data(), bytes, out.data());
    case Coll::kScatter:
      return ctx.scatter(w, 0, all_in.data(), bytes, in.data());
    case Coll::kAlltoall:
      return ctx.alltoall(w, all_in.data(), bytes, out.data());
  }
  return Err::kSuccess;
}

const Coll kAllCollectives[] = {Coll::kBarrier,   Coll::kBcast,   Coll::kReduce,
                                Coll::kAllreduce, Coll::kGather,  Coll::kAllgather,
                                Coll::kScatter,   Coll::kAlltoall};

SimConfig failed_peer_config(vmpi::CollectiveAlgo algo) {
  auto cfg = tiny_config(4);
  cfg.process.collective_algo = algo;
  cfg.net.eager_threshold = 64;     // Force rendezvous for 256-byte payloads.
  cfg.failures = {FailureSpec{3, 0}};  // Dead before the app starts.
  return cfg;
}

TEST(CollectiveFailure, FatalHandlerAbortsEveryCollective) {
  for (auto algo : {vmpi::CollectiveAlgo::kLinear, vmpi::CollectiveAlgo::kBinomialTree}) {
    for (Coll c : kAllCollectives) {
      SCOPED_TRACE(std::string(coll_name(c)) +
                   (algo == vmpi::CollectiveAlgo::kLinear ? "/linear" : "/tree"));
      auto app = [&](Context& ctx) {
        do_collective(ctx, c);  // kFatal: an error aborts, no return.
        ctx.finalize();
      };
      SimResult r = run_app(failed_peer_config(algo), app);
      EXPECT_EQ(r.outcome, SimResult::Outcome::kAborted);
      EXPECT_TRUE(r.abort_time.has_value());
      ASSERT_EQ(r.activated_failures.size(), 1u);
      EXPECT_EQ(r.activated_failures[0].rank, 3);
    }
  }
}

TEST(CollectiveFailure, UlfmRevokeReleasesEveryCollective) {
  // ULFM recovery: the first rank that sees MPI_ERR_PROC_FAILED revokes the
  // communicator, which releases every peer still blocked inside the
  // collective. No combination may deadlock and all survivors finalize.
  for (auto algo : {vmpi::CollectiveAlgo::kLinear, vmpi::CollectiveAlgo::kBinomialTree}) {
    for (Coll c : kAllCollectives) {
      SCOPED_TRACE(std::string(coll_name(c)) +
                   (algo == vmpi::CollectiveAlgo::kLinear ? "/linear" : "/tree"));
      // Per-rank slots: app fibers may run on different engine workers.
      std::vector<int> saw_proc_failed(4, 0);
      auto app = [&](Context& ctx) {
        ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
        Err e = do_collective(ctx, c);
        if (e == Err::kProcFailed) saw_proc_failed[ctx.rank()] = 1;
        if (e != Err::kSuccess) ctx.comm_revoke(ctx.world());
        ctx.finalize();
      };
      SimResult r = run_app(failed_peer_config(algo), app);
      EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
      EXPECT_EQ(r.failed_count, 1);
      EXPECT_EQ(r.finished_count, 3);
      // Someone observed the failure directly (not just the revoke).
      EXPECT_GE(saw_proc_failed[0] + saw_proc_failed[1] + saw_proc_failed[2], 1);
    }
  }
}

}  // namespace
}  // namespace exasim
