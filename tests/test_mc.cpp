// Failure-scenario model checker (src/mc, DESIGN.md §15): lattice geometry,
// signature-equivalence pruning, bisection convergence, job-count
// byte-identity, and budget degradation.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "apps/registry.hpp"
#include "mc/explorer.hpp"
#include "mc/lattice.hpp"
#include "mc/report.hpp"
#include "mc/signature.hpp"
#include "sim_test_util.hpp"

using namespace exasim;

namespace {

test::QuietLogs quiet;

/// Small ring lattice on the tiny test machine: fast (E1 ~ a few ms of
/// virtual time) and rich enough to have an abort regime, a completion
/// regime, and detector-dependent behavior.
mc::ExplorerConfig ring_config(int ranks = 8) {
  mc::ExplorerConfig config;
  config.runner.base = test::tiny_config(ranks);
  config.app = apps::make_app("ring", "laps=10,bytes=8", ranks);
  config.app_name = "ring";
  config.app_params = "laps=10,bytes=8";
  config.lattice.victims = {1, ranks / 2};
  config.lattice.detectors = {*resilience::parse_detector_spec("paper-instant"),
                              *resilience::parse_detector_spec("timeout")};
  config.lattice.policies = {ckpt::CkptMode::kPfs};
  config.lattice.grid = 5;
  config.lattice.depth = 3;
  // Inherit the EXASIM_JOBS default (1 when unset): scripts/tier1.sh's mc leg
  // re-runs this whole suite with EXASIM_JOBS=4 under TSan, and the report is
  // byte-identical either way, so every test here doubles as a race probe.
  config.jobs = -1;
  return config;
}

/// (row, time) -> signature for every *evaluated-or-inferred* finest point
/// is awkward to reconstruct; the class list is the comparable summary:
/// signature -> covered count.
std::map<std::uint64_t, std::uint64_t> class_map(const mc::McReport& rep) {
  std::map<std::uint64_t, std::uint64_t> m;
  for (const auto& c : rep.classes) m[c.signature] = c.covered;
  return m;
}

}  // namespace

TEST(McLattice, IntegerGridGeometry) {
  mc::LatticeSpec spec;
  spec.victims = {0};
  spec.detectors = {resilience::DetectorSpec{}};
  spec.policies = {ckpt::CkptMode::kPfs};
  spec.window_lo = sim_ms(10);
  spec.window_hi = sim_ms(10) + 64;  // 64 ns span: indices map 1:1 onto ns.
  spec.grid = 5;
  spec.depth = 4;
  const mc::ScenarioLattice lat(spec);
  EXPECT_EQ(lat.finest_points(), 4 * 16 + 1);
  EXPECT_EQ(lat.finest_step(), 1u);
  EXPECT_EQ(lat.time_of(0), spec.window_lo);
  EXPECT_EQ(lat.time_of(lat.finest_points() - 1), spec.window_hi);
  const auto initial = lat.initial_indices();
  ASSERT_EQ(initial.size(), 5u);
  EXPECT_EQ(initial[1], 16);
  // Every midpoint of adjacent coarse points is again a finest-grid index —
  // integer arithmetic, no rounding drift.
  EXPECT_EQ((initial[1] + initial[2]) / 2 * 2, initial[1] + initial[2]);
}

TEST(McLattice, VictimParsing) {
  auto all = mc::parse_victims("all", 4);
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(*all, (std::vector<int>{0, 1, 2, 3}));
  auto stride = mc::parse_victims("stride:3", 8);
  ASSERT_TRUE(stride.has_value());
  EXPECT_EQ(*stride, (std::vector<int>{0, 3, 6}));
  auto list = mc::parse_victims("0,5", 8);
  ASSERT_TRUE(list.has_value());
  EXPECT_EQ(*list, (std::vector<int>{0, 5}));
  EXPECT_FALSE(mc::parse_victims("9", 8).has_value());
  EXPECT_FALSE(mc::parse_victims("", 8).has_value());
  EXPECT_FALSE(mc::parse_victims("stride:0", 8).has_value());
  // A victim or stride is the whole field: no trailing text is dropped.
  for (const char* bad : {"0,21x", "stride:2x", "1x", "0,,x", "stride:", "-1"}) {
    EXPECT_FALSE(mc::parse_victims(bad, 64).has_value()) << bad;
  }
}

TEST(McSignature, QuantizationCollapsesNearbyOutcomes) {
  mc::ScenarioOutcome a;
  a.completed = true;
  a.launches = 2;
  a.failures = 1;
  a.aborted = true;
  a.actual_fail_time = sim_ms(10);
  a.abort_time = sim_ms(11);
  a.e2 = sim_ms(100);
  mc::ScenarioOutcome b = a;
  // Shift the whole story later in time by less than one quantum: raw times
  // differ, the detrended story does not.
  b.actual_fail_time = sim_ms(12);
  b.abort_time = sim_ms(13);
  b.e2 = sim_ms(100) + sim_us(300);
  const SimTime q = sim_ms(1);
  EXPECT_EQ(mc::signature_of(a, q, sim_ms(90)), mc::signature_of(b, q, sim_ms(90)));
  // A different launch count is a different story at any quantum.
  b.launches = 3;
  EXPECT_NE(mc::signature_of(a, q, sim_ms(90)), mc::signature_of(b, q, sim_ms(90)));
  // An evaluation error classes by its message, never with real outcomes.
  mc::ScenarioOutcome err;
  err.error = "boom";
  EXPECT_NE(mc::signature_of(err, q, 0), mc::signature_of(a, q, sim_ms(90)));
}

TEST(McExplorer, MissedNotificationsCountOnlyTheVictimsLateOrAbsentNotices) {
  using enum vmpi::ProcOutcome;
  core::SimResult launch;
  launch.rank_outcomes = {kFailed, kAborted, kAborted, kRunning, kRunning, kAborted, kFinished};
  launch.rank_end_times = {5, 100, 100, 0, 0, 100, 200};
  // Arrivals as {observer, failed rank, failure time, arrival}.
  launch.notice_arrivals = {
      // Rank 1: a late arrival, then one before its end: informed.
      {1, 0, 5, 150},
      {1, 0, 5, 50},
      // Rank 2: only after its end: missed.
      {2, 0, 5, 150},
      // Rank 3 never ended: any arrival informs it. Rank 4 never ended and
      // heard nothing: missed.
      {3, 0, 5, 900},
      // Rank 5 heard of rank 2's failure, not of rank 0's.
      {5, 2, 5, 10},
  };
  // Victim 0: ranks 2, 4 and 5 missed it; finished rank 6 needed nothing.
  EXPECT_EQ(mc::count_missed_notifications(launch, 0), 3);
  // Victim 2: ranks 1, 3 and 4 missed it, rank 5 heard in time, and rank 0
  // (failed) needed nothing.
  EXPECT_EQ(mc::count_missed_notifications(launch, 2), 3);
}

TEST(McExplorer, PruningPreservesTheClassMap) {
  auto config = ring_config();
  const mc::McReport pruned = mc::explore(config);
  config.lattice.prune = false;
  const mc::McReport full = mc::explore(config);

  // The full run evaluated every finest point; the pruned run inferred most
  // of them from interval endpoints. Same classes, same coverage.
  EXPECT_EQ(full.explored, full.raw_scenarios);
  EXPECT_LT(pruned.explored, full.explored / 2);  // >= 50% saved.
  EXPECT_EQ(pruned.unknown, 0u);
  EXPECT_EQ(pruned.explored + pruned.pruned, pruned.raw_scenarios);
  EXPECT_EQ(class_map(pruned), class_map(full));

  // Identical outcomes collapsed: far fewer classes than scenarios, and the
  // count is pinned — a class appearing or vanishing on this fixed lattice
  // is a behavior change in the simulator, not noise.
  EXPECT_EQ(pruned.classes.size(), 5u);
  // Both detector rows abort, restart, and complete for early injections.
  ASSERT_FALSE(pruned.classes.empty());
  EXPECT_TRUE(pruned.classes.front().rep.completed);
}

TEST(McExplorer, BisectionLocalizesBoundariesToOneGridStep) {
  auto config = ring_config();
  const mc::McReport pruned = mc::explore(config);
  config.lattice.prune = false;
  const mc::McReport full = mc::explore(config);

  // Ground truth: every signature change between adjacent finest-grid points
  // of the exhaustive run. The pruned run's bisection must find exactly
  // these intervals — each one finest step wide.
  auto key = [](const mc::McReport::Boundary& b) {
    return std::tuple(b.row, b.t_lo, b.t_hi);
  };
  std::set<std::tuple<std::size_t, SimTime, SimTime>> want, got;
  for (const auto& b : full.boundaries) want.insert(key(b));
  for (const auto& b : pruned.boundaries) got.insert(key(b));
  EXPECT_EQ(got, want);
  EXPECT_FALSE(pruned.boundaries.empty());
  for (const auto& b : pruned.boundaries) {
    EXPECT_EQ(b.t_hi - b.t_lo, pruned.finest_step);
  }
  EXPECT_TRUE(pruned.frontier.empty());

  // One of those boundaries is the completion edge: the last injection that
  // still fired before the app finished. Its interval must bracket the
  // boundary the exhaustive run saw.
  bool found_completion_edge = false;
  for (const auto& c : full.classes) {
    if (c.rep.actual_fail_time == kSimTimeNever) found_completion_edge = true;
  }
  EXPECT_TRUE(found_completion_edge);
}

TEST(McExplorer, ReportBytesIdenticalAcrossJobCounts) {
  auto config = ring_config();
  config.jobs = 1;
  const std::string serial = mc::explore(config).to_json();
  config.jobs = 4;
  const std::string parallel = mc::explore(config).to_json();
  EXPECT_EQ(serial, parallel);
  EXPECT_FALSE(serial.empty());
}

TEST(McExplorer, BudgetExhaustionDegradesGracefully) {
  auto config = ring_config();
  // Enough for the coarse grid (2 rows x 2 detectors x 5 points = 20) plus a
  // couple of refinements, then stop.
  config.lattice.budget = 24;
  const mc::McReport rep = mc::explore(config);
  EXPECT_TRUE(rep.budget_exhausted);
  EXPECT_LE(rep.explored, 24u);
  // Whatever was not resolved is reported, not silently dropped: every
  // finest point is explored, inferred, or flagged unknown; disagreeing
  // unrefined intervals surface as frontier work.
  EXPECT_EQ(rep.explored + rep.pruned + rep.unknown, rep.raw_scenarios);
  EXPECT_GT(rep.unknown, 0u);
  EXPECT_FALSE(rep.frontier.empty());
  // The report still serializes (the CI gate reads it even on truncated
  // runs).
  EXPECT_NE(rep.to_json().find("\"budget_exhausted\": 1"), std::string::npos);
}

TEST(McExplorer, MissedNotificationsDetectedUnderGossip) {
  // Ring is pure point-to-point: ranks far from the victim have no pending
  // operation on a communicator containing it, so when the abort fans out
  // before their (late, epidemic) gossip notice arrives, they die
  // uninformed. The checker must surface that window.
  mc::ExplorerConfig config;
  const int ranks = 16;
  config.runner.base = test::tiny_config(ranks);
  config.app = apps::make_app("ring", "laps=10,bytes=8", ranks);
  config.app_name = "ring";
  config.app_params = "laps=10,bytes=8";
  for (int v = 0; v < ranks; ++v) config.lattice.victims.push_back(v);
  config.lattice.detectors = {*resilience::parse_detector_spec("gossip")};
  config.lattice.policies = {ckpt::CkptMode::kPfs};
  config.lattice.grid = 3;
  config.lattice.depth = 1;
  config.jobs = 2;
  const mc::McReport rep = mc::explore(config);
  EXPECT_GT(rep.missed_scenarios, 0u);
  EXPECT_GT(rep.max_missed, 0);
  EXPECT_FALSE(rep.missed_windows.empty());
}

TEST(McExplorer, PolicyAxisChangesBaselinesNotDetection) {
  auto config = ring_config();
  config.lattice.victims = {1};
  config.lattice.detectors = {*resilience::parse_detector_spec("paper-instant")};
  config.lattice.policies = {ckpt::CkptMode::kPfs, ckpt::CkptMode::kPartner};
  config.lattice.grid = 3;
  config.lattice.depth = 1;
  const mc::McReport rep = mc::explore(config);
  ASSERT_EQ(rep.baseline_e2.size(), 2u);
  EXPECT_GT(rep.baseline_e2[0], 0u);
  EXPECT_GT(rep.baseline_e2[1], 0u);
  ASSERT_EQ(rep.rows.size(), 2u);
  EXPECT_EQ(rep.policy_names, (std::vector<std::string>{"pfs", "partner"}));
}

TEST(McExplorer, RejectsOutOfRangeVictim) {
  auto config = ring_config();
  config.lattice.victims = {64};
  EXPECT_THROW(mc::explore(config), std::invalid_argument);
}
