// procmodel / powermodel unit tests (the storage model is in test_storage).

#include <gtest/gtest.h>

#include "powermodel/power.hpp"
#include "procmodel/processor.hpp"

namespace exasim {
namespace {

TEST(ProcessorModel, ScalesNativeTimeBySlowdown) {
  ProcessorParams p;
  p.slowdown = 1000.0;  // The paper's configuration (§V-C).
  ProcessorModel m(p);
  EXPECT_EQ(m.scale_native(sim_us(1)), sim_ms(1));
}

TEST(ProcessorModel, HostToReferenceNormalization) {
  ProcessorParams p;
  p.slowdown = 2.0;
  p.host_to_reference = 0.5;  // Host is 2x faster than the reference core.
  ProcessorModel m(p);
  EXPECT_EQ(m.scale_native(sim_us(100)), sim_us(100));
}

TEST(ProcessorModel, WorkUnitsTimesCost) {
  ProcessorParams p;
  p.slowdown = 1000.0;
  p.reference_ns_per_unit = 1281.0;  // Table II calibration.
  ProcessorModel m(p);
  // 4096 points/iteration -> ~5.247 s of simulated time.
  const SimTime t = m.work_time(4096.0);
  EXPECT_NEAR(to_seconds(t), 5.247, 0.001);
}

TEST(ProcessorModel, ReferenceSecondsApplySlowdown) {
  ProcessorParams p;
  p.slowdown = 10.0;
  ProcessorModel m(p);
  EXPECT_EQ(m.reference_seconds(1.0), sim_sec(10));
}

TEST(ProcessorModel, RejectsBadInput) {
  ProcessorParams bad;
  bad.slowdown = 0;
  EXPECT_THROW(ProcessorModel{bad}, std::invalid_argument);
  ProcessorModel m{ProcessorParams{}};
  EXPECT_THROW(m.work_time(-1.0), std::invalid_argument);
  EXPECT_THROW(m.reference_seconds(-0.5), std::invalid_argument);
}

TEST(EnergyLedger, AccumulatesPerState) {
  PowerParams p;
  p.busy_watts = 100;
  p.comm_watts = 60;
  p.idle_watts = 40;
  p.joules_per_byte = 1e-9;
  EnergyLedger ledger(2, p);
  ledger.add_busy(0, sim_sec(2));   // 200 J
  ledger.add_comm(0, sim_sec(1));   // 60 J
  ledger.add_idle(0, sim_sec(1));   // 40 J
  ledger.add_traffic(0, 1'000'000'000);  // 1 J
  EXPECT_NEAR(ledger.rank_joules(0), 301.0, 1e-9);
  EXPECT_NEAR(ledger.rank_joules(1), 0.0, 1e-12);
  EXPECT_NEAR(ledger.total_joules(), 301.0, 1e-9);
  EXPECT_EQ(ledger.busy_time(0), sim_sec(2));
  EXPECT_EQ(ledger.traffic_bytes(0), 1'000'000'000u);
}

TEST(EnergyLedger, RejectsBadRanks) {
  EXPECT_THROW(EnergyLedger(0, PowerParams{}), std::invalid_argument);
  EnergyLedger ledger(1, PowerParams{});
  EXPECT_THROW(ledger.add_busy(5, 1), std::out_of_range);
}

}  // namespace
}  // namespace exasim
