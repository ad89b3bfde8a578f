// Reproduces Table I of the paper: the Finject register-bit-flip campaign.
//
//   "In the tests, an arbitrary maximum of 100 injected faults was set, with
//    application failures occurring at varied points."
//
// Paper values (100 victims): injections 2197, min 1, max 98, mean 21.97,
// median 17, mode 4, stddev 21.42. Our victim is a deterministic register VM
// running a real program (DESIGN.md §2 substitution); the statistic *shape*
// (most victims die within tens of register flips, wide spread, small mode)
// is the reproduction target, not the exact values.
//
// Each campaign is independent and deterministic given its config, so the
// ten of them run through exp::ParallelExecutor (`--jobs N` / EXASIM_JOBS);
// tables print in fixed order afterwards, identical at any job count.

#include <cstdio>
#include <vector>

#include "exp/executor.hpp"
#include "faultlib/campaign.hpp"
#include "metrics/table.hpp"

using namespace exasim;
using namespace exasim::faultlib;

namespace {

void print_campaign(const char* label, const CampaignResult& r) {
  TablePrinter table({"Field", "Value", "Paper (Table I)"});
  const auto& s = r.injections_to_failure;
  table.add_row({"Victims", TablePrinter::integer(r.victims), "100"});
  table.add_row({"Injections", TablePrinter::integer(static_cast<long long>(r.total_injections)),
                 "2197"});
  table.add_row({"Minimum", TablePrinter::num(s.min(), 0), "1"});
  table.add_row({"Maximum", TablePrinter::num(s.max(), 0), "98"});
  table.add_row({"Mean", TablePrinter::num(s.mean(), 2), "21.97"});
  table.add_row({"Median", TablePrinter::num(s.median(), 0), "17"});
  table.add_row({"Mode", TablePrinter::num(s.mode(), 0), "4"});
  table.add_row({"Std.Dev.", TablePrinter::num(s.stddev(), 2), "21.42"});
  std::printf("%s\n", label);
  table.print();
  std::printf("failure-mode census: ");
  bool first = true;
  for (const auto& [mode, n] : r.failure_modes.counts()) {
    std::printf("%s%s=%llu", first ? "" : ", ", mode.c_str(),
                static_cast<unsigned long long>(n));
    first = false;
  }
  std::printf("\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Table I: fault (bit flip) injection results ===\n\n");

  // The headline configuration: register+PC flips into the checksum victim,
  // 100 victims, cap 100 — Finject's register experiment. Then sensitivity
  // victims (control-flow-heavy, minimal-state) and memory-image flips
  // (Finject's slab-fault analog: far gentler).
  std::vector<const char*> labels;
  std::vector<CampaignConfig> configs;
  {
    CampaignConfig cfg;
    cfg.victim = VictimKind::kChecksum;
    cfg.victims = 100;
    cfg.max_injections_per_victim = 100;
    cfg.steps_between_injections = 2000;
    cfg.target = InjectTarget::kRegistersAndPc;
    cfg.seed = 0xF1A7;
    labels.push_back("victim = checksum sweep, target = registers+pc");
    configs.push_back(cfg);
    cfg.victim = VictimKind::kSort;
    labels.push_back("victim = LCG-fill + bubble sort, target = registers+pc");
    configs.push_back(cfg);
    cfg.victim = VictimKind::kCounter;
    labels.push_back("victim = counter loop, target = registers+pc");
    configs.push_back(cfg);
    cfg.victim = VictimKind::kChecksum;
    cfg.target = InjectTarget::kMemory;
    labels.push_back("victim = checksum sweep, target = memory image");
    configs.push_back(cfg);
  }
  // Machine-readable copy of every victim x target combination (defaults).
  const std::size_t csv_begin = configs.size();
  for (auto victim : {VictimKind::kChecksum, VictimKind::kSort, VictimKind::kCounter}) {
    for (auto target : {InjectTarget::kRegistersAndPc, InjectTarget::kMemory}) {
      CampaignConfig c;
      c.victim = victim;
      c.target = target;
      configs.push_back(c);
    }
  }

  exp::ParallelExecutor pool(exp::ExecutorOptions{exp::jobs_from_cli(argc, argv), {}});
  auto outcomes = pool.map(configs.size(),
                           [&](std::size_t i) { return run_campaign(configs[i]); });

  for (std::size_t i = 0; i < csv_begin; ++i) print_campaign(labels[i], *outcomes[i]);

  TablePrinter csv({"victim", "target", "victims", "injections", "min", "max", "mean", "median",
                    "mode", "stddev"});
  for (std::size_t i = csv_begin; i < configs.size(); ++i) {
    const CampaignResult& r = *outcomes[i];
    const auto& s = r.injections_to_failure;
    csv.add_row({to_string(configs[i].victim), to_string(configs[i].target),
                 TablePrinter::integer(r.victims),
                 TablePrinter::integer(static_cast<long long>(r.total_injections)),
                 TablePrinter::num(s.min(), 0), TablePrinter::num(s.max(), 0),
                 TablePrinter::num(s.mean(), 2), TablePrinter::num(s.median(), 0),
                 TablePrinter::num(s.mode(), 0), TablePrinter::num(s.stddev(), 2)});
  }
  if (csv.write_csv("table1.csv")) {
    std::printf("(machine-readable copy written to table1.csv)\n");
  }
  return 0;
}
