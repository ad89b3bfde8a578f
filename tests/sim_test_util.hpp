#pragma once

// Shared helpers for exasim tests: quick machine configurations and one-call
// application execution.

#include <memory>
#include <stdexcept>
#include <string>

#include "core/cli.hpp"
#include "core/machine.hpp"
#include "core/runner.hpp"
#include "util/log.hpp"

namespace exasim::test {

/// Small star-network machine with fast, simple timing: 1 us latency,
/// 1 GB/s, no slowdown — convenient exact numbers for assertions. Starts
/// from core::parse_cli of an empty command line, so the EXASIM_* variables
/// of the option table (sim workers, ckpt mode, ...) reach every
/// test that builds its machine here.
inline core::SimConfig tiny_config(int ranks) {
  const char* argv[] = {"test"};
  std::string error;
  auto options = core::parse_cli(1, argv, &error);
  if (!options) throw std::invalid_argument(error);
  core::SimConfig cfg = options->machine;
  cfg.ranks = ranks;
  cfg.topology = "star:" + std::to_string(ranks);
  cfg.net.link_latency = sim_us(1);
  cfg.net.bandwidth_bytes_per_sec = 1e9;
  cfg.net.injection_bandwidth_bytes_per_sec = 1e9;
  cfg.net.per_message_overhead = sim_ns(500);
  cfg.net.eager_threshold = 256 * 1024;
  cfg.net.failure_timeout = sim_ms(1);
  cfg.proc.slowdown = 1.0;
  cfg.proc.reference_ns_per_unit = 1.0;
  return cfg;
}

/// Runs one application launch; optionally with a persistent checkpoint
/// store.
inline core::SimResult run_app(core::SimConfig cfg, vmpi::AppMain app,
                               ckpt::CheckpointStore* store = nullptr) {
  core::Machine machine(std::move(cfg), std::move(app));
  if (store != nullptr) machine.set_checkpoint_store(store);
  return machine.run();
}

/// Quiets the logger for the whole test binary.
struct QuietLogs {
  QuietLogs() { Log::set_level(LogLevel::kError); }
};

}  // namespace exasim::test
