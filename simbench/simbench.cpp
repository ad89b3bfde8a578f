// simbench — runs one simulator-benchmark workload once, in this
// process, and prints one JSON line: host timings, the simulated outcome
// digest, the resolved configuration and, with --trace, per-layer metrics.
// simbench/run.py repeats it, checks the digests and aggregates; see
// simbench/README.md.
//
//   simbench <workload> [--trace] [--report=PATH]
//
// Workloads: table2_e1_32k, sharded2_e1_32k, mc_tiered_64 and mc_golden
// (the modeled-compute replay of scripts/mc_check.sh's lattice).
//
// Everything is measured from outside the simulator, through the public
// entry points the tools use (core::parse_cli, core::ResilientRunner::run,
// mc::explore): an AppMain wrapper sees each rank enter and leave the
// application, which splits host time into set-up (before a launch's first
// rank enters) and the rest.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/heat3d.hpp"
#include "core/cli.hpp"
#include "core/runner.hpp"
#include "mc/explorer.hpp"
#include "metrics/perf.hpp"
#include "pdes/sim_workers.hpp"

extern char** environ;

using namespace exasim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Nine library layers read EXASIM_* variables; a run must be a function of
// its arguments alone.
void clear_exasim_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("EXASIM_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const auto& n : names) unsetenv(n.c_str());
}

/// One launch as seen from the AppMain wrapper. Times are seconds since the
/// workload started.
struct Launch {
  int run_index = 0;
  double setup_s = 0;      ///< Previous launch's end (or start) -> first entry.
  double first_entry = 0;
  double end = 0;          ///< Last rank leaving the application.
};

/// Observes launch boundaries from rank entries and exits. A launch begins
/// with the first entry after every rank of the previous launch entered and
/// left again (or when the run index changes); it ends with its last exit.
/// Called from every engine worker thread, hence the mutex.
class LaunchClock {
 public:
  LaunchClock(int ranks, Clock::time_point start) : ranks_(ranks), start_(start) {}

  void enter(int run_index) {
    const double now = seconds_between(start_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    if (launches_.empty() ||
        (active_ == 0 && (entered_ == ranks_ || run_index != launches_.back().run_index))) {
      const double prev_end = launches_.empty() ? 0.0 : launches_.back().end;
      launches_.push_back(Launch{run_index, now - prev_end, now, now});
      entered_ = 0;
    }
    ++entered_;
    ++active_;
  }

  void exit() {
    const double now = seconds_between(start_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
    launches_.back().end = std::max(launches_.back().end, now);
  }

  /// Valid once the simulation has returned.
  const std::vector<Launch>& launches() const { return launches_; }

 private:
  const int ranks_;
  const Clock::time_point start_;
  std::mutex mu_;  // Guards everything below.
  std::vector<Launch> launches_;
  int entered_ = 0;
  int active_ = 0;
};

vmpi::AppMain timed(vmpi::AppMain app, LaunchClock* clock) {
  return [app = std::move(app), clock](vmpi::Context& ctx) {
    clock->enter(core::services_of(ctx).run_index);
    // Failure, abort and fiber teardown leave the application by unwinding.
    struct Exit {
      LaunchClock* clock;
      ~Exit() { clock->exit(); }
    } on_exit{clock};
    app(ctx);
  };
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Minimal JSON object writer (keys in insertion order).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    os_ << (first_ ? "" : ",") << "\"" << key << "\":" << json;
    first_ = false;
    return *this;
  }
  std::string done() const { return "{" + os_.str() + "}"; }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

// ---- Workload definitions ----------------------------------------------------

// The Table II machine (DESIGN.md §6 calibration), as exasim_run flags.
const std::vector<std::string> kTable2Machine = {
    "--link-latency=1us", "--bandwidth=32e9",   "--overhead=500ns",
    "--eager-threshold=262144", "--failure-timeout=100ms", "--slowdown=1000",
    "--ns-per-unit=1281", "--stack-bytes=65536"};

struct Workload {
  std::vector<std::string> args;  ///< exasim_run-style machine flags.
  apps::HeatParams heat;
  std::string app_params;  ///< The same parameters in --app-params form.
  bool model_check = false;
  mc::LatticeSpec lattice;  ///< model_check only.
  std::string victims, detectors, policies;
};

apps::HeatParams make_heat(int nx, int ny, int nz, int px, int py, int pz, int iters, int interval) {
  apps::HeatParams p;
  p.nx = nx, p.ny = ny, p.nz = nz;
  p.px = px, p.py = py, p.pz = pz;
  p.total_iterations = iters;
  p.halo_interval = p.checkpoint_interval = interval;
  // Modeled compute: every host second is spent in the simulator, never in
  // the native stencil that apps::make_app enables at <= 4096 ranks.
  p.real_compute = false;
  return p;
}

Workload make_workload(const std::string& name) {
  Workload w;
  auto machine = [&w](std::vector<std::string> extra) {
    w.args = kTable2Machine;
    w.args.insert(w.args.end(), extra.begin(), extra.end());
    w.args.push_back("--jobs=1");
  };
  if (name == "table2_e1_32k" || name == "sharded2_e1_32k") {
    machine({"--ranks=32768", "--topology=torus:32x32x32",
             name == "table2_e1_32k" ? "--sim-workers=1" : "--sim-workers=2"});
    w.heat = make_heat(512, 512, 512, 32, 32, 32, 1000, 125);
    w.app_params = "nx=512,px=32,iters=1000,interval=125";
  } else if (name == "mc_tiered_64" || name == "mc_golden") {
    const bool tiered = name == "mc_tiered_64";
    // mc_golden keeps exasim_mc's default machine so its report can be
    // compared byte for byte with scripts/mc_report.golden.json.
    w.args = {"--ranks=64", "--topology=torus:4x4x4", "--sim-workers=1", "--jobs=1"};
    if (tiered) w.args.push_back("--storage=hpc");
    w.heat = make_heat(32, 32, 32, 4, 4, 4, 200, 40);
    w.app_params = "nx=32,px=4,iters=200,interval=40";
    w.model_check = true;
    w.victims = tiered ? "0,21,42,63" : "0,21,42";
    w.detectors = tiered ? "paper-instant;timeout;heartbeat;gossip" : "paper-instant;timeout;gossip";
    w.policies = tiered ? "pfs,partner,staged" : "pfs";
    w.lattice.grid = 9;
    w.lattice.depth = 6;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

core::CliOptions parse_machine(const Workload& w) {
  std::vector<const char*> argv = {"simbench"};
  for (const auto& a : w.args) argv.push_back(a.c_str());
  std::string error;
  auto options = core::parse_cli(static_cast<int>(argv.size()), argv.data(), &error);
  if (!options) throw std::invalid_argument("machine flags: " + error);
  return *options;
}

std::string json_string_array(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ",\"" : "\"") + v[i] + "\"";
  }
  return out + "]";
}

// ---- Per-layer metrics (--trace) ---------------------------------------------

void core_layer(JsonObject& layers, const std::vector<Launch>& launches) {
  std::vector<double> setups;
  double setup_sum = 0, launch0 = 0, relaunch = 0;
  for (const auto& l : launches) {
    setups.push_back(l.setup_s);
    setup_sum += l.setup_s;
    (l.run_index == 0 ? launch0 : relaunch) += l.end - l.first_entry;
  }
  layers.num("core.launch_setup_s.p50", percentile(setups, 0.5))
      .num("core.launch_setup_s.sum", setup_sum)
      .num("core.launch0_s", launch0)
      .num("core.relaunch_s", relaunch)
      .integer("core.launches", launches.size());
}

void engine_layers(JsonObject& layers, const PerfSnapshot& perf, std::uint64_t events,
                   std::uint64_t causality, double app_s, int workers) {
  layers.integer("pdes.events", events)
      .num("pdes.ns_per_event", ratio(app_s * 1e9, static_cast<double>(events)))
      .num("pdes.queue_near_ratio",
           ratio(static_cast<double>(perf.queue_near_hits), static_cast<double>(events)))
      .integer("pdes.causality_violations", causality)
      .integer("pdes.windows", perf.sched_windows)
      .num("pdes.events_per_window",
           ratio(static_cast<double>(events), static_cast<double>(perf.sched_windows)))
      .num("pdes.barrier_idle_share",
           workers > 1 ? ratio(static_cast<double>(perf.sched_barrier_idle_ns),
                               app_s * 1e9 * workers)
                       : 0.0)
      .integer("pdes.steals", perf.sched_steals)
      .integer("pdes.widenings", perf.sched_window_widenings)
      .integer("fiber.resumes", perf.fiber_resumes)
      .integer("fiber.stacks_mapped", perf.stacks_mapped)
      .integer("fiber.stacks_reused", perf.stacks_reused)
      .integer("vmpi.wakeups_suppressed", perf.wakeups_suppressed)
      .num("vmpi.suppressed_ratio",
           ratio(static_cast<double>(perf.wakeups_suppressed),
                 static_cast<double>(perf.wakeups_suppressed + perf.fiber_resumes)))
      .integer("util.pool_allocs", perf.pool_allocs)
      .num("util.pool_recycle_ratio",
           ratio(static_cast<double>(perf.pool_recycled), static_cast<double>(perf.pool_allocs)))
      .num("util.heap_allocs_per_event",
           ratio(static_cast<double>(perf.pool_heap_allocs), static_cast<double>(events)))
      .integer("resilience.failure_notices", perf.fanout_notices)
      .integer("resilience.fanout_relays", perf.fanout_relays)
      .integer("resilience.dead_skips", perf.fanout_dead_skips)
      .integer("ckpt.stages", perf.ckpt_stages)
      .integer("ckpt.drains", perf.ckpt_drains)
      .integer("ckpt.partner_copies", perf.ckpt_partner_copies)
      .integer("ckpt.restore_tier", perf.ckpt_restore_tier);
}

double setup_seconds(const std::vector<Launch>& launches) {
  double s = 0;
  for (const auto& l : launches) s += l.setup_s;
  return s;
}

double app_seconds(const std::vector<Launch>& launches) {
  double s = 0;
  for (const auto& l : launches) s += l.end - l.first_entry;
  return s;
}

// VmHWM, not getrusage: ru_maxrss survives exec, so it would report the
// launching script's footprint for a small workload.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB.
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

int run(const std::string& name, bool trace, const std::string& report_path) {
  const Workload w = make_workload(name);
  JsonObject out;
  out.str("workload", name);

  const Clock::time_point start = Clock::now();
  const core::CliOptions options = parse_machine(w);
  LaunchClock clock(options.machine.ranks, start);
  const vmpi::AppMain app = timed(apps::make_heat3d(w.heat), &clock);
  const int workers = resolve_sim_workers(options.machine.sim_workers);

  JsonObject config;
  config.raw("args", json_string_array(w.args))
      .str("app", "heat3d")
      .str("app_params", w.app_params)
      .str("real_compute", "false")
      .integer("sim_workers", static_cast<std::uint64_t>(workers))
      .integer("jobs", static_cast<std::uint64_t>(options.jobs));
  JsonObject digest;
  JsonObject layers;

  if (!w.model_check) {
    core::ResilientRunner runner(core::runner_config_from(options), app);
    const PerfSnapshot perf_begin = trace ? perf_snapshot() : PerfSnapshot{};
    const core::RunnerResult rr = runner.run();
    const double wall = seconds_between(start, Clock::now());
    const PerfSnapshot perf = trace ? perf_delta(perf_begin, perf_snapshot()) : PerfSnapshot{};

    const double setup = setup_seconds(clock.launches());
    out.num("wall_s", wall).num("setup_s", setup).num("run_s", wall - setup);

    const core::SimResult& last = rr.run_results.back();
    config.str("scheduler", last.scheduler)
        .str("routing", last.routing)
        .str("storage", last.storage)
        .str("ckpt_mode", last.ckpt_mode)
        .str("detector", last.detector);

    std::string events = "[";
    std::uint64_t events_total = 0, causality = 0;
    SimTime max_latency = 0;
    for (const auto& r : rr.run_results) {
      events += (events.size() > 1 ? "," : "") + std::to_string(r.events_processed);
      events_total += r.events_processed;
      causality += r.causality_violations;
      max_latency = std::max(max_latency, r.max_detection_latency);
    }
    digest.raw("completed", rr.completed ? "true" : "false")
        .integer("e2_ns", static_cast<std::uint64_t>(rr.total_time))
        .integer("failures", static_cast<std::uint64_t>(rr.failures))
        .integer("launches", static_cast<std::uint64_t>(rr.launches))
        .raw("events_per_launch", events + "]")
        .integer("causality_violations", causality)
        .raw("final_result", core::sim_result_json(last));

    if (trace) {
      core_layer(layers, clock.launches());
      engine_layers(layers, perf, events_total, causality, app_seconds(clock.launches()),
                    workers);
      layers.num("resilience.max_detection_latency_s", to_seconds(max_latency))
          .integer("mc.explored", 0)
          .num("mc.prune_ratio", 0)
          .num("mc.scenario_ms.p50", 0)
          .num("mc.scenario_ms.p99", 0)
          .num("mc.wave_s", 0);
    }
  } else {
    mc::ExplorerConfig mc_config;
    mc_config.lattice = w.lattice;
    mc_config.lattice.victims = *mc::parse_victims(w.victims, options.machine.ranks);
    mc_config.lattice.detectors = *mc::parse_detector_list(w.detectors);
    mc_config.lattice.policies = *mc::parse_policy_list(w.policies);
    mc_config.runner = core::runner_config_from(options);
    mc_config.app = app;
    mc_config.app_name = "heat3d";
    mc_config.app_params = w.app_params;
    mc_config.jobs = options.jobs;
    std::vector<double> wave_ends;
    if (trace) {
      mc_config.progress = [&](int, std::uint64_t, std::uint64_t) {
        wave_ends.push_back(seconds_between(start, Clock::now()));
      };
    }
    config.str("victims", w.victims)
        .str("detectors", w.detectors)
        .str("policies", w.policies)
        .str("grid", std::to_string(w.lattice.grid) + ":" + std::to_string(w.lattice.depth));

    const PerfSnapshot perf_begin = trace ? perf_snapshot() : PerfSnapshot{};
    const mc::McReport report = mc::explore(mc_config);
    const double wall = seconds_between(start, Clock::now());
    const PerfSnapshot perf = trace ? perf_delta(perf_begin, perf_snapshot()) : PerfSnapshot{};

    const double setup = setup_seconds(clock.launches());
    out.num("wall_s", wall).num("setup_s", setup).num("run_s", wall - setup);

    digest.integer("raw_scenarios", report.raw_scenarios)
        .integer("explored", report.explored)
        .integer("eval_errors", report.eval_errors)
        .integer("launches", clock.launches().size());
    if (!report_path.empty()) {
      std::ofstream file(report_path, std::ios::binary);
      file << report.to_json();
      if (!file) throw std::runtime_error("cannot write " + report_path);
    }

    if (trace) {
      // A scenario (or baseline probe) is one ResilientRunner run: from the
      // end of the previous one to the end of its last launch.
      const auto& launches = clock.launches();
      std::vector<double> scenario_ends;
      for (std::size_t i = 0; i < launches.size(); ++i) {
        if (i + 1 == launches.size() || launches[i + 1].run_index == 0) {
          scenario_ends.push_back(launches[i].end);
        }
      }
      std::vector<double> scenario_ms;
      for (std::size_t i = 0; i < scenario_ends.size(); ++i) {
        scenario_ms.push_back((scenario_ends[i] - (i ? scenario_ends[i - 1] : 0.0)) * 1e3);
      }
      // Wave 0 starts when the per-policy baseline probes end.
      std::vector<double> waves;
      double wave_start = scenario_ends.at(report.baseline_runs - 1);
      for (const double end : wave_ends) {
        waves.push_back(end - wave_start);
        wave_start = end;
      }
      core_layer(layers, launches);
      // explore() returns no per-launch SimResult, so the engine's event
      // count is not observable here; the process-wide counters are exact
      // at jobs=1.
      engine_layers(layers, perf, 0, 0, app_seconds(launches), workers);
      layers.num("resilience.max_detection_latency_s", to_seconds(report.worst_latency.latency))
          .integer("mc.explored", report.explored)
          .num("mc.prune_ratio", ratio(static_cast<double>(report.pruned),
                                       static_cast<double>(report.raw_scenarios)))
          .num("mc.scenario_ms.p50", percentile(scenario_ms, 0.5))
          .num("mc.scenario_ms.p99", percentile(scenario_ms, 0.99))
          .num("mc.wave_s", percentile(waves, 0.5));
    }
  }

  out.num("peak_rss_mib", peak_rss_mib())
      .raw("config", config.done())
      .raw("digest", digest.done());
  if (trace) out.raw("layers", layers.done());
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  clear_exasim_environment();
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: simbench <workload> [--trace] [--report=PATH]\n");
    return 2;
  }
  const std::string name = argv[1];
  bool trace = false;
  std::string report_path;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--trace") {
        trace = true;
      } else if (arg.rfind("--report=", 0) == 0) {
        report_path = arg.substr(9);
      } else {
        throw std::invalid_argument("unknown argument: " + arg);
      }
    }
    return run(name, trace, report_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench: %s\n", e.what());
    return 1;
  }
}
