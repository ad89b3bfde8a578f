// exasim_run — command-line simulator driver, the xSim-style front door.
//
//   exasim_run <app> [machine options] [--app-params=k=v,k=v]
//
// Apps: heat3d | cgproxy | ring.
// Failure schedules come from --failures=R@T,... or the EXASIM_FAILURES
// environment variable (paper §IV-B); random failures from --mttf=DUR.
//
// Examples:
//   exasim_run heat3d --ranks=4096 --topology=torus:16x16x16
//       --slowdown=1000 --ns-per-unit=1281
//       --app-params="nx=256,px=16,iters=400,interval=50" --mttf=500s
//   EXASIM_FAILURES="12@1.5s,77@2s" exasim_run ring --ranks=128 --verbose
//
// `--replicates=N` repeats the whole experiment with seeds seed..seed+N-1
// (an exp::ParallelExecutor campaign — add `--jobs=M` or set EXASIM_JOBS to
// run M replicates concurrently) and reports per-replicate rows plus
// mean/stddev statistics. Output is identical for any job count.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "core/cli.hpp"
#include "exp/executor.hpp"
#include "iomodel/storage.hpp"
#include "exp/plan.hpp"
#include "metrics/stats.hpp"
#include "metrics/table.hpp"
#include "resilience/detector.hpp"
#include "util/log.hpp"

using namespace exasim;

namespace {

/// Hot-path memory/throughput counters (DESIGN.md §9), summed over every
/// launch of every replicate. Written to stderr: stdout is required to be
/// byte-identical across --jobs and host speeds, and these numbers are
/// host-dependent (wall clock) by design.
void print_perf(const std::vector<const core::RunnerResult*>& results) {
  // Resolved resilience configuration (satellite of the perf rollup: which
  // detector/policy produced these numbers). Identical across launches and
  // replicates, so the first launch is authoritative.
  if (!results.empty() && !results.front()->run_results.empty()) {
    const core::SimResult& first = results.front()->run_results.front();
    std::fprintf(stderr, "detector       : %s\n", first.detector.c_str());
    std::fprintf(stderr, "error policy   : %s\n", first.error_policy.c_str());
    std::fprintf(stderr, "routing        : %s\n", first.routing.c_str());
    if (first.link_timeouts != "uniform") {
      std::fprintf(stderr, "link timeouts  : %s\n", first.link_timeouts.c_str());
    }
    if (first.storage != "pfs" || first.ckpt_mode != "pfs") {
      std::fprintf(stderr, "storage        : %s\n", first.storage.c_str());
      std::fprintf(stderr, "ckpt mode      : %s\n", first.ckpt_mode.c_str());
    }
  }
  std::uint64_t events = 0;
  double wall = 0;
  PerfSnapshot p;
  for (const auto* res : results) {
    for (const auto& run : res->run_results) {
      events += run.events_processed;
      wall += run.wall_seconds;
      p += run.perf;
    }
  }
  if (events == 0 || wall <= 0) return;
  const double rate = static_cast<double>(events) / wall;
  auto percent = [](std::uint64_t part, std::uint64_t whole) {
    return whole > 0 ? 100.0 * static_cast<double>(part) / static_cast<double>(whole) : 0.0;
  };
  std::fprintf(stderr,
               "perf           : %" PRIu64
               " events in %.3f s wall = %.0f events/s (%.1f ns/event)\n",
               events, wall, rate, 1e9 / rate);
  std::fprintf(stderr,
               "pool           : %" PRIu64 " allocs (%.1f%% recycled), %" PRIu64
               " heap (%.4f/event), %" PRIu64 " slab KiB\n",
               p.pool_allocs, percent(p.pool_recycled, p.pool_allocs), p.pool_heap_allocs,
               static_cast<double>(p.pool_heap_allocs) / static_cast<double>(events),
               p.pool_slab_bytes / 1024);
  std::fprintf(stderr,
               "stacks         : %" PRIu64 " mapped, %" PRIu64 " reused, high-water %" PRIu64
               ", %" PRIu64 " B copied\n",
               p.stacks_mapped, p.stacks_reused, p.stacks_high_water, p.stack_bytes_copied);
  if (p.fanout_notices > 0) {
    std::fprintf(stderr, "fanout         : %" PRIu64 " notices\n", p.fanout_notices);
  }
  if (p.fiber_resumes > 0) {
    std::fprintf(stderr, "wakeups        : %" PRIu64 " resumes, %" PRIu64 " suppressed (%.1f%%)\n",
                 p.fiber_resumes, p.wakeups_suppressed,
                 percent(p.wakeups_suppressed, p.fiber_resumes + p.wakeups_suppressed));
  }
  if (p.queue_pops > 0) {
    std::fprintf(stderr, "queue          : %" PRIu64 " pops, %" PRIu64 " run pops (%.1f%%)\n",
                 p.queue_pops, p.queue_near_hits, percent(p.queue_near_hits, p.queue_pops));
  }
  if (p.ckpt_stages > 0 || p.ckpt_drains > 0 || p.ckpt_partner_copies > 0) {
    static const char* kTierNames[] = {"-", "mem", "bb", "pfs"};
    std::fprintf(stderr,
                 "ckpt           : %" PRIu64 " stages, %" PRIu64 " drains, %" PRIu64
                 " partner copies, restore tier %s\n",
                 p.ckpt_stages, p.ckpt_drains, p.ckpt_partner_copies,
                 kTierNames[std::min<std::uint64_t>(p.ckpt_restore_tier, 3)]);
  }
}

std::string usage() {
  return "usage: exasim_run <heat3d|cgproxy|ring> [options]\n" + apps::app_params_help() +
         "  --list-failure-detectors   print the detector families and exit\n"
         "  --list-topologies      print the topology zoo (spec formats) and exit\n"
         "  --list-storage         print the storage presets and exit\n"
         "  --result-json=PATH     write the final launch's result as JSON\n"
         "  --help                 print this text and exit\n" +
         core::cli_usage();
}

int die_usage(const std::string& msg) {
  std::fprintf(stderr, "exasim_run: %s\n\n%s", msg.c_str(), usage().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Split off the tool-level options before the generic parser sees them.
  std::string app_params_text;
  std::string result_json_path;
  std::vector<const char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--app-params=", 0) == 0) {
      app_params_text = arg.substr(std::string("--app-params=").size());
    } else if (arg.rfind("--result-json=", 0) == 0) {
      result_json_path = arg.substr(std::string("--result-json=").size());
    } else if (arg == "--help") {
      std::fputs(usage().c_str(), stdout);
      return 0;
    } else if (arg == "--list-failure-detectors") {
      for (const auto& d : resilience::list_detectors()) {
        std::printf("%-14s %s\n", d.name.c_str(), d.summary.c_str());
      }
      return 0;
    } else if (arg == "--list-topologies") {
      for (const auto& t : list_topologies()) {
        std::printf("%-11s %-28s %s\n", t.name.c_str(), t.format.c_str(), t.summary.c_str());
      }
      return 0;
    } else if (arg == "--list-storage") {
      for (const auto& s : list_storage()) {
        std::printf("%-11s %s\n    %s\n", s.name.c_str(), s.summary.c_str(), s.spec.c_str());
      }
      return 0;
    } else {
      args.push_back(argv[i]);
    }
  }

  std::string error;
  auto options = core::parse_cli(static_cast<int>(args.size()), args.data(), &error);
  if (!options) return die_usage(error);
  if (options->positional.size() != 1) return die_usage("expected exactly one app name");
  const std::string app_name = options->positional.front();

  vmpi::AppMain app;
  try {
    app = apps::make_app(app_name, app_params_text, options->machine.ranks);
  } catch (const std::invalid_argument& e) {
    return die_usage(e.what());
  }

  if (options->replicates > 1) {
    // Replication campaign: one full simulation per replicate, seeds
    // seed..seed+N-1, on the experiment executor.
    auto plan = exp::ExperimentPlan::explicit_points(
        1, options->replicates, options->seed);
    plan.set_seed_mode(exp::SeedMode::kSequentialPerReplicate);
    exp::ParallelExecutor pool(exp::ExecutorOptions{options->jobs, {}});
    auto outcomes = pool.run(plan, [&](const exp::Point&, const exp::WorkItem& item) {
      core::RunnerConfig rc = core::runner_config_from(*options);
      rc.seed = item.seed;
      return core::ResilientRunner(rc, app).run();
    });

    std::printf("app            : %s on %d simulated ranks (%s)\n", app_name.c_str(),
                options->machine.ranks, options->machine.topology.c_str());
    // No job count in the output: it must be byte-identical for any --jobs.
    std::printf("replicates     : %d (seeds %llu..%llu)\n", options->replicates,
                static_cast<unsigned long long>(options->seed),
                static_cast<unsigned long long>(options->seed) +
                    static_cast<unsigned long long>(options->replicates) - 1);
    TablePrinter table({"seed", "completed", "launches", "E2", "F", "MTTF_a"});
    RunningStats e2, f, mttfa;
    bool all_completed = true;
    int campaign_errors = 0;
    for (std::size_t i = 0; i < plan.item_count(); ++i) {
      if (!outcomes[i].ok()) {
        std::fprintf(stderr, "exasim_run: replicate %zu: %s\n", i, outcomes[i].error.c_str());
        ++campaign_errors;
        all_completed = false;
        continue;
      }
      const core::RunnerResult& res = *outcomes[i];
      all_completed = all_completed && res.completed;
      e2.add(to_seconds(res.total_time));
      f.add(res.failures);
      if (res.failures > 0) mttfa.add(res.app_mttf_seconds);
      table.add_row({std::to_string(plan.item(i).seed), res.completed ? "yes" : "NO",
                     TablePrinter::integer(res.launches),
                     TablePrinter::num(to_seconds(res.total_time), 6) + " s",
                     TablePrinter::integer(res.failures),
                     res.failures > 0 ? TablePrinter::num(res.app_mttf_seconds, 3) + " s"
                                      : "-"});
    }
    table.print();
    {
      std::vector<const core::RunnerResult*> all;
      for (std::size_t i = 0; i < plan.item_count(); ++i) {
        if (outcomes[i].ok()) all.push_back(&*outcomes[i]);
      }
      print_perf(all);
    }
    if (!result_json_path.empty()) {
      std::fprintf(stderr, "exasim_run: --result-json applies to single runs, ignored "
                           "with --replicates\n");
    }
    if (e2.count() > 0) {
      std::printf("E2             : mean %.6f s, stddev %.6f s\n", e2.mean(), e2.stddev());
      std::printf("failures (F)   : mean %.2f, max %.0f\n", f.mean(), f.max());
      if (mttfa.count() > 0) {
        std::printf("MTTF_a         : mean %.3f s over %zu replicate(s) with failures\n",
                    mttfa.mean(), static_cast<std::size_t>(mttfa.count()));
      }
    }
    return all_completed && campaign_errors == 0 ? 0 : 1;
  }

  core::RunnerResult res;
  try {
    core::ResilientRunner runner(core::runner_config_from(*options), std::move(app));
    res = runner.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "exasim_run: %s\n", e.what());
    return 1;
  }

  std::printf("app            : %s on %d simulated ranks (%s)\n", app_name.c_str(),
              options->machine.ranks, options->machine.topology.c_str());
  std::printf("completed      : %s after %d launch(es)\n", res.completed ? "yes" : "NO",
              res.launches);
  std::printf("total time     : %.6f s simulated\n", to_seconds(res.total_time));
  std::printf("failures (F)   : %d\n", res.failures);
  if (res.failures > 0) {
    std::printf("MTTF_a         : %.3f s  (= E2/(F+1))\n", res.app_mttf_seconds);
  }
  print_perf({&res});
  if (!result_json_path.empty() && !res.run_results.empty()) {
    // Machine-readable summary of the final launch (the one that completed
    // or gave up), including the resolved detector/policy and the
    // detection-latency accounting.
    std::ofstream out(result_json_path);
    if (!out) {
      std::fprintf(stderr, "exasim_run: cannot write %s\n", result_json_path.c_str());
      return 1;
    }
    out << core::sim_result_json(res.run_results.back()) << "\n";
  }
  return res.completed ? 0 : 1;
}
