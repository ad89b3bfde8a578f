// exasim_mc — failure-scenario model checker (DESIGN.md §15).
//
//   exasim_mc <app> [machine options] [--app-params=...] [--mc-* options]
//
// Systematically explores the failure space of a built-in application: a
// scenario lattice over injection times x victim ranks x detector models x
// recovery policies, pruned by outcome-signature equivalence, with
// bisection-style time-grid refinement that localizes every behavior
// boundary (abort-time cliffs, checkpoint-interval commit edges) to one
// finest-grid step. Reports worst-case detection latency,
// missed-notification windows, and non-monotonic recovery costs.
//
// Machine options are exasim_run's (core::parse_cli); the checker owns the
// failure schedule, so --failures/--mttf are rejected. Model-checker knobs:
//
//   --mc-victims=0,5,63 | stride:K | all     (default: rank 0)
//   --mc-detectors=SPEC[;SPEC...]            (';'-separated detector specs)
//   --mc-policies=pfs[,partner,staged]       (recovery/ckpt-placement axis)
//   --mc-window=LO..HI                       (injection window; default
//                                             [0, 1.05 x baseline E2])
//   --mc-grid=N[:D]                          (N initial points, refine D
//                                             levels; finest (N-1)*2^D+1)
//   --mc-quantum=DUR        (signature quantization; default failure timeout)
//   --mc-budget=N           (max scenario evaluations; 0 = unlimited)
//   --mc-prune=0|1          (1 = signature-equivalence pruning; default 1)
//   --mc-report=PATH        (write machine-readable mc-report.json)
//
// The report bytes are identical for any --jobs value and any host: the
// lattice schedule is integer arithmetic, evaluations are deterministic
// simulations collected by item index, and the JSON carries no wall-clock.
//
// Example (the CI mc-check lattice; one shell line, wrapped here):
//   exasim_mc heat3d --ranks=64 --topology=torus:4x4x4
//       --app-params="nx=32,px=4,iters=200,interval=40"
//       --mc-victims=0,21,42 --mc-detectors="paper-instant;timeout;gossip"
//       --mc-grid=9:6 --mc-report=mc-report.json

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "apps/registry.hpp"
#include "core/cli.hpp"
#include "exp/executor.hpp"
#include "mc/explorer.hpp"
#include "pdes/sim_workers.hpp"
#include "util/parse.hpp"

using namespace exasim;

namespace {

std::string usage() {
  return "usage: exasim_mc <heat3d|cgproxy|ring> [options]\n" + apps::app_params_help() +
         "  --mc-victims=0,5|stride:K|all  victim-rank axis (default: 0)\n"
         "  --mc-detectors=SPEC[;SPEC]     detector axis (';'-separated)\n"
         "  --mc-policies=pfs,partner,staged  recovery-policy axis\n"
         "  --mc-window=LO..HI     injection window (default [0, 1.05*E2])\n"
         "  --mc-grid=N[:D]        N initial points, D refinement levels\n"
         "  --mc-quantum=DUR       signature quantization (default: failure timeout)\n"
         "  --mc-budget=N          max scenario evaluations (0 = unlimited)\n"
         "  --mc-prune=0|1         signature-equivalence pruning (default 1)\n"
         "  --mc-report=PATH       write mc-report.json\n"
         "  --help                 print this text and exit\n" +
         core::cli_usage();
}

int die_usage(const std::string& msg) {
  std::fprintf(stderr, "exasim_mc: %s\n\n%s", msg.c_str(), usage().c_str());
  return 2;
}

bool parse_grid(const std::string& text, int* grid, int* depth) {
  const auto colon = text.find(':');
  if (colon != std::string::npos && !assign(*depth, parse_int(text.substr(colon + 1), 0, 20))) {
    return false;
  }
  return assign(*grid, parse_int(text.substr(0, colon), 2, kIntMax));
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the --mc-* and --app-params options; everything else goes to the
  // generic machine-option parser.
  mc::LatticeSpec spec;
  std::string victims_text = "0";
  std::string detectors_text = "paper-instant";
  std::string policies_text = "pfs";
  std::string app_params_text;
  std::string report_path;
  std::vector<const char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> std::string {
      return arg.substr(std::string(prefix).size());
    };
    if (arg.rfind("--mc-victims=", 0) == 0) {
      victims_text = value_of("--mc-victims=");
    } else if (arg.rfind("--mc-detectors=", 0) == 0) {
      detectors_text = value_of("--mc-detectors=");
    } else if (arg.rfind("--mc-policies=", 0) == 0) {
      policies_text = value_of("--mc-policies=");
    } else if (arg.rfind("--mc-window=", 0) == 0) {
      const auto window = parse_duration_range(value_of("--mc-window="));
      if (!window || window->first == window->second) {
        return die_usage("malformed --mc-window (want LO..HI durations)");
      }
      std::tie(spec.window_lo, spec.window_hi) = *window;
    } else if (arg.rfind("--mc-grid=", 0) == 0) {
      if (!parse_grid(value_of("--mc-grid="), &spec.grid, &spec.depth)) {
        return die_usage("malformed --mc-grid (want N[:D], N>=2, 0<=D<=20)");
      }
    } else if (arg.rfind("--mc-quantum=", 0) == 0) {
      const auto q = parse_duration(value_of("--mc-quantum="));
      if (!q || *q == 0) return die_usage("malformed --mc-quantum");
      spec.quantum = *q;
    } else if (arg.rfind("--mc-budget=", 0) == 0) {
      if (!assign(spec.budget, parse_u64(value_of("--mc-budget=")))) {
        return die_usage("malformed --mc-budget");
      }
    } else if (arg.rfind("--mc-prune=", 0) == 0) {
      if (!assign(spec.prune, parse_switch(value_of("--mc-prune=")))) {
        return die_usage("--mc-prune wants 0 or 1");
      }
    } else if (arg.rfind("--mc-report=", 0) == 0) {
      report_path = value_of("--mc-report=");
    } else if (arg.rfind("--app-params=", 0) == 0) {
      app_params_text = value_of("--app-params=");
    } else if (arg == "--help") {
      std::fputs(usage().c_str(), stdout);
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
  if (!options->machine.failures.empty() || options->mttf) {
    return die_usage("the model checker owns failure injection; drop --failures/--mttf "
                     "(and unset EXASIM_FAILURES)");
  }

  const auto victims = mc::parse_victims(victims_text, options->machine.ranks);
  if (!victims) return die_usage("malformed --mc-victims");
  spec.victims = *victims;
  const auto detectors = mc::parse_detector_list(detectors_text);
  if (!detectors) return die_usage("malformed --mc-detectors");
  spec.detectors = *detectors;
  const auto policies = mc::parse_policy_list(policies_text);
  if (!policies) return die_usage("malformed --mc-policies");
  spec.policies = *policies;

  mc::ExplorerConfig config;
  config.lattice = spec;
  config.runner = core::runner_config_from(*options);
  try {
    config.app = apps::make_app(app_name, app_params_text, options->machine.ranks);
  } catch (const std::invalid_argument& e) {
    return die_usage(e.what());
  }
  config.app_name = app_name;
  config.app_params = app_params_text;
  // Each scenario may itself run several engine worker threads, so divide
  // the campaign job budget by the per-run worker count (as exasim_run's
  // replicate campaigns do).
  config.jobs = exp::compose_jobs(
      options->jobs, resolve_sim_workers(options->machine.sim_workers));
  config.progress = [](int wave, std::uint64_t explored, std::uint64_t raw) {
    std::fprintf(stderr, "exasim_mc: wave %d done, %llu/%llu scenarios evaluated\n",
                 wave, static_cast<unsigned long long>(explored),
                 static_cast<unsigned long long>(raw));
  };

  mc::McReport report;
  try {
    report = mc::explore(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "exasim_mc: %s\n", e.what());
    return 1;
  }

  report.print_summary(stdout);
  if (!report_path.empty()) {
    std::ofstream out(report_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "exasim_mc: cannot write %s\n", report_path.c_str());
      return 1;
    }
    out << report.to_json();
  }
  return report.eval_errors == 0 ? 0 : 1;
}
