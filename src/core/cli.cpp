#include "core/cli.hpp"

#include <cstdlib>

#include "ckpt/tiered.hpp"
#include "iomodel/storage.hpp"
#include "netmodel/routing.hpp"
#include "resilience/detector.hpp"
#include "resilience/schedule.hpp"
#include "util/log.hpp"
#include "util/parse.hpp"

namespace exasim::core {
namespace {

/// A rate or speed the models divide by: parse_double, and above zero.
std::optional<double> positive(const std::string& v) {
  const auto d = parse_double(v);
  return d && *d > 0 ? d : std::nullopt;
}

/// Stores a spec string its parser accepted; the library layer parses it
/// again when it builds the model.
template <class U>
bool keep_spec(std::string& out, const std::string& v, const std::optional<U>& parsed) {
  if (!parsed) return false;
  out = v;
  return true;
}

using O = CliOptions;
using V = const std::string&;

}  // namespace

const std::vector<CliOption>& cli_options() {
  static const std::vector<CliOption> kOptions = {
      {"ranks", "N", nullptr, "simulated MPI ranks",
       [](O& o, V v) { return assign(o.machine.ranks, parse_int(v, 1, kIntMax)); }},
      {"topology", "SPEC", nullptr,
       "network topology: torus:XxYxZ, mesh:XxYxZ, fattree:LxS, dragonfly:AxHxG, star:N; "
       "default a star with one node per --ranks-per-node ranks",
       [](O& o, V v) {
         o.machine.topology = v;
         return !v.empty();
       }},
      {"ranks-per-node", "N", nullptr, "ranks sharing one node and its NIC",
       [](O& o, V v) { return assign(o.machine.ranks_per_node, parse_int(v, 1, kIntMax)); }},
      {"link-latency", "DUR", nullptr, "per-hop link latency",
       [](O& o, V v) { return assign(o.machine.net.link_latency, parse_duration(v)); }},
      {"bandwidth", "B/s", nullptr, "link and injection bandwidth",
       [](O& o, V v) {
         return assign(o.machine.net.bandwidth_bytes_per_sec, positive(v)) &&
                assign(o.machine.net.injection_bandwidth_bytes_per_sec, positive(v));
       }},
      {"overhead", "DUR", nullptr, "per-message software overhead",
       [](O& o, V v) { return assign(o.machine.net.per_message_overhead, parse_duration(v)); }},
      {"eager-threshold", "BYTES", nullptr, "largest eager message; larger ones rendezvous",
       [](O& o, V v) { return assign(o.machine.net.eager_threshold, parse_u64(v)); }},
      {"failure-timeout", "DUR", nullptr, "network failure-detection timeout",
       [](O& o, V v) { return assign(o.machine.net.failure_timeout, parse_duration(v)); }},
      {"routing", "deterministic|adaptive[:spread=K]", nullptr,
       "route-variant policy over equal-cost minimal routes; adaptive spreads flows keyed by "
       "(src,dst,seq); default deterministic",
       [](O& o, V v) { return keep_spec(o.machine.routing, v, parse_routing_spec(v)); }},
      {"link-timeouts", "uniform[:LO..HI[,seed=N]]|hot:ID=DUR[;..]|plane:P=DUR[;..]", nullptr,
       "per-link failure-timeout overrides; pair timeout = max over the route's links; "
       "default uniform",
       [](O& o, V v) { return assign(o.machine.net.link_timeouts, parse_link_timeout_spec(v)); }},
      {"contention", nullptr, nullptr,
       "fold per-link occupancy waits into delivery times",
       [](O& o, V) {
         o.machine.net.contention = true;
         return true;
       }},
      {"slowdown", "X", nullptr, "simulated node speed relative to the reference core",
       [](O& o, V v) { return assign(o.machine.proc.slowdown, positive(v)); }},
      {"ns-per-unit", "X", nullptr, "reference-core nanoseconds per modeled work unit",
       [](O& o, V v) { return assign(o.machine.proc.reference_ns_per_unit, parse_double(v)); }},
      {"storage", "pfs|hpc|mem[:k=v,..];bb[:..];pfs[:..]", nullptr,
       "storage hierarchy; tier keys bw, cbw, lat, cap, contend; '+' accepted for ';'; "
       "default pfs, a single free PFS tier",
       [](O& o, V v) { return keep_spec(o.machine.storage, v, parse_storage_spec(v)); }},
      {"ckpt-mode", "pfs|partner|staged", "EXASIM_CKPT_MODE",
       "checkpoint placement: direct PFS, diskless partner copy in node memory, or partner "
       "copy plus background drain through bb to PFS; default pfs",
       [](O& o, V v) { return keep_spec(o.machine.ckpt_mode, v, ckpt::parse_ckpt_mode(v)); }},
      {"failures", "R@T[,R@T..]", "EXASIM_FAILURES",
       "failure schedule: rank R fails at virtual time T (paper IV-B)",
       [](O& o, V v) { return assign(o.machine.failures, parse_failure_schedule(v)); }},
      {"failure-detector",
       "paper-instant|timeout|heartbeat[:period=DUR][,miss=N]|gossip[:period=DUR][,fanout=K]"
       "[,seed=N]",
       nullptr, "when survivors learn of a failure; default paper-instant",
       [](O& o, V v) { return assign(o.machine.detector, resilience::parse_detector_spec(v)); }},
      {"mttf", "DUR", nullptr, "system MTTF for random failure injection, one draw per launch",
       [](O& o, V v) { return assign(o.mttf, parse_duration(v)); }},
      {"distribution", "uniform2m|exponential|weibull", nullptr,
       "failure-time distribution for --mttf; default uniform2m",
       [](O& o, V v) {
         using D = resilience::FailureDistribution;
         const std::optional<D> d = v == "uniform2m"     ? std::optional(D::kUniform2Mttf)
                                    : v == "exponential" ? std::optional(D::kExponential)
                                    : v == "weibull"     ? std::optional(D::kWeibull)
                                                         : std::nullopt;
         return assign(o.distribution, d);
       }},
      {"seed", "N", nullptr, "random seed", [](O& o, V v) { return assign(o.seed, parse_u64(v)); }},
      {"max-restarts", "N", nullptr, "restart budget of the failure/restart loop",
       [](O& o, V v) { return assign(o.max_restarts, parse_int(v, 0, kIntMax)); }},
      {"stack-bytes", "N", nullptr, "size of the engine's shared fiber stack",
       [](O& o, V v) { return assign(o.machine.process.fiber_stack_bytes, parse_u64(v)); }},
      {"measured-compute", nullptr, nullptr,
       "also fold scaled native fiber CPU time into the virtual clock",
       [](O& o, V) {
         o.machine.process.measured_compute = true;
         return true;
       }},
      {"sim-time-file", "PATH", nullptr, "persist the exit virtual time across restarts (IV-E)",
       [](O& o, V v) {
         o.sim_time_file = v;
         return true;
       }},
      {"verbose", nullptr, nullptr, "info-level logging",
       [](O& o, V) {
         Log::set_level(LogLevel::kInfo);
         o.verbose = true;
         return true;
       }},
      {"replicates", "N", nullptr, "repeat with seeds seed..seed+N-1 and report statistics",
       [](O& o, V v) { return assign(o.replicates, parse_int(v, 1, kIntMax)); }},
      {"jobs", "N", nullptr,
       "worker threads for replicates; 0 = usable CPUs (affinity/cgroup aware); default "
       "EXASIM_JOBS, else 1",
       [](O& o, V v) { return assign(o.jobs, parse_int(v, 0, kIntMax)); }},
      {"sim-workers", "N", nullptr,
       "accepted for compatibility and ignored: every simulation runs on one engine thread",
       [](O& o, V v) { return assign(o.machine.sim_workers, parse_int(v, 1, kIntMax)); }},
  };
  return kOptions;
}

namespace {

/// Appends `text` word-wrapped to `width` columns, each line indented.
void append_wrapped(std::string& out, const std::string& text, std::size_t indent,
                    std::size_t width) {
  std::size_t column = width;  // Forces a line break before the first word.
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(' ', pos);
    if (end == std::string::npos) end = text.size();
    const std::size_t len = end - pos;
    if (column + 1 + len > width) {
      out += '\n';
      out.append(indent, ' ');
      column = indent;
    } else {
      out += ' ';
      ++column;
    }
    out.append(text, pos, len);
    column += len;
    pos = end + 1;
  }
}

}  // namespace

std::string cli_usage() {
  std::string out = "options:";
  for (const CliOption& o : cli_options()) {
    out += "\n  --";
    out += o.flag;
    if (o.value != nullptr) out += std::string("=") + o.value;
    append_wrapped(out, o.env != nullptr ? o.help + std::string("; env ") + o.env : o.help, 6,
                   78);
  }
  out += "\n\n";
  out +=
      "A flag wins over its EXASIM_* variable; a malformed value from either is an error.\n"
      "The variables reach exasim_run and exasim_mc, not programs that build a SimConfig\n"
      "in code. One host switch, read where it acts, never changes results:\n"
      "  EXASIM_JOBS=N          default for --jobs\n";
  return out;
}

std::optional<CliOptions> parse_cli(int argc, const char* const* argv, std::string* error) {
  CliOptions opts;
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };

  // Environment first; explicit flags override (command line wins over
  // environment, like xSim).
  for (const CliOption& o : cli_options()) {
    const char* env = o.env != nullptr ? std::getenv(o.env) : nullptr;
    if (env == nullptr || *env == '\0') continue;
    if (!o.apply(opts, env)) return fail(std::string("malformed ") + o.env + "=" + env);
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      opts.positional.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    const CliOption* option = nullptr;
    for (const CliOption& o : cli_options()) {
      if (flag == o.flag) option = &o;
    }
    if (option == nullptr) return fail("unknown option: " + arg);
    // A switch takes no value; every other option takes exactly one.
    const bool has_value = eq != std::string::npos;
    if (has_value != (option->value != nullptr) ||
        !option->apply(opts, has_value ? arg.substr(eq + 1) : std::string())) {
      return fail("malformed " + arg);
    }
  }

  // Unless a topology was given, default to a star big enough for the rank
  // count (the flat model every rank-pair is 2 hops away in).
  if (opts.machine.topology == SimConfig{}.topology) {
    const std::int64_t nodes =
        (std::int64_t{opts.machine.ranks} + opts.machine.ranks_per_node - 1) /
        opts.machine.ranks_per_node;
    opts.machine.topology = "star:" + std::to_string(nodes);
  }

  for (const FailureSpec& f : opts.machine.failures) {
    if (f.rank < 0 || f.rank >= opts.machine.ranks) {
      return fail("failure schedule rank out of range: " + std::to_string(f.rank));
    }
  }
  return opts;
}

RunnerConfig runner_config_from(const CliOptions& options) {
  RunnerConfig rc;
  rc.base = options.machine;
  rc.first_run_failures = options.machine.failures;
  rc.base.failures.clear();
  rc.system_mttf = options.mttf;
  rc.distribution = options.distribution;
  rc.seed = options.seed;
  rc.max_restarts = options.max_restarts;
  rc.sim_time_file = options.sim_time_file;
  return rc;
}

}  // namespace exasim::core
