#include "mc/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "metrics/table.hpp"

namespace exasim::mc {
namespace {

void append_string(std::string& out, const std::string& s) {
  out += '"';
  out += json_escape(s);
  out += '"';
}

void append_int(std::string& out, std::int64_t v) { out += std::to_string(v); }

void append_hex(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016" PRIx64 "\"", v);
  out += buf;
}

/// kSimTimeNever renders as -1: the JSON carries only small signed integers.
void append_time(std::string& out, SimTime t) {
  if (t == kSimTimeNever) {
    out += "-1";
    return;
  }
  append_int(out, static_cast<std::int64_t>(t));
}

void append_outcome(std::string& out, const ScenarioOutcome& o) {
  out += "{\"completed\":";
  append_int(out, o.completed ? 1 : 0);
  out += ",\"launches\":";
  append_int(out, o.launches);
  out += ",\"failures\":";
  append_int(out, o.failures);
  out += ",\"e2_ns\":";
  append_time(out, o.e2);
  out += ",\"fail_time_ns\":";
  append_time(out, o.actual_fail_time);
  out += ",\"aborted\":";
  append_int(out, o.aborted ? 1 : 0);
  out += ",\"abort_time_ns\":";
  append_time(out, o.abort_time);
  out += ",\"abort_origin\":";
  append_int(out, o.abort_origin);
  out += ",\"notices\":";
  append_int(out, static_cast<std::int64_t>(o.notices));
  out += ",\"max_detection_latency_ns\":";
  append_time(out, o.max_detection_latency);
  out += ",\"mean_detection_latency_ns\":";
  append_time(out, o.mean_detection_latency);
  out += ",\"missed_notifications\":";
  append_int(out, o.missed_notifications);
  out += ",\"error\":";
  append_string(out, o.error);
  out += "}";
}

template <typename T, typename Fn>
void append_array(std::string& out, const std::vector<T>& items, Fn&& one) {
  out += "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ",";
    out += "\n    ";
    one(out, items[i]);
  }
  if (!items.empty()) out += "\n  ";
  out += "]";
}

void append_interval(std::string& out, const McReport::Boundary& b) {
  out += "{\"row\":";
  append_int(out, static_cast<std::int64_t>(b.row));
  out += ",\"t_lo_ns\":";
  append_time(out, b.t_lo);
  out += ",\"t_hi_ns\":";
  append_time(out, b.t_hi);
  out += "}";
}

double to_sec(SimTime t) { return static_cast<double>(t) * 1e-9; }

}  // namespace

std::string McReport::to_json() const {
  // Hand-rolled for a pinned, diffable byte layout: fixed key order,
  // integers and config strings only (see the header's byte-identity
  // contract). The CI mc-check golden and the jobs-identity test both
  // compare these bytes directly.
  std::string out;
  out.reserve(4096);
  out += "{\n";
  out += "  \"app\": ";
  append_string(out, app);
  out += ",\n  \"app_params\": ";
  append_string(out, app_params);
  out += ",\n  \"ranks\": ";
  append_int(out, ranks);
  out += ",\n  \"window_lo_ns\": ";
  append_time(out, spec.window_lo);
  out += ",\n  \"window_hi_ns\": ";
  append_time(out, spec.window_hi);
  out += ",\n  \"grid\": ";
  append_int(out, spec.grid);
  out += ",\n  \"depth\": ";
  append_int(out, spec.depth);
  out += ",\n  \"prune\": ";
  append_int(out, spec.prune ? 1 : 0);
  out += ",\n  \"budget\": ";
  append_int(out, static_cast<std::int64_t>(spec.budget));
  out += ",\n  \"quantum_ns\": ";
  append_time(out, spec.quantum);
  out += ",\n  \"victims\": ";
  append_array(out, spec.victims,
               [](std::string& o, int v) { append_int(o, v); });
  out += ",\n  \"detectors\": ";
  append_array(out, detector_names, append_string);
  out += ",\n  \"policies\": ";
  append_array(out, policy_names, append_string);
  out += ",\n  \"rows\": ";
  append_array(out, rows, [](std::string& o, const LatticeRow& r) {
    o += "{\"victim\":";
    append_int(o, r.victim);
    o += ",\"detector\":";
    append_int(o, static_cast<std::int64_t>(r.detector_index));
    o += ",\"policy\":";
    append_int(o, static_cast<std::int64_t>(r.policy_index));
    o += "}";
  });
  out += ",\n  \"finest_points\": ";
  append_int(out, finest_points);
  out += ",\n  \"finest_step_ns\": ";
  append_time(out, finest_step);
  out += ",\n  \"raw_scenarios\": ";
  append_int(out, static_cast<std::int64_t>(raw_scenarios));
  out += ",\n  \"explored\": ";
  append_int(out, static_cast<std::int64_t>(explored));
  out += ",\n  \"pruned\": ";
  append_int(out, static_cast<std::int64_t>(pruned));
  out += ",\n  \"unknown\": ";
  append_int(out, static_cast<std::int64_t>(unknown));
  out += ",\n  \"baseline_runs\": ";
  append_int(out, static_cast<std::int64_t>(baseline_runs));
  out += ",\n  \"eval_errors\": ";
  append_int(out, static_cast<std::int64_t>(eval_errors));
  out += ",\n  \"budget_exhausted\": ";
  append_int(out, budget_exhausted ? 1 : 0);
  out += ",\n  \"baseline_e2_ns\": ";
  append_array(out, baseline_e2,
               [](std::string& o, SimTime t) { append_time(o, t); });
  out += ",\n  \"classes\": ";
  append_array(out, classes, [](std::string& o, const Class& c) {
    o += "{\"signature\":";
    append_hex(o, c.signature);
    o += ",\"covered\":";
    append_int(o, static_cast<std::int64_t>(c.covered));
    o += ",\"row\":";
    append_int(o, static_cast<std::int64_t>(c.row));
    o += ",\"time_ns\":";
    append_time(o, c.time);
    o += ",\"outcome\":";
    append_outcome(o, c.rep);
    o += "}";
  });
  out += ",\n  \"worst_detection_latency\": {\"any\":";
  append_int(out, worst_latency.any ? 1 : 0);
  out += ",\"row\":";
  append_int(out, static_cast<std::int64_t>(worst_latency.row));
  out += ",\"time_ns\":";
  append_time(out, worst_latency.time);
  out += ",\"latency_ns\":";
  append_time(out, worst_latency.latency);
  out += "}";
  out += ",\n  \"missed\": {\"scenarios\":";
  append_int(out, static_cast<std::int64_t>(missed_scenarios));
  out += ",\"max_missed\":";
  append_int(out, max_missed);
  out += ",\"windows\":";
  append_array(out, missed_windows, [](std::string& o, const MissedWindow& w) {
    o += "{\"row\":";
    append_int(o, static_cast<std::int64_t>(w.row));
    o += ",\"t_lo_ns\":";
    append_time(o, w.t_lo);
    o += ",\"t_hi_ns\":";
    append_time(o, w.t_hi);
    o += ",\"max_missed\":";
    append_int(o, w.max_missed);
    o += "}";
  });
  out += "}";
  out += ",\n  \"non_monotonic\": ";
  append_array(out, non_monotonic, [](std::string& o, const NonMonotonic& n) {
    o += "{\"row\":";
    append_int(o, static_cast<std::int64_t>(n.row));
    o += ",\"t_lo_ns\":";
    append_time(o, n.t_lo);
    o += ",\"t_hi_ns\":";
    append_time(o, n.t_hi);
    o += ",\"e2_drop_ns\":";
    append_time(o, n.e2_drop);
    o += "}";
  });
  out += ",\n  \"boundaries\": ";
  append_array(out, boundaries, append_interval);
  out += ",\n  \"frontier\": ";
  append_array(out, frontier, append_interval);
  out += "\n}\n";
  return out;
}

void McReport::print_summary(std::FILE* out) const {
  std::fprintf(out, "exasim_mc: %s x %d ranks, %zu rows (%zu victims x %zu detectors x %zu policies)\n",
               app.c_str(), ranks, rows.size(), spec.victims.size(),
               spec.detectors.size(), spec.policies.size());
  std::fprintf(out, "  window [%.6f s, %.6f s], finest grid %" PRId64
                    " pts/row (step %.6f s), quantum %.3f ms\n",
               to_sec(spec.window_lo), to_sec(spec.window_hi), finest_points,
               to_sec(finest_step), to_sec(spec.quantum) * 1e3);
  std::fprintf(out, "  lattice: %" PRIu64 " raw scenarios -> %" PRIu64
                    " explored, %" PRIu64 " pruned by equivalence, %" PRIu64
                    " unknown (%" PRIu64 " eval errors)\n",
               raw_scenarios, explored, pruned, unknown, eval_errors);
  if (budget_exhausted) {
    std::fprintf(out, "  budget of %" PRIu64
                      " exhausted: %zu frontier interval(s) left unrefined\n",
                 spec.budget, frontier.size());
  }
  std::fprintf(out, "  %zu outcome class(es):\n", classes.size());
  const std::size_t show = std::min<std::size_t>(classes.size(), 8);
  for (std::size_t i = 0; i < show; ++i) {
    const Class& c = classes[i];
    std::fprintf(out, "    %016" PRIx64 "  covers %6" PRIu64
                      "  e.g. row %zu t=%.6f s: launches=%d missed=%d%s\n",
                 c.signature, c.covered, c.row, to_sec(c.time), c.rep.launches,
                 c.rep.missed_notifications,
                 c.rep.error.empty() ? "" : " (error)");
  }
  if (classes.size() > show) {
    std::fprintf(out, "    ... %zu more\n", classes.size() - show);
  }
  if (worst_latency.any) {
    std::fprintf(out, "  worst detection latency: %.6f s (row %zu, injection t=%.6f s)\n",
                 to_sec(worst_latency.latency), worst_latency.row,
                 to_sec(worst_latency.time));
  }
  std::fprintf(out, "  missed notifications: %" PRIu64
                    " scenario(s), worst %d rank(s) uninformed, %zu window(s)\n",
               missed_scenarios, max_missed, missed_windows.size());
  for (const MissedWindow& w : missed_windows) {
    std::fprintf(out, "    row %zu: t in [%.6f s, %.6f s], up to %d rank(s)\n",
                 w.row, to_sec(w.t_lo), to_sec(w.t_hi), w.max_missed);
  }
  std::fprintf(out, "  non-monotonic recovery cost: %zu interval(s)\n",
               non_monotonic.size());
  for (const NonMonotonic& n : non_monotonic) {
    std::fprintf(out, "    row %zu: injecting at %.6f s costs %.6f s MORE than at %.6f s\n",
                 n.row, to_sec(n.t_lo), to_sec(n.e2_drop), to_sec(n.t_hi));
  }
  std::fprintf(out, "  %zu signature boundar%s localized to one grid step, %zu frontier interval(s)\n",
               boundaries.size(), boundaries.size() == 1 ? "y" : "ies",
               frontier.size());
}

}  // namespace exasim::mc
