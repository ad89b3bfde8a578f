#!/bin/sh
# Hot-path perf baseline harness (DESIGN.md §9): measures the simulator's
# event throughput, allocator traffic, and peak RSS with the memory pools on
# (default) and off (--no-pool), plus the engine_micro event-churn and
# payload-allocation microbenchmarks, and writes the result to
# BENCH_baseline.json at the repo root.
#
# The macro workload is a 1024-rank heat3d failure/restart experiment (one
# injected failure, so fiber-stack recycling across launches is exercised) —
# big enough to reach steady state, small enough to finish in seconds on one
# core. All numbers are host-dependent; the committed BENCH_baseline.json
# records the reference host's figures so perf regressions show up in review
# diffs, not as absolute truth.
#
# Usage: scripts/bench_baseline.sh [output.json]
set -eu

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_baseline.json}"

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc 2>/dev/null || echo 2)" --target exasim_run engine_micro >/dev/null

WORKLOAD_ARGS="heat3d --ranks=1024 --topology=torus:16x8x8 --link-latency=1us \
--bandwidth=32e9 --overhead=500ns --eager-threshold=262144 \
--failure-timeout=100ms --slowdown=1000 --ns-per-unit=1281 \
--stack-bytes=65536 --app-params=nx=128,px=16,py=8,pz=8,iters=400,interval=50 \
--mttf=800s --seed=1"

echo "== engine_micro: event churn + payload alloc (pooled vs heap) =="
./build/bench/engine_micro \
  --benchmark_filter='BM_EventChurn|BM_PayloadAllocFree' \
  --benchmark_min_time=0.5 --benchmark_format=json >/tmp/bench_micro.json

echo "== macro workload: pooled =="
echo "== macro workload: --no-pool =="
WORKLOAD_ARGS="$WORKLOAD_ARGS" OUT="$OUT" python3 - <<'EOF'
import json, os, re, resource, subprocess, sys

workload = ["./build/tools/exasim_run"] + os.environ["WORKLOAD_ARGS"].split()

def run(extra):
    """Runs the workload, returns (perf-dict, peak_rss_kib)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    proc = subprocess.run(workload + extra, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"workload failed: {extra}")
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # ru_maxrss(CHILDREN) is the max over all children so far; run the
    # pooled (lower-RSS) config first and this still reports per-run peaks
    # monotonically — good enough for a regression baseline.
    err = proc.stderr
    m = re.search(r"perf\s*: (\d+) events in ([\d.]+) s wall = (\d+) events/s "
                  r"\(([\d.]+) ns/event\)", err)
    p = re.search(r"pool\s*: (\d+) allocs \(([\d.]+)% recycled\), (\d+) heap "
                  r"\(([\d.]+)/event\), (\d+) slab KiB", err)
    s = re.search(r"stacks\s*: (\d+) mapped, (\d+) reused, high-water (\d+)", err)
    # The queue line is always printed on this row (every run pops from a
    # sorted run); the wakeups line is omitted when zero.
    q = re.search(r"queue\s*: \d+ pops, (\d+) run pops \([\d.]+%\), (\d+) bulk merges", err)
    if not (m and p and s and q):
        sys.stderr.write(err)
        raise SystemExit("could not parse perf output")
    w = re.search(r"wakeups\s*: (\d+) resumes, (\d+) suppressed", err)
    return {
        "events": int(m.group(1)),
        "wall_seconds": float(m.group(2)),
        "events_per_sec": int(m.group(3)),
        "ns_per_event": float(m.group(4)),
        "pool_allocs": int(p.group(1)),
        "recycled_pct": float(p.group(2)),
        "heap_allocs": int(p.group(3)),
        "heap_allocs_per_event": float(p.group(4)),
        "slab_kib": int(p.group(5)),
        "stacks_mapped": int(s.group(1)),
        "stacks_reused": int(s.group(2)),
        "stacks_high_water": int(s.group(3)),
        "fiber_resumes": int(w.group(1)) if w else 0,
        "wakeups_suppressed": int(w.group(2)) if w else 0,
        "queue_near_hits": int(q.group(1)),
        "bulk_merges": int(q.group(2)),
        "peak_rss_kib": max(rss, before),
    }

pooled = run([])
no_pool = run(["--no-pool"])

micro = json.load(open("/tmp/bench_micro.json"))
rates = {}
for b in micro["benchmarks"]:
    if b.get("run_type", "iteration") != "iteration":
        continue
    rates[b["name"]] = b.get("items_per_second")

churn_heap = rates.get("BM_EventChurn/pooled:0")
churn_pool = rates.get("BM_EventChurn/pooled:1")
alloc_heap = rates.get("BM_PayloadAllocFree/pooled:0")
alloc_pool = rates.get("BM_PayloadAllocFree/pooled:1")

def allocs_per_event(r):
    return r["pool_allocs"] / r["events"] if r["events"] else 0.0

# Carry forward hand-merged sections and the previous throughput so the
# committed diff shows the perf trajectory, not just the new absolute number.
prior = {}
try:
    prior = json.load(open(os.environ["OUT"]))
except (OSError, ValueError):
    pass

out = {
    "generated_by": "scripts/bench_baseline.sh",
    "workload": " ".join(os.environ["WORKLOAD_ARGS"].split()),
    "macro": {"pooled": pooled, "no_pool": no_pool},
    "engine_micro": {
        "event_churn_events_per_sec": {"heap": churn_heap, "pooled": churn_pool},
        "payload_alloc_free_per_sec": {"heap": alloc_heap, "pooled": alloc_pool},
    },
    "summary": {
        "event_churn_speedup": (churn_pool / churn_heap) if churn_heap else None,
        "macro_events_per_sec_gain":
            pooled["events_per_sec"] / no_pool["events_per_sec"],
        "heap_alloc_reduction_factor":
            (no_pool["heap_allocs"] / pooled["heap_allocs"])
            if pooled["heap_allocs"] else float(no_pool["heap_allocs"]),
        "allocs_per_event": allocs_per_event(pooled),
        "wakeup_suppression_pct":
            100.0 * pooled["wakeups_suppressed"]
            / (pooled["fiber_resumes"] + pooled["wakeups_suppressed"])
            if pooled["fiber_resumes"] + pooled["wakeups_suppressed"] else 0.0,
        "queue_near_hit_pct":
            100.0 * pooled["queue_near_hits"] / pooled["events"]
            if pooled["events"] else 0.0,
    },
}
if "scheduler" in prior:  # Hand-merged section, not emitted by this harness.
    out["scheduler"] = prior["scheduler"]
prev_eps = prior.get("macro", {}).get("pooled", {}).get("events_per_sec")
if prev_eps:
    out["summary"]["previous_events_per_sec"] = prev_eps
json.dump(out, open(os.environ["OUT"], "w"), indent=2)
open(os.environ["OUT"], "a").write("\n")
print(f"wrote {os.environ['OUT']}")
print(f"  event-churn speedup : {out['summary']['event_churn_speedup']:.3f}x")
print(f"  macro events/s gain : {out['summary']['macro_events_per_sec_gain']:.3f}x")
hr = out["summary"]["heap_alloc_reduction_factor"]
print(f"  heap-alloc reduction: {hr:.1f}x "
      f"({no_pool['heap_allocs']} -> {pooled['heap_allocs']})")
print(f"  wakeup suppression  : {out['summary']['wakeup_suppression_pct']:.1f}%")
if prev_eps:
    ratio = pooled["events_per_sec"] / prev_eps
    print(f"  vs prior baseline   : {ratio:.2f}x events/s ({prev_eps} -> "
          f"{pooled['events_per_sec']})")
EOF
