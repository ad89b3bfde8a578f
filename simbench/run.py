#!/usr/bin/env python3
"""Simulator benchmark: one workload, one seed, one JSON result.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simbench binary from this checkout's sources into .bench_build/,
replays scripts/mc_check.sh's lattice with modeled compute against
scripts/mc_report.golden.json, then runs the workload in a fresh process per
repetition until S seconds have been measured (at least one repetition). Each
repetition's simulated outcome is checked against simbench/digests.json.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones (medians over
repetitions); with --trace 1 repetitions alternate traced and untraced and
the metrics are the per-layer ones (on table2_e1_32k after one traced
repetition on the sharded engine). See simbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "simbench"
GOLDEN = ROOT / "scripts" / "mc_report.golden.json"
DIGESTS = json.loads((HERE / "digests.json").read_text())

# Workload and metric names and units come from the manifest, so the two
# cannot drift apart. trace.overhead_s is derived here; every other metric
# comes from the binary.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCH["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
REP_TIMEOUT_S = 120

# The sharded engine's wall time swings too much with host scheduling to be
# gated (README.md, "The sharded engine"), so it is no workload of its own.
# Every traced table2_e1_32k run adds one repetition of the same input on 2
# engine threads: it must reproduce the sequential digest, and it supplies
# the sharded-engine layer metrics and pdes.sharded2_run_s.
SHARDED = "sharded2_e1_32k"
SHARDED_LAYERS = ("pdes.windows", "pdes.events_per_window", "pdes.barrier_idle_share",
                  "pdes.steals", "pdes.widenings")

# Table II, C=125 row of the paper: E1 in simulated seconds (information only;
# EXPERIMENTS.md documents the E1-versus-C gap).
PAPER_TABLE2_E1_C125_S = 6601.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures on first use, then brings the binary up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "simbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def clean_env():
    """The environment every binary process sees: no EXASIM_* overrides."""
    return {k: v for k, v in os.environ.items() if not k.startswith("EXASIM_")}


def run_binary(*args):
    """Runs one binary process; returns its JSON record (None if it failed)."""
    try:
        proc = subprocess.run([str(BINARY), *args], env=clean_env(),
                              capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"simbench: {args} timed out")
        return None
    if proc.returncode != 0:
        log(f"simbench: {args} exited {proc.returncode}: {proc.stderr.strip()}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_probe():
    """Fixed pure-Python CPU loop; its time tells a slow host from a slow
    build. Recorded beside each repetition, never gated or used to rescale."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def strip_host_fields(digest):
    final = dict(digest["final_result"])
    final.pop("wall_seconds", None)
    final.pop("events_per_sec", None)
    return {**digest, "final_result": final}


def check(workload, rec, report_path):
    """Returns a list of problems with one repetition's simulated outcome."""
    if rec is None:
        return ["simbench binary failed"]
    digest = rec["digest"]
    if workload == "mc_tiered_64":
        problems = []
        pinned = DIGESTS["mc_tiered_64"]
        sha = hashlib.sha256(report_path.read_bytes()).hexdigest()
        if sha != pinned["report_sha256"]:
            problems.append(f"mc report sha256 {sha} != pinned {pinned['report_sha256']}")
        for key in ("raw_scenarios", "explored", "launches"):
            if digest[key] != pinned[key]:
                problems.append(f"{key} {digest[key]} != pinned {pinned[key]}")
        if digest["eval_errors"] != 0:
            problems.append(f"{digest['eval_errors']} scenario evaluations errored")
        return problems

    # table2_e1_32k and sharded2_e1_32k run the same input; the sharded
    # engine must reproduce the sequential digest exactly.
    digest = strip_host_fields(digest)
    if digest != DIGESTS["e1_32k"]:
        return [f"digest {digest} != pinned {DIGESTS['e1_32k']}"]
    return []


def self_test():
    """scripts/mc_check.sh's lattice with modeled compute must reproduce the
    real-compute golden byte for byte."""
    report = BUILD / "mc_golden_report.json"
    rec = run_binary("mc_golden", f"--report={report}")
    ok = rec is not None and report.read_bytes() == GOLDEN.read_bytes()
    print(f"self-test mc_golden: {'byte-identical to' if ok else 'DIFFERS from'} "
          f"{GOLDEN.relative_to(ROOT)}" + (f" ({rec['wall_s']:.2f} s)" if rec else ""))
    return ok


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    if not GOLDEN.exists():
        log(f"simbench: {GOLDEN} not found; run from a full checkout")
        return 1
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"simbench: build failed: {e}")
        return 1

    attempted, failed = 1, 0
    if not self_test():
        failed += 1

    # Every workload's input is fixed, so the seed selects nothing; the
    # pinned digests hold for any seed.
    args = [opts.workload]
    report = BUILD / f"{opts.workload}_report.json"
    if opts.workload == "mc_tiered_64":
        args.append(f"--report={report}")
    print(f"workload {opts.workload} seed {opts.seed}: binary args {args[1:]}")

    def repetition(workload, workload_args, tracing):
        """Runs and checks one repetition; returns its record, or None if it failed."""
        nonlocal attempted, failed
        probe_s = host_probe()
        rec = run_binary(workload, *workload_args, *(["--trace"] if tracing else []))
        problems = check(workload, rec, report)
        attempted += 1
        if problems:
            failed += 1
            print(f"rep {attempted - 1}: {workload} FAILED: {'; '.join(problems)}")
            return None
        print(f"rep {attempted - 1}: {'traced ' if tracing else ''}{workload} "
              f"setup_s={rec['setup_s']:.4f} run_s={rec['run_s']:.4f} "
              f"peak_rss_mib={rec['peak_rss_mib']:.1f} host_probe_s={probe_s:.4f}")
        return rec

    untraced, traced = [], []
    sharded = None
    start = time.monotonic()
    if opts.trace == 1 and opts.workload == "table2_e1_32k":
        sharded = repetition(SHARDED, [], True)
    reps = 0
    while True:
        # --trace 1 alternates traced and untraced repetitions, traced first.
        tracing = opts.trace == 1 and len(traced) <= len(untraced)
        t0 = time.monotonic()
        rec = repetition(opts.workload, args[1:], tracing)
        rep_s = time.monotonic() - t0
        reps += 1
        if rec is not None:
            if reps == 1:
                print("config:", json.dumps(rec["config"]))
                if opts.workload == "table2_e1_32k":
                    e1 = rec["digest"]["e2_ns"] / 1e9
                    print(f"simulated E1 {e1:.1f} s; paper Table II (C=125) {PAPER_TABLE2_E1_C125_S:.0f} s")
            (traced if tracing else untraced).append(rec)
        # Stop before a repetition that would overrun the measuring time.
        if reps >= 1 + opts.trace and time.monotonic() - start + rep_s > opts.seconds:
            break

    if opts.trace == 0:
        metrics = {name: {"value": median([r[name] for r in untraced]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        derived = {
            "trace.overhead_s": median([r["run_s"] for r in traced])
                                - median([r["run_s"] for r in untraced]),
            "pdes.sharded2_run_s": sharded["run_s"] if sharded else 0.0,
            **{name: sharded["layers"][name] if sharded else 0.0 for name in SHARDED_LAYERS},
        }
        metrics = {name: {"value": derived[name] if name in derived
                          else median([r["layers"][name] for r in traced]), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
