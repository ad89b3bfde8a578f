#!/bin/sh
# Tier-1 verification: full build + test suite (plus an examples smoke, a
# malformed-input smoke of the tools' own options, and a check that every
# EXASIM_* variable the scripts and CI set is documented in
# `exasim_run --help`), then the thread-safety gate —
# a ThreadSanitizer build of the experiment executor, fiber, PDES engine, MPI
# point-to-point, and resilience tests (the suites that exercise the parallel
# campaign machinery, the sharded engine, and the failure-notification bus
# end to end; test_fiber's relaunch case runs a 64-rank ResilientRunner for
# 3 launches on 4 engine workers, so LP groups stolen by other workers take
# their shared fiber stack and the saved stack images of their ranks along,
# and test_vmpi_p2p's stack-receive cases deliver into saved images on 4
# workers; test_exp runs two simulations side by side and checks that each
# run's counters are its own). The TSan suites run twice: as-is, and with
# EXASIM_SIM_WORKERS=4 so every engine run inside them is forced onto
# multiple worker threads (claim tokens and work stealing included). A
# third, scoped repeat runs test_storage with
# EXASIM_CKPT_MODE=staged on 4 workers — the tiered writer's occupancy
# windows and drain bookkeeping under the race detector. In the ASan build
# every pool block comes from the heap (util::kPoolSlabs), so ASan sees
# redzones, quarantine and leaks for each. Besides the pool, fiber (copying
# stacks), engine and resilience suites, and test_vmpi_p2p's deliveries
# into saved stack images, it covers where message blocks change owner (adopted
# unexpected arrivals, rendezvous data built at post time): real-byte
# collectives (test_vmpi_coll), rendezvous edge cases (test_vmpi_edge) and
# failure interleavings (test_properties), plus the checkpoint store, whose
# rank-indexed file slots are reset in place and whose restore plan is
# shared between ranks (test_ckpt, test_storage, test_incremental), and the
# per-rank state that is allocated only in some runs: traced sends that keep
# a request slot (test_trace), the communicator list created by the first
# dup/split/shrink (test_ulfm) and the failed-process list created by the
# first failure notice (test_failures), plus test_machine and test_exp, whose
# pinned results thereby also hold with no block pooled, and test_netmodel,
# whose network levels and contention route scratch are indexed by rank,
# node and link id. The mc leg runs
# the model-checker suite (test_mc — a tiny scenario lattice end to end)
# under TSan, as-is and with EXASIM_JOBS=4 so the campaign executor fans
# scenario evaluations across worker threads under the race detector.
#
# Usage: scripts/tier1.sh [release|tsan|asan|mc|all] [jobs]
#   scripts/tier1.sh              # all legs, jobs = nproc
#   scripts/tier1.sh tsan         # one leg (what each CI job runs)
#   scripts/tier1.sh all 8        # all legs with 8 build jobs
set -eu

cd "$(dirname "$0")/.."

LEG="${1:-all}"
JOBS="${2:-$(nproc 2>/dev/null || echo 2)}"

run_release() {
  echo "== tier 1: build + ctest =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  (cd build && ctest --output-on-failure -j "$JOBS")

  echo "== tier 1: examples smoke =="
  for ex in quickstart failure_modes checkpoint_restart ulfm_recovery \
            topology_comparison soft_errors; do
    if [ -x "build/examples/$ex" ]; then
      echo "-- examples/$ex"
      "./build/examples/$ex" >/dev/null
    fi
  done

  echo "== tier 1: malformed tool options exit 2 with usage text =="
  # The tools' own options (--app-params, --mc-*), which no unit test
  # reaches, plus a CLI row whose bad value once crashed the parser. Each
  # must stop before any run, naming the flag or key.
  expect_usage() {
    name=$1
    shift
    if out=$("$@" 2>&1); then status=0; else status=$?; fi
    if [ "$status" -ne 2 ] || ! printf '%s\n' "$out" | grep -q '^usage:' ||
       ! printf '%s\n' "$out" | head -n 1 | grep -q -- "$name"; then
      echo "tier1.sh: '$*' exited $status; want 2, usage text and '$name' named:" >&2
      printf '%s\n' "$out" | head -n 3 >&2
      exit 1
    fi
    echo "  $name: $(printf '%s\n' "$out" | head -n 1)"
  }
  expect_usage --ranks-per-node ./build/tools/exasim_run ring --ranks=2 --ranks-per-node=0
  expect_usage lap ./build/tools/exasim_run ring --ranks=2 --app-params=lap=1
  expect_usage px ./build/tools/exasim_run heat3d --ranks=8 --app-params=px=3
  expect_usage nx ./build/tools/exasim_run heat3d --ranks=8 --app-params=nx=9
  for bad in --mc-grid=9x --mc-budget=-1 --mc-victims=0,21x; do
    expect_usage "${bad%%=*}" ./build/tools/exasim_mc ring --ranks=64 "$bad"
  done

  echo "== tier 1: every EXASIM_* variable in scripts and CI is in exasim_run --help =="
  # Catches a leg that sets a variable nothing reads. -DEXASIM_* are CMake
  # options, not environment variables.
  help=$(./build/tools/exasim_run --help)
  for var in $(grep -ohE '(-D)?EXASIM_[A-Z_]+' scripts/*.sh .github/workflows/ci.yml |
               grep -v '^-D' | sort -u); do
    if ! printf '%s\n' "$help" | grep -qw "$var"; then
      echo "tier1.sh: $var is set in scripts/ or ci.yml but missing from exasim_run --help" >&2
      exit 1
    fi
  done
}

run_tsan() {
  echo "== tier 1: ThreadSanitizer (test_exp + test_fiber + test_pdes + test_vmpi_p2p + test_resilience + test_storage) =="
  cmake -B build-tsan -S . -DEXASIM_TSAN=ON >/dev/null
  cmake --build build-tsan -j "$JOBS" --target test_exp test_fiber test_pdes test_vmpi_p2p test_resilience test_storage
  (cd build-tsan && ctest --output-on-failure -R 'test_exp|test_fiber|test_pdes|test_vmpi_p2p|test_resilience|test_storage')

  echo "== tier 1: ThreadSanitizer, forced multi-worker engine =="
  (cd build-tsan && EXASIM_SIM_WORKERS=4 ctest --output-on-failure -R 'test_fiber|test_pdes|test_vmpi_p2p|test_resilience')

  echo "== tier 1: ThreadSanitizer, staged checkpointing on the sharded engine =="
  # Scoped to test_storage: the staged env default would change the simulated
  # times that other suites pin exactly.
  (cd build-tsan && EXASIM_SIM_WORKERS=4 EXASIM_CKPT_MODE=staged \
    ctest --output-on-failure -R 'test_storage')
}

run_asan() {
  echo "== tier 1: AddressSanitizer (pool/fiber/engine/vmpi/resilience/checkpoint/trace/ulfm/failure/machine/exp/netmodel suites) =="
  # This build takes every pool block from the heap, so a stale pointer into
  # a message, payload or saved stack image trips ASan like any other heap
  # use-after-free, and the pinned results of test_machine and test_exp
  # show the simulation does not depend on the allocator. Copying fiber stacks
  # (test_fiber, test_vmpi_p2p's stack-receive cases) run with the fiber
  # annotations on the shared stack and its shadow unpoisoned at each
  # change of occupant. The vmpi
  # suites check message-block ownership: a block adopted by the unexpected
  # queue or held by a rendezvous send is freed exactly once. The checkpoint
  # suites check the store's file slots (reset in place by begin(), dropped
  # by remove_file/apply_failures) and the restore plan every rank of a
  # relaunch reads. The trace, ULFM and failure suites cover the per-rank
  # state created on first use: slots kept by traced sends, the extra
  # communicator list and the failed-process list. The network suite indexes
  # the level table by rank pair and the link tables by route.
  suites='test_util test_fiber test_pdes test_vmpi_p2p test_vmpi_coll test_vmpi_edge test_properties test_resilience test_ckpt test_storage test_incremental test_trace test_ulfm test_failures test_machine test_exp test_netmodel'
  pattern=$(printf '%s' "$suites" | tr ' ' '|')
  cmake -B build-asan -S . -DEXASIM_ASAN=ON >/dev/null
  # shellcheck disable=SC2086  # $suites is a word list by design.
  cmake --build build-asan -j "$JOBS" --target $suites
  (cd build-asan && ctest --output-on-failure -R "$pattern")
}

run_mc() {
  echo "== tier 1: ThreadSanitizer, model checker (tiny lattice, serial + EXASIM_JOBS=4) =="
  cmake -B build-tsan -S . -DEXASIM_TSAN=ON >/dev/null
  cmake --build build-tsan -j "$JOBS" --target test_mc
  (cd build-tsan && ctest --output-on-failure -R 'test_mc')
  (cd build-tsan && EXASIM_JOBS=4 ctest --output-on-failure -R 'test_mc')
}

case "$LEG" in
  release) run_release ;;
  tsan)    run_tsan ;;
  asan)    run_asan ;;
  mc)      run_mc ;;
  all)     run_release; run_tsan; run_asan; run_mc ;;
  *) echo "tier1.sh: unknown leg '$LEG' (want release|tsan|asan|mc|all)" >&2; exit 2 ;;
esac

echo "tier 1 OK ($LEG)"
