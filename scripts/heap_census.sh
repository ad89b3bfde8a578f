#!/usr/bin/env bash
# Runs a command under the heap census (scripts/heap_census.c) and prints,
# when each process of it exits, the heap blocks live at its peak, grouped by
# usable size, largest share first.
#
#   scripts/heap_census.sh COMMAND [ARGS...]
#
# Example, the table2_e1_32k workload's input through exasim_run:
#   scripts/heap_census.sh ./build/tools/exasim_run heat3d --ranks=32768 ...
#
# The preload library is compiled into a temporary directory on each call.
# HEAP_CENSUS_OUT, HEAP_CENSUS_TOP and HEAP_CENSUS_STEP pass through to it
# (see heap_census.c). The command's own exit status is returned.
set -euo pipefail

if [[ $# -eq 0 ]]; then
  echo "usage: $0 COMMAND [ARGS...]" >&2
  exit 2
fi

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
lib_dir="$(mktemp -d)"
trap 'rm -rf "$lib_dir"' EXIT
cc -std=c11 -O2 -shared -fPIC -o "$lib_dir/heap_census.so" "$here/heap_census.c" -lpthread

status=0
LD_PRELOAD="$lib_dir/heap_census.so${LD_PRELOAD:+:$LD_PRELOAD}" "$@" || status=$?
exit "$status"
