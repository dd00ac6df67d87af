#!/usr/bin/env bash
# Runs every experiment bench (E1..E15) and emits ONE JSON line per bench
# binary on stdout, ready to append to a BENCH_*.json trajectory file:
#
#   {"bench":"e7_distance_query","context":{...},"benchmarks":[...]}
#
# Each bench fixes or sweeps its own configuration (threads, shards,
# scheduler, optimizer passes, SAT and serving settings) and carries it
# in its series names and counters.
#
# Usage:
#   bench/run_all.sh [--smoke] [BUILD_DIR] [EXTRA_BENCHMARK_ARGS...]
#
# --smoke runs every series for a single short repetition
# (--benchmark_min_time=0.01): a cheap CI-sized sweep whose only job is
# to prove each bench binary still builds, runs, and passes its built-in
# serial cross-checks — including E11's check that --scheduler=auto (the
# library default) flips its skewed stage to stealing. Timing numbers
# from a smoke run are NOT trajectory material.
#
# Examples:
#   bench/run_all.sh                           # default build dir ./build
#   bench/run_all.sh --smoke build             # CI smoke sweep
#   bench/run_all.sh build --benchmark_min_time=0.05   # quicker sweep
#   bench/run_all.sh build --benchmark_filter=JoinCore # one series
#
# (benchmark 1.7 parses --benchmark_min_time as a plain double; newer
# releases also accept a "0.05s" suffix.)
#
# Requires jq (used only to compact the benchmark JSON onto one line).

set -euo pipefail

smoke=0
if [ "${1:-}" = "--smoke" ]; then
  smoke=1
  shift
fi

build_dir="${1:-build}"
if [ $# -gt 0 ]; then shift; fi

if [ ! -d "$build_dir" ]; then
  echo "error: build dir '$build_dir' not found (run cmake first)" >&2
  exit 1
fi

smoke_args=()
if [ "$smoke" -eq 1 ]; then
  smoke_args=(--benchmark_min_time=0.01)
fi

found=0
status=0
for bin in "$build_dir"/e[0-9]_* "$build_dir"/e[0-9][0-9]_*; do
  [ -x "$bin" ] || continue
  found=1
  name="$(basename "$bin")"
  if ! out="$("$bin" --benchmark_format=json ${smoke_args[@]+"${smoke_args[@]}"} "$@" 2>/dev/null)"; then
    echo "error: $name failed (bad flags or crashed)" >&2
    status=1
    continue
  fi
  if [ -z "$out" ]; then
    # A filter that matches nothing leaves the binary silent; keep one
    # line per bench anyway so trajectories stay aligned.
    printf '{"bench":"%s","context":null,"benchmarks":[]}\n' "$name"
    continue
  fi
  jq -c --arg bench "$name" \
    '{bench: $bench, context: .context, benchmarks: .benchmarks}' <<<"$out"
done

if [ "$found" -eq 0 ]; then
  echo "error: no bench binaries in '$build_dir' (build the project first)" >&2
  exit 1
fi
exit "$status"
