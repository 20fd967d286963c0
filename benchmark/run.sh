#!/usr/bin/env bash
# Build the benchmark and run it. One command, two uses:
#
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one run of one workload, as the driver calls it: metric lines, then
#       one JSON object as the last line of standard output.
#
#   benchmark/run.sh [--seed S] [--seconds N] [--no-trace]
#       every workload (the five of BENCHMARK.json and the ungated
#       serve_mixed), each in its own process, with the per-layer pass (and
#       benchmark/out/trace_<workload>.json) unless --no-trace.
#
# Works from a checkout that is not a git repository; builds into
# $CARGO_TARGET_DIR (default .bench_build at the checkout's root) and reads
# and writes nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# Offline: every dependency is a path into ../crates and ../shims.
cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/dpbench"

workload="" seed=1 seconds=20 trace=1
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --no-trace) trace=0; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [ -n "$workload" ]; then
  exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
fi

status=0
for w in $("$bin" --list); do
  echo "== $w (seed $seed, ${seconds}s, trace $trace)"
  "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=$?
done
exit "$status"
