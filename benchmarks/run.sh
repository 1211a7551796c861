#!/usr/bin/env bash
# The one command: builds the benchmark from source (release, offline) and
# runs workloads, each in its own process.
#
#   benchmarks/run.sh                          all six workloads, end-to-end then traced
#   benchmarks/run.sh --workload ag_small      one workload, end-to-end then traced
#   benchmarks/run.sh --workload W --seed N --seconds S --trace 0|1
#                                              one run; the result object is the last line
#
# Every run prints a header, every metric by name with its unit, and checks
# its outputs. The build goes to $CARGO_TARGET_DIR if set, else to
# benchmarks/target; traces go to benchmarks/out/.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
workload="" seed=1 seconds=10 trace=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --trace) trace=$2; shift 2 ;;
        *) echo "usage: $0 [--workload W] [--seed N] [--seconds S] [--trace 0|1]" >&2; exit 2 ;;
    esac
done

# A relative CARGO_TARGET_DIR is relative to the caller's directory, for
# cargo and for this script alike, so neither changes directory.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/eag-wallbench"

EAG_BENCH_GIT=$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)
EAG_BENCH_RUSTC=$(rustc --version 2>/dev/null || echo unknown)
export EAG_BENCH_GIT EAG_BENCH_RUSTC

run_one() { # workload trace
    "$bin" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" --out-dir "$here/out"
}

if [ -n "$workload" ] && [ -n "$trace" ]; then
    run_one "$workload" "$trace"
    exit
fi

mkdir -p "$here/out"
status=0
for w in ${workload:-$("$bin" --list-workloads | cut -f1)}; do
    for t in ${trace:-0 1}; do
        run_one "$w" "$t" | tee "$here/out/.last" || status=1
        tail -n 1 "$here/out/.last" | grep -q '"correct": true' || status=1
        echo
    done
done
rm -f "$here/out/.last"
exit $status
