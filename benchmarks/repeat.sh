#!/usr/bin/env bash
# Runs the full set of workloads twice on one build and compares the two
# sets: for every end-to-end metric x workload, the relative difference of
# set B against set A next to the metric's bound; for the counts that must
# repeat exactly on fault-free workloads, whether they did. Exits non-zero
# when a bound is exceeded or an exact count differs.
#
#   benchmarks/repeat.sh [--seed N] [--seconds S]
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
seed=1 seconds=10
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        *) echo "usage: $0 [--seed N] [--seconds S]" >&2; exit 2 ;;
    esac
done

mkdir -p "$here/out"
incorrect=0
for set in A B; do
    # run.sh exits non-zero when a workload reports incorrect outputs.
    "$here/run.sh" --seed "$seed" --seconds "$seconds" >"$here/out/repeat.$set.log" || incorrect=1
    grep '^METRIC ' "$here/out/repeat.$set.log" >"$here/out/repeat.$set.txt"
done
"${CARGO_TARGET_DIR:-$here/target}/release/eag-wallbench" --list-metrics >"$here/out/repeat.metrics.txt"

awk -v incorrect="$incorrect" '
    BEGIN {
        exact["world.frames_per_op"]; exact["world.wire_bytes_per_op"]; exact["world.inter_bytes_per_op"]
        exact["world.enc_calls_per_op"]; exact["world.enc_bytes_per_op"]
        exact["world.dec_calls_per_op"]; exact["world.dec_bytes_per_op"]
        exact["core.predict_mismatch_count"]
        faulty["ag_armed"]; faulty["crash_recover"]
        bad = incorrect
        if (incorrect) print "a workload reported incorrect outputs; see benchmarks/out/repeat.*.log"
    }
    FILENAME ~ /metrics/ { split($0, f, "\t"); better[f[2]] = f[4]; bound[f[2]] = f[5]; next }
    FILENAME ~ /repeat\.A/ { a[$2 " " $3] = $4; next }
    {
        key = $2 " " $3; name = $3; w = $2
        if (!(key in a)) { printf "%-15s %-34s only in set B\n", w, name; bad = 1; next }
        seen[key] = 1
        va = a[key]; vb = $4
        if (bound[name] != "-") {
            rel = (va == 0) ? 0 : (vb - va) / va
            worse = (better[name] == "lower") ? rel : -rel
            flag = (worse > bound[name] || -worse > bound[name]) ? "EXCEEDED" : "ok"
            if (flag != "ok") bad = 1
            printf "%-15s %-34s A %14.4f  B %14.4f  diff %+7.2f%%  bound %5.1f%%  %s\n", w, name, va, vb, rel * 100, bound[name] * 100, flag
        } else if ((name in exact) && !(w in faulty)) {
            flag = (va == vb) ? "identical" : "DIFFERS"
            if (flag != "identical") bad = 1
            printf "%-15s %-34s A %14.4f  B %14.4f  exact count  %s\n", w, name, va, vb, flag
        }
    }
    END {
        for (key in a) if (!(key in seen)) { printf "%s only in set A\n", key; bad = 1 }
        exit bad
    }
' "$here/out/repeat.metrics.txt" "$here/out/repeat.A.txt" "$here/out/repeat.B.txt"
