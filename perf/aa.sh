#!/usr/bin/env bash
# A/A evidence: run every workload twice on this checkout, untraced and
# traced, and hold the pairs against the benchmark's own bounds.
#
#   perf/aa.sh [--seed N] [--seconds S]
#
# Sets A and B are the same code, seed and settings. The order is ABBA
# from workload to workload, so neither set always runs first. Untraced
# pairs must agree within each end-to-end metric's bound; traced pairs
# must agree exactly on every count the program makes. Exits non-zero
# when any pair does not.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out=target/perf/aa
build="${CARGO_TARGET_DIR:-target/perf-build}"
mkdir -p "$out"

workloads=(l2_solo dram_batch paged_prefix dram_spec)
status=0
report=""
for i in "${!workloads[@]}"; do
    w="${workloads[$i]}"
    if (( i % 2 == 0 )); then order=(A B); else order=(B A); fi
    for set in "${order[@]}"; do
        for trace in 0 1; do
            echo "aa: $w set $set trace $trace" >&2
            perf/run.sh --workload "$w" --trace "$trace" "$@" >/dev/null
            suffix=""; (( trace )) && suffix=".traced"
            cp "target/perf/$w$suffix.json" "$out/$w.$set$suffix.json"
        done
    done
    for suffix in "" ".traced"; do
        if ! lines="$("$build/release/matgpt-perf" compare \
                "$out/$w.A$suffix.json" "$out/$w.B$suffix.json")"; then
            status=1
        fi
        report+="$lines"$'\n'
    done
done
printf '%s' "$report"
if (( status )); then
    echo "aa: at least one pair is outside its bound or a count differs" >&2
fi
exit "$status"
