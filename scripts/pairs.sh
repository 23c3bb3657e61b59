#!/usr/bin/env bash
# The ten-pair rule (choosing-metrics §8), scripted once: measure a parent
# commit against this working tree on one benchmark workload.
#
#   scripts/pairs.sh <parent-ref> <workload> [pairs=10] [-- run.sh args]
#   scripts/pairs.sh HEAD~1 dram_batch
#   scripts/pairs.sh 3ecefde l2_solo 5 -- --seed 7
#
# The parent is exported with `git archive` into target/pairs/parent; the
# change is a copy of the working tree as it stands when the script
# starts (committed or not, ignored files left out) in
# target/pairs/change, so editing on does not disturb a measurement. Each
# side is built by its own `perf/run.sh` into its own CARGO_TARGET_DIR,
# then the two are run `pairs` times, alternating which side goes first. Only
# the last stdout line of `run.sh` is read (the result the driver reads);
# every line is kept in target/pairs/<workload>.seed<N>.{parent,change}.jsonl,
# N being the `--seed` passed to run.sh (1, its default, when none is),
# so runs at two seeds keep their own records.
#
# Per end-to-end metric of BENCHMARK.json it prints each side's median
# and quartiles, the change's wins / ties over the pairs, whether the
# change's median is inside the metric's regression bound, and whether
# the gain rule is met: the change wins at least nine tenths of all pairs
# (ties count for neither side) and the medians lie further apart than
# the parent's own interquartile distance. Exits non-zero only when a run
# fails to produce a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

if [[ $# -lt 2 ]]; then
    sed -n '2,8p' "$0" >&2
    exit 2
fi
ref="$1"
workload="$2"
shift 2
pairs=10
if [[ $# -gt 0 && "$1" != "--" ]]; then
    pairs="$1"
    shift
fi
if [[ $# -gt 0 && "$1" == "--" ]]; then shift; fi
seed=1
args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--seed" ]]; then seed="${args[i + 1]}"; fi
done
records="$workload.seed$seed"

out="$root/target/pairs"
rm -rf "$out/parent" "$out/change"
mkdir -p "$out/parent" "$out/change"
# -m: extracted files are stamped now, not with the commit's time — cargo
# compares mtimes, and an older commit unpacked over a build of a newer
# one would otherwise not be rebuilt
git archive "$ref" | tar -xm -C "$out/parent"
git ls-files -co --exclude-standard -z |
    tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -xm -C "$out/change"

run_side() {
    local side="$1"
    shift
    CARGO_TARGET_DIR="$out/build-$side" bash "$out/$side/perf/run.sh" \
        "$workload" "$@" 2>/dev/null | tail -n 1
}

echo "pairs: building both sides (a 1 s smoke run each)" >&2
for side in parent change; do
    run_side "$side" --smoke >/dev/null
    : >"$out/$records.$side.jsonl"
done

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
        echo "pairs: $workload pair $i/$pairs: $side" >&2
        run_side "$side" "$@" >>"$out/$records.$side.jsonl"
    done
done

python3 - "$root/BENCHMARK.json" "$out/$records.parent.jsonl" "$out/$records.change.jsonl" <<'PY'
import json, statistics, sys

bench, parent_path, change_path = sys.argv[1:4]
metrics = json.load(open(bench))["end_to_end"]


def load(path):
    runs = []
    for n, line in enumerate(open(path), 1):
        try:
            runs.append(json.loads(line))
        except ValueError:
            sys.exit(f"{path}:{n}: not a result line: {line[:80]!r}")
    return runs


parent, change = load(parent_path), load(change_path)
if not parent or len(parent) != len(change):
    sys.exit(f"unpaired runs: {len(parent)} parent, {len(change)} change")
n = len(parent)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


for side, runs in (("parent", parent), ("change", change)):
    bad = sum(1 for r in runs if not r.get("correct"))
    failed = sum(r.get("failed", 0) for r in runs)
    attempted = sum(r.get("attempted", 0) for r in runs)
    print(f"{side}: {n} runs, {bad} not correct, {failed} of {attempted} operations failed")

header = (
    f"{'metric':<14}{'parent q1/med/q3':>32}{'change q1/med/q3':>32}"
    f"{'wins':>6}{'ties':>6}{'ratio':>8}  bound   gain rule"
)
print(header)
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
    ties = sum(1 for a, b in zip(p, c) if a == b)
    pq1, pmed, pq3 = quartiles(p)
    cq1, cmed, cq3 = quartiles(c)
    ratio = cmed / pmed if pmed else float("nan")
    # worse by more than the bound, in the metric's own direction
    worse = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
    inside = "ok" if not pmed or worse <= m["bound"] else "WORSE"
    better = cmed < pmed if lower else cmed > pmed
    met = 10 * wins >= 9 * n and better and abs(cmed - pmed) > (pq3 - pq1)
    fmt = lambda a, b, c_: f"{a:.4g}/{b:.4g}/{c_:.4g}"
    print(
        f"{name:<14}{fmt(pq1, pmed, pq3):>32}{fmt(cq1, cmed, cq3):>32}"
        f"{wins:>6}{ties:>6}{ratio:>8.3f}  {inside:<6}  {'MET' if met else 'not met'}"
    )
print("ratio = change median / parent median; gain rule = >= 9/10 wins and")
print("medians further apart than the parent's interquartile distance")
PY
