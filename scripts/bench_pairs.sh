#!/usr/bin/env bash
# Alternating parent/change pairs of one zooid_benchmark workload.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> [pairs] [out.json]
#
# Builds the benchmark (BENCHMARK.json's `command`) twice, each in a
# snapshot of its own under a temporary directory with its own target
# directory: once from `<parent-rev>` (a `git archive` of that commit) and
# once from the working tree (tracked and untracked files that git does not
# ignore). Nothing is written inside the repository.
#
# Then runs `pairs` pairs (default 10) of
#   --workload W --seed i --seconds 10 --trace 0
# for seeds 1..pairs, each run a fresh process: the parent first on odd
# seeds, the change first on even ones, so a drift of the host over the
# minutes of a session weighs on both sides alike.
#
# Prints, per side, the median and the quartiles of the four end-to-end
# metrics, the change's median over the parent's, and in how many pairs
# the change moved each way (better / worse, in the metric's own direction
# from BENCHMARK.json). A run that exits non-zero is reported and left out.
#
# With `out.json`, also merges the workload's pairs into that file, keyed
# by workload (other workloads already in it are kept): the parent's
# commit, then per end-to-end metric its direction, the parent and change
# samples by seed, each side's quartiles [q1, median, q3] and the number of
# pairs the change moved each way.
# Temporary files go under $TMPDIR (default /tmp) and are removed at exit.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: $0 <parent-rev> <workload> [pairs] [out.json]" >&2
    exit 2
fi
parent_rev="$1"
workload="$2"
pairs="${3:-10}"
out_json=""
if [[ $# -eq 4 ]]; then
    out_json="$(realpath -m "$4")"
fi

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"
git rev-parse --verify --quiet "$parent_rev^{commit}" >/dev/null || {
    echo "unknown revision: $parent_rev" >&2
    exit 2
}
mapfile -t command < <(jq -r '.command[]' BENCHMARK.json)

work="$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")"
trap 'rm -rf "$work"' EXIT

echo "== snapshots under $work"
mkdir -p "$work/parent/src" "$work/change/src"
git archive "$parent_rev" | tar -x -C "$work/parent/src"
git ls-files -z --cached --others --exclude-standard |
    tar --null -cf - -T - | tar -x -C "$work/change/src"

# Runs BENCHMARK.json's command from one side's snapshot, into its own
# target directory.
bench() {
    local side="$1"
    shift
    (cd "$work/$side/src" && CARGO_TARGET_DIR="$work/$side/target" "${command[@]}" "$@")
}

for side in parent change; do
    echo "== building the $side"
    bench "$side" --validate BENCHMARK.json >/dev/null
done

# One run: the last line of its output (the result object) goes to
# `<side>.jsonl`, one line per seed.
run() {
    local side="$1" seed="$2" line
    if line="$(bench "$side" --workload "$workload" --seed "$seed" --seconds 10 --trace 0 | tail -n 1)"; then
        printf '%s\t%s\n' "$seed" "$line" >>"$work/$side.jsonl"
    else
        echo "   $side seed $seed exited non-zero; left out" >&2
    fi
}

for seed in $(seq 1 "$pairs"); do
    if ((seed % 2 == 1)); then order=(parent change); else order=(change parent); fi
    echo "== pair $seed of $pairs (${order[0]} first)"
    for side in "${order[@]}"; do
        run "$side" "$seed"
    done
done

parent_commit="$(git rev-parse "$parent_rev^{commit}")"
python3 - "$work" BENCHMARK.json "$workload" "$parent_commit" "$out_json" <<'EOF'
import json, os, sys

work, spec_path, workload, parent_commit, out_json = sys.argv[1:6]
spec = json.load(open(spec_path))

def load(side):
    runs = {}
    try:
        for line in open(f"{work}/{side}.jsonl"):
            seed, result = line.rstrip("\n").split("\t", 1)
            runs[int(seed)] = json.loads(result)["metrics"]
    except FileNotFoundError:
        pass
    return runs

def value(metric):
    return metric["value"] if isinstance(metric, dict) else metric

def quartiles(xs):
    xs = sorted(xs)
    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return at(0.25), at(0.5), at(0.75)

parent, change = load("parent"), load("change")
seeds = sorted(set(parent) & set(change))
print(f"\n{workload}: {len(seeds)} complete pairs "
      f"(parent runs {len(parent)}, change runs {len(change)})")
if not seeds:
    sys.exit(1)
record = {"parent_commit": parent_commit, "seeds": seeds,
          "args": "--seconds 10 --trace 0", "metrics": {}}
header = f"{'metric':<15} {'side':<7} {'q1':>12} {'median':>12} {'q3':>12}"
print(header)
print("-" * len(header))
for metric in spec["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    sides = {}
    entry = record["metrics"][name] = {"better": metric["better"]}
    for side, runs in (("parent", parent), ("change", change)):
        xs = [value(runs[s][name]) for s in seeds]
        sides[side] = quartiles(xs)
        entry[side] = {str(s): x for s, x in zip(seeds, xs)}
        entry[f"{side}_quartiles"] = list(sides[side])
        q1, med, q3 = sides[side]
        print(f"{name:<15} {side:<7} {q1:>12.4g} {med:>12.4g} {q3:>12.4g}")
    better = worse = 0
    for s in seeds:
        p, c = value(parent[s][name]), value(change[s][name])
        if c != p:
            if (c > p) == higher:
                better += 1
            else:
                worse += 1
    entry["change_better"], entry["change_worse"] = better, worse
    ratio = sides["change"][1] / sides["parent"][1] if sides["parent"][1] else float("nan")
    spread = sides["parent"][2] - sides["parent"][0]
    print(f"{'':<15} change/parent median {ratio:.3f}; "
          f"better in {better}, worse in {worse} of {len(seeds)} pairs; "
          f"parent IQR {spread:.4g}")

if out_json:
    merged = {}
    if os.path.exists(out_json):
        merged = json.load(open(out_json))
    merged[workload] = record
    with open(out_json, "w") as f:
        json.dump(merged, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"merged {workload} into {out_json}")
EOF
