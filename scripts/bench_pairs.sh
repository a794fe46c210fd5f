#!/usr/bin/env bash
# Alternating parent/change pairs of one zooid_benchmark workload, and a
# checker for the files they are merged into.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> [pairs] [out.json]
#   scripts/bench_pairs.sh --check FILE...
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
# by workload (other workloads already in it are kept): the workload, the
# parent's commit, the run arguments, the `MALLOC_*` variables of the runs'
# environment (`env`), then per end-to-end metric its direction, the parent
# and change samples by seed, each side's quartiles [q1, median, q3] and
# the number of pairs the change moved each way.
#
# `--check` builds and runs nothing. For every record of every FILE it
# recomputes the quartiles and the better/worse counts from the stored
# samples, and prints per metric one reading, the first that holds of:
#   gain                the change is better in at least 9 of 10 pairs and
#                       the medians differ by more than the parent's IQR;
#   worse beyond bound  the change's median is worse than the parent's by
#                       more than the metric's bound in BENCHMARK.json;
#   unresolved          the parent's IQR is wider than that bound;
#   inside bound        none of the above.
# A reading is information only. The check exits non-zero when a stored
# figure disagrees with its samples or a record is malformed. Records
# written before `workload` and `env` existed stay valid.
# Temporary files go under $TMPDIR (default /tmp) and are removed at exit.
set -euo pipefail

usage() {
    echo "usage: $0 <parent-rev> <workload> [pairs] [out.json]" >&2
    echo "       $0 --check FILE..." >&2
    exit 2
}

# The statistics both modes share, then the mode's own part: `merge` reads
# the runs of a pairs session, `check` reads committed files.
stats() {
    python3 - "$@" <<'EOF'
import json, math, os, sys

mode, spec_path = sys.argv[1:3]
spec = json.load(open(spec_path))
bounds = {m["name"]: m for m in spec["end_to_end"]}

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

def moves(parent, change, higher):
    """Pairs in which the change was better, and worse."""
    better = worse = 0
    for p, c in zip(parent, change):
        if c != p:
            if (c > p) == higher:
                better += 1
            else:
                worse += 1
    return better, worse

def reading(name, parent_q, change_q, better, pairs):
    metric = bounds[name]
    _, p_med, _ = parent_q
    iqr = parent_q[2] - parent_q[0]
    gain = change_q[1] - p_med if metric["better"] == "higher" else p_med - change_q[1]
    if 10 * better >= 9 * pairs and gain > iqr:
        return "gain"
    if p_med and -gain / abs(p_med) > metric["bound"]:
        return "worse beyond bound"
    if p_med and iqr / abs(p_med) > metric["bound"]:
        return "unresolved"
    return "inside bound"

def summary(parent_q, change_q, better, worse, pairs):
    ratio = change_q[1] / parent_q[1] if parent_q[1] else float("nan")
    return (f"change/parent median {ratio:.3f}; better in {better}, worse in "
            f"{worse} of {pairs} pairs; parent IQR {parent_q[2] - parent_q[0]:.4g}")

def merge(work, workload, parent_commit, out_json):
    def load(side):
        runs = {}
        try:
            for line in open(f"{work}/{side}.jsonl"):
                seed, result = line.rstrip("\n").split("\t", 1)
                runs[int(seed)] = json.loads(result)["metrics"]
        except FileNotFoundError:
            pass
        return runs

    parent, change = load("parent"), load("change")
    seeds = sorted(set(parent) & set(change))
    print(f"\n{workload}: {len(seeds)} complete pairs "
          f"(parent runs {len(parent)}, change runs {len(change)})")
    if not seeds:
        sys.exit(1)
    env = {k: v for k, v in sorted(os.environ.items()) if k.startswith("MALLOC_")}
    record = {"workload": workload, "env": env, "parent_commit": parent_commit,
              "seeds": seeds, "args": "--seconds 10 --trace 0", "metrics": {}}
    header = f"{'metric':<15} {'side':<7} {'q1':>12} {'median':>12} {'q3':>12}"
    print(header)
    print("-" * len(header))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        entry = record["metrics"][name] = {"better": metric["better"]}
        samples, sides = {}, {}
        for side, runs in (("parent", parent), ("change", change)):
            samples[side] = [value(runs[s][name]) for s in seeds]
            sides[side] = quartiles(samples[side])
            entry[side] = {str(s): x for s, x in zip(seeds, samples[side])}
            entry[f"{side}_quartiles"] = list(sides[side])
            q1, med, q3 = sides[side]
            print(f"{name:<15} {side:<7} {q1:>12.4g} {med:>12.4g} {q3:>12.4g}")
        better, worse = moves(samples["parent"], samples["change"], metric["better"] == "higher")
        entry["change_better"], entry["change_worse"] = better, worse
        print(f"{'':<15} {summary(sides['parent'], sides['change'], better, worse, len(seeds))}")
    if out_json:
        merged = {}
        if os.path.exists(out_json):
            merged = json.load(open(out_json))
        merged[workload] = record
        with open(out_json, "w") as f:
            json.dump(merged, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"merged {workload} into {out_json}")

class Malformed(Exception):
    pass

def need(holds, why):
    if not holds:
        raise Malformed(why)

def number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)

def check_record(record):
    """Per metric: (name, mismatches, parent quartiles, change quartiles,
    better, worse, pairs), recomputed from the record's samples."""
    need(isinstance(record, dict), "not an object")
    for key, kind in (("parent_commit", str), ("args", str), ("seeds", list), ("metrics", dict)):
        need(isinstance(record.get(key), kind), f"`{key}` is missing or not a {kind.__name__}")
    for key, kind in (("workload", str), ("note", str), ("env", (dict, str))):
        need(key not in record or isinstance(record[key], kind), f"`{key}` has the wrong type")
    env = record.get("env")
    need(not isinstance(env, dict) or all(isinstance(v, str) for v in env.values()),
         "`env` values are not strings")
    seeds = record["seeds"]
    need(seeds and all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)
         and len(set(seeds)) == len(seeds), "`seeds` are not distinct integers")
    need(record["metrics"], "no metrics")
    out = []
    for name, entry in sorted(record["metrics"].items()):
        need(name in bounds, f"`{name}` is not an end-to-end metric of BENCHMARK.json")
        need(isinstance(entry, dict), f"{name}: not an object")
        need(entry.get("better") == bounds[name]["better"],
             f"{name}: `better` is not {bounds[name]['better']!r}")
        samples, sides, mismatches = {}, {}, []
        for side in ("parent", "change"):
            runs = entry.get(side)
            need(isinstance(runs, dict) and set(runs) == {str(s) for s in seeds},
                 f"{name}: the {side} samples are not one per seed")
            need(all(number(x) for x in runs.values()), f"{name}: a {side} sample is not a number")
            samples[side] = [runs[str(s)] for s in seeds]
            sides[side] = quartiles(samples[side])
            stored = entry.get(f"{side}_quartiles")
            need(isinstance(stored, list) and len(stored) == 3 and all(number(x) for x in stored),
                 f"{name}: `{side}_quartiles` is not three numbers")
            if not all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
                       for a, b in zip(sides[side], stored)):
                mismatches.append(f"{side}_quartiles {stored} != {list(sides[side])}")
        better, worse = moves(samples["parent"], samples["change"],
                              bounds[name]["better"] == "higher")
        for key, count in (("change_better", better), ("change_worse", worse)):
            stored = entry.get(key)
            need(isinstance(stored, int) and not isinstance(stored, bool),
                 f"{name}: `{key}` is not an integer")
            if stored != count:
                mismatches.append(f"{key} {stored} != {count}")
        out.append((name, mismatches, sides["parent"], sides["change"], better, worse, len(seeds)))
    return out

def check(paths):
    bad = 0
    for path in paths:
        try:
            records = json.load(open(path))
            need(isinstance(records, dict) and records, "not an object of records")
        except (OSError, ValueError, Malformed) as e:
            print(f"{path}: MALFORMED: {e}")
            bad += 1
            continue
        for key, record in sorted(records.items()):
            try:
                metrics = check_record(record)
            except Malformed as e:
                print(f"{path} {key}: MALFORMED: {e}")
                bad += 1
                continue
            for name, mismatches, parent_q, change_q, better, worse, pairs in metrics:
                verdict = reading(name, parent_q, change_q, better, pairs)
                print(f"{path} {key} {name}: {verdict} "
                      f"({summary(parent_q, change_q, better, worse, pairs)})")
                for m in mismatches:
                    print(f"{path} {key} {name}: MISMATCH: {m}")
                bad += bool(mismatches)
    print(f"{len(paths)} files: " + (f"{bad} inconsistent" if bad else "every record matches its samples"))
    sys.exit(1 if bad else 0)

if mode == "check":
    check(sys.argv[3:])
else:
    merge(*sys.argv[3:7])
EOF
}

if [[ "${1:-}" == --check ]]; then
    shift
    [[ $# -ge 1 ]] || usage
    stats check "$(dirname "$0")/../BENCHMARK.json" "$@"
    exit
fi

if [[ $# -lt 2 || $# -gt 4 ]]; then
    usage
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

stats merge BENCHMARK.json "$work" "$workload" "$(git rev-parse "$parent_rev^{commit}")" "$out_json"
