#!/usr/bin/env bash
# Tier-1 CI for the zooid workspace: release build, no orphaned vendor stub,
# committed benchmark pairs (PAIRS_pr*.json) consistent with their samples,
# a crate graph that keeps the oracles out of the server's dependencies,
# zero compiler, clippy and rustdoc warnings, every crate's tests in both profiles,
# the six examples run to their own assertions, the zooid_benchmark gate (BENCHMARK.json's command must build and pass its
# smoke run, tcp_short must clear a floor no timer can, mem_mixed must stay
# under a memory ceiling no fixed-width batch can, and every verdict of the
# full register list must hold, under a memory ceiling four-byte
# configurations cannot), the case-studies table (exits non-zero
# when a case study does not reproduce), and a
# bench-report smoke run, which checks its own families against their floors
# and exits non-zero on a breach.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo build --release"
cargo build --release

echo "== every vendor/ stub is a dependency of the workspace"
# A stub fails here in the PR that orphans it (serde and criterion outlived
# their last user by several PRs).
tree="$(cargo tree --workspace --offline --prefix none)"
for stub in vendor/*/; do
    grep -qF "($PWD/${stub%/})" <<<"$tree" || {
        echo "${stub%/} is not a dependency of any workspace member" >&2
        exit 1
    }
done

echo "== every committed benchmark pair record agrees with its samples"
# Recomputes each PAIRS_pr*.json record's quartiles and better/worse counts
# from its per-seed samples; a mismatch or a malformed record fails. The
# readings it prints per metric (gain, worse beyond bound, unresolved,
# inside bound) are information only.
scripts/bench_pairs.sh --check PAIRS_pr*.json

echo "== the server links the serving engine, and the engine links no oracle"
# The crate graph keeps the oracles off the serving path. zooid-server may
# name zooid-runtime (the reference runtime, harness, fault injection, peer
# TCP, the session checkpoint codec, the columnar action encoding) only from
# its tests, and the engine it links depends on no workspace crate but the
# type, process and automaton layers. A grep for names would cover only the names it
# lists; this covers every oracle.
workspace_deps() {
    cargo tree -p "$1" -e normal --offline --prefix none |
        sed -n "s|^\([^ ]*\) v[^ ]* ($PWD/crates/.*|\1|p" | sort -u
}
server_links="$(workspace_deps zooid-server)"
# Also proves the parse above reads the tree: an empty list would pass the
# checks below.
if ! grep -qx zooid-engine <<<"$server_links"; then
    echo "zooid-server does not link zooid-engine: $server_links" >&2
    exit 1
fi
if grep -qx zooid-runtime <<<"$server_links"; then
    echo "zooid-server links zooid-runtime outside its tests" >&2
    exit 1
fi
engine_links="$(workspace_deps zooid-engine)"
stray="$(grep -vxE 'zooid-(engine|mpst|proc|cfsm)' <<<"$engine_links" || true)"
if [[ -n "$stray" ]]; then
    echo "zooid-engine links a workspace crate beyond mpst, proc and cfsm: $stray" >&2
    exit 1
fi

echo "== no compiler warning in any target"
# Every crate's lib, bins, examples and tests (and the vendored stubs' own),
# checked with warnings denied: a warning that scrolls past in a green run
# is not seen again.
RUSTFLAGS="-D warnings" cargo check --workspace --all-targets --offline

echo "== no clippy warning in any target"
# The same targets under clippy's default lints. An `#[allow]` names its
# reason at the item it excuses.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== no rustdoc warning"
# Broken, ambiguous and private intra-doc links fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo test --workspace -q"
# The root manifest is both a package and a workspace: a bare `cargo test`
# would cover only the root crate's 17 integration tests. --workspace runs
# every crate's unit, integration (incl. the differential suites) and doc
# tests.
cargo test --workspace -q

echo "== cargo test --workspace --release -q"
# The same suites with optimizations on and debug assertions off: the
# differential, hostile-world, durability and quarantine suites must hold
# in the profile that serves.
cargo test --workspace --release -q

echo "== examples run to the end of their own assertions"
# `cargo check --all-targets` only compiles them; each asserts on its own
# result (message counts, verdicts, quarantine counters), so a non-zero exit
# is a behaviour change no test target would have seen.
for example in quickstart two_buyer pipeline ping_pong calculator load_sim; do
    cargo run --release --offline --quiet --example "$example" >/dev/null || {
        echo "example $example failed" >&2
        exit 1
    }
done

echo "== zooid_benchmark gate (BENCHMARK.json's command: --validate, then --smoke)"
# The benchmark pipeline builds this package from its own manifest against
# the crates' public API, so an API break that only it would notice fails
# here. `--smoke` runs every workload's correctness gate at a tiny size (~5 s),
# exits non-zero on a wrong output (pipefail carries that through `tail`) and
# ends `all workloads correct`.
benchmark=(cargo run --release --offline --quiet
    --manifest-path crates/bench/src/bin/zooid_benchmark/Cargo.toml --)
"${benchmark[@]}" --validate BENCHMARK.json
"${benchmark[@]}" --smoke | tail -n 1

echo "== front-door floor (tcp_short >= 50,000 sessions/s)"
# A timer that a session waits out on its way through the front door pins
# this workload near 10k sessions/s on any machine (10.4k before PR 15: the
# client sat out a 20 ms read timeout per wake); with none it runs at ~250k
# on the 2-vCPU reference box. The floor sits 5x from both.
tcp_short="$("${benchmark[@]}" --workload tcp_short --seed 1 --seconds 2 --trace 0 | tail -n 1)"
ops_per_s="$(sed -n 's/.*"ops_per_s":{"value":\([0-9]*\).*/\1/p' <<<"$tcp_short")"
echo "tcp_short ops_per_s: ${ops_per_s:-unreadable}"
[[ -n "$ops_per_s" && "$ops_per_s" -ge 50000 ]] || {
    echo "tcp_short is below the front-door floor: $tcp_short" >&2
    exit 1
}

echo "== memory ceiling (mem_mixed peak_rss_mb <= 160)"
# mem_mixed opens many narrow batch keys. Batches reserved at a fixed width
# (512 slots, up to 64 per shard) whatever their key's traffic held 185-200
# MB here on the 2-vCPU reference box; batches that start at one slot and
# double when full hold 95-115 MB. The ceiling sits ~40 MB from both.
mem_mixed="$("${benchmark[@]}" --workload mem_mixed --seed 1 --seconds 2 --trace 0 | tail -n 1)"
peak_rss_mb="$(sed -n 's/.*"peak_rss_mb":{"value":\([0-9.]*\).*/\1/p' <<<"$mem_mixed")"
echo "mem_mixed peak_rss_mb: ${peak_rss_mb:-unreadable}"
[[ -n "$peak_rss_mb" ]] && awk -v mb="$peak_rss_mb" 'BEGIN { exit !(mb <= 160) }' || {
    echo "mem_mixed is above the memory ceiling: $mem_mixed" >&2
    exit 1
}

echo "== register verdict table (every registration of the full list) and memory ceiling (peak_rss_mb <= 32)"
# `--smoke` registers only the quick entries (chains of at most 4 roles), so
# this is the step that checks chain8's `Safe` and the six larger chains'
# `Inconclusive` at the default budget. A wrong verdict exits non-zero
# (~2 s on the 2-vCPU reference box).
# The ceiling: the explorer stores every configuration it visits, and the
# six large chains fill the 50k-configuration budget. With four-byte words
# register held 48-54 MB here on the 2-vCPU reference box; with byte-wide
# configurations (every register protocol fits a byte at the default bound)
# it holds 17.6-19.0 MB. The ceiling sits ~13 MB from both, so an explorer
# that silently widens its words fails it.
register="$("${benchmark[@]}" --workload register --seed 1 --seconds 1 --trace 0 | tail -n 1)"
echo "$register"
peak_rss_mb="$(sed -n 's/.*"peak_rss_mb":{"value":\([0-9.]*\).*/\1/p' <<<"$register")"
echo "register peak_rss_mb: ${peak_rss_mb:-unreadable}"
[[ -n "$peak_rss_mb" ]] && awk -v mb="$peak_rss_mb" 'BEGIN { exit !(mb <= 32) }' || {
    echo "register is above the memory ceiling: $register" >&2
    exit 1
}

echo "== case-studies (the paper's §5.2 table)"
# Every case study must project, certify, run compliant and check safe and
# live; the binary exits non-zero (and prints "SOME CASE STUDY FAILED")
# otherwise. About 1 s once built.
cargo run --release --offline --quiet -p zooid-bench --bin case-studies | tail -n 1

echo "== bench-report smoke (engine-vs-oracle families against their floors)"
# Also the explore_parallel smoke suite: the family runs the work-stealing
# explorer at 2 threads and asserts verdict and visited-configuration
# agreement with the sequential reduced engine before timing it.
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
cargo run --release -p zooid-bench --bin bench-report -- --smoke --out "$tmp" >/dev/null

echo "== CI green"
