#!/usr/bin/env bash
# Tier-1 CI for the zooid workspace: release build, no orphaned vendor stub,
# zero compiler and rustdoc warnings, every crate's tests in both profiles,
# the six examples run to their own assertions, the zooid_benchmark gate (BENCHMARK.json's command must build and pass its
# smoke run, and tcp_short must clear a floor no timer can), and a
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

echo "== no compiler warning in any target"
# Every crate's lib, bins, examples and tests (and the vendored stubs' own),
# checked with warnings denied: a warning that scrolls past in a green run
# is not seen again.
RUSTFLAGS="-D warnings" cargo check --workspace --all-targets --offline

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
# differential, hostile-world, durability and crash-recovery suites must
# hold in the profile that serves.
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

echo "== bench-report smoke (engine-vs-oracle families against their floors)"
# Also the explore_parallel smoke suite: the family runs the work-stealing
# explorer at 2 threads and asserts verdict and visited-configuration
# agreement with the sequential reduced engine before timing it.
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
cargo run --release -p zooid-bench --bin bench-report -- --smoke --out "$tmp" >/dev/null

echo "== CI green"
