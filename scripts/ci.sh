#!/usr/bin/env bash
# Tier-1 CI for the zooid workspace: release build, full test-suite, the
# zooid_benchmark gate (BENCHMARK.json's command must build and pass its
# smoke run, and tcp_short must clear a floor no timer can), and a
# bench-report smoke run that validates the machine-readable benchmark
# report (BENCH_pr15.json schema) without paying full measurement budgets.
#
# The smoke bench-report is also the explore_parallel smoke suite: it runs
# the work-stealing explorer at threads=2 and asserts verdict and
# visited-configuration agreement with the sequential reduced engine, so a
# determinism or termination regression fails CI even before the (slower)
# proptest differential suites get their turn.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo build --release"
cargo build --release

echo "== cargo test --workspace -q"
# The root manifest is both a package and a workspace: a bare `cargo test`
# would cover only the root crate's 17 integration tests. --workspace runs
# every crate's unit, integration (incl. the differential suites) and doc
# tests.
cargo test --workspace -q

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

echo "== batch differential suite (batched vs slab-compiled vs tree executors)"
# Already covered by --workspace above, but run it by name so a batching
# regression is called out on its own line before the bench smoke.
cargo test --release -q -p zooid-runtime --test batch_exec

echo "== TCP hardening suite (memory-vs-TCP differential, hostile framing)"
cargo test --release -q -p zooid-runtime --test tcp_differential

echo "== networked serving plane suite (mux protocol, admission control)"
cargo test --release -q -p zooid-server --test net_plane

echo "== incident capture suite (slab / batch-demotion / TCP-mux violations replay)"
cargo test --release -q -p zooid-server --test incidents

echo "== histogram property suite (merge monoid, bucket bounds, percentile monotonicity)"
cargo test --release -q -p zooid-server --test obs_props

echo "== hostile-world campaign (fault injection, byzantine casts, quarantine; pinned seeds)"
# Every fault schedule in the suite is pinned by seed (11, 42, 97, 98,
# 0xFA17), so a failure here is a behavioural regression, never flake.
cargo test --release -q -p zooid-server --test hostile_campaign

echo "== durability suite (kill-at-every-quantum checkpoints, WAL round-trips, arena faults)"
cargo test --release -q -p zooid-runtime --test durability

echo "== crash-recovery suite (drain/migrate, tampered checkpoints, restart-from-checkpoint)"
cargo test --release -q -p zooid-server --test crash_recovery

echo "== bench-report smoke (includes explore_parallel threads=2 agreement checks)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
report="$tmpdir/BENCH_pr15.json"
cargo run --release -p zooid-bench --bin bench-report -- --smoke --out "$report" >/dev/null

echo "== validating $report"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$report" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)

assert report["pr"] == 15, f"unexpected pr marker: {report['pr']}"
benches = report["benches"]
families = {e["bench"] for e in benches}
for family in (
    "cfsm_explore",
    "cfsm_explore_por",
    "cfsm_explore_par",
    "endpoint_step",
    "batch_step",
    "obs_overhead",
    "fault_overhead",
    "server_throughput",
    "server_throughput_tcp",
    "monitor_action",
    "checkpoint_restore",
    "wal_append",
):
    assert family in families, f"missing {family} family, got {sorted(families)}"
for entry in benches:
    for key in ("bench", "case", "median_ns", "baseline_ns", "speedup", "baseline"):
        assert key in entry, f"entry missing {key}: {entry}"
endpoint = [e for e in benches if e["bench"] == "endpoint_step"]
assert all(e["median_ns"] > 0 and e["baseline_ns"] > 0 for e in endpoint), \
    "endpoint_step medians must be positive"
assert any("chain/" in e["case"] for e in endpoint) and any(
    "fanout/" in e["case"] for e in endpoint
), "endpoint_step must cover chain and fanout"
batch = [e for e in benches if e["bench"] == "batch_step"]
assert all(e["median_ns"] > 0 and e["baseline_ns"] > 0 for e in batch), \
    "batch_step medians must be positive"
assert any("ring/" in e["case"] for e in batch) and any(
    "fanout_loop/" in e["case"] for e in batch
), "batch_step must cover ring and fanout_loop"
assert all("/w" in e["case"] and "peraction" in e["case"] for e in batch), \
    "batch_step cases must record batch width and per-action units"
obs = [e for e in benches if e["bench"] == "obs_overhead"]
assert all(e["median_ns"] > 0 and e["baseline_ns"] > 0 for e in obs), \
    "obs_overhead medians must be positive"
assert all("/w" in e["case"] and "peraction" in e["case"] for e in obs), \
    "obs_overhead cases must record batch width and per-action units"
# The observability plane must cost nearly nothing: instrumented stepping
# within 10% of the bare loop (speedup = bare/instrumented >= 0.90), with
# a small extra allowance for smoke-budget noise on the shared CI box.
for e in obs:
    assert e["speedup"] >= 0.85, \
        f"obs instrumentation overhead out of budget: {e}"
fault = [e for e in benches if e["bench"] == "fault_overhead"]
assert all(e["median_ns"] > 0 and e["baseline_ns"] > 0 for e in fault), \
    "fault_overhead medians must be positive"
assert all("peraction" in e["case"] for e in fault), \
    "fault_overhead cases must use per-action units"
# An empty-plan FaultyTransport must be a near-free wrapper: wrapped
# stepping within 10% of the bare transport (speedup = bare/wrapped
# >= 0.90), with the same smoke-noise allowance as obs_overhead.
for e in fault:
    assert e["speedup"] >= 0.85, \
        f"fault wrapper tax out of budget: {e}"
server = [e for e in benches if e["bench"] == "server_throughput"]
assert all(e["median_ns"] > 0 for e in server), "server medians must be positive"
assert any("shards4" in e["case"] for e in server), "expected a 4-shard case"
assert any("notrace" in e["case"] for e in server), "expected a notrace case"
tcp = [e for e in benches if e["bench"] == "server_throughput_tcp"]
assert all(e["median_ns"] > 0 and e["baseline_ns"] > 0 for e in tcp), \
    "server_throughput_tcp needs a live in-memory baseline"
assert any("conns" in e["case"] and "shards" in e["case"] for e in tcp), \
    "server_throughput_tcp cases must record connection and shard counts"
monitor = [e for e in benches if e["bench"] == "monitor_action"]
assert all(e["median_ns"] > 0 and e["baseline_ns"] > 0 for e in monitor)
ckpt = [e for e in benches if e["bench"] == "checkpoint_restore"]
assert all(e["median_ns"] > 0 and e["baseline_ns"] > 0 for e in ckpt), \
    "checkpoint_restore medians must be positive"
assert all("/restore" in e["case"] and "/bytes" in e["case"] for e in ckpt), \
    "checkpoint_restore cases must record checkpoint sizes"
# No speedup floor here on purpose: restore pays full re-validation on
# decode, so replay can win at shallow kill points. The family tracks the
# latency trajectory; it does not claim restore beats replay.
wal = [e for e in benches if e["bench"] == "wal_append"]
assert all(e["median_ns"] > 0 and e["baseline_ns"] > 0 for e in wal), \
    "wal_append densities must be positive"
assert all("bytesperaction" in e["case"] for e in wal), \
    "wal_append cases must use bytes-per-action units"
# The columnar WAL encoding must beat naive per-record serialization
# decisively on every case (speedup = naive/columnar bytes per action).
for e in wal:
    assert e["speedup"] >= 1.3, \
        f"columnar WAL density win below 1.3x: {e}"
explore = [e for e in benches if e["bench"] == "cfsm_explore"]
assert all(e["median_ns"] > 0 for e in explore), "cfsm_explore medians must be positive"
por = [e for e in benches if e["bench"] == "cfsm_explore_por"]
assert all(e["median_ns"] > 0 and e["baseline_ns"] > 0 for e in por)
assert all("residual" in e["case"] for e in por), "POR cases must record residual sizes"
par = [e for e in benches if e["bench"] == "cfsm_explore_par"]
assert any("threads1" in e["case"] for e in par), "expected a 1-thread case"
assert any("threads2" in e["case"] for e in par), "expected a 2-thread case"
assert all(e["median_ns"] > 0 for e in par), "parallel medians must be positive"
print(
    f"OK: {len(benches)} entries, {len(explore)} cfsm_explore, {len(por)} cfsm_explore_por, "
    f"{len(par)} cfsm_explore_par, {len(endpoint)} endpoint_step, {len(batch)} batch_step, "
    f"{len(obs)} obs_overhead, {len(fault)} fault_overhead, {len(server)} server_throughput, "
    f"{len(tcp)} server_throughput_tcp, {len(monitor)} monitor_action, "
    f"{len(ckpt)} checkpoint_restore, {len(wal)} wal_append cases"
)
EOF
else
    # Fallback when python3 is unavailable: shape-check with grep.
    grep -q '"pr": 15' "$report"
    grep -q '"bench": "cfsm_explore"' "$report"
    grep -q '"bench": "cfsm_explore_por"' "$report"
    grep -q '"bench": "cfsm_explore_par"' "$report"
    grep -q 'threads2' "$report"
    grep -q '"bench": "endpoint_step"' "$report"
    grep -q '"bench": "batch_step"' "$report"
    grep -q '"bench": "obs_overhead"' "$report"
    grep -q '"bench": "fault_overhead"' "$report"
    grep -q 'peraction' "$report"
    grep -q '"bench": "server_throughput"' "$report"
    grep -q '"bench": "server_throughput_tcp"' "$report"
    grep -q 'notrace' "$report"
    grep -q '"bench": "monitor_action"' "$report"
    grep -q '"bench": "checkpoint_restore"' "$report"
    grep -q '"bench": "wal_append"' "$report"
    grep -q 'bytesperaction' "$report"
    echo "OK (grep fallback): all twelve bench families present"
fi

echo "== CI green"
