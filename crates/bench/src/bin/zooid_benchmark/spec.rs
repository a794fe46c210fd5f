//! The benchmark's tables: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` is checked against these (`--validate`), so
//! the file and the code cannot drift.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
    /// Workloads on which the metric is measured; on the others a per-layer
    /// metric reads 0.
    pub workloads: &'static [&'static str],
}

pub const MEM_SHORT: &str = "mem_short";
pub const MEM_LONG: &str = "mem_long";
pub const MEM_MIXED: &str = "mem_mixed";
pub const TCP_SHORT: &str = "tcp_short";
pub const REGISTER: &str = "register";

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: MEM_SHORT,
        why: "8-action ring sessions in memory: admission, hand-off, outcome and flush outweigh the executor",
    },
    WorkloadSpec {
        name: MEM_LONG,
        why: "8192-action looping sessions in memory: batch stepping and monitoring do the work, admission is noise",
    },
    WorkloadSpec {
        name: MEM_MIXED,
        why: "24 protocols by Zipf rank with fresh casts, untraced, byzantine, slab and long sessions: many layouts, narrow cohorts",
    },
    WorkloadSpec {
        name: TCP_SHORT,
        why: "the mem_short sessions opened over 2 loopback connections: wire codec, IO sweep and NetClient do the work",
    },
    WorkloadSpec {
        name: REGISTER,
        why: "time to verdict: one operation is one registration of a seeded list of 60 protocols into a fresh registry",
    },
];

const ALL: &[&str] = &[MEM_SHORT, MEM_LONG, MEM_MIXED, TCP_SHORT, REGISTER];
const SERVING: &[&str] = &[MEM_SHORT, MEM_LONG, MEM_MIXED, TCP_SHORT];
const MEM: &[&str] = &[MEM_SHORT, MEM_LONG, MEM_MIXED];
const TCP: &[&str] = &[TCP_SHORT];
const LONG: &[&str] = &[MEM_LONG];
const MIXED: &[&str] = &[MEM_MIXED];
const REG: &[&str] = &[REGISTER];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        workloads: ALL,
    }
}

/// The regression bound of every end-to-end metric: the largest the
/// benchmark contract allows. The 2-vCPU reference box itself drifts by
/// 10 to 20% over minutes (ten back-to-back runs of `register`, a
/// single-threaded CPU-bound loop, read 55.8 to 84.7 registrations/s), so a
/// tighter bound would reject a commit against itself. The README gives the
/// spreads measured on the box and how to compare two commits inside them.
const BOUND: f64 = 0.25;

/// What a user of the system sees. Every workload reports every one of
/// them; an operation is a session on the serving workloads and a
/// registration on `register`.
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("ops_per_s", "1/s", Better::Higher, BOUND),
    e2e("cpu_us_per_op", "us", Better::Lower, BOUND),
    e2e("peak_rss_mb", "MB", Better::Lower, BOUND),
    e2e("setup_s", "s", Better::Lower, BOUND),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [&'static str],
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        workloads,
    }
}

use Better::{Higher, Lower};

/// Single layers, measured from outside: the driver's own calls, the public
/// reports, and the layer replay.
pub const PER_LAYER: [MetricSpec; 56] = [
    // Registration pipeline, over the workload's own protocol list.
    layer("dsl.protocol.new_us", "us", Lower, ALL),
    layer("mpst.projection.project_all_us", "us", Lower, ALL),
    layer("cfsm.machine.from_local_us", "us", Lower, ALL),
    layer("cfsm.system.compile_us", "us", Lower, ALL),
    layer("cfsm.engine.explore_por_us", "us", Lower, ALL),
    layer("cfsm.engine.configs_visited", "count", Lower, ALL),
    layer("cfsm.parallel.explore_t2_us", "us", Lower, ALL),
    layer(
        "server.registry.cold_unattributed_share",
        "share",
        Lower,
        ALL,
    ),
    layer("server.registry.warm_lookup_ns", "ns", Lower, ALL),
    layer("server.registry.register_cold_ms", "ms", Lower, REG),
    layer("server.registry.register_warm_us", "us", Lower, REG),
    // Set-up of a serving workload.
    layer("proc.typing.certify_us", "us", Lower, SERVING),
    layer("proc.compile.lower_us", "us", Lower, SERVING),
    layer("proc.compile.instrs", "count", Lower, SERVING),
    layer("runtime.cbatch.layout_new_us", "us", Lower, SERVING),
    // Admission, per session.
    layer("server.server.submit_ns", "ns", Lower, MEM),
    layer("server.registry.endpoint_program_ns", "ns", Lower, SERVING),
    layer("runtime.cbatch.admit_ns", "ns", Lower, SERVING),
    // Stepping, per visible action.
    layer("runtime.cbatch.step_ns_per_action", "ns", Lower, SERVING),
    layer("runtime.cexec.step_ns_per_action", "ns", Lower, MIXED),
    layer(
        "runtime.monitor.observe_ns_per_action",
        "ns",
        Lower,
        SERVING,
    ),
    // What the shards did.
    layer("server.shard.sessions_batched", "count", Higher, SERVING),
    layer("server.shard.sessions_slab", "count", Lower, SERVING),
    layer("server.shard.sessions_demoted", "count", Lower, SERVING),
    layer("server.shard.sessions_quarantined", "count", Lower, SERVING),
    layer("server.shard.actions_executed", "count", Lower, SERVING),
    layer("server.shard.quanta", "count", Lower, SERVING),
    layer("server.shard.batch_cohorts", "count", Lower, SERVING),
    layer("server.shard.mean_cohort_width", "count", Higher, SERVING),
    layer("server.shard.peak_queue_depth", "count", Lower, SERVING),
    layer("server.obs.incidents_recorded", "count", Lower, SERVING),
    // In-server latency over the open-loop phase.
    layer("server.obs.session_wall_p50_us", "us", Lower, SERVING),
    layer("server.obs.session_wall_p99_us", "us", Lower, SERVING),
    layer("server.obs.action_cost_p50_ns", "ns", Lower, SERVING),
    layer("server.shard.handoff_flush_p50_us", "us", Lower, MEM),
    // The wire.
    layer("runtime.wire.encode_ns_per_frame", "ns", Lower, TCP),
    layer("runtime.wire.decode_ns_per_frame", "ns", Lower, TCP),
    layer("runtime.wire.bytes_per_session", "B", Lower, TCP),
    layer("server.net.frames_read", "count", Lower, TCP),
    layer("server.net.frames_written", "count", Lower, TCP),
    layer("server.net.sessions_shed", "count", Lower, TCP),
    layer("server.net.io_pass_p50_ns", "ns", Lower, TCP),
    layer("server.net.io_pass_p99_ns", "ns", Lower, TCP),
    layer("server.net.raw_roundtrip_p50_us", "us", Lower, TCP),
    layer("server.net.client_poll_wait_share", "share", Lower, TCP),
    // Durability codecs, which no serving path calls today.
    layer(
        "runtime.checkpoint.encode_ns_per_session",
        "ns",
        Lower,
        LONG,
    ),
    layer(
        "runtime.checkpoint.decode_recertify_ns_per_session",
        "ns",
        Lower,
        LONG,
    ),
    layer("runtime.wal.encode_ns_per_action", "ns", Lower, LONG),
    layer("runtime.wal.bytes_per_action", "B", Lower, LONG),
    // What the replay leaves unexplained, and the driver's own health.
    layer("session.unattributed_share", "share", Lower, SERVING),
    layer("process.cpu_busy_share", "share", Higher, ALL),
    layer("process.ctx_switches_invol", "count", Lower, ALL),
    // Latency of the open-loop phase (of the warm pass on `register`). Not
    // end-to-end metrics: on the reference box they do not repeat within a
    // tenth, see the README.
    layer("driver.latency_p50_us", "us", Lower, ALL),
    layer("driver.latency_tail_us", "us", Lower, ALL),
    layer("driver.lateness_p99_us", "us", Lower, SERVING),
    layer("driver.trace_overhead_share", "share", Lower, ALL),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn is_name(text: &str) -> bool {
    !text.is_empty()
        && text.len() <= 64
        && text.as_bytes()[0].is_ascii_alphanumeric()
        && text
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(is_name(name), "{name}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "every name is used once");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(metric.workloads.iter().all(|w| workload(w).is_some()));
            assert!(!metric.unit.is_empty() && metric.unit.len() <= 16);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
