//! Differential tests: the compiled endpoint executor
//! ([`CompiledEndpointTask`]) against the tree-walking oracle
//! ([`EndpointTask`]) — the exhaustive-oracle pattern the ROADMAP mandates
//! for every engine replacement, applied to the data plane.
//!
//! Both executors run the same deterministic endpoints (first-branch sends
//! with default payloads, synthesized from projections) over in-memory
//! networks under the lockstep runner ([`zooid_runtime::lockstep`]), so for
//! every case study, every randomized projectable protocol and every
//! polling schedule we can require exact agreement on:
//!
//! * per-endpoint statuses (`Finished` / `StepLimitReached` / `Stalled` /
//!   `Failed` with the same error string),
//! * per-endpoint value-level traces,
//! * the monitor's verdicts (compliance, completion, the accepted global
//!   trace) — with the compiled run feeding the monitor pre-interned
//!   actions and a `TraceMonitor` shadowing it action by action,
//! * stall and step-limit behaviour, including `WouldBlock` polling
//!   interleavings (single-step vs drain-until-block schedules, rotated
//!   start orders).

use std::collections::BTreeMap;
use std::sync::Arc;

use zooid_dsl::synth::skeleton_procs;
use zooid_mpst::global::GlobalType;
use zooid_mpst::{generators, Action, Role, Sort};
use zooid_proc::{Expr, Externals, Proc, Value, ValueAction};
use zooid_runtime::exec::{EndpointStatus, ExecOptions};
use zooid_runtime::lockstep::{Lockstep, Poll, Schedule};
use zooid_runtime::monitor::{CompiledMonitor, TraceMonitor};

mod common;
use common::{compiled_system, int_overflow_cast, run_in_memory};

// ---------------------------------------------------------------------
// Both engines under the lockstep runner
// ---------------------------------------------------------------------

const SCHEDULES: [Schedule; 4] = [
    Schedule { poll: Poll::Drain, offset: 0 },
    Schedule { poll: Poll::Drain, offset: 1 },
    Schedule { poll: Poll::StepOne, offset: 0 },
    Schedule { poll: Poll::StepOne, offset: 2 },
];

#[derive(Debug, PartialEq)]
struct RunResult {
    statuses: BTreeMap<Role, EndpointStatus>,
    traces: BTreeMap<Role, Vec<ValueAction>>,
    compliant: bool,
    complete: bool,
    global_trace: Vec<Action>,
}

/// Runs every endpoint of `procs` on the lockstep runner and returns the
/// observable outcome. `compiled` selects the engine; the monitor setup is
/// identical for both, and a `TraceMonitor` shadows the `CompiledMonitor`
/// on every single observation.
fn run(
    g: &GlobalType,
    procs: &[(Role, Proc)],
    options: &ExecOptions,
    schedule: Schedule,
    compiled: bool,
) -> RunResult {
    let system = compiled_system(g);
    let lockstep = Lockstep::new(CompiledMonitor::new(Arc::clone(&system)))
        .shadow(TraceMonitor::new(g).expect("well-formed"))
        .schedule(schedule);
    let none = Externals::new();
    let report = run_in_memory(&system, procs, options, compiled, (&none, &none), lockstep);
    let (statuses, traces) =
        report.endpoints.into_iter().map(|(r, e)| ((r.clone(), e.status), (r, e.actions))).unzip();
    RunResult {
        statuses,
        traces,
        compliant: report.compliant,
        complete: report.complete,
        global_trace: report.global_trace.actions().to_vec(),
    }
}

/// Runs tree and compiled under one schedule and requires exact agreement.
fn assert_engines_agree(
    g: &GlobalType,
    procs: &[(Role, Proc)],
    options: &ExecOptions,
    context: &str,
) {
    for schedule in SCHEDULES {
        let tree = run(g, procs, options, schedule, false);
        let compiled = run(g, procs, options, schedule, true);
        assert_eq!(tree, compiled, "{context}: engines diverge under {schedule:?}");
    }
    // Per-endpoint traces are schedule-independent for deterministic
    // endpoints: cross-check one schedule against another on the compiled
    // engine.
    let a = run(g, procs, options, SCHEDULES[0], true);
    let b = run(g, procs, options, SCHEDULES[3], true);
    assert_eq!(a.traces, b.traces, "{context}: traces depend on the schedule");
    assert_eq!(a.statuses, b.statuses, "{context}");
}

// ---------------------------------------------------------------------
// The suites
// ---------------------------------------------------------------------

#[test]
fn engines_agree_on_the_case_studies() {
    let cases: Vec<(&str, GlobalType, ExecOptions)> = vec![
        ("ring3", generators::ring3(), ExecOptions::default()),
        ("ring8", generators::ring_n(8), ExecOptions::default()),
        ("two_buyer", generators::two_buyer(), ExecOptions::default()),
        ("fanout5", generators::fanout_n(5), ExecOptions::default()),
        ("branching3", generators::branching(3), ExecOptions::default()),
        // The looping families run to their step limit.
        ("pipeline", generators::pipeline(), ExecOptions::with_max_steps(12)),
        ("chain5", generators::chain_n(5), ExecOptions::with_max_steps(9)),
        ("ping_pong", generators::ping_pong(), ExecOptions::with_max_steps(7)),
    ];
    for (name, g, options) in cases {
        let procs = skeleton_procs(&g).expect("case studies synthesize");
        assert_engines_agree(&g, &procs, &options, name);
    }
}

#[test]
fn engines_agree_on_randomized_projectable_protocols() {
    let params = generators::RandomProtocol::default();
    let mut covered = 0;
    for seed in 0..400u64 {
        if covered >= 30 {
            break;
        }
        let g = generators::random_global(seed, &params);
        let Some(procs) = skeleton_procs(&g) else {
            continue;
        };
        covered += 1;
        assert_engines_agree(&g, &procs, &ExecOptions::with_max_steps(24), &format!("seed {seed}"));
    }
    assert!(covered >= 10, "corpus too small: {covered}");
}

#[test]
fn engines_agree_on_stalls() {
    // Bob never forwards: Alice finishes her send, Carol stalls waiting.
    let g = generators::ring3();
    let mut procs = skeleton_procs(&g).expect("ring synthesizes");
    for (role, proc) in &mut procs {
        if role.name() == "Bob" {
            // Receive from Alice but never forward to Carol.
            *proc = Proc::recv1(Role::new("Alice"), "l", Sort::Nat, "x", Proc::Finish);
        }
    }
    for schedule in SCHEDULES {
        let tree = run(&g, &procs, &ExecOptions::default(), schedule, false);
        let compiled = run(&g, &procs, &ExecOptions::default(), schedule, true);
        assert_eq!(tree, compiled);
        assert_eq!(compiled.statuses[&Role::new("Carol")], EndpointStatus::Stalled);
        assert!(compiled.compliant, "an unfinished prefix is still compliant");
        assert!(!compiled.complete);
    }
}

#[test]
fn engines_agree_on_failures() {
    // A saboteur sends a label its peer does not handle...
    let g = GlobalType::msg1(
        Role::new("p"),
        Role::new("q"),
        "good",
        Sort::Nat,
        GlobalType::End,
    );
    let saboteur = vec![
        (
            Role::new("p"),
            Proc::send(Role::new("q"), "evil", Expr::lit(0u64), Proc::Finish),
        ),
        (
            Role::new("q"),
            Proc::recv1(Role::new("p"), "good", Sort::Nat, "x", Proc::Finish),
        ),
    ];
    // ... and one sends the right label with a wrong payload sort.
    let bad_payload = vec![
        (
            Role::new("p"),
            Proc::send(Role::new("q"), "good", Expr::lit(true), Proc::Finish),
        ),
        (
            Role::new("q"),
            Proc::recv1(Role::new("p"), "good", Sort::Nat, "x", Proc::Finish),
        ),
    ];
    // ... and one overflows integer division on the value it received.
    let (overflow_g, overflow) = int_overflow_cast();
    for (name, g, procs) in [
        ("wrong label", &g, saboteur),
        ("wrong sort", &g, bad_payload),
        ("int overflow", &overflow_g, overflow),
    ] {
        for schedule in SCHEDULES {
            let tree = run(g, &procs, &ExecOptions::default(), schedule, false);
            let compiled = run(g, &procs, &ExecOptions::default(), schedule, true);
            // Identical failures, error strings included.
            assert_eq!(tree, compiled, "{name}");
            assert!(matches!(
                compiled.statuses[&Role::new("q")],
                EndpointStatus::Failed { .. }
            ));
        }
    }
}

#[test]
fn engines_agree_with_recording_off() {
    // With `record_actions` off both engines report empty traces but
    // identical statuses and monitor verdicts.
    let g = generators::ring3();
    let procs = skeleton_procs(&g).expect("ring synthesizes");
    let options = ExecOptions::default().record_actions(false);
    let tree = run(&g, &procs, &options, SCHEDULES[0], false);
    let compiled = run(&g, &procs, &options, SCHEDULES[0], true);
    assert_eq!(tree, compiled);
    assert!(compiled.traces.values().all(Vec::is_empty));
    assert!(compiled.compliant && compiled.complete);
    assert_eq!(compiled.global_trace.len(), 6);
}

#[test]
fn value_flow_matches_through_slots_and_substitution() {
    // Values computed from received payloads must match exactly: Alice sends
    // 1, each hop adds 10, Alice receives 21.
    let g = generators::ring3();
    let forward = |from: &str, to: &str| {
        Proc::recv1(
            Role::new(from),
            "l",
            Sort::Nat,
            "x",
            Proc::send(
                Role::new(to),
                "l",
                Expr::add(Expr::var("x"), Expr::lit(10u64)),
                Proc::Finish,
            ),
        )
    };
    let procs = vec![
        (
            Role::new("Alice"),
            Proc::send(
                Role::new("Bob"),
                "l",
                Expr::lit(1u64),
                Proc::recv1(Role::new("Carol"), "l", Sort::Nat, "y", Proc::Finish),
            ),
        ),
        (Role::new("Bob"), forward("Alice", "Carol")),
        (Role::new("Carol"), forward("Bob", "Alice")),
    ];
    for schedule in SCHEDULES {
        let tree = run(&g, &procs, &ExecOptions::default(), schedule, false);
        let compiled = run(&g, &procs, &ExecOptions::default(), schedule, true);
        assert_eq!(tree, compiled);
        let last = compiled.traces[&Role::new("Alice")].last().unwrap().clone();
        assert_eq!(last.value, Value::Nat(21));
    }
}
