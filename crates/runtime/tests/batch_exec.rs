//! Differential tests: the columnar batch executor
//! ([`SessionBatch`]) against the per-session compiled executor
//! ([`CompiledEndpointTask`]) and the tree-walking oracle
//! ([`EndpointTask`]) — the exhaustive-oracle pattern the ROADMAP mandates
//! for every engine replacement, applied to the batched data plane.
//!
//! A batch steps whole populations of identical sessions in `(role, pc)`
//! cohorts over columnar state; the per-session engines run one session at
//! a time. Because deterministic endpoints have schedule-independent
//! per-endpoint traces and verdicts, every co-batched copy must be
//! observably identical to the stand-alone run:
//!
//! * per-endpoint statuses (`Finished` / `StepLimitReached` / `Stalled` /
//!   `Failed` with the same error string),
//! * per-endpoint value-level traces,
//! * the monitor's verdicts (compliance, completion) — including sessions
//!   that **demote** mid-flight (violations) and finish on the per-session
//!   executor with their traces, monitor cursor and in-flight frames
//!   carried over, and sessions that can never progress again, which the
//!   batch closes as stalled itself.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use zooid_cfsm::System;
use zooid_dsl::synth::{byzantine_driver, skeleton_procs, ByzantineMutation};
use zooid_dsl::Protocol;
use zooid_mpst::global::GlobalType;
use zooid_mpst::{generators, Role, Sort};
use zooid_proc::{erase, CompiledProc, Expr, Externals, Proc, Value, ValueAction};
use zooid_runtime::cbatch::{BatchLayout, BatchOutcome, DemotedSession, SessionBatch};
use zooid_runtime::cexec::{CompiledEndpointTask, EndpointProgram};
use zooid_runtime::exec::{EndpointStatus, EndpointTask, ExecOptions, StepOutcome};
use zooid_runtime::monitor::CompiledMonitor;
use zooid_runtime::transport::{InMemoryNetwork, Transport};

mod common;
use common::int_overflow_cast;

// ---------------------------------------------------------------------
// What every engine must agree on. The *order* of the monitor's global
// trace is schedule-dependent (the batch interleaves sessions its own
// way), so the comparison is per-endpoint traces plus verdicts.
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq)]
struct Observed {
    statuses: BTreeMap<Role, EndpointStatus>,
    traces: BTreeMap<Role, Vec<ValueAction>>,
    compliant: bool,
    complete: bool,
}

/// Builds the shared batch layout for one proc per role, compiled against
/// the protocol's transition tables. `None` when not batch-eligible.
fn make_layout(
    g: &GlobalType,
    procs: &[(Role, Proc)],
    externals: &Externals,
) -> Option<Arc<BatchLayout>> {
    let system = Arc::new(System::from_global(g).expect("projectable").compile());
    let mut sorted = procs.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let roles: Arc<[Role]> = sorted
        .iter()
        .map(|(r, _)| r.clone())
        .collect::<Vec<_>>()
        .into();
    let programs: Vec<Arc<EndpointProgram>> = sorted
        .iter()
        .map(|(role, proc)| {
            Arc::new(EndpointProgram::with_system(
                Arc::new(
                    CompiledProc::compile(proc, role, externals).expect("skeletons compile"),
                ),
                &system,
            ))
        })
        .collect();
    BatchLayout::new(roles, programs, system)
}

/// Runs one session stand-alone on the per-session compiled executor (or
/// the tree oracle), cooperatively on one thread, and returns the
/// observable outcome.
fn run_reference(
    g: &GlobalType,
    procs: &[(Role, Proc)],
    options: &ExecOptions,
    compiled: bool,
) -> Observed {
    let none = Externals::new();
    run_reference_with(g, procs, options, compiled, (&none, &none))
}

/// [`run_reference`] for endpoints lowered against the external signatures
/// of `lowered` that call the actions of `called` (every role gets the
/// same registry).
fn run_reference_with(
    g: &GlobalType,
    procs: &[(Role, Proc)],
    options: &ExecOptions,
    compiled: bool,
    (lowered, called): (&Externals, &Externals),
) -> Observed {
    let mut network = InMemoryNetwork::new(procs.iter().map(|(r, _)| r.clone()));
    let system = Arc::new(System::from_global(g).expect("projectable").compile());
    let mut monitor = CompiledMonitor::new(Arc::clone(&system));
    monitor.set_record_trace(options.record_actions);

    enum AnyTask {
        Tree(EndpointTask),
        Compiled(CompiledEndpointTask),
    }
    let mut tasks: Vec<(Role, AnyTask, _)> = procs
        .iter()
        .map(|(role, proc)| {
            let transport = network.take_endpoint(role).expect("unique roles");
            let task = if compiled {
                let program = Arc::new(EndpointProgram::with_system(
                    Arc::new(
                        CompiledProc::compile(proc, role, lowered).expect("skeletons compile"),
                    ),
                    &system,
                ));
                AnyTask::Compiled(CompiledEndpointTask::new(
                    program,
                    called.clone(),
                    options.clone(),
                ))
            } else {
                AnyTask::Tree(EndpointTask::new(
                    proc.clone(),
                    role.clone(),
                    called.clone(),
                    options.clone(),
                ))
            };
            (role.clone(), task, transport)
        })
        .collect();

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        assert!(rounds < 100_000, "cooperative schedule must terminate");
        let mut progressed = false;
        for (_, task, transport) in tasks.iter_mut() {
            loop {
                let outcome = match task {
                    AnyTask::Tree(t) => t.step(transport, &mut |va| {
                        monitor.observe(&erase(va));
                    }),
                    AnyTask::Compiled(t) => t.step_mem(transport, &mut |va, interned| {
                        match interned {
                            Some(interned) => {
                                monitor.observe_interned(interned, || erase(va));
                            }
                            None => {
                                monitor.observe(&erase(va));
                            }
                        }
                    }),
                };
                match outcome {
                    StepOutcome::Progress => progressed = true,
                    _ => break,
                }
            }
        }
        let done = tasks.iter().all(|(_, t, _)| match t {
            AnyTask::Tree(t) => t.is_done(),
            AnyTask::Compiled(t) => t.is_done(),
        });
        if done {
            break;
        }
        if !progressed {
            for (_, task, _) in tasks.iter_mut() {
                match task {
                    AnyTask::Tree(t) => t.mark_stalled(),
                    AnyTask::Compiled(t) => t.mark_stalled(),
                }
            }
            break;
        }
    }

    let mut statuses = BTreeMap::new();
    let mut traces = BTreeMap::new();
    for (role, task, transport) in tasks {
        let report = match task {
            AnyTask::Tree(t) => t.into_report(),
            AnyTask::Compiled(t) => t.into_report(),
        };
        statuses.insert(role.clone(), report.status);
        traces.insert(role, report.actions);
        drop(transport);
    }
    Observed {
        statuses,
        traces,
        compliant: monitor.is_compliant(),
        complete: monitor.is_complete(),
    }
}

fn observed_outcome(outcome: BatchOutcome) -> Observed {
    Observed {
        statuses: outcome
            .endpoints
            .iter()
            .map(|r| (r.role.clone(), r.status.clone()))
            .collect(),
        traces: outcome
            .endpoints
            .into_iter()
            .map(|r| (r.role, r.actions))
            .collect(),
        compliant: outcome.compliant,
        complete: outcome.complete,
    }
}

/// Resumes a demoted session on the per-session compiled executor (the
/// server never does: it closes a violator from the extracted state) and
/// runs it to its conclusion.
fn finish_demoted(demoted: DemotedSession, layout: &Arc<BatchLayout>) -> Observed {
    let DemotedSession {
        options,
        endpoints,
        mut monitor,
        frames,
        ..
    } = demoted;
    let mut network = InMemoryNetwork::from_sorted(Arc::clone(layout.roles()));
    let roles: Vec<Role> = endpoints.iter().map(|ep| ep.role.clone()).collect();
    let mut tasks: Vec<(Role, CompiledEndpointTask, _)> = endpoints
        .into_iter()
        .map(|ep| {
            let transport = network.take_endpoint(&ep.role).expect("sorted roles");
            let role = ep.role.clone();
            let task = CompiledEndpointTask::resume(
                ep.program,
                Externals::new(),
                options.clone(),
                ep.pc,
                ep.slots,
                ep.actions,
                ep.steps,
                ep.status,
            );
            (role, task, transport)
        })
        .collect();
    // Re-inject the frames that were in flight in the batch arena; sending
    // through the original sender's transport preserves per-channel FIFO.
    for (from, to, label, value) in frames {
        let (_, _, transport) = &mut tasks[from as usize];
        transport
            .send(&roles[to as usize], &label, &value)
            .expect("co-batched roles are network peers");
    }

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        assert!(rounds < 100_000, "resumed session must terminate");
        let mut progressed = false;
        for (_, task, transport) in tasks.iter_mut() {
            while let StepOutcome::Progress =
                task.step_mem(transport, &mut |va, interned| match interned {
                    Some(interned) => {
                        monitor.observe_interned(interned, || erase(va));
                    }
                    None => {
                        monitor.observe(&erase(va));
                    }
                })
            {
                progressed = true;
            }
        }
        if tasks.iter().all(|(_, t, _)| t.is_done()) {
            break;
        }
        if !progressed {
            for (_, task, _) in tasks.iter_mut() {
                task.mark_stalled();
            }
            break;
        }
    }

    let mut statuses = BTreeMap::new();
    let mut traces = BTreeMap::new();
    for (role, task, transport) in tasks {
        let report = task.into_report();
        statuses.insert(role.clone(), report.status);
        traces.insert(role, report.actions);
        drop(transport);
    }
    Observed {
        statuses,
        traces,
        compliant: monitor.is_compliant(),
        complete: monitor.is_complete(),
    }
}

/// Runs `copies` identical sessions through one batch to their conclusion
/// (demoted violators are finished on the per-session executor) and
/// returns each session's observation, in admission order.
fn run_batch(layout: &Arc<BatchLayout>, options: &ExecOptions, copies: usize) -> Vec<Observed> {
    run_batch_with(layout, options, copies, &Externals::new())
}

/// [`run_batch`] for sessions whose every endpoint calls the actions of
/// `called`.
fn run_batch_with(
    layout: &Arc<BatchLayout>,
    options: &ExecOptions,
    copies: usize,
    called: &Externals,
) -> Vec<Observed> {
    let mut batch = SessionBatch::new(Arc::clone(layout), options.clone(), copies);
    let externals = vec![called.clone(); layout.roles().len()];
    for token in 0..copies {
        assert!(
            batch.admit_with_externals(token as u64, externals.clone()),
            "batch sized for the population"
        );
    }
    let out = batch.run_quantum(usize::MAX);
    assert!(
        batch.is_empty(),
        "an unbounded quantum concludes or demotes every session"
    );
    let mut results: Vec<(u64, Observed)> = Vec::with_capacity(copies);
    for outcome in out.finished {
        results.push((outcome.token, observed_outcome(outcome)));
    }
    for demoted in out.demoted {
        let token = demoted.token;
        results.push((token, finish_demoted(demoted, layout)));
    }
    results.sort_by_key(|(token, _)| *token);
    assert_eq!(results.len(), copies, "every admitted session reports");
    results.into_iter().map(|(_, observed)| observed).collect()
}

/// Requires tree, per-session compiled and every co-batched copy (at each
/// width) to agree exactly.
fn assert_batch_agrees(
    g: &GlobalType,
    procs: &[(Role, Proc)],
    options: &ExecOptions,
    widths: &[usize],
    context: &str,
) {
    let none = Externals::new();
    assert_batch_agrees_with(g, procs, options, widths, context, (&none, &none));
}

/// [`assert_batch_agrees`] for endpoints lowered against `lowered` that call
/// `called`; returns the per-session compiled executor's observation.
fn assert_batch_agrees_with(
    g: &GlobalType,
    procs: &[(Role, Proc)],
    options: &ExecOptions,
    widths: &[usize],
    context: &str,
    (lowered, called): (&Externals, &Externals),
) -> Observed {
    let reference = run_reference_with(g, procs, options, true, (lowered, called));
    let tree = run_reference_with(g, procs, options, false, (lowered, called));
    assert_eq!(reference, tree, "{context}: slab-compiled vs tree diverge");
    let layout = make_layout(g, procs, lowered).expect("one program per role");
    for &width in widths {
        for (i, observed) in run_batch_with(&layout, options, width, called)
            .into_iter()
            .enumerate()
        {
            assert_eq!(
                observed, reference,
                "{context}: batched copy {i} of {width} diverges"
            );
        }
    }
    reference
}

// ---------------------------------------------------------------------
// The suites
// ---------------------------------------------------------------------

#[test]
fn batch_agrees_with_slab_and_tree_on_the_case_studies() {
    let cases: Vec<(&str, GlobalType, ExecOptions)> = vec![
        ("ring3", generators::ring3(), ExecOptions::default()),
        ("ring8", generators::ring_n(8), ExecOptions::default()),
        ("two_buyer", generators::two_buyer(), ExecOptions::default()),
        ("fanout5", generators::fanout_n(5), ExecOptions::default()),
        ("branching3", generators::branching(3), ExecOptions::default()),
        // The looping families run to their step limit; the endpoint that
        // then blocks forever exercises the no-progress demotion path.
        ("pipeline", generators::pipeline(), ExecOptions::with_max_steps(12)),
        ("chain5", generators::chain_n(5), ExecOptions::with_max_steps(9)),
        ("ping_pong", generators::ping_pong(), ExecOptions::with_max_steps(7)),
    ];
    for (name, g, options) in cases {
        let procs = skeleton_procs(&g).expect("case studies synthesize");
        assert_batch_agrees(&g, &procs, &options, &[1, 5, 64], name);
    }
    // ... and a cast whose `q` overflows integer division fails alike.
    let (g, procs) = int_overflow_cast();
    assert_batch_agrees(&g, &procs, &ExecOptions::default(), &[1, 5], "int overflow");
}

#[test]
fn a_blocked_session_is_closed_as_stalled_inside_the_batch() {
    // Pipeline under a step limit: the upstream endpoints hit their limits,
    // the tail receiver then waits for a message that will never be sent,
    // and a full pass without progress proves it. The session is over, so
    // the batch closes it — nothing is demoted for the slab to rebuild,
    // step once and close — and it closes exactly as the per-session
    // executor does when it runs the same cast from the start.
    let g = generators::pipeline();
    let procs = skeleton_procs(&g).expect("pipeline synthesizes");
    let options = ExecOptions::with_max_steps(10);
    let reference = run_reference(&g, &procs, &options, true);
    assert!(reference.statuses.values().any(|s| *s == EndpointStatus::Stalled));
    assert!(reference.statuses.values().any(|s| *s == EndpointStatus::StepLimitReached));

    let layout = make_layout(&g, &procs, &Externals::new()).expect("eligible");
    let mut batch = SessionBatch::new(Arc::clone(&layout), options.clone(), 8);
    for token in 0..8 {
        assert!(batch.admit(token));
    }
    let out = batch.run_quantum(usize::MAX);
    assert!(batch.is_empty());
    assert!(out.demoted.is_empty(), "a session that is over does not change executor");
    assert_eq!(out.finished.len(), 8);
    for outcome in out.finished {
        assert!(outcome.stalled, "session {} closed with endpoints mid-protocol", outcome.token);
        assert_eq!(observed_outcome(outcome), reference);
    }
}

#[test]
fn batch_agrees_on_loops_with_internal_steps_between_communications() {
    // `mu X. p -> q : tick(nat). q -> p : tock(nat). X`, with both senders
    // choosing their payload through two nested conditionals: every lap
    // spends internal `if` steps and loop back-edges against the admin fuel,
    // whose accounting the batch and slab executors share and the tree
    // executor referees.
    let (p, q) = (Role::new("p"), Role::new("q"));
    let g = GlobalType::rec(GlobalType::msg1(
        p.clone(),
        q.clone(),
        "tick",
        Sort::Nat,
        GlobalType::msg1(q.clone(), p.clone(), "tock", Sort::Nat, GlobalType::var(0)),
    ));
    let tick = |n: u64| {
        Proc::send(
            q.clone(),
            "tick",
            Expr::lit(n),
            Proc::recv1(q.clone(), "tock", Sort::Nat, "y", Proc::Jump(0)),
        )
    };
    let tock = |e: Expr| Proc::send(p.clone(), "tock", e, Proc::Jump(0));
    let x = || Expr::var("x");
    let procs = vec![
        (
            p.clone(),
            Proc::loop_(Proc::cond(
                Expr::lt(Expr::lit(0u64), Expr::lit(1u64)),
                Proc::cond(Expr::eq(Expr::lit(1u64), Expr::lit(2u64)), tick(1), tick(2)),
                tick(3),
            )),
        ),
        (
            q.clone(),
            Proc::loop_(Proc::recv1(
                p.clone(),
                "tick",
                Sort::Nat,
                "x",
                Proc::cond(
                    Expr::lt(x(), Expr::lit(5u64)),
                    Proc::cond(
                        Expr::eq(x(), Expr::lit(2u64)),
                        tock(Expr::add(x(), Expr::lit(1u64))),
                        tock(Expr::lit(0u64)),
                    ),
                    tock(Expr::lit(9u64)),
                ),
            )),
        ),
    ];
    let protocol = zooid_dsl::Protocol::new("gated_metronome", g.clone()).expect("well-formed");
    for (role, proc) in &procs {
        protocol
            .implement_against_projection(role, proc.clone(), &Externals::new())
            .expect("the gated loops certify");
    }
    let options = ExecOptions::with_max_steps(9);
    assert_batch_agrees(&g, &procs, &options, &[1, 5, 64], "gated_metronome");
    // The conditionals really ran: q answered `tick(2)` with `x + 1`.
    let reference = run_reference(&g, &procs, &options, true);
    assert_eq!(reference.traces[&q][1].value, Value::Nat(3));
}

#[test]
fn batch_agrees_on_randomized_projectable_protocols() {
    let params = generators::RandomProtocol::default();
    let options = ExecOptions::with_max_steps(24);
    let mut covered = 0;
    for seed in 0..400u64 {
        if covered >= 20 {
            break;
        }
        let g = generators::random_global(seed, &params);
        let Some(procs) = skeleton_procs(&g) else {
            continue;
        };
        if make_layout(&g, &procs, &Externals::new()).is_none() {
            continue;
        }
        covered += 1;
        assert_batch_agrees(&g, &procs, &options, &[4], &format!("seed {seed}"));
    }
    assert!(covered >= 10, "corpus too small: {covered}");
}

#[test]
fn batch_agrees_with_recording_off() {
    let g = generators::ring3();
    let procs = skeleton_procs(&g).expect("ring synthesizes");
    let options = ExecOptions::default().record_actions(false);
    let reference = run_reference(&g, &procs, &options, true);
    let layout = make_layout(&g, &procs, &Externals::new()).expect("eligible");
    for observed in run_batch(&layout, &options, 16) {
        assert_eq!(observed, reference);
        assert!(observed.traces.values().all(Vec::is_empty));
        assert!(observed.compliant && observed.complete);
    }
}

#[test]
fn external_actions_run_in_the_batch_as_on_the_other_executors() {
    // `mu X. p -> q : tick(nat). X`, where every lap `p` reads a value from
    // its environment, logs it, and sends what an interaction makes of it.
    let (p, q) = (Role::new("p"), Role::new("q"));
    let g = GlobalType::rec(GlobalType::msg1(
        p.clone(),
        q.clone(),
        "tick",
        Sort::Nat,
        GlobalType::var(0),
    ));
    let procs = vec![
        (
            p.clone(),
            Proc::loop_(Proc::read(
                "src",
                "x",
                Proc::write(
                    "log",
                    Expr::var("x"),
                    Proc::interact(
                        "double",
                        Expr::var("x"),
                        "y",
                        Proc::send(q.clone(), "tick", Expr::var("y"), Proc::Jump(0)),
                    ),
                ),
            )),
        ),
        (
            q.clone(),
            Proc::loop_(Proc::recv1(
                p.clone(),
                "tick",
                Sort::Nat,
                "x",
                Proc::Jump(0),
            )),
        ),
    ];
    let logged = Arc::new(AtomicU64::new(0));
    let mut externals = Externals::new();
    externals.register_read("src", Sort::Nat, || Value::Nat(7));
    let sink = Arc::clone(&logged);
    externals.register_write("log", Sort::Nat, move |v| {
        sink.fetch_add(v.as_nat().unwrap(), Ordering::Relaxed);
    });
    externals.register_interact("double", Sort::Nat, Sort::Nat, |v| {
        Value::Nat(v.as_nat().unwrap() * 2)
    });
    let protocol = zooid_dsl::Protocol::new("sourced_ticker", g.clone()).expect("well-formed");
    for (role, proc) in &procs {
        protocol
            .implement_against_projection(role, proc.clone(), &externals)
            .expect("the external loop certifies");
    }
    let options = ExecOptions::with_max_steps(6);
    let both = (&externals, &externals);
    let reference = assert_batch_agrees_with(&g, &procs, &options, &[1, 5, 64], "externals", both);
    assert!(reference.compliant);
    assert!(reference.traces[&q]
        .iter()
        .all(|a| a.value == Value::Nat(14)));
    // Each session logs a 7 on six laps, and on a seventh whose send then
    // finds the step limit: on every run, slab, tree and 1 + 5 + 64 batched
    // copies.
    assert_eq!(logged.load(Ordering::Relaxed), 7 * 7 * (2 + 1 + 5 + 64));

    // Without its implementations the first call fails the endpoint, with
    // the same error on every executor, and its peer stalls.
    let missing = assert_batch_agrees_with(
        &g,
        &procs,
        &options,
        &[1, 5],
        "missing external",
        (&externals, &Externals::new()),
    );
    let EndpointStatus::Failed { error } = &missing.statuses[&p] else {
        panic!("a missing external fails its endpoint: {missing:?}");
    };
    assert!(error.contains("src"), "{error}");
    assert_eq!(missing.statuses[&q], EndpointStatus::Stalled);
}

#[test]
fn an_external_value_of_the_wrong_sort_is_sent_and_rejected_alike() {
    // `p` is certified and lowered against `compute : nat -> nat`, but the
    // implementation it runs with answers a bool. The send of that answer
    // cannot use its pre-interned `nat` action: every executor observes it
    // at `bool`, which the protocol does not have, and `q` refuses the
    // payload.
    let (p, q) = (Role::new("p"), Role::new("q"));
    let g = GlobalType::msg1(p.clone(), q.clone(), "m", Sort::Nat, GlobalType::End);
    let procs = vec![
        (
            p.clone(),
            Proc::interact(
                "compute",
                Expr::lit(1u64),
                "y",
                Proc::send(q.clone(), "m", Expr::var("y"), Proc::Finish),
            ),
        ),
        (
            q.clone(),
            Proc::recv1(p.clone(), "m", Sort::Nat, "x", Proc::Finish),
        ),
    ];
    let mut declared = Externals::new();
    declared.register_interact("compute", Sort::Nat, Sort::Nat, |v| v);
    let mut answering = Externals::new();
    answering.register_interact("compute", Sort::Nat, Sort::Bool, |_| Value::Bool(true));
    let options = ExecOptions::default();
    let context = "wrong-sorted external";
    let reference = assert_batch_agrees_with(
        &g,
        &procs,
        &options,
        &[1, 4],
        context,
        (&declared, &answering),
    );
    assert!(!reference.compliant, "the bool send is a violation");
    assert_eq!(reference.traces[&p][0].sort, Sort::Bool);
    assert!(matches!(
        reference.statuses[&q],
        EndpointStatus::Failed { .. }
    ));
}

#[test]
fn a_certified_right_injection_is_accepted_on_every_executor() {
    // `p -> q : m(unit + bool)`, with `p` sending `inr true`: the literal's
    // sort is `unit + bool` to typing, to lowering and to every executor's
    // recording, so the monitor accepts it.
    let (p, q) = (Role::new("p"), Role::new("q"));
    let sum = Sort::sum(Sort::Unit, Sort::Bool);
    let g = GlobalType::msg1(p.clone(), q.clone(), "m", sum.clone(), GlobalType::End);
    let procs = vec![
        (
            p.clone(),
            Proc::send(
                q.clone(),
                "m",
                Expr::lit(Value::inr(Value::Bool(true))),
                Proc::Finish,
            ),
        ),
        (
            q.clone(),
            Proc::recv1(p.clone(), "m", sum.clone(), "x", Proc::Finish),
        ),
    ];
    let protocol = zooid_dsl::Protocol::new("right", g.clone()).expect("well-formed");
    for (role, proc) in &procs {
        protocol
            .implement_against_projection(role, proc.clone(), &Externals::new())
            .expect("the injection certifies");
    }
    assert_batch_agrees(&g, &procs, &ExecOptions::default(), &[1, 4], "inr");
    let reference = run_reference(&g, &procs, &ExecOptions::default(), true);
    assert!(reference.compliant && reference.complete, "{reference:?}");
    assert_eq!(reference.traces[&p][0].sort, sum);
}

#[test]
fn mid_flight_demotion_carries_traces_cursor_and_frames() {
    // Roles named so the *sender* sorts after the receiver: the batch pass
    // steps `a` (blocked) before `z` (sends), leaving the frame in flight
    // in the arena when the quantum ends — the handoff must re-inject it.
    let z = Role::new("z");
    let a = Role::new("a");
    let g = GlobalType::msg1(
        z.clone(),
        a.clone(),
        "one",
        Sort::Nat,
        GlobalType::msg1(z.clone(), a.clone(), "two", Sort::Nat, GlobalType::End),
    );
    let procs = vec![
        (
            z.clone(),
            Proc::send(
                a.clone(),
                "one",
                Expr::lit(1u64),
                Proc::send(a.clone(), "two", Expr::lit(2u64), Proc::Finish),
            ),
        ),
        (
            a.clone(),
            Proc::recv1(
                z.clone(),
                "one",
                Sort::Nat,
                "x",
                Proc::recv1(z.clone(), "two", Sort::Nat, "y", Proc::Finish),
            ),
        ),
    ];
    let options = ExecOptions::default();
    let reference = run_reference(&g, &procs, &options, true);
    let layout = make_layout(&g, &procs, &Externals::new()).expect("eligible");

    let mut batch = SessionBatch::new(Arc::clone(&layout), options.clone(), 4);
    for token in 0..4u64 {
        assert!(batch.admit(token));
    }
    // One pass: `z` performed its first send, `a` saw an empty queue.
    let out = batch.run_quantum(1);
    assert!(out.finished.is_empty() && out.demoted.is_empty());
    assert_eq!(batch.live_count(), 4);

    // Pull half the population out mid-flight and finish it on the
    // per-session executor; the rest concludes inside the batch.
    let mut results: Vec<(u64, Observed)> = Vec::new();
    for token in 0..2u64 {
        let demoted = batch.demote_now(token).expect("live session");
        assert_eq!(demoted.token, token);
        assert!(
            !demoted.frames.is_empty(),
            "the first send was still in flight"
        );
        assert!(
            demoted.endpoints.iter().any(|ep| ep.steps > 0),
            "the sender's progress is carried over"
        );
        results.push((token, finish_demoted(demoted, &layout)));
    }
    let rest = batch.run_quantum(usize::MAX);
    assert!(batch.is_empty());
    assert!(rest.demoted.is_empty());
    for outcome in rest.finished {
        results.push((outcome.token, observed_outcome(outcome)));
    }
    assert_eq!(results.len(), 4);
    for (token, observed) in results {
        assert_eq!(observed, reference, "session {token}");
    }
}

#[test]
fn violating_sessions_demote_after_the_offending_action_and_agree() {
    // Both labels exist in the protocol (so the sites intern and the layout
    // is eligible), but `p` performs them in the wrong order: the monitor
    // rejects the first send, the batch completes that action and then
    // demotes the session, and the slab finishes it — with verdicts and
    // traces identical to running the saboteur per-session from the start.
    let p = Role::new("p");
    let q = Role::new("q");
    let g = GlobalType::msg1(
        p.clone(),
        q.clone(),
        "first",
        Sort::Nat,
        GlobalType::msg1(p.clone(), q.clone(), "second", Sort::Nat, GlobalType::End),
    );
    let procs = vec![
        (
            p.clone(),
            Proc::send(
                q.clone(),
                "second",
                Expr::lit(2u64),
                Proc::send(q.clone(), "first", Expr::lit(1u64), Proc::Finish),
            ),
        ),
        (
            q.clone(),
            Proc::recv1(
                p.clone(),
                "second",
                Sort::Nat,
                "x",
                Proc::recv1(p.clone(), "first", Sort::Nat, "y", Proc::Finish),
            ),
        ),
    ];
    let options = ExecOptions::default();
    let reference = run_reference(&g, &procs, &options, true);
    let tree = run_reference(&g, &procs, &options, false);
    assert_eq!(reference, tree);
    assert!(!reference.compliant, "the saboteur violates the protocol");

    let layout = make_layout(&g, &procs, &Externals::new()).expect("eligible");
    let mut batch = SessionBatch::new(Arc::clone(&layout), options.clone(), 8);
    for token in 0..8u64 {
        assert!(batch.admit(token));
    }
    let out = batch.run_quantum(usize::MAX);
    assert!(batch.is_empty());
    assert_eq!(out.demoted.len(), 8, "every violating session demotes");
    assert!(out.finished.is_empty());
    for demoted in out.demoted {
        let observed = finish_demoted(demoted, &layout);
        assert_eq!(observed, reference);
    }
}

#[test]
fn every_extraction_rebuilds_the_monitor_cursor_its_trace_replays_to() {
    // The batch keeps no cursor: the monitor's machine states are a column
    // and its queues are the frame arena, so an extraction rebuilds the
    // cursor. It must be exactly the one the compliant trace replays to,
    // also where the arena and the monitor's queue part: a rejected send's
    // frame (in the arena, never queued), a rejected receive's message (off
    // the arena, still queued) and a receive that fails before it is
    // observed (its frame stays queued). For every cut, fresh sessions run
    // that many passes, every one still live is taken out, and each must
    // still end on the per-session executor as the uninterrupted run does.
    type Case = (String, GlobalType, Vec<(Role, Proc)>, ExecOptions);
    let mut cases: Vec<Case> = Vec::new();
    for (name, g, options) in [
        ("ring3", generators::ring3(), ExecOptions::default()),
        ("two_buyer", generators::two_buyer(), ExecOptions::default()),
        ("fanout5", generators::fanout_n(5), ExecOptions::default()),
        ("branching3", generators::branching(3), ExecOptions::default()),
        ("pipeline", generators::pipeline(), ExecOptions::with_max_steps(12)),
        ("ping_pong", generators::ping_pong(), ExecOptions::with_max_steps(7)),
    ] {
        let procs = skeleton_procs(&g).expect("case studies synthesize");
        cases.push((name.to_owned(), g, procs, options));
    }
    let params = generators::RandomProtocol::default();
    for seed in 0..400u64 {
        if cases.len() >= 14 {
            break;
        }
        let g = generators::random_global(seed, &params);
        let Some(procs) = skeleton_procs(&g) else {
            continue;
        };
        if make_layout(&g, &procs, &Externals::new()).is_some() {
            cases.push((format!("seed {seed}"), g, procs, ExecOptions::with_max_steps(24)));
        }
    }
    let (p, q) = (Role::new("p"), Role::new("q"));
    let sum = Sort::sum(Sort::Unit, Sort::Bool);
    let twice = |l1: &str, l2: &str, sort: &Sort| {
        GlobalType::msg1(
            p.clone(),
            q.clone(),
            l1,
            sort.clone(),
            GlobalType::msg1(p.clone(), q.clone(), l2, sort.clone(), GlobalType::End),
        )
    };
    let sends = |l1: &str, l2: &str, v: Value| {
        let second = Proc::send(q.clone(), l2, Expr::lit(v.clone()), Proc::Finish);
        Proc::send(q.clone(), l1, Expr::lit(v), second)
    };
    let recvs = |l1: &str, l2: &str, sort: Sort| {
        let second = Proc::recv1(p.clone(), l2, sort.clone(), "y", Proc::Finish);
        Proc::recv1(p.clone(), l1, sort, "x", second)
    };
    let right = Value::inr(Value::Bool(true));
    // `p` sends `second` before `first`: the monitor rejects the send.
    let order = twice("first", "second", &Sort::Nat);
    let saboteur = vec![
        (p.clone(), sends("second", "first", Value::Nat(2))),
        (q.clone(), recvs("second", "first", Sort::Nat)),
    ];
    // `q` takes `inr true` at `nat + bool`, which its program accepts and
    // the protocol does not: the monitor rejects the receive.
    let misread = vec![
        (p.clone(), sends("m", "m", right.clone())),
        (q.clone(), recvs("m", "m", Sort::sum(Sort::Nat, Sort::Bool))),
    ];
    // At `unit + nat` the payload does not fit: the receive fails before
    // the monitor sees it, and `p` sends on.
    let refused = vec![
        (p.clone(), sends("m", "m", right)),
        (q.clone(), recvs("m", "m", Sort::sum(Sort::Unit, Sort::Nat))),
    ];
    let sums = twice("m", "m", &sum);
    cases.push(("rejected send".into(), order, saboteur, ExecOptions::default()));
    cases.push(("rejected receive".into(), sums.clone(), misread, ExecOptions::default()));
    cases.push(("bad payload".into(), sums, refused, ExecOptions::default()));

    let width = 3u64;
    for (name, g, procs, options) in cases {
        let layout = make_layout(&g, &procs, &Externals::new()).expect("one program per role");
        let system = Arc::clone(layout.system());
        let exact = |monitor: &CompiledMonitor, context: &str| {
            let mut replay = system.monitor_cursor();
            for action in monitor.trace().iter() {
                assert!(system.observe(&mut replay, action), "{name}: {context}: {action}");
            }
            assert_eq!(&replay, monitor.cursor(), "{name}: {context}");
        };
        let uninterrupted = run_batch(&layout, &options, 1).pop().expect("one session");
        for cut in 0.. {
            assert!(cut < 10_000, "{name}: the sessions must end");
            let mut batch = SessionBatch::new(Arc::clone(&layout), options.clone(), width as usize);
            for token in 0..width {
                assert!(batch.admit(token));
            }
            let mut results: Vec<(u64, Observed)> = Vec::new();
            for pass in 0..cut {
                let out = batch.run_quantum(1);
                for outcome in out.finished {
                    results.push((outcome.token, observed_outcome(outcome)));
                }
                for demoted in out.demoted {
                    exact(&demoted.monitor, &format!("violation at pass {pass}"));
                    results.push((demoted.token, finish_demoted(demoted, &layout)));
                }
            }
            let live = !batch.is_empty();
            for demoted in batch.demote_all() {
                exact(&demoted.monitor, &format!("live after {cut} passes"));
                results.push((demoted.token, finish_demoted(demoted, &layout)));
            }
            assert_eq!(results.len(), width as usize, "{name}: every session reports");
            for (token, observed) in results {
                assert_eq!(observed, uninterrupted, "{name}: session {token} cut at {cut} diverges");
            }
            if !live {
                break;
            }
        }
    }
}

#[test]
fn value_flow_matches_through_columns() {
    // Values computed from received payloads must match exactly through the
    // strided column evaluation: Alice sends 1, each hop adds 10, Alice
    // receives 21.
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
    let options = ExecOptions::default();
    let reference = run_reference(&g, &procs, &options, true);
    let layout = make_layout(&g, &procs, &Externals::new()).expect("eligible");
    for observed in run_batch(&layout, &options, 32) {
        assert_eq!(observed, reference);
        let last = observed.traces[&Role::new("Alice")].last().unwrap().clone();
        assert_eq!(last.value, Value::Nat(21));
    }
}

#[test]
fn a_batch_grown_mid_flight_agrees() {
    // A shard's batch starts at one slot and doubles when it is full.
    // Sessions admitted one by one between short quanta make every doubling
    // re-stride columns holding live sessions, slot values and frames in
    // flight; before each doubling one live session is taken out and
    // finished on the per-session executor. Every session must still match
    // its stand-alone run.
    let (p, q) = (Role::new("p"), Role::new("q"));
    let ticker = GlobalType::rec(GlobalType::msg1(
        p.clone(),
        q.clone(),
        "tick",
        Sort::Nat,
        GlobalType::var(0),
    ));
    let sourced = vec![
        (
            p.clone(),
            Proc::loop_(Proc::read(
                "src",
                "x",
                Proc::send(q.clone(), "tick", Expr::var("x"), Proc::Jump(0)),
            )),
        ),
        (
            q.clone(),
            Proc::loop_(Proc::recv1(p.clone(), "tick", Sort::Nat, "x", Proc::Jump(0))),
        ),
    ];
    let mut source = Externals::new();
    source.register_read("src", Sort::Nat, || Value::Nat(7));
    let none = Externals::new();
    let skeleton = |g: GlobalType| {
        let procs = skeleton_procs(&g).expect("case studies synthesize");
        (g, procs)
    };
    let cases = vec![
        ("ring8", skeleton(generators::ring_n(8)), ExecOptions::default(), &none),
        ("two_buyer", skeleton(generators::two_buyer()), ExecOptions::default(), &none),
        ("pipeline", skeleton(generators::pipeline()), ExecOptions::with_max_steps(12), &none),
        ("externals", (ticker, sourced), ExecOptions::with_max_steps(6), &source),
        (
            "untraced",
            skeleton(generators::ring3()),
            ExecOptions::default().record_actions(false),
            &none,
        ),
    ];
    for (name, (g, procs), options, externals) in cases {
        let reference = run_reference_with(&g, &procs, &options, true, (externals, externals));
        let layout = make_layout(&g, &procs, externals).expect("one program per role");
        let per_role = vec![externals.clone(); layout.roles().len()];
        let mut batch = SessionBatch::new(Arc::clone(&layout), options.clone(), 1);
        let mut results: Vec<(u64, Observed)> = Vec::new();
        let mut collect = |out: zooid_runtime::cbatch::BatchQuantum| {
            for outcome in out.finished {
                results.push((outcome.token, observed_outcome(outcome)));
            }
            for demoted in out.demoted {
                results.push((demoted.token, finish_demoted(demoted, &layout)));
            }
        };
        let (mut doublings, mut cut) = (0, Vec::new());
        for token in 0..40u64 {
            if batch.is_full() {
                // A session finished from a demotion runs with no external
                // actions, so only a cast that calls none is cut.
                if !layout.calls_externals() {
                    cut.extend((0..token).rev().find_map(|t| batch.demote_now(t)));
                }
                batch.grow(2 * batch.capacity());
                doublings += 1;
            }
            assert!(batch.admit_with_externals(token, per_role.clone()));
            collect(batch.run_quantum(3));
        }
        collect(batch.run_quantum(usize::MAX));
        assert!(batch.is_empty(), "{name}: an unbounded quantum drains the batch");
        assert!(doublings >= 3, "{name}: the batch doubled {doublings} times");
        if !layout.calls_externals() {
            assert!(!cut.is_empty(), "{name}: no session was live at a doubling");
        }
        for demoted in cut {
            results.push((demoted.token, finish_demoted(demoted, &layout)));
        }
        results.sort_by_key(|(token, _)| *token);
        assert_eq!(results.len(), 40, "{name}: every session reports");
        for (t, observed) in results {
            assert_eq!(observed, reference, "{name}: session {t} diverges");
        }
    }
}

#[test]
fn a_sparse_batch_reuses_freed_slots_out_of_order_and_agrees() {
    // A server batch has 512 slots and usually holds a handful of sessions
    // admitted at different times. Waves of admissions between short
    // quanta, plus one straggler pulled out of the middle, free slots in an
    // order unrelated to admission order, and the next wave takes them
    // back in that order: the live sessions sit on scattered slots. Every
    // session — closed in the batch or finished on the slab after its
    // demotion — must still match the stand-alone run.
    let cases: Vec<(&str, GlobalType, ExecOptions)> = vec![
        ("ring4", generators::ring_n(4), ExecOptions::default()),
        ("pipeline", generators::pipeline(), ExecOptions::with_max_steps(12)),
    ];
    for (name, g, options) in cases {
        let procs = skeleton_procs(&g).expect("case studies synthesize");
        let reference = run_reference(&g, &procs, &options, true);
        let layout = make_layout(&g, &procs, &Externals::new()).expect("eligible");
        let mut batch = SessionBatch::new(Arc::clone(&layout), options.clone(), 512);
        let mut results: Vec<(u64, Observed)> = Vec::new();
        let collect = |out: zooid_runtime::cbatch::BatchQuantum,
                           results: &mut Vec<(u64, Observed)>| {
            for outcome in out.finished {
                results.push((outcome.token, observed_outcome(outcome)));
            }
            for demoted in out.demoted {
                results.push((demoted.token, finish_demoted(demoted, &layout)));
            }
        };
        let mut token = 0u64;
        for wave in [3u64, 2, 4, 1, 3, 2] {
            for _ in 0..wave {
                assert!(batch.admit(token));
                token += 1;
            }
            collect(batch.run_quantum(2), &mut results);
            if token == 9 {
                let straggler = token - 2;
                let demoted = batch.demote_now(straggler).expect("live session");
                results.push((straggler, finish_demoted(demoted, &layout)));
            }
            collect(batch.run_quantum(3), &mut results);
        }
        collect(batch.run_quantum(usize::MAX), &mut results);
        assert!(batch.is_empty(), "{name}: an unbounded quantum drains the batch");
        results.sort_by_key(|(token, _)| *token);
        assert_eq!(results.len(), token as usize, "{name}: every session reports");
        for (t, observed) in results {
            assert_eq!(observed, reference, "{name}: session {t} diverges");
        }
    }
}

/// `mu X. hub -> w_i : task(nat) ... w_i -> hub : ack(unit) ... X`: each
/// round the hub sends one task to every worker and then collects every
/// ack.
fn fanout_loop(n: usize) -> GlobalType {
    let hub = Role::new("hub");
    let workers: Vec<Role> = (0..n).map(|i| Role::new(format!("w{i}"))).collect();
    let mut g = GlobalType::var(0);
    for w in workers.iter().rev() {
        g = GlobalType::msg1(w.clone(), hub.clone(), "ack", Sort::Unit, g);
    }
    for w in workers.iter().rev() {
        g = GlobalType::msg1(hub.clone(), w.clone(), "task", Sort::Nat, g);
    }
    GlobalType::rec(g)
}

/// The byzantine casts of `ring3`, one per mutation: Alice, the sender of
/// the first message, runs the skeleton of a decoy ring, and Bob and Carol
/// run the honest one. `synth` builds three. Its premature-silence decoy
/// keeps only the first message's two roles, so it has no `ring3` driver;
/// that cast runs the skeleton of the decoy `Alice → Bob : l(Nat) . end`.
fn ring3_byzantine_casts() -> Vec<(String, Vec<(Role, Proc)>)> {
    let ring = Protocol::new("ring3", generators::ring3()).expect("the ring is well-formed");
    let mut casts: Vec<_> = ByzantineMutation::all()
        .into_iter()
        .filter_map(|mutation| {
            let driver = byzantine_driver(&ring, mutation).expect("decoys certify")?;
            let endpoints = driver.endpoints.iter();
            let cast = endpoints.map(|(cert, _)| (cert.role().clone(), cert.proc().clone()));
            Some((mutation.to_string(), cast.collect()))
        })
        .collect();
    let alice = Role::new("Alice");
    let silent = GlobalType::msg1(alice.clone(), Role::new("Bob"), "l", Sort::Nat, GlobalType::End);
    let decoy = skeleton_procs(&silent).expect("the decoy synthesizes");
    let honest = skeleton_procs(ring.global()).expect("the ring synthesizes");
    let mut cast: Vec<_> = honest.into_iter().filter(|(role, _)| *role != alice).collect();
    cast.extend(decoy.into_iter().filter(|(role, _)| *role == alice));
    casts.push((ByzantineMutation::PrematureSilence.to_string(), cast));
    for (_, cast) in &mut casts {
        cast.sort_by_key(|(role, _)| *role == alice); // the actor runs last
    }
    casts
}

/// A session's global trace and its per-endpoint value traces, in batch
/// role order, by token.
type Recorded = (zooid_mpst::Trace, Vec<Vec<ValueAction>>);

fn recorded(out: zooid_runtime::cbatch::BatchQuantum, into: &mut BTreeMap<u64, Recorded>) {
    for outcome in out.finished {
        let values = outcome.endpoints.into_iter().map(|e| e.actions).collect();
        into.insert(outcome.token, (outcome.global_trace, values));
    }
    for demoted in out.demoted {
        let values = demoted.endpoints.into_iter().map(|e| e.actions).collect();
        into.insert(demoted.token, (demoted.monitor.trace().clone(), values));
    }
}

#[test]
fn a_sessions_interleaving_does_not_depend_on_its_batch() {
    // A batch steps a session in whole passes, every live endpoint once per
    // pass in role order, so the order of a session's actions is fixed by
    // its cast alone: run alone to its end, or as one of 64 sessions
    // admitted in two waves and stepped in quanta of 1, 7 or 64 actions, it
    // records the same global trace and the same value traces. Re-running
    // an unrecorded violator to capture its incident relies on this.
    type Case = (String, GlobalType, Vec<(Role, Proc)>, ExecOptions);
    let mut cases: Vec<Case> = vec![
        (
            "ring/4".into(),
            generators::ring_n(4),
            skeleton_procs(&generators::ring_n(4)).expect("the ring synthesizes"),
            ExecOptions::default(),
        ),
        (
            "fanout_loop/4".into(),
            fanout_loop(4),
            skeleton_procs(&fanout_loop(4)).expect("the fan-out synthesizes"),
            ExecOptions::with_max_steps(40),
        ),
    ];
    for (mutation, cast) in ring3_byzantine_casts() {
        let name = format!("ring3/{mutation}");
        cases.push((name, generators::ring3(), cast, ExecOptions::default()));
    }
    let mut violators = 0;
    for (name, g, procs, options) in cases {
        let layout = make_layout(&g, &procs, &Externals::new()).expect("one program per role");
        let mut alone = SessionBatch::new(Arc::clone(&layout), options.clone(), 1);
        assert!(alone.admit(0));
        let out = alone.run_quantum(usize::MAX);
        violators += out.demoted.len();
        let mut reference = BTreeMap::new();
        recorded(out, &mut reference);
        let reference = reference.remove(&0).expect("one unbounded quantum ends the session");
        assert!(reference.1.iter().any(|t| !t.is_empty()), "{name}: the session acts");
        for budget in [1, 7, 64] {
            let mut batch = SessionBatch::new(Arc::clone(&layout), options.clone(), 64);
            let mut ended = BTreeMap::new();
            for token in 0..32 {
                assert!(batch.admit(token));
            }
            recorded(batch.run_quantum(budget), &mut ended);
            for token in 32..64 {
                assert!(batch.admit(token));
            }
            while !batch.is_empty() {
                recorded(batch.run_quantum(budget), &mut ended);
            }
            assert_eq!(ended.len(), 64, "{name}: every session ends");
            for (token, traces) in &ended {
                assert_eq!(traces, &reference, "{name}: session {token} at budget {budget}");
            }
        }
    }
    assert_eq!(violators, 3, "three of the four mutations violate");
}
