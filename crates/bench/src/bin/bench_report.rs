//! Engine-vs-oracle bench report: every fast engine timed against the slow
//! reference it replaced, both live in the same run.
//!
//! End-to-end numbers (sessions/s, CPU per session, time to verdict) belong
//! to `zooid_benchmark`; what that ruler cannot express is a *ratio between
//! two implementations of one job*, and that is all this one measures. Each
//! [`Family`] in [`FAMILIES`] is one such pair — one function producing its
//! cases, one table row carrying its oracle's description and its floor:
//!
//! * `trace_equiv` — the on-the-fly [`check_trace_equivalence`] vs the
//!   set-based [`check_trace_equivalence_exhaustive`];
//! * `cfsm_explore` — the interned CFSM engine ([`System::explore`]) vs the
//!   explicit-state [`System::explore_exhaustive`], over the same
//!   visited-configuration budget;
//! * `cfsm_explore_por` — ample-set partial-order reduction
//!   ([`System::explore_por`]) vs the full interned engine, same verdict;
//! * `cfsm_explore_par` — the work-stealing [`System::explore_parallel`] at
//!   2 and 4 threads vs its own 1-thread run, after checking it reaches the
//!   sequential reduced engine's verdict and visited count (bounded by the
//!   CPUs the box grants: it records, it does not assume);
//! * `endpoint_step` — the compiled endpoint executor
//!   ([`CompiledEndpointTask`]) vs the tree-walking [`EndpointTask`], per
//!   visible action, a no-op observer on both sides (what a shard calls);
//! * `batch_step` — the columnar [`SessionBatch`] vs per-session compiled
//!   tasks under a [`CompiledMonitor`] (the slab configuration), per action,
//!   each population quiet and (`/recorded`) recording its traces;
//! * `obs_overhead` — batch stepping with the shard's instruments attached
//!   (admission events, per-quantum clock reads, cohort-width fold, wall
//!   time per outcome) vs the bare loop; floor 0.85;
//! * `fault_overhead` — sessions behind an empty-plan [`FaultyTransport`]
//!   vs the bare in-memory transport; floor 0.85;
//! * `monitor_action` — [`CompiledMonitor`] vs the global-LTS
//!   [`TraceMonitor`], per observed action;
//! * `checkpoint_restore` — decode-and-recertify a [`SessionCheckpoint`] vs
//!   recovery by replaying the session to the same quantum;
//! * `wal_append` — bytes per logged action of the columnar
//!   [`encode_quantum`] vs [`encode_quantum_naive`] (a count, not a timing);
//!   floor 1.3.
//!
//! There is one sampler, [`sample_pair`]: engine and oracle alternate inside
//! one loop, so frequency scaling, cache evictions and the two-vCPU box's
//! moods land on both sides alike, and each side reports `n` / min / median
//! / p90. `speedup` is oracle median over engine median.
//!
//! `bench-report [--smoke] --out PATH` writes the report to `PATH` and
//! prints it; `--smoke` shrinks sizes and budgets for CI. The process exits
//! non-zero if any family breaches its floor or reports an empty or
//! non-positive case ([`breaches`]), so CI needs no second parser.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zooid_cfsm::{CompiledSystem, System};
use zooid_mpst::common::intern::FxHashMap;
use zooid_mpst::generators;
use zooid_mpst::global::GlobalType;
use zooid_mpst::projection::project_all;
use zooid_mpst::trace_equiv::{check_trace_equivalence, check_trace_equivalence_exhaustive};
use zooid_mpst::{Action, Label, Role, Sort};
use zooid_proc::{erase, CompiledProc, Externals, Proc};
use zooid_runtime::cbatch::{BatchLayout, SessionBatch};
use zooid_runtime::cexec::{CompiledEndpointTask, EndpointProgram};
use zooid_runtime::checkpoint::SessionCheckpoint;
use zooid_runtime::exec::{EndpointTask, ExecOptions, StepOutcome};
use zooid_runtime::faults::{FaultPlan, FaultyTransport};
use zooid_runtime::transport::{InMemoryNetwork, InMemoryTransport, Transport};
use zooid_runtime::wal::{encode_quantum, encode_quantum_naive, WalIndexer};
use zooid_runtime::{CompiledMonitor, TraceMonitor};
use zooid_server::metrics::ShardInstruments;
use zooid_server::synth::skeleton_proc;
use zooid_server::FlightEvent;

/// Channel bound used by the `cfsm_explore*` families.
const CFSM_BOUND: usize = 2;

/// Full or smoke: sizes, budgets and sample counts.
struct Mode {
    smoke: bool,
}

impl Mode {
    /// `full` in a full run, `smoke` in a smoke run.
    fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Nanoseconds per call over `n` timed samples (or, for `wal_append`, an
/// exact count).
#[derive(Debug, Clone, Copy)]
struct Stats {
    n: usize,
    min: u64,
    median: u64,
    p90: u64,
}

impl Stats {
    fn of(mut samples: Vec<u64>) -> Stats {
        samples.sort_unstable();
        let n = samples.len();
        Stats {
            n,
            min: samples[0],
            median: samples[n / 2],
            p90: samples[(n * 9 / 10).min(n - 1)],
        }
    }

    /// A figure that is counted, not sampled.
    fn exact(value: u64) -> Stats {
        Stats {
            n: 1,
            min: value,
            median: value,
            p90: value,
        }
    }

    /// Rescales a per-call figure to one of the `units` the call performs.
    fn per(self, units: usize) -> Stats {
        let per = |ns: u64| (ns / units as u64).max(1);
        Stats {
            n: self.n,
            min: per(self.min),
            median: per(self.median),
            p90: per(self.p90),
        }
    }
}

/// A sample is at least this long, so timer quantisation stays under 1%.
const MIN_SAMPLE_NS: u128 = 20_000;
/// Pairs taken whatever the time budget says.
const MIN_PAIRS: usize = 5;

/// The one sampler: `run(true)` is the engine, `run(false)` its oracle. The
/// two alternate — which goes first alternates too — until `pairs` pairs are
/// in or the time budget is spent, so whatever the machine does during the
/// run it does to both. Calls too short to time alone are repeated inside
/// one sample. Returns `(engine, oracle)`.
fn sample_pair(mode: &Mode, mut run: impl FnMut(bool)) -> (Stats, Stats) {
    // Warm both sides, and size a sample of each.
    let reps = [true, false].map(|engine| {
        let started = Instant::now();
        run(engine);
        (MIN_SAMPLE_NS / started.elapsed().as_nanos().max(1)) as u32 + 1
    });
    let pairs = mode.pick(101, 31);
    let deadline = Instant::now() + Duration::from_millis(mode.pick(3_000, 150));
    let mut samples = [Vec::with_capacity(pairs), Vec::with_capacity(pairs)];
    for pair in 0..pairs {
        for engine in [pair % 2 == 0, pair % 2 != 0] {
            let side = usize::from(!engine);
            let started = Instant::now();
            for _ in 0..reps[side] {
                run(engine);
            }
            samples[side].push(started.elapsed().as_nanos() as u64 / u64::from(reps[side]));
        }
        if pair + 1 >= MIN_PAIRS && Instant::now() > deadline {
            break;
        }
    }
    let [engine, oracle] = samples;
    (Stats::of(engine), Stats::of(oracle))
}

/// One measured case of a family.
struct Case {
    case: String,
    engine: Stats,
    oracle: Stats,
}

impl Case {
    fn new(case: String, (engine, oracle): (Stats, Stats)) -> Case {
        Case {
            case,
            engine,
            oracle,
        }
    }

    /// Oracle median over engine median: above 1 the engine wins.
    fn speedup(&self) -> f64 {
        if self.engine.median == 0 {
            return 0.0;
        }
        self.oracle.median as f64 / self.engine.median as f64
    }
}

/// One engine-vs-oracle pair: a function producing its cases, and the row
/// that names its oracle and the speedup no case may fall below.
struct Family {
    name: &'static str,
    oracle: &'static str,
    floor: Option<f64>,
    cases: fn(&Mode) -> Vec<Case>,
}

const FAMILIES: [Family; 11] = [
    Family {
        name: "trace_equiv",
        oracle: "set-based checker (check_trace_equivalence_exhaustive)",
        floor: None,
        cases: trace_equiv,
    },
    Family {
        name: "cfsm_explore",
        oracle: "explicit-state explorer (System::explore_exhaustive, same configuration budget)",
        floor: None,
        cases: cfsm_explore,
    },
    Family {
        name: "cfsm_explore_por",
        oracle: "full interned engine (System::explore, same bound/cap/verdict)",
        floor: None,
        cases: cfsm_explore_por,
    },
    Family {
        name: "cfsm_explore_par",
        oracle: "explore_parallel at 1 thread (same workload)",
        floor: None,
        cases: cfsm_explore_par,
    },
    Family {
        name: "endpoint_step",
        oracle: "tree-walking EndpointTask (same session, same schedule)",
        floor: None,
        cases: endpoint_step,
    },
    Family {
        name: "batch_step",
        oracle: "per-session CompiledEndpointTask + CompiledMonitor (same sessions)",
        floor: None,
        cases: batch_step,
    },
    // The instruments must cost nearly nothing: 0.90 is the budget, 0.85
    // leaves room for a smoke run's noise on a shared box.
    Family {
        name: "obs_overhead",
        oracle: "identical batch stepping with the instruments detached",
        floor: Some(0.85),
        cases: obs_overhead,
    },
    // Likewise an empty-plan FaultyTransport must be a near-free wrapper.
    Family {
        name: "fault_overhead",
        oracle: "identical cooperative run on the bare in-memory transport",
        floor: Some(0.85),
        cases: fault_overhead,
    },
    // No floor: the compiled monitor loses on rings (the replay monitor's
    // best case) and the family is there to say by how much.
    Family {
        name: "monitor_action",
        oracle: "TraceMonitor global-LTS replay (same trace)",
        floor: None,
        cases: monitor_action,
    },
    // No floor: restore pays full re-validation on decode, so replay can
    // win; the family tracks the latency, it does not claim a winner.
    Family {
        name: "checkpoint_restore",
        oracle: "recovery by replay (re-run the session to the same quantum)",
        floor: None,
        cases: checkpoint_restore,
    },
    // The columnar log must beat per-record serialization decisively.
    Family {
        name: "wal_append",
        oracle: "naive per-record serialization (encode_quantum_naive, same records)",
        floor: Some(1.3),
        cases: wal_append,
    },
];

/// What is wrong with a family's cases: none at all, a side that measured
/// nothing, or a speedup under the family's floor.
fn breaches(family: &Family, cases: &[Case]) -> Vec<String> {
    let mut found = Vec::new();
    if cases.is_empty() {
        found.push(format!("{}: no cases", family.name));
    }
    for case in cases {
        let at = format!("{} {}", family.name, case.case);
        if case.engine.median == 0 || case.oracle.median == 0 {
            found.push(format!("{at}: a side measured nothing"));
        }
        if let Some(floor) = family.floor {
            if case.speedup() < floor {
                found.push(format!(
                    "{at}: speedup {:.2} is under the floor {floor}",
                    case.speedup()
                ));
            }
        }
    }
    found
}

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

fn scaling_families(n: usize) -> [(String, GlobalType); 3] {
    [
        (format!("ring/{n}"), generators::ring_n(n)),
        (format!("chain/{n}"), generators::chain_n(n)),
        (format!("fanout/{n}"), generators::fanout_n(n)),
    ]
}

fn sizes(mode: &Mode) -> &'static [usize] {
    mode.pick(&[2, 8, 32, 128][..], &[2, 8][..])
}

/// A *recursive* fan-out: each round the hub sends one task to every worker
/// and then collects every ack, forever — the looping cousin of
/// [`generators::fanout_n`], so per-step costs amortize over thousands of
/// steps per session.
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

fn compile(g: &GlobalType) -> (System, CompiledSystem) {
    let system = System::from_global(g).expect("bench families are projectable");
    let compiled = system.compile();
    (system, compiled)
}

/// One protocol's skeleton implementation in every form the families
/// compare: processes for the tree-walking oracle, compiled programs for
/// the slab, a layout for the batch (roles in sorted order throughout).
struct Fixture {
    procs: Vec<(Role, Proc)>,
    system: Arc<CompiledSystem>,
    programs: Vec<(Role, Arc<EndpointProgram>)>,
}

impl Fixture {
    fn new(g: &GlobalType) -> Fixture {
        let mut procs: Vec<(Role, Proc)> = project_all(g)
            .expect("bench families are projectable")
            .into_iter()
            .map(|(role, local)| {
                let proc = skeleton_proc(&local).expect("bench families synthesize");
                (role, proc)
            })
            .collect();
        procs.sort_by(|a, b| a.0.cmp(&b.0));
        let system = Arc::new(compile(g).1);
        let externals = Externals::new();
        let programs = procs
            .iter()
            .map(|(role, proc)| {
                let compiled =
                    CompiledProc::compile(proc, role, &externals).expect("skeletons compile");
                let program = EndpointProgram::with_system(Arc::new(compiled), &system);
                (role.clone(), Arc::new(program))
            })
            .collect();
        Fixture {
            procs,
            system,
            programs,
        }
    }

    fn roles(&self) -> Vec<Role> {
        self.procs.iter().map(|(r, _)| r.clone()).collect()
    }

    fn program_list(&self) -> Vec<Arc<EndpointProgram>> {
        self.programs.iter().map(|(_, p)| Arc::clone(p)).collect()
    }

    fn layout(&self) -> Arc<BatchLayout> {
        BatchLayout::new(
            self.roles().into(),
            self.program_list(),
            Arc::clone(&self.system),
        )
        .expect("bench skeletons are batch-eligible")
    }
}

/// Fire-and-forget options (no per-endpoint trace), optionally bounded.
fn quiet(max_steps: Option<usize>) -> ExecOptions {
    max_steps
        .map_or_else(ExecOptions::default, ExecOptions::with_max_steps)
        .record_actions(false)
}

/// One cooperative session drive — drain rounds until every endpoint is
/// done or none can progress — shared by every engine stepped here, so the
/// schedule is identical by construction. Returns the visible actions
/// performed.
fn drive_session<T, E>(
    endpoints: Vec<(T, E)>,
    mut step: impl FnMut(&mut T, &mut E) -> StepOutcome,
    is_done: impl Fn(&T) -> bool,
    mark_stalled: impl Fn(&mut T),
) -> usize {
    let mut tasks = endpoints;
    let mut actions = 0usize;
    loop {
        let mut progressed = false;
        for (task, transport) in &mut tasks {
            while let StepOutcome::Progress = step(task, transport) {
                progressed = true;
                actions += 1;
            }
        }
        if tasks.iter().all(|(t, _)| is_done(t)) {
            break;
        }
        if !progressed {
            for (task, _) in &mut tasks {
                mark_stalled(task);
            }
            break;
        }
    }
    actions
}

/// Fresh in-memory endpoints for `roles`, in order.
fn bare_endpoints(roles: &[Role]) -> Vec<InMemoryTransport> {
    let mut network = InMemoryNetwork::new(roles.iter().cloned());
    roles
        .iter()
        .map(|r| network.take_endpoint(r).expect("unique roles"))
        .collect()
}

fn compiled_tasks(
    fixture: &Fixture,
    options: &ExecOptions,
) -> Vec<(CompiledEndpointTask, InMemoryTransport)> {
    fixture
        .programs
        .iter()
        .map(|(_, p)| CompiledEndpointTask::new(Arc::clone(p), Externals::new(), options.clone()))
        .zip(bare_endpoints(&fixture.roles()))
        .collect()
}

/// Steps every compiled endpoint of one session cooperatively under a no-op
/// observer: the entry point a shard calls, minus the monitor.
fn run_compiled_session(fixture: &Fixture, options: &ExecOptions) -> usize {
    drive_session(
        compiled_tasks(fixture, options),
        |task, transport| task.step_mem(transport, &mut |_, _| {}),
        CompiledEndpointTask::is_done,
        CompiledEndpointTask::mark_stalled,
    )
}

/// The same schedule with a live [`CompiledMonitor`] observing every action,
/// recording its global trace when the options record actions: the
/// per-session slab configuration.
fn run_monitored_session(fixture: &Fixture, options: &ExecOptions) -> usize {
    let mut monitor = CompiledMonitor::new(Arc::clone(&fixture.system));
    monitor.set_record_trace(options.record_actions);
    drive_session(
        compiled_tasks(fixture, options),
        |task, transport| {
            task.step_mem(transport, &mut |va, interned| match interned {
                Some(interned) => {
                    monitor.observe_interned(interned, || erase(va));
                }
                None => {
                    monitor.observe(&erase(va));
                }
            })
        },
        CompiledEndpointTask::is_done,
        CompiledEndpointTask::mark_stalled,
    )
}

/// The same schedule over tree-walking tasks on caller-supplied transports
/// (bare, or wrapped for `fault_overhead`).
fn run_tree_session<T: Transport>(
    fixture: &Fixture,
    transports: Vec<T>,
    options: &ExecOptions,
) -> usize {
    let tasks = fixture
        .procs
        .iter()
        .map(|(role, proc)| {
            EndpointTask::new(
                proc.clone(),
                role.clone(),
                Externals::new(),
                options.clone(),
            )
        })
        .zip(transports)
        .collect();
    drive_session(
        tasks,
        |task, transport| task.step(transport, &mut |_| {}),
        EndpointTask::is_done,
        EndpointTask::mark_stalled,
    )
}

/// Admits a full population and steps it to the end.
fn run_batch(batch: &mut SessionBatch, width: usize) -> usize {
    for token in 0..width {
        assert!(batch.admit(token as u64), "batch sized for the width");
    }
    let out = batch.run_quantum(usize::MAX);
    assert!(batch.is_empty(), "an unbounded quantum drains the batch");
    out.actions
}

// ---------------------------------------------------------------------
// Families
// ---------------------------------------------------------------------

fn trace_equiv(mode: &Mode) -> Vec<Case> {
    let mut cases = Vec::new();
    for &n in sizes(mode) {
        // Keep the exhaustive oracle tractable at size 128.
        let depth = if n >= 128 { 6 } else { 8 };
        for (case, g) in scaling_families(n) {
            let stats = sample_pair(mode, |engine| {
                let g = std::hint::black_box(&g);
                let report = if engine {
                    check_trace_equivalence(g, depth)
                } else {
                    check_trace_equivalence_exhaustive(g, depth)
                };
                assert!(report.unwrap().holds);
            });
            cases.push(Case::new(format!("{case}/depth{depth}"), stats));
        }
    }
    cases
}

/// The concurrent families are exponential in protocol size, so this
/// measures time to visit a fixed budget, not time to exhaustion. The
/// engine compiles once (its intended amortised use); the timed loop is
/// exploration only.
fn cfsm_explore(mode: &Mode) -> Vec<Case> {
    let cap = mode.pick(10_000, 2_000);
    let mut cases = Vec::new();
    for &n in sizes(mode) {
        for (case, g) in scaling_families(n) {
            let (system, compiled) = compile(&g);
            let fast = compiled.explore(CFSM_BOUND, cap);
            let slow = system.explore_exhaustive(CFSM_BOUND, cap);
            assert_eq!(
                fast.configurations, slow.configurations,
                "{case}: engines must visit the same configurations"
            );
            assert_eq!(fast.verdict(), slow.verdict(), "{case}");
            let stats = sample_pair(mode, |engine| {
                let outcome = if engine {
                    std::hint::black_box(&compiled).explore(CFSM_BOUND, cap)
                } else {
                    std::hint::black_box(&system).explore_exhaustive(CFSM_BOUND, cap)
                };
                std::hint::black_box(outcome.configurations);
            });
            cases.push(Case::new(
                format!("{case}/bound{CFSM_BOUND}/cap{cap}"),
                stats,
            ));
        }
    }
    cases
}

/// The concurrent families are where interleavings explode; ring is the
/// sequential control.
fn cfsm_explore_por(mode: &Mode) -> Vec<Case> {
    let protocols: Vec<(&str, GlobalType, usize)> = mode.pick(
        vec![
            ("ring/32", generators::ring_n(32), 50_000),
            ("chain/8", generators::chain_n(8), 200_000),
            ("fanout/8", generators::fanout_n(8), 50_000),
            ("fanout/10", generators::fanout_n(10), 200_000),
        ],
        vec![
            ("ring/8", generators::ring_n(8), 20_000),
            ("fanout/8", generators::fanout_n(8), 20_000),
        ],
    );
    let mut cases = Vec::new();
    for (case, g, cap) in protocols {
        let compiled = compile(&g).1;
        let full = compiled.explore(CFSM_BOUND, cap);
        let reduced = compiled.explore_por(CFSM_BOUND, cap);
        assert!(
            !full.truncated && !reduced.truncated,
            "{case}: POR cases are sized to complete within the budget"
        );
        assert_eq!(
            full.verdict(),
            reduced.verdict(),
            "{case}: reduction must preserve the verdict"
        );
        let stats = sample_pair(mode, |engine| {
            let compiled = std::hint::black_box(&compiled);
            let outcome = if engine {
                compiled.explore_por(CFSM_BOUND, cap)
            } else {
                compiled.explore(CFSM_BOUND, cap)
            };
            std::hint::black_box(outcome.configurations);
        });
        cases.push(Case::new(
            format!(
                "{case}/bound{CFSM_BOUND}/cap{cap}/residual{}of{}",
                reduced.configurations, full.configurations
            ),
            stats,
        ));
    }
    cases
}

/// The largest residual (post-reduction) state space. The smoke run keeps
/// 2 threads in the loop so CI exercises the termination protocol and
/// cross-thread determinism every time.
fn cfsm_explore_par(mode: &Mode) -> Vec<Case> {
    let (case, g, cap) = mode.pick(
        ("fanout/14", generators::fanout_n(14), 200_000),
        ("fanout/8", generators::fanout_n(8), 20_000),
    );
    let compiled = compile(&g).1;
    let reduced = compiled.explore_por(CFSM_BOUND, cap);
    let mut cases = Vec::new();
    for &threads in mode.pick(&[2usize, 4][..], &[2][..]) {
        for t in [1, threads] {
            let probe = compiled.explore_parallel(CFSM_BOUND, cap, t);
            assert_eq!(probe.verdict(), reduced.verdict(), "{case}/t{t}");
            assert_eq!(
                probe.configurations, reduced.configurations,
                "{case}/t{t}: the parallel frontier must cover the reduced space"
            );
        }
        let stats = sample_pair(mode, |engine| {
            let t = if engine { threads } else { 1 };
            let outcome = std::hint::black_box(&compiled).explore_parallel(CFSM_BOUND, cap, t);
            std::hint::black_box(outcome.configurations);
        });
        cases.push(Case::new(
            format!(
                "{case}/threads{threads}/cap{cap}/residual{}",
                reduced.configurations
            ),
            stats,
        ));
    }
    cases
}

/// Looping sessions stepped cooperatively on one thread to a fixed
/// per-endpoint budget, a no-op observer on both sides, so the family
/// measures stepping itself (`monitor_action` prices the monitor).
fn endpoint_step(mode: &Mode) -> Vec<Case> {
    let steps = mode.pick(2_048, 256);
    let protocols: Vec<(&str, GlobalType)> = mode.pick(
        vec![
            ("chain/2", generators::chain_n(2)),
            ("chain/8", generators::chain_n(8)),
            ("fanout/4", fanout_loop(4)),
            ("fanout/16", fanout_loop(16)),
        ],
        vec![
            ("chain/2", generators::chain_n(2)),
            ("fanout/4", fanout_loop(4)),
        ],
    );
    let mut cases = Vec::new();
    for (case, g) in protocols {
        let fixture = Fixture::new(&g);
        let roles = fixture.roles();
        let options = quiet(Some(steps));
        let actions = run_compiled_session(&fixture, &options);
        assert!(actions > 0, "{case}: the session made no progress");
        assert_eq!(
            actions,
            run_tree_session(&fixture, bare_endpoints(&roles), &options),
            "{case}: engines must perform the same number of visible actions"
        );
        let stats = sample_pair(mode, |engine| {
            std::hint::black_box(if engine {
                run_compiled_session(&fixture, &options)
            } else {
                run_tree_session(&fixture, bare_endpoints(&roles), &options)
            });
        });
        cases.push(Case::new(
            format!("{case}/steps{steps}/actions{actions}/peraction"),
            (stats.0.per(actions), stats.1.per(actions)),
        ));
    }
    cases
}

/// `(label, protocol, step bound, batch width)` for the two batch families:
/// short sessions, where per-admission work amortises over only 8 actions,
/// and long ones, the steady state a loaded shard runs in.
fn batch_populations(mode: &Mode) -> Vec<(&'static str, GlobalType, Option<usize>, usize)> {
    let long = mode.pick(256, 64);
    mode.pick(
        vec![
            ("ring/4", generators::ring_n(4), None, 64),
            ("ring/4", generators::ring_n(4), None, 256),
            ("fanout_loop/4", fanout_loop(4), Some(long), 64),
            ("fanout_loop/4", fanout_loop(4), Some(long), 256),
        ],
        vec![
            ("ring/4", generators::ring_n(4), None, 64),
            ("fanout_loop/4", fanout_loop(4), Some(long), 64),
        ],
    )
}

/// The batch object is reused across samples (slots recycle), which is the
/// server's steady state; the slab rebuilds each session, which is the
/// slab's. Each population runs quiet and then recording — per-endpoint
/// value traces and the global trace, as every serving workload asks — so
/// the difference between a population's two cases is what recording costs
/// per action.
fn batch_step(mode: &Mode) -> Vec<Case> {
    let mut cases = Vec::new();
    for (case, g, max_steps, width) in batch_populations(mode) {
        let fixture = Fixture::new(&g);
        for record in [false, true] {
            let options = quiet(max_steps).record_actions(record);
            let mut batch = SessionBatch::new(fixture.layout(), options.clone(), width);
            // Looping cases end at the step limit and leave as stalled
            // stragglers on both sides.
            let actions = run_batch(&mut batch, width);
            assert_eq!(
                actions,
                run_monitored_session(&fixture, &options) * width,
                "{case}: data planes must perform the same visible actions"
            );
            let stats = sample_pair(mode, |engine| {
                if engine {
                    std::hint::black_box(run_batch(&mut batch, width));
                } else {
                    for _ in 0..width {
                        std::hint::black_box(run_monitored_session(&fixture, &options));
                    }
                }
            });
            let recorded = if record { "/recorded" } else { "" };
            cases.push(Case::new(
                format!("{case}/w{width}/actions{actions}{recorded}/peraction"),
                (stats.0.per(actions), stats.1.per(actions)),
            ));
        }
    }
    cases
}

/// The batch stepped exactly as the shard worker steps it, instruments
/// attached, vs the bare `batch_step` loop: the delta is the whole price of
/// observing.
fn obs_overhead(mode: &Mode) -> Vec<Case> {
    let mut cases = Vec::new();
    // The fourth population (long sessions, 256 wide) shows the recorder
    // nothing the third does not.
    for (case, g, max_steps, width) in batch_populations(mode).into_iter().take(3) {
        let fixture = Fixture::new(&g);
        let mut batch = SessionBatch::new(fixture.layout(), quiet(max_steps), width);
        let actions = run_batch(&mut batch, width);
        assert!(actions > 0, "{case}: the batch made no progress");
        let instruments = ShardInstruments::new(1);
        let mut admitted: FxHashMap<u64, Instant> = FxHashMap::default();
        let stats = sample_pair(mode, |engine| {
            if !engine {
                std::hint::black_box(run_batch(&mut batch, width));
                return;
            }
            // One clock read stamps the whole admission sweep, as the
            // shard's inbox drain does.
            let at = Instant::now();
            for token in 0..width as u64 {
                assert!(batch.admit(token));
                admitted.insert(token, at);
                instruments.recorder.record(FlightEvent::Admitted {
                    session: token,
                    batched: true,
                });
            }
            let started = Instant::now();
            let out = batch.run_quantum(usize::MAX);
            let ended = Instant::now();
            let ns_since = |t: Instant| {
                u64::try_from(ended.saturating_duration_since(t).as_nanos()).unwrap_or(u64::MAX)
            };
            if out.actions > 0 {
                instruments
                    .action_cost_ns
                    .record(ns_since(started) / out.actions as u64);
            }
            for (bucket, &n) in out.cohort_widths.iter().enumerate() {
                instruments.cohort_width.add_count(bucket, n);
            }
            // Step-limited sessions leave the batch as demotions; the shard
            // keeps their admission stamp until the slab concludes them,
            // this loop stops at the batch boundary and stamps them here.
            for demoted in &out.demoted {
                instruments.recorder.record(FlightEvent::BatchDemoted {
                    session: demoted.token,
                });
            }
            let finished = out.finished.iter().map(|o| o.token);
            for token in finished.chain(out.demoted.iter().map(|d| d.token)) {
                if let Some(start) = admitted.remove(&token) {
                    instruments.session_wall_ns.record(ns_since(start));
                }
            }
            std::hint::black_box(out.actions);
        });
        assert!(
            instruments.session_wall_ns.snapshot().count() > 0,
            "{case}: the instrumented runs recorded no session wall times"
        );
        cases.push(Case::new(
            format!("{case}/w{width}/actions{actions}/peraction"),
            (stats.0.per(actions), stats.1.per(actions)),
        ));
    }
    cases
}

/// Every endpoint behind a [`FaultyTransport`] carrying an *empty* plan —
/// the bystander configuration of the hostile campaign. With no fault specs
/// the wrapper never consults its PRNG, so the delta is the counted-op and
/// tick-clock bookkeeping alone.
fn fault_overhead(mode: &Mode) -> Vec<Case> {
    let protocols: Vec<(&str, GlobalType, Option<usize>)> = mode.pick(
        vec![
            // Short sessions: setup amortises over a handful of actions,
            // the wrapper's worst case.
            ("ring/4", generators::ring_n(4), None),
            ("two_buyer", generators::two_buyer(), None),
            // Long sessions: steady-state per-operation cost dominates.
            ("fanout_loop/4", fanout_loop(4), Some(512)),
        ],
        vec![("ring/4", generators::ring_n(4), None)],
    );
    let plan = FaultPlan::new(0xFA17);
    let mut cases = Vec::new();
    for (case, g, max_steps) in protocols {
        let fixture = Fixture::new(&g);
        let roles = fixture.roles();
        let options = quiet(max_steps);
        let actions = run_tree_session(&fixture, bare_endpoints(&roles), &options);
        assert!(actions > 0, "{case}: the probe session made no progress");
        let stats = sample_pair(mode, |engine| {
            let bare = bare_endpoints(&roles);
            std::hint::black_box(if engine {
                let wrapped = bare
                    .into_iter()
                    .map(|t| FaultyTransport::new(t, &plan))
                    .collect();
                run_tree_session(&fixture, wrapped, &options)
            } else {
                run_tree_session(&fixture, bare, &options)
            });
        });
        cases.push(Case::new(
            format!("{case}/actions{actions}/peraction"),
            (stats.0.per(actions), stats.1.per(actions)),
        ));
    }
    cases
}

/// Compliant traces. The ring trace is sequential — the global prefix never
/// holds more than one pending message, the replay monitor's best case; the
/// fanout trace delays every receive behind all the sends, so the prefix
/// grows to `n` in-flight messages and the replay cost with it, while the
/// compiled monitor stays flat.
fn monitor_action(mode: &Mode) -> Vec<Case> {
    let send = |from: String, to: String, label: &str, sort: Sort| {
        Action::send(Role::new(from), Role::new(to), Label::new(label), sort)
    };
    let shapes: &[(&str, usize)] = mode.pick(
        &[
            ("ring", 4),
            ("ring", 16),
            ("ring", 64),
            ("fanout", 16),
            ("fanout", 64),
        ][..],
        &[("ring", 4), ("fanout", 8)][..],
    );
    let mut cases = Vec::new();
    for &(family, n) in shapes {
        let (g, trace): (GlobalType, Vec<Action>) = if family == "ring" {
            let sends =
                (0..n).map(|i| send(format!("w{i}"), format!("w{}", (i + 1) % n), "l", Sort::Nat));
            (
                generators::ring_n(n),
                sends.flat_map(|s| [s.clone(), s.dual()]).collect(),
            )
        } else {
            let tasks: Vec<Action> = (0..n)
                .map(|i| send("hub".into(), format!("w{i}"), "task", Sort::Nat))
                .collect();
            let acks: Vec<Action> = (0..n)
                .map(|i| send(format!("w{i}"), "hub".into(), "ack", Sort::Unit))
                .collect();
            let trace = tasks
                .iter()
                .cloned()
                .chain(tasks.iter().map(Action::dual))
                .chain(acks.iter().cloned())
                .chain(acks.iter().map(Action::dual));
            (generators::fanout_n(n), trace.collect())
        };
        let compiled = CompiledMonitor::for_global(&g).expect("projectable");
        let reference = TraceMonitor::new(&g).expect("well-formed");
        let stats = sample_pair(mode, |engine| {
            if engine {
                let mut monitor = compiled.clone();
                assert!(trace.iter().all(|action| monitor.observe(action)));
                assert!(monitor.is_complete());
            } else {
                let mut monitor = reference.clone();
                assert!(trace.iter().all(|action| monitor.observe(action)));
                assert!(monitor.is_complete());
            }
        });
        cases.push(Case::new(
            format!("{family}/{n}/peraction"),
            (stats.0.per(trace.len()), stats.1.per(trace.len())),
        ));
    }
    cases
}

/// Bringing one mid-flight session back: decode the checkpoint and
/// re-certify it against the compiled tables, vs what a server without
/// checkpoints would do — re-run the session from its start to the same
/// quantum. A shallow kill point (restore pays the codec with little replay
/// to beat) and a deep one (replay grows with history).
fn checkpoint_restore(mode: &Mode) -> Vec<Case> {
    let protocols: [(&str, GlobalType, Option<usize>, usize); 2] = [
        ("ring/8", generators::ring_n(8), None, 4),
        ("fanout_loop/4", fanout_loop(4), Some(256), 200),
    ];
    let mut cases = Vec::new();
    for (case, g, max_steps, kill_after) in protocols {
        let fixture = Fixture::new(&g);
        let programs = fixture.program_list();
        let layout = fixture.layout();
        let options = max_steps.map_or_else(ExecOptions::default, ExecOptions::with_max_steps);
        // One session interrupted after `kill_after` budget-1 quanta.
        let interrupted = || {
            let mut batch = SessionBatch::new(Arc::clone(&layout), options.clone(), 1);
            assert!(batch.admit(0));
            for _ in 0..kill_after {
                let out = batch.run_quantum(1);
                assert!(
                    out.finished.is_empty() && out.demoted.is_empty(),
                    "{case}: the kill point must be mid-flight"
                );
            }
            batch.demote_now(0).expect("session still live")
        };
        let bytes = SessionCheckpoint::from_demoted(&interrupted()).encode();
        let stats = sample_pair(mode, |engine| {
            let state = if engine {
                SessionCheckpoint::decode(std::hint::black_box(&bytes))
                    .expect("own encoding decodes")
                    .into_demoted(&programs, &fixture.system)
                    .expect("own checkpoint re-validates")
            } else {
                interrupted()
            };
            std::hint::black_box(state.endpoints.len());
        });
        cases.push(Case::new(
            format!("{case}/q{kill_after}/bytes{}/restore", bytes.len()),
            stats,
        ));
    }
    cases
}

/// Log density, in bytes per logged action: per-quantum records split into
/// a skeleton column (session, role, event-template id) and a value column,
/// vs each record's full `ValueAction` spelled out. Counted, not timed.
fn wal_append(_: &Mode) -> Vec<Case> {
    let protocols: [(&str, GlobalType, Option<usize>); 3] = [
        ("ring/8", generators::ring_n(8), None),
        ("two_buyer", generators::two_buyer(), None),
        ("fanout_loop/4", fanout_loop(4), Some(64)),
    ];
    let mut cases = Vec::new();
    for (case, g, max_steps) in protocols {
        let layout = Fixture::new(&g).layout();
        let options = max_steps.map_or_else(ExecOptions::default, ExecOptions::with_max_steps);
        // One recorded session supplies the log. Concluded sessions report
        // their actions in `finished`; looping ones end at the step limit
        // and leave as demoted stragglers.
        let mut batch = SessionBatch::new(Arc::clone(&layout), options, 1);
        assert!(batch.admit(0));
        let out = batch.run_quantum(usize::MAX);
        let indexer = WalIndexer::new(layout.programs());
        let finished = out.finished.iter().flat_map(|o| &o.endpoints);
        let demoted = out.demoted.iter().flat_map(|d| &d.endpoints);
        let records: Vec<_> = finished
            .flat_map(|r| &r.actions)
            .chain(demoted.flat_map(|e| &e.actions))
            .map(|va| {
                indexer
                    .record(0, va)
                    .expect("bench skeleton actions columnarize")
            })
            .collect();
        assert!(!records.is_empty(), "{case}: the log must not be empty");
        let columnar = encode_quantum(&records).len();
        let naive = encode_quantum_naive(&records, &indexer)
            .expect("records resolve")
            .len();
        let n = records.len();
        cases.push(Case::new(
            format!("{case}/n{n}/bytesperaction"),
            (
                Stats::exact(columnar as u64).per(n),
                Stats::exact(naive as u64).per(n),
            ),
        ));
    }
    cases
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

fn parse_args() -> (Mode, String) {
    let mut smoke = false;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next(),
            other => panic!("unknown argument `{other}` (expected --smoke or --out PATH)"),
        }
    }
    (
        Mode { smoke },
        out.expect("usage: bench-report [--smoke] --out PATH"),
    )
}

fn main() -> ExitCode {
    let (mode, out) = parse_args();
    let mut entries = Vec::new();
    let mut found = Vec::new();
    for family in &FAMILIES {
        let cases = (family.cases)(&mode);
        found.extend(breaches(family, &cases));
        for c in &cases {
            entries.push(format!(
                "    {{\"bench\": \"{}\", \"case\": \"{}\", \"n\": {}, \"min_ns\": {}, \
                 \"median_ns\": {}, \"p90_ns\": {}, \"baseline_min_ns\": {}, \"baseline_ns\": {}, \
                 \"baseline_p90_ns\": {}, \"speedup\": {:.2}, \"baseline\": \"{}\"}}",
                family.name,
                c.case,
                c.engine.n,
                c.engine.min,
                c.engine.median,
                c.engine.p90,
                c.oracle.min,
                c.oracle.median,
                c.oracle.p90,
                c.speedup(),
                family.oracle,
            ));
        }
        eprintln!("{}: {} cases", family.name, cases.len());
    }
    let json = format!("{{\n  \"benches\": [\n{}\n  ]\n}}\n", entries.join(",\n"));
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("{json}");
    eprintln!("wrote {out} ({} entries)", entries.len());
    for breach in &found {
        eprintln!("BREACH {breach}");
    }
    if found.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(engine_ns: u64, oracle_ns: u64) -> Case {
        Case::new(
            "probe".into(),
            (Stats::exact(engine_ns), Stats::exact(oracle_ns)),
        )
    }

    #[test]
    fn a_case_below_its_family_floor_is_a_breach() {
        let family = FAMILIES
            .iter()
            .find(|f| f.name == "obs_overhead")
            .expect("the family exists");
        assert!(
            breaches(family, &[case(100, 90)]).is_empty(),
            "0.90 clears 0.85"
        );
        let found = breaches(family, &[case(100, 90), case(100, 80)]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("under the floor"), "{found:?}");
    }

    #[test]
    fn empty_families_and_unmeasured_sides_are_breaches() {
        for family in &FAMILIES {
            assert_eq!(breaches(family, &[]).len(), 1, "{}", family.name);
            assert!(
                !breaches(family, &[case(0, 5)]).is_empty(),
                "{}",
                family.name
            );
            assert!(
                !breaches(family, &[case(5, 0)]).is_empty(),
                "{}",
                family.name
            );
        }
    }

    #[test]
    fn the_sampler_alternates_sides_and_reports_ordered_statistics() {
        let mut calls = [0usize; 2];
        let (engine, oracle) = sample_pair(&Mode { smoke: true }, |engine| {
            calls[usize::from(!engine)] += 1;
            std::thread::sleep(Duration::from_micros(if engine { 30 } else { 60 }));
        });
        assert_eq!(engine.n, oracle.n);
        assert!(engine.n >= MIN_PAIRS);
        assert!(
            calls[0] > engine.n && calls[1] > oracle.n,
            "warm-up runs both sides"
        );
        for stats in [engine, oracle] {
            assert!(stats.min <= stats.median && stats.median <= stats.p90);
        }
        assert!(oracle.median > engine.median, "{oracle:?} vs {engine:?}");
    }
}
