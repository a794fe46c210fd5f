//! Casts, layouts and reference runs more than one suite uses.
//!
//! Each suite compiles its own copy of this module and uses only part of
//! it; an item one suite leaves unused is used by another, hence the
//! `allow`.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::sync::Arc;

use zooid_cfsm::{CompiledSystem, System};
use zooid_mpst::global::GlobalType;
use zooid_mpst::{Role, Sort};
use zooid_proc::{CompiledProc, Expr, Externals, Proc, ValueAction};
use zooid_runtime::cbatch::{BatchLayout, DemotedSession};
use zooid_runtime::cexec::{CompiledEndpointTask, EndpointProgram};
use zooid_runtime::exec::{EndpointStatus, EndpointTask, ExecOptions};
use zooid_runtime::lockstep::Lockstep;
use zooid_runtime::monitor::CompiledMonitor;
use zooid_runtime::transport::{InMemoryNetwork, InMemoryTransport};
use zooid_runtime::SessionReport;

/// `p → q : Int. q → p : Int`, where `p` sends `i64::MIN` and `q` answers
/// `x / -1`, which overflows.
pub fn int_overflow_cast() -> (GlobalType, Vec<(Role, Proc)>) {
    let (p, q) = (Role::new("p"), Role::new("q"));
    let back = GlobalType::msg1(q.clone(), p.clone(), "n", Sort::Int, GlobalType::End);
    let g = GlobalType::msg1(p.clone(), q.clone(), "n", Sort::Int, back);
    let reply = Proc::recv1(q.clone(), "n", Sort::Int, "y", Proc::Finish);
    let answer = Proc::send(p.clone(), "n", Expr::div(Expr::var("x"), Expr::lit(-1i64)), Proc::Finish);
    let procs = vec![
        (p.clone(), Proc::send(q.clone(), "n", Expr::lit(i64::MIN), reply)),
        (q, Proc::recv1(p, "n", Sort::Int, "x", answer)),
    ];
    (g, procs)
}

/// What every engine must agree on. The *order* of the monitor's global
/// trace is schedule-dependent (a batch interleaves sessions its own way),
/// so the comparison is per-endpoint traces plus verdicts.
#[derive(Debug, PartialEq)]
pub struct Observed {
    pub statuses: BTreeMap<Role, EndpointStatus>,
    pub traces: BTreeMap<Role, Vec<ValueAction>>,
    pub compliant: bool,
    pub complete: bool,
}

impl From<SessionReport> for Observed {
    fn from(report: SessionReport) -> Self {
        let (statuses, traces) = report
            .endpoints
            .into_iter()
            .map(|(role, r)| ((role.clone(), r.status), (role, r.actions)))
            .unzip();
        Observed { statuses, traces, compliant: report.compliant, complete: report.complete }
    }
}

/// The compiled transition tables of `g`'s projections.
pub fn compiled_system(g: &GlobalType) -> Arc<CompiledSystem> {
    Arc::new(System::from_global(g).expect("projectable").compile())
}

fn program(
    system: &Arc<CompiledSystem>,
    (role, proc): &(Role, Proc),
    externals: &Externals,
) -> Arc<EndpointProgram> {
    let compiled = CompiledProc::compile(proc, role, externals).expect("skeletons compile");
    Arc::new(EndpointProgram::with_system(Arc::new(compiled), system))
}

/// Builds the shared batch layout for one proc per role, compiled against
/// the protocol's transition tables. `None` when not batch-eligible.
pub fn make_layout(
    g: &GlobalType,
    procs: &[(Role, Proc)],
    externals: &Externals,
) -> Option<Arc<BatchLayout>> {
    let system = compiled_system(g);
    let mut sorted = procs.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let roles: Arc<[Role]> = sorted.iter().map(|(r, _)| r.clone()).collect();
    let programs = sorted.iter().map(|rp| program(&system, rp, externals)).collect();
    BatchLayout::new(roles, programs, system)
}

/// One transport per proc's role, in `procs` order, over a fresh in-memory
/// network.
pub fn memory_transports(procs: &[(Role, Proc)]) -> Vec<InMemoryTransport> {
    let mut network = InMemoryNetwork::new(procs.iter().map(|(r, _)| r.clone()));
    procs.iter().map(|(r, _)| network.take_endpoint(r).expect("unique roles")).collect()
}

/// Runs one session of `procs` over a fresh in-memory network under
/// `lockstep`, whose monitor runs on `system`: on the per-session compiled
/// executor (lowered against `lowered`) or on the tree oracle, every
/// endpoint calling the actions of `called`.
pub fn run_in_memory(
    system: &Arc<CompiledSystem>,
    procs: &[(Role, Proc)],
    options: &ExecOptions,
    compiled: bool,
    (lowered, called): (&Externals, &Externals),
    lockstep: Lockstep,
) -> SessionReport {
    let transports = memory_transports(procs);
    if compiled {
        let endpoints = procs.iter().zip(transports).map(|(rp, transport)| {
            let program = program(system, rp, lowered);
            (CompiledEndpointTask::new(program, called.clone(), options.clone()), transport)
        });
        lockstep.run(endpoints.collect()).0
    } else {
        let endpoints = procs.iter().zip(transports).map(|((role, proc), transport)| {
            let (called, options) = (called.clone(), options.clone());
            (EndpointTask::new(proc.clone(), role.clone(), called, options), transport)
        });
        lockstep.run(endpoints.collect()).0
    }
}

/// Runs one session stand-alone, lockstep on one thread, on the per-session
/// compiled executor or the tree oracle, with the endpoints lowered against
/// and calling the given `(lowered, called)` externals (none by default).
pub fn run_reference(
    g: &GlobalType,
    procs: &[(Role, Proc)],
    options: &ExecOptions,
    compiled: bool,
    externals: Option<(&Externals, &Externals)>,
) -> Observed {
    let system = compiled_system(g);
    let mut monitor = CompiledMonitor::new(Arc::clone(&system));
    monitor.set_record_trace(options.record_actions);
    let none = Externals::new();
    let externals = externals.unwrap_or((&none, &none));
    run_in_memory(&system, procs, options, compiled, externals, Lockstep::new(monitor)).into()
}

/// Resumes a demoted session on the per-session compiled executor (the
/// server never does: it closes a violator from the extracted state) and
/// runs it to its conclusion.
pub fn finish_demoted(demoted: DemotedSession, layout: &BatchLayout) -> Observed {
    let (lockstep, endpoints) = Lockstep::resume(demoted, layout.roles());
    lockstep.run(endpoints).0.into()
}
