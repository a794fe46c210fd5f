//! The per-session compiled executor: runs an [`EndpointProgram`] against
//! an [`InMemoryTransport`], one endpoint of one session at a time.
//!
//! Where the tree-walking [`EndpointTask`](crate::exec::EndpointTask)
//! re-normalises, substitutes and clones its process tree on every visible
//! step, a [`CompiledEndpointTask`] is a program counter plus a slot array:
//!
//! * loop back-edges were resolved at compile time — no `unfold_once`, no
//!   re-normalisation;
//! * received values land in pre-allocated slots and payload expressions
//!   read them by index — no name-keyed substitution;
//! * every send/receive site carries its [`ActionTemplate`], so the observer
//!   gets the pre-interned action the
//!   [`CompiledMonitor`](crate::monitor::CompiledMonitor) accepts without
//!   hashing a string;
//! * the task binds every peer to its dense channel index on first use
//!   ([`CompiledEndpointTask::step_mem`]), so steady-state stepping does no
//!   role-string comparison either.
//!
//! The programs and their templates are the serving engine's
//! (`zooid-engine`), re-exported here at their old paths, and a task spends
//! fuel by the engine's rule ([`admin_tick`]), so it fails on the internal
//! step the batch fails on. No serving path steps a compiled task: the server runs every session in
//! a columnar [`SessionBatch`](crate::cbatch::SessionBatch) over the same
//! programs. A compiled task is the per-session oracle the batch is checked
//! against (`tests/batch_exec.rs`), and the tree-walking executor is its own
//! (`tests/compiled_exec.rs`): all three produce identical traces, statuses
//! and monitor verdicts, `WouldBlock` interleavings included.

use std::sync::Arc;

use zooid_cfsm::InternedAction;
use zooid_engine::program::admin_tick;
use zooid_mpst::Role;
use zooid_proc::compile::Instr;
use zooid_proc::{sort_of_value, Externals, Value, ValueAction};

use crate::error::{Result, RuntimeError};
use crate::exec::{EndpointReport, EndpointStatus, ExecOptions, StepOutcome};
use crate::transport::InMemoryTransport;

pub use zooid_engine::program::{ActionTemplate, EndpointProgram};

/// A resumable compiled endpoint execution: the drop-in counterpart of the
/// tree-walking [`EndpointTask`](crate::exec::EndpointTask), with the same
/// step/outcome/report contract and none of the per-step tree work.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use zooid_mpst::{Role, Sort};
/// use zooid_proc::{Expr, Externals, Proc};
/// use zooid_runtime::cexec::{CompiledEndpointTask, EndpointProgram};
/// use zooid_runtime::exec::{ExecOptions, StepOutcome};
/// use zooid_runtime::transport::InMemoryNetwork;
///
/// let mut net = InMemoryNetwork::new([Role::new("p"), Role::new("q")]);
/// let mut tp = net.take_endpoint(&Role::new("p")).unwrap();
/// let p = Proc::send(Role::new("q"), "l", Expr::lit(7u64), Proc::Finish);
/// let program = Arc::new(EndpointProgram::compile(&p, &Role::new("p"), &Externals::new()).unwrap());
/// let mut task = CompiledEndpointTask::new(program, Externals::new(), ExecOptions::default());
/// assert_eq!(task.step_mem(&mut tp, &mut |_, _| {}), StepOutcome::Progress);
/// assert!(matches!(
///     task.step_mem(&mut tp, &mut |_, _| {}),
///     StepOutcome::Done(_)
/// ));
/// ```
#[derive(Debug)]
pub struct CompiledEndpointTask {
    program: Arc<EndpointProgram>,
    role: Role,
    externals: Externals,
    options: ExecOptions,
    pc: u32,
    slots: Vec<Value>,
    /// Dense transport index per interned peer role (`RoleId::index()`),
    /// bound lazily by [`peer_index`].
    mem_peers: Vec<Option<u32>>,
    actions: Vec<ValueAction>,
    steps: usize,
    status: Option<EndpointStatus>,
}

/// Resolves an interned peer role (`RoleId::index()`) to its dense
/// [`InMemoryTransport`] channel index, binding it on first use so
/// steady-state stepping compares no role strings.
fn peer_index(
    transport: &InMemoryTransport,
    peers: &mut [Option<u32>],
    rid: usize,
    role: &Role,
) -> Result<usize> {
    if let Some(idx) = peers[rid] {
        return Ok(idx as usize);
    }
    let idx = transport
        .peer_index(role)
        .ok_or_else(|| RuntimeError::UnknownPeer { role: role.clone() })?;
    peers[rid] = Some(idx as u32);
    Ok(idx)
}

impl CompiledEndpointTask {
    /// Creates a task that will run `program` with the given externals.
    pub fn new(program: Arc<EndpointProgram>, externals: Externals, options: ExecOptions) -> Self {
        let compiled = program.program();
        let role = compiled.role().clone();
        let pc = compiled.entry();
        let slots = vec![Value::Unit; compiled.slot_count()];
        let mem_peers = vec![None; compiled.snapshot().roles().len()];
        CompiledEndpointTask {
            program,
            role,
            externals,
            options,
            pc,
            slots,
            mem_peers,
            actions: Vec::new(),
            steps: 0,
            status: None,
        }
    }

    /// Rebuilds a task from previously extracted execution state: the
    /// program counter, slot values, recorded actions, step count and (if
    /// the endpoint already concluded) its status: an endpoint pulled out of
    /// a [`SessionBatch`](crate::cbatch::SessionBatch) resumes here exactly
    /// where its columns left off, which is how the differential suites
    /// check an extraction.
    #[allow(clippy::too_many_arguments)]
    pub fn resume(
        program: Arc<EndpointProgram>,
        externals: Externals,
        options: ExecOptions,
        pc: u32,
        slots: Vec<Value>,
        actions: Vec<ValueAction>,
        steps: usize,
        status: Option<EndpointStatus>,
    ) -> Self {
        let compiled = program.program();
        let role = compiled.role().clone();
        debug_assert_eq!(slots.len(), compiled.slot_count());
        let mem_peers = vec![None; compiled.snapshot().roles().len()];
        CompiledEndpointTask {
            program,
            role,
            externals,
            options,
            pc,
            slots,
            mem_peers,
            actions,
            steps,
            status,
        }
    }

    /// The role the task plays.
    pub fn role(&self) -> &Role {
        &self.role
    }

    /// The visible communications recorded so far (empty when
    /// [`ExecOptions::record_actions`] is off).
    pub fn actions(&self) -> &[ValueAction] {
        &self.actions
    }

    /// Number of visible communications performed (counted even when
    /// recording is off).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Returns `true` once the execution is over.
    pub fn is_done(&self) -> bool {
        self.status.is_some()
    }

    /// Marks a still-running task as given up by its scheduler.
    pub fn mark_stalled(&mut self) {
        if self.status.is_none() {
            self.status = Some(EndpointStatus::Stalled);
        }
    }

    /// Finishes the task, consuming it into the endpoint's report (same
    /// contract as the tree-walking task).
    pub fn into_report(self) -> EndpointReport {
        EndpointReport {
            role: self.role,
            actions: self.actions,
            steps: self.steps,
            status: self.status.unwrap_or(EndpointStatus::Stalled),
        }
    }

    /// Advances by at most one visible communication, yielding
    /// [`StepOutcome::WouldBlock`] on an empty channel. Peers are addressed
    /// by dense index and frames passed by value with no codec round-trip.
    ///
    /// The observer receives every action together with its pre-interned
    /// form when the site's template resolved (pass it to
    /// [`CompiledMonitor::observe_interned`](crate::monitor::CompiledMonitor::observe_interned)).
    pub fn step_mem(
        &mut self,
        transport: &mut InMemoryTransport,
        observer: &mut dyn FnMut(&ValueAction, Option<&InternedAction>),
    ) -> StepOutcome {
        if let Some(status) = &self.status {
            return StepOutcome::Done(status.clone());
        }
        match self.try_step(transport, observer) {
            Ok(StepOutcome::Done(status)) => {
                self.status = Some(status.clone());
                StepOutcome::Done(status)
            }
            Ok(outcome) => outcome,
            Err(err) => {
                let status = EndpointStatus::Failed {
                    error: err.to_string(),
                };
                self.status = Some(status.clone());
                StepOutcome::Done(status)
            }
        }
    }

    fn try_step(
        &mut self,
        transport: &mut InMemoryTransport,
        observer: &mut dyn FnMut(&ValueAction, Option<&InternedAction>),
    ) -> Result<StepOutcome> {
        // Field-level borrows: the program is read-only while pc/slots/
        // actions mutate, so no per-step `Arc` traffic is needed.
        let program = &self.program;
        let compiled = program.program();
        let instrs = compiled.instrs();
        let mut admin = 0usize;
        let mut back_edges = 0usize;
        loop {
            match &instrs[self.pc as usize] {
                Instr::Finish => return Ok(StepOutcome::Done(EndpointStatus::Finished)),
                Instr::Cond {
                    cond,
                    then_pc,
                    else_pc,
                } => {
                    let target = if cond.eval(&self.slots)?.as_bool()? {
                        *then_pc
                    } else {
                        *else_pc
                    };
                    admin_tick(&mut admin, &mut back_edges, self.pc, target)?;
                    self.pc = target;
                }
                Instr::Read { action, slot, next } => {
                    admin_tick(&mut admin, &mut back_edges, self.pc, *next)?;
                    let name = &compiled.action_names()[*action as usize];
                    let result = self.externals.call(name, Value::Unit)?;
                    self.slots[*slot as usize] = result;
                    self.pc = *next;
                }
                Instr::Write { action, arg, next } => {
                    admin_tick(&mut admin, &mut back_edges, self.pc, *next)?;
                    let value = arg.eval(&self.slots)?;
                    let name = &compiled.action_names()[*action as usize];
                    self.externals.call(name, value)?;
                    self.pc = *next;
                }
                Instr::Interact {
                    action,
                    arg,
                    slot,
                    next,
                } => {
                    admin_tick(&mut admin, &mut back_edges, self.pc, *next)?;
                    let value = arg.eval(&self.slots)?;
                    let name = &compiled.action_names()[*action as usize];
                    let result = self.externals.call(name, value)?;
                    self.slots[*slot as usize] = result;
                    self.pc = *next;
                }
                Instr::Send {
                    peer,
                    payload,
                    event,
                    next,
                    ..
                } => {
                    if let Some(limit) = self.options.max_steps {
                        if self.steps >= limit {
                            return Ok(StepOutcome::Done(EndpointStatus::StepLimitReached));
                        }
                    }
                    let value = payload.eval(&self.slots)?;
                    let template = &program.templates()[*event as usize];
                    let sort = sort_of_value(&value);
                    // The pre-interned action is only valid when the runtime
                    // sort matches the statically inferred one (it almost
                    // always does); otherwise the observer's monitor falls
                    // back to its own lookups.
                    let interned = match &template.static_sort {
                        Some(static_sort) if *static_sort == sort => template.interned.as_ref(),
                        _ => None,
                    };
                    let action = ValueAction::send(
                        self.role.clone(),
                        template.peer.clone(),
                        template.label.clone(),
                        sort,
                        value.clone(),
                    );
                    // Same ordering as the tree executor: observe the send
                    // before the frame is in flight.
                    observer(&action, interned);
                    let to =
                        peer_index(transport, &mut self.mem_peers, peer.index(), &template.peer)?;
                    transport.send_indexed(to, template.label.clone(), value)?;
                    if self.options.record_actions {
                        self.actions.push(action);
                    }
                    self.steps += 1;
                    self.pc = *next;
                    return Ok(StepOutcome::Progress);
                }
                Instr::Recv { peer, arms } => {
                    if let Some(limit) = self.options.max_steps {
                        if self.steps >= limit {
                            return Ok(StepOutcome::Done(EndpointStatus::StepLimitReached));
                        }
                    }
                    let from = compiled.snapshot().role(*peer);
                    let idx = peer_index(transport, &mut self.mem_peers, peer.index(), from)?;
                    let Some((label, value)) = transport.try_recv_indexed(idx)? else {
                        return Ok(StepOutcome::WouldBlock { from: from.clone() });
                    };
                    let snapshot = compiled.snapshot();
                    let Some(arm) = arms
                        .iter()
                        .find(|arm| snapshot.label(arm.label) == &label)
                    else {
                        return Err(RuntimeError::UnexpectedMessage {
                            from: from.clone(),
                            label,
                        });
                    };
                    let sort = snapshot.sort(arm.sort);
                    if !value.has_sort(sort) {
                        return Err(RuntimeError::BadPayload {
                            from: from.clone(),
                            label,
                        });
                    }
                    let template = &program.templates()[arm.event as usize];
                    let action = ValueAction::recv(
                        self.role.clone(),
                        from.clone(),
                        label,
                        sort.clone(),
                        value.clone(),
                    );
                    observer(&action, template.interned.as_ref());
                    if self.options.record_actions {
                        self.actions.push(action);
                    }
                    self.slots[arm.slot as usize] = value;
                    self.steps += 1;
                    self.pc = arm.next;
                    return Ok(StepOutcome::Progress);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{InMemoryNetwork, Transport};
    use zooid_mpst::{Label, Sort};
    use zooid_proc::{Expr, Proc, RecvAlt};

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    fn program(proc: &Proc, role: &Role) -> Arc<EndpointProgram> {
        Arc::new(EndpointProgram::compile(proc, role, &Externals::new()).unwrap())
    }

    #[test]
    fn a_compiled_exchange_runs_to_completion_on_one_thread() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut tp = net.take_endpoint(&r("p")).unwrap();
        let mut tq = net.take_endpoint(&r("q")).unwrap();

        let p = Proc::send(
            r("q"),
            "req",
            Expr::lit(41u64),
            Proc::recv1(r("q"), "resp", Sort::Nat, "y", Proc::Finish),
        );
        let q = Proc::recv1(
            r("p"),
            "req",
            Sort::Nat,
            "x",
            Proc::send(
                r("p"),
                "resp",
                Expr::add(Expr::var("x"), Expr::lit(1u64)),
                Proc::Finish,
            ),
        );
        let mut tasks = [
            (
                CompiledEndpointTask::new(program(&p, &r("p")), Externals::new(), ExecOptions::default()),
                &mut tp,
            ),
            (
                CompiledEndpointTask::new(program(&q, &r("q")), Externals::new(), ExecOptions::default()),
                &mut tq,
            ),
        ];
        let mut rounds = 0;
        while tasks.iter().any(|(t, _)| !t.is_done()) {
            rounds += 1;
            assert!(rounds < 100);
            for (task, transport) in &mut tasks {
                task.step_mem(transport, &mut |_, _| {});
            }
        }
        let [(p_task, _), (q_task, _)] = tasks;
        let p_report = p_task.into_report();
        assert!(p_report.status.is_finished());
        assert!(q_task.into_report().status.is_finished());
        assert_eq!(p_report.actions[1].value, Value::Nat(42));
    }

    #[test]
    fn loops_step_without_renormalisation_and_respect_limits() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut tp = net.take_endpoint(&r("p")).unwrap();
        let p = Proc::loop_(Proc::send(r("q"), "tick", Expr::lit(0u64), Proc::Jump(0)));
        let mut task = CompiledEndpointTask::new(
            program(&p, &r("p")),
            Externals::new(),
            ExecOptions::with_max_steps(10),
        );
        loop {
            match task.step_mem(&mut tp, &mut |_, _| {}) {
                StepOutcome::Progress => {}
                StepOutcome::Done(status) => {
                    assert_eq!(status, EndpointStatus::StepLimitReached);
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(task.steps(), 10);
    }

    #[test]
    fn recording_can_be_switched_off_while_steps_still_count() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut tp = net.take_endpoint(&r("p")).unwrap();
        let p = Proc::send(r("q"), "l", Expr::lit(1u64), Proc::Finish);
        let mut observed = 0;
        let mut task = CompiledEndpointTask::new(
            program(&p, &r("p")),
            Externals::new(),
            ExecOptions::default().record_actions(false),
        );
        while !task.is_done() {
            task.step_mem(&mut tp, &mut |_, _| observed += 1);
        }
        assert_eq!(observed, 1, "observers still see every action");
        assert_eq!(task.steps(), 1);
        let report = task.into_report();
        assert!(report.status.is_finished());
        assert!(report.actions.is_empty());
    }

    #[test]
    fn unexpected_labels_fail_like_the_tree_executor() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut tp = net.take_endpoint(&r("p")).unwrap();
        let mut tq = net.take_endpoint(&r("q")).unwrap();
        tp.send(&r("q"), &Label::new("bogus"), &Value::Unit).unwrap();
        let q = Proc::recv(
            r("p"),
            vec![RecvAlt::new("expected", Sort::Unit, "x", Proc::Finish)],
        );
        let mut task =
            CompiledEndpointTask::new(program(&q, &r("q")), Externals::new(), ExecOptions::default());
        match task.step_mem(&mut tq, &mut |_, _| {}) {
            StepOutcome::Done(EndpointStatus::Failed { error }) => {
                assert!(error.contains("unexpected message"), "{error}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn would_block_leaves_the_task_resumable() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut tp = net.take_endpoint(&r("p")).unwrap();
        let mut tq = net.take_endpoint(&r("q")).unwrap();
        let q = Proc::recv1(r("p"), "l", Sort::Nat, "x", Proc::Finish);
        let mut task =
            CompiledEndpointTask::new(program(&q, &r("q")), Externals::new(), ExecOptions::default());
        assert_eq!(
            task.step_mem(&mut tq, &mut |_, _| {}),
            StepOutcome::WouldBlock { from: r("p") }
        );
        tp.send(&r("q"), &Label::new("l"), &Value::Nat(7)).unwrap();
        assert_eq!(task.step_mem(&mut tq, &mut |_, _| {}), StepOutcome::Progress);
        assert_eq!(
            task.step_mem(&mut tq, &mut |_, _| {}),
            StepOutcome::Done(EndpointStatus::Finished)
        );
        assert_eq!(task.into_report().actions[0].value, Value::Nat(7));
    }

    #[test]
    fn externals_run_as_internal_actions() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut tp = net.take_endpoint(&r("p")).unwrap();
        let mut tq = net.take_endpoint(&r("q")).unwrap();
        let mut ext = Externals::new();
        ext.register_interact("double", Sort::Nat, Sort::Nat, |v| {
            Value::Nat(v.as_nat().unwrap() * 2)
        });
        let p = Proc::interact(
            "double",
            Expr::lit(21u64),
            "y",
            Proc::send(r("q"), "l", Expr::var("y"), Proc::Finish),
        );
        let q = Proc::recv1(r("p"), "l", Sort::Nat, "x", Proc::Finish);
        let pprog = Arc::new(EndpointProgram::compile(&p, &r("p"), &ext).unwrap());
        let mut ptask = CompiledEndpointTask::new(pprog, ext, ExecOptions::default());
        let mut qtask =
            CompiledEndpointTask::new(program(&q, &r("q")), Externals::new(), ExecOptions::default());
        while !ptask.is_done() {
            ptask.step_mem(&mut tp, &mut |_, _| {});
        }
        while !qtask.is_done() {
            qtask.step_mem(&mut tq, &mut |_, _| {});
        }
        assert_eq!(qtask.into_report().actions[0].value, Value::Nat(42));
    }
}
