//! The endpoint executor: runs a process against a [`Transport`].
//!
//! This is the counterpart of the paper's extraction (`extract_proc`,
//! Appendix B) composed with a `ProcessMonad` instance: the process steps
//! the process LTS of [`zooid_proc::semantics`], one visible action at a
//! time. Before each one the process is reduced to its next communication
//! ([`to_communication`], whose module states the fuel rule); a send
//! performs its [`send_action`], a receive takes the transport's message as
//! the alternative for its label; the transport carries the message; and
//! [`step_communication`] gives the continuation. The endpoint's own trace
//! is recorded so that it can be checked against the protocol afterwards
//! (or live, by the [`monitor`](crate::monitor)). A task
//! [typed](EndpointTask::typed) by the local type its process was certified
//! against records each send at the sort that type declares, and follows
//! the type action by action; an untyped task, which is what [`execute`]
//! runs, records the payload's own sort.
//!
//! The interpreter is a resumable state machine, [`EndpointTask`]: each
//! [`EndpointTask::step`] performs at most one visible communication and
//! yields [`StepOutcome::WouldBlock`] when a receive finds its channel empty,
//! so one thread can interleave many endpoints, as the session harness and
//! the differential suites do on the [`lockstep`](crate::lockstep) runner.
//! The blocking [`execute`] entry point, which an endpoint run on its own
//! over TCP uses, is a loop of steps that wait inside [`Transport::recv`],
//! so a receive that times out fails the endpoint. No serving path runs
//! either: the server runs the serving engine's columnar batch, and this
//! interpreter is its oracle.
//!
//! What an execution is configured with and reports ([`ExecOptions`],
//! [`EndpointStatus`], [`EndpointReport`]) is shared with every executor, so
//! it lives in the serving engine (`zooid-engine`) and is re-exported here.

use std::borrow::Cow;

use zooid_mpst::local::LocalType;
use zooid_mpst::Role;
use zooid_proc::preservation::local_type_step;
use zooid_proc::semantics::{send_action, step_communication, to_communication};
use zooid_proc::{erase, Externals, Proc, ProcError, ValueAction};

use crate::error::{Result, RuntimeError};
use crate::transport::Transport;

pub use zooid_engine::report::{EndpointReport, EndpointStatus, ExecOptions};

/// Runs `proc` as `role` over `transport`, with the given external actions.
///
/// Failures are reported in the returned [`EndpointReport::status`] rather
/// than as an `Err`, so that the partial trace leading up to a failure is
/// preserved (the failure-injection tests rely on this).
pub fn execute(
    proc: &Proc,
    role: &Role,
    transport: &mut dyn Transport,
    externals: &Externals,
    options: &ExecOptions,
) -> EndpointReport {
    let mut task = EndpointTask::new(proc.clone(), role.clone(), externals.clone(), options.clone());
    // A blocking step waits inside `Transport::recv`, so a timeout becomes
    // a failure.
    while !matches!(task.step_inner(transport, &mut |_| {}, true), StepOutcome::Done(_)) {}
    task.into_report()
}

/// What one call to [`EndpointTask::step`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// One visible communication was performed.
    Progress,
    /// The process is waiting for a message that has not arrived yet; the
    /// task's state is unchanged and the step can be retried once the peer
    /// has sent (never returned by the blocking loop of [`execute`]).
    WouldBlock {
        /// The peer the process is waiting for.
        from: Role,
    },
    /// The execution is over; further steps return the same status.
    Done(EndpointStatus),
}

/// A resumable endpoint execution: the poll-based state machine behind
/// [`execute`].
///
/// Where the blocking loop waits inside [`Transport::recv`], an
/// `EndpointTask` advances one visible communication per
/// [`EndpointTask::step`] call and yields [`StepOutcome::WouldBlock`] when
/// the next action is a receive and the channel is empty (via
/// [`Transport::try_recv`]). One thread can therefore interleave the
/// endpoints of a session — which is how the session harness and the
/// differential suites run it, in lockstep with the compiled executors —
/// while [`execute`] remains a trivial loop of steps that block instead.
#[derive(Debug)]
pub struct EndpointTask {
    role: Role,
    externals: Externals,
    options: ExecOptions,
    current: Proc,
    /// The local type `current` is typed against, when the task was
    /// [`typed`](Self::typed).
    local: Option<LocalType>,
    actions: Vec<ValueAction>,
    steps: usize,
    status: Option<EndpointStatus>,
}

impl EndpointTask {
    /// Creates a task that will run `proc` as `role`.
    pub fn new(proc: Proc, role: Role, externals: Externals, options: ExecOptions) -> Self {
        EndpointTask {
            role,
            externals,
            options,
            current: proc,
            local: None,
            actions: Vec::new(),
            steps: 0,
            status: None,
        }
    }

    /// The role the task plays.
    pub fn role(&self) -> &Role {
        &self.role
    }

    /// The visible communications performed so far.
    pub fn actions(&self) -> &[ValueAction] {
        &self.actions
    }

    /// Types the task by `local`, the local type its process was certified
    /// against. A send then records the sort `local` declares for its label
    /// (an untyped task records the payload's own sort), and the type
    /// follows every action; an action it cannot follow fails the task with
    /// a [`ProcError::TypeError`].
    #[must_use]
    pub fn typed(mut self, local: LocalType) -> Self {
        self.local = Some(local);
        self
    }

    /// Returns `true` once the execution is over (finished, failed or
    /// stopped at the step limit).
    pub fn is_done(&self) -> bool {
        self.status.is_some()
    }

    /// Advances the task by at most one visible communication, polling the
    /// transport with [`Transport::try_recv`] so an empty channel yields
    /// [`StepOutcome::WouldBlock`] instead of parking the thread.
    pub fn step(
        &mut self,
        transport: &mut dyn Transport,
        observer: &mut dyn FnMut(&ValueAction),
    ) -> StepOutcome {
        self.step_inner(transport, observer, false)
    }

    /// Marks a still-running task as given up by its scheduler (all peers of
    /// the session blocked too); further steps return `Done(Stalled)`.
    pub fn mark_stalled(&mut self) {
        if self.status.is_none() {
            self.status = Some(EndpointStatus::Stalled);
        }
    }

    /// Finishes the task, consuming it into the endpoint's report. A task
    /// that is still mid-protocol is reported as [`EndpointStatus::Stalled`].
    pub fn into_report(self) -> EndpointReport {
        EndpointReport {
            role: self.role,
            actions: self.actions,
            steps: self.steps,
            status: self.status.unwrap_or(EndpointStatus::Stalled),
        }
    }

    fn step_inner(
        &mut self,
        transport: &mut dyn Transport,
        observer: &mut dyn FnMut(&ValueAction),
        block: bool,
    ) -> StepOutcome {
        if let Some(status) = &self.status {
            return StepOutcome::Done(status.clone());
        }
        match self.try_step(transport, observer, block) {
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
        transport: &mut dyn Transport,
        observer: &mut dyn FnMut(&ValueAction),
        block: bool,
    ) -> Result<StepOutcome> {
        // Advance by *taking ownership* of the process: the reduction and
        // the step move continuations out of their boxes instead of
        // deep-cloning them ([`to_communication`] returns a communication
        // as it is, as on the retry after a `WouldBlock`). After an error
        // the task never steps again.
        let current = std::mem::replace(&mut self.current, Proc::Finish);
        self.current = to_communication(current, &self.externals)?;
        let at_limit = self.options.max_steps.is_some_and(|limit| self.steps >= limit);
        if at_limit && !matches!(self.current, Proc::Finish) {
            return Ok(StepOutcome::Done(EndpointStatus::StepLimitReached));
        }
        let offered = send_action(&self.current, &self.role, self.local.as_ref())?;
        let action = if let Some(action) = offered {
            action
        } else if let Proc::Recv { from, alts } = &self.current {
            let message = if block {
                Some(transport.recv(from)?)
            } else {
                transport.try_recv(from)?
            };
            let Some((label, value)) = message else {
                return Ok(StepOutcome::WouldBlock { from: from.clone() });
            };
            let Some(alt) = alts.iter().find(|a| a.label == label) else {
                return Err(RuntimeError::UnexpectedMessage { from: from.clone(), label });
            };
            let sort = alt.sort.clone();
            ValueAction::recv(self.role.clone(), from.clone(), label, sort, value)
        } else {
            // `finish`, the one other head `to_communication` returns.
            return Ok(StepOutcome::Done(EndpointStatus::Finished));
        };
        let head = std::mem::replace(&mut self.current, Proc::Finish);
        let Some(next) = step_communication(Cow::Owned(head), &action)? else {
            return Err(if action.is_send {
                untyped(&action)
            } else {
                RuntimeError::BadPayload { from: action.from, label: action.label }
            });
        };
        if let Some(local) = &self.local {
            let stepped = local_type_step(local, &erase(&action));
            self.local = Some(stepped.ok_or_else(|| untyped(&action))?);
        }
        // Observe a send *before* handing the message to the transport:
        // once the frame is in flight the receiver may report its receive
        // at any moment, and the monitor must see the send first to
        // recognise the interleaving as a valid asynchronous trace.
        observer(&action);
        if action.is_send {
            transport.send(&action.to, &action.label, &action.value)?;
        }
        if self.options.record_actions {
            self.actions.push(action);
        }
        self.steps += 1;
        self.current = next;
        Ok(StepOutcome::Progress)
    }
}

/// The error of an action the task's local type cannot perform, which
/// Theorem 4.5 rules out for a certified process.
fn untyped(action: &ValueAction) -> RuntimeError {
    RuntimeError::Process(ProcError::TypeError {
        reason: format!("the local type cannot perform {action}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::Lockstep;
    use crate::monitor::CompiledMonitor;
    use crate::transport::InMemoryNetwork;
    use zooid_mpst::global::GlobalType;
    use zooid_mpst::Sort;
    use zooid_proc::{Expr, RecvAlt, Value};

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    #[test]
    fn a_single_exchange_runs_to_completion() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut tp = net.take_endpoint(&r("p")).unwrap();
        let mut tq = net.take_endpoint(&r("q")).unwrap();

        let sender = Proc::send(r("q"), "l", Expr::lit(7u64), Proc::Finish);
        let receiver = Proc::recv1(r("p"), "l", Sort::Nat, "x", Proc::Finish);

        // Nothing in memory waits, so the sender runs first.
        let sender_report = execute(
            &sender,
            &r("p"),
            &mut tp,
            &Externals::new(),
            &ExecOptions::default(),
        );
        let receiver_report =
            execute(&receiver, &r("q"), &mut tq, &Externals::new(), &ExecOptions::default());

        assert!(sender_report.status.is_finished());
        assert!(receiver_report.status.is_finished());
        assert_eq!(sender_report.steps(), 1);
        assert_eq!(receiver_report.steps(), 1);
        assert_eq!(receiver_report.actions[0].value, Value::Nat(7));
        assert_eq!(
            sender_report.erased_trace().actions()[0],
            receiver_report.erased_trace().actions()[0].dual()
        );
    }

    #[test]
    fn received_values_flow_into_later_sends() {
        // q echoes x + 1 back to p.
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let tp = net.take_endpoint(&r("p")).unwrap();
        let tq = net.take_endpoint(&r("q")).unwrap();

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
        // p waits for q's reply, so the two run in lockstep.
        let g = GlobalType::msg1(
            r("p"),
            r("q"),
            "req",
            Sort::Nat,
            GlobalType::msg1(r("q"), r("p"), "resp", Sort::Nat, GlobalType::End),
        );
        let task = |proc, role| EndpointTask::new(proc, r(role), Externals::new(), ExecOptions::default());
        let (report, _) = Lockstep::new(CompiledMonitor::for_global(&g).unwrap())
            .run(vec![(task(p, "p"), tp), (task(q, "q"), tq)]);
        assert!(report.all_finished_and_compliant(), "{report:?}");
        assert_eq!(report.endpoints[&r("p")].actions[1].value, Value::Nat(42));
    }

    #[test]
    fn step_limit_stops_recursive_processes() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut tp = net.take_endpoint(&r("p")).unwrap();
        // p sends forever; we stop it after 10 messages.
        let p = Proc::loop_(Proc::send(r("q"), "tick", Expr::lit(0u64), Proc::Jump(0)));
        let report = execute(
            &p,
            &r("p"),
            &mut tp,
            &Externals::new(),
            &ExecOptions::with_max_steps(10),
        );
        assert_eq!(report.status, EndpointStatus::StepLimitReached);
        assert_eq!(report.steps(), 10);
    }

    #[test]
    fn unexpected_labels_fail_the_execution_with_a_partial_trace() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut tp = net.take_endpoint(&r("p")).unwrap();
        let mut tq = net.take_endpoint(&r("q")).unwrap();
        // p sends a label q does not expect.
        tp.send(&r("q"), &zooid_mpst::Label::new("bogus"), &Value::Unit)
            .unwrap();
        let q = Proc::recv1(r("p"), "expected", Sort::Unit, "x", Proc::Finish);
        let report = execute(&q, &r("q"), &mut tq, &Externals::new(), &ExecOptions::default());
        match report.status {
            EndpointStatus::Failed { error } => assert!(error.contains("unexpected message")),
            other => panic!("expected failure, got {other:?}"),
        }
        assert!(report.actions.is_empty());
    }

    #[test]
    fn bad_payload_sorts_are_detected() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut tp = net.take_endpoint(&r("p")).unwrap();
        let mut tq = net.take_endpoint(&r("q")).unwrap();
        tp.send(&r("q"), &zooid_mpst::Label::new("l"), &Value::Bool(true))
            .unwrap();
        let q = Proc::recv1(r("p"), "l", Sort::Nat, "x", Proc::Finish);
        let report = execute(&q, &r("q"), &mut tq, &Externals::new(), &ExecOptions::default());
        match report.status {
            EndpointStatus::Failed { error } => assert!(error.contains("wrong sort")),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn waiting_on_a_silent_peer_times_out() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut tq = net.take_endpoint(&r("q")).unwrap();
        let q = Proc::recv1(r("p"), "l", Sort::Nat, "x", Proc::Finish);
        let report = execute(&q, &r("q"), &mut tq, &Externals::new(), &ExecOptions::default());
        match report.status {
            EndpointStatus::Failed { error } => assert!(error.contains("timed out")),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn stepping_yields_would_block_until_the_message_arrives() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut tp = net.take_endpoint(&r("p")).unwrap();
        let mut tq = net.take_endpoint(&r("q")).unwrap();

        let receiver = Proc::recv1(r("p"), "l", Sort::Nat, "x", Proc::Finish);
        let mut task = EndpointTask::new(
            receiver,
            r("q"),
            Externals::new(),
            ExecOptions::default(),
        );
        // Nothing sent yet: the task parks without consuming anything.
        assert_eq!(
            task.step(&mut tq, &mut |_| {}),
            StepOutcome::WouldBlock { from: r("p") }
        );
        assert!(!task.is_done());
        tp.send(&r("q"), &zooid_mpst::Label::new("l"), &Value::Nat(7)).unwrap();
        assert_eq!(task.step(&mut tq, &mut |_| {}), StepOutcome::Progress);
        assert_eq!(
            task.step(&mut tq, &mut |_| {}),
            StepOutcome::Done(EndpointStatus::Finished)
        );
        let report = task.into_report();
        assert!(report.status.is_finished());
        assert_eq!(report.actions[0].value, Value::Nat(7));
    }

    #[test]
    fn two_tasks_multiplex_on_a_single_thread() {
        // The whole exchange of `received_values_flow_into_later_sends`, but
        // scheduled by hand instead of by the lockstep runner.
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
            (EndpointTask::new(p, r("p"), Externals::new(), ExecOptions::default()), &mut tp),
            (EndpointTask::new(q, r("q"), Externals::new(), ExecOptions::default()), &mut tq),
        ];
        let mut rounds = 0;
        while tasks.iter().any(|(t, _)| !t.is_done()) {
            rounds += 1;
            assert!(rounds < 100, "cooperative schedule must terminate");
            for (task, transport) in &mut tasks {
                task.step(*transport, &mut |_| {});
            }
        }
        let [(p_task, _), (q_task, _)] = tasks;
        let p_report = p_task.into_report();
        assert!(p_report.status.is_finished());
        assert!(q_task.into_report().status.is_finished());
        assert_eq!(p_report.actions[1].value, Value::Nat(42));
    }

    #[test]
    fn stalled_tasks_report_their_partial_trace() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut tq = net.take_endpoint(&r("q")).unwrap();
        let q = Proc::recv1(r("p"), "l", Sort::Nat, "x", Proc::Finish);
        let mut task = EndpointTask::new(q, r("q"), Externals::new(), ExecOptions::default());
        assert!(matches!(
            task.step(&mut tq, &mut |_| {}),
            StepOutcome::WouldBlock { .. }
        ));
        task.mark_stalled();
        assert_eq!(
            task.step(&mut tq, &mut |_| {}),
            StepOutcome::Done(EndpointStatus::Stalled)
        );
        let report = task.into_report();
        assert_eq!(report.status, EndpointStatus::Stalled);
        assert!(report.actions.is_empty());
    }

    #[test]
    fn external_actions_run_during_execution() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut tp = net.take_endpoint(&r("p")).unwrap();
        let mut tq = net.take_endpoint(&r("q")).unwrap();

        let mut ext = Externals::new();
        ext.register_interact("double", Sort::Nat, Sort::Nat, |v| {
            Value::Nat(v.as_nat().unwrap() * 2)
        });

        // p reads nothing; it interacts to compute 21 * 2 and sends it.
        let p = Proc::interact(
            "double",
            Expr::lit(21u64),
            "y",
            Proc::send(r("q"), "l", Expr::var("y"), Proc::Finish),
        );
        let q = Proc::recv(
            r("p"),
            vec![RecvAlt::new("l", Sort::Nat, "x", Proc::Finish)],
        );
        // Nothing in memory waits, so the sender runs first.
        let p_report = execute(&p, &r("p"), &mut tp, &ext, &ExecOptions::default());
        let q_report = execute(&q, &r("q"), &mut tq, &Externals::new(), &ExecOptions::default());
        assert!(p_report.status.is_finished());
        assert_eq!(q_report.actions[0].value, Value::Nat(42));
    }
}
