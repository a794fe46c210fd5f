//! The lockstep runner: one session's endpoint tasks stepped round-robin on
//! one thread, every action fed to a [`CompiledMonitor`].
//!
//! This is the scheduler the differential suites define "same behaviour"
//! with. It drives the tree-walking [`EndpointTask`] over any [`Transport`]
//! and the compiled [`CompiledEndpointTask`] over an [`InMemoryTransport`],
//! both through [`LockstepTask`], and can shadow the compiled monitor with
//! the reference [`TraceMonitor`], asserting that the two agree on every
//! action.
//!
//! **Stall rule.** The run ends when every task is done. Otherwise, once no
//! task has progressed for at least 64 consecutive rounds *and* for at
//! least the caller's grace period, every task is marked stalled. The round
//! floor lets a transport that releases held messages on its own calls (a
//! [`FaultyTransport`](crate::faults::FaultyTransport) delay) deliver them;
//! the grace covers a real network's delivery latency (a positive grace
//! sleeps 100 µs between idle rounds). In memory the grace is zero and
//! nothing sleeps: an idle round over bare in-memory transports changes no
//! state, so the floor cannot move an outcome.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zooid_cfsm::InternedAction;
use zooid_mpst::Role;
use zooid_proc::{erase, Externals, ValueAction};

use crate::cbatch::DemotedSession;
use crate::cexec::CompiledEndpointTask;
use crate::exec::{EndpointReport, EndpointTask, StepOutcome};
use crate::harness::SessionReport;
use crate::monitor::{CompiledMonitor, TraceMonitor};
use crate::transport::{InMemoryNetwork, InMemoryTransport, Transport};

/// How many consecutive rounds without progress the stall rule waits out,
/// whatever the grace.
const IDLE_ROUNDS: usize = 64;

/// How long an idle round sleeps when the grace is positive.
const IDLE_SLEEP: Duration = Duration::from_micros(100);

/// Rounds after which a run that has not ended is a bug in the session or
/// in the runner.
const MAX_ROUNDS: usize = 1_000_000;

/// An endpoint task the runner can step over a transport of type `T`. The
/// methods delegate to the task's own ones, which keep their behaviour.
pub trait LockstepTask<T> {
    /// Advances by at most one visible communication, handing every action
    /// to `observe` together with its pre-interned form when the task has
    /// one.
    fn step(
        &mut self,
        transport: &mut T,
        observe: &mut dyn FnMut(&ValueAction, Option<&InternedAction>),
    ) -> StepOutcome;

    /// Whether the execution is over.
    fn is_done(&self) -> bool;

    /// Marks a still-running task as given up by the runner.
    fn mark_stalled(&mut self);

    /// Consumes the task into its endpoint's report.
    fn into_report(self) -> EndpointReport;
}

impl<T: Transport> LockstepTask<T> for EndpointTask {
    fn step(
        &mut self,
        transport: &mut T,
        observe: &mut dyn FnMut(&ValueAction, Option<&InternedAction>),
    ) -> StepOutcome {
        EndpointTask::step(self, transport, &mut |va| observe(va, None))
    }

    fn is_done(&self) -> bool {
        EndpointTask::is_done(self)
    }

    fn mark_stalled(&mut self) {
        EndpointTask::mark_stalled(self);
    }

    fn into_report(self) -> EndpointReport {
        EndpointTask::into_report(self)
    }
}

impl LockstepTask<InMemoryTransport> for CompiledEndpointTask {
    fn step(
        &mut self,
        transport: &mut InMemoryTransport,
        observe: &mut dyn FnMut(&ValueAction, Option<&InternedAction>),
    ) -> StepOutcome {
        self.step_mem(transport, observe)
    }

    fn is_done(&self) -> bool {
        CompiledEndpointTask::is_done(self)
    }

    fn mark_stalled(&mut self) {
        CompiledEndpointTask::mark_stalled(self);
    }

    fn into_report(self) -> EndpointReport {
        CompiledEndpointTask::into_report(self)
    }
}

/// How a round polls its tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Poll {
    /// Step each task until it blocks or finishes before moving on.
    #[default]
    Drain,
    /// One step per task per round: maximises `WouldBlock` yields.
    StepOne,
}

/// The order and depth of a round (by default: drain each task, in the
/// caller's order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Schedule {
    /// How each task is polled.
    pub poll: Poll,
    /// Every round visits the tasks starting from this index (modulo their
    /// number).
    pub offset: usize,
}

/// One lockstep run's monitors and schedule; [`Lockstep::run`] drives a
/// session with them.
#[derive(Debug)]
pub struct Lockstep {
    monitor: CompiledMonitor,
    shadow: Option<TraceMonitor>,
    schedule: Schedule,
    grace: Duration,
}

impl Lockstep {
    /// A run that feeds `monitor`, draining the tasks in order, with no
    /// grace.
    pub fn new(monitor: CompiledMonitor) -> Self {
        Lockstep {
            monitor,
            shadow: None,
            schedule: Schedule::default(),
            grace: Duration::ZERO,
        }
    }

    /// Continues a session demoted out of a batch: every endpoint
    /// [`CompiledEndpointTask::resume`]d over a fresh in-memory network of
    /// the layout's sorted `roles`, the frames that were in flight re-sent
    /// through their senders' transports in order (which keeps per-channel
    /// FIFO), and the demoted monitor continued. Its external actions stayed
    /// behind, so it runs with none.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint's role is not in `roles`, or a frame cannot be
    /// re-sent.
    pub fn resume(
        demoted: DemotedSession,
        roles: &Arc<[Role]>,
    ) -> (Self, Vec<(CompiledEndpointTask, InMemoryTransport)>) {
        let DemotedSession {
            options,
            endpoints,
            monitor,
            frames,
            ..
        } = demoted;
        let mut network = InMemoryNetwork::from_sorted(Arc::clone(roles));
        let mut tasks: Vec<(CompiledEndpointTask, InMemoryTransport)> = endpoints
            .into_iter()
            .map(|ep| {
                let transport = network.take_endpoint(&ep.role).expect("a role of the layout");
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
                (task, transport)
            })
            .collect();
        for (from, to, label, value) in frames {
            tasks[from as usize]
                .1
                .send(&roles[to as usize], &label, &value)
                .expect("co-batched roles are network peers");
        }
        (Lockstep::new(monitor), tasks)
    }

    /// Shadows the compiled monitor with `shadow`: both observe every
    /// action and must agree on it, and on the verdicts and the accepted
    /// trace at the end (so the compiled monitor must record its trace).
    #[must_use]
    pub fn shadow(mut self, shadow: TraceMonitor) -> Self {
        self.shadow = Some(shadow);
        self
    }

    /// Polls the tasks under `schedule` (default [`Schedule::default`]).
    #[must_use]
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Waits at least `grace` without progress before the session stalls
    /// (default zero).
    #[must_use]
    pub fn grace(mut self, grace: Duration) -> Self {
        self.grace = grace;
        self
    }

    /// Runs the session of `endpoints` to its end under the stall rule of
    /// the [module docs](self), and returns its report together with the
    /// transports, by role, in the order given.
    ///
    /// # Panics
    ///
    /// Panics if the monitors disagree, or if the run does not end within a
    /// million rounds.
    pub fn run<T, K: LockstepTask<T>>(
        self,
        mut endpoints: Vec<(K, T)>,
    ) -> (SessionReport, Vec<(Role, T)>) {
        let Lockstep {
            mut monitor,
            mut shadow,
            schedule,
            grace,
        } = self;
        let mut observe = |va: &ValueAction, interned: Option<&InternedAction>| {
            let accepted = match interned {
                Some(interned) => monitor.observe_interned(interned, || erase(va)),
                None => monitor.observe(&erase(va)),
            };
            if let Some(shadow) = &mut shadow {
                let action = erase(va);
                assert_eq!(accepted, shadow.observe(&action), "monitors disagree on {action}");
            }
        };

        let n = endpoints.len();
        let mut last_progress = Instant::now();
        let mut idle_rounds = 0;
        for round in 0.. {
            assert!(round < MAX_ROUNDS, "lockstep schedule must terminate");
            let mut progressed = false;
            for k in 0..n {
                let (task, transport) = &mut endpoints[(k + schedule.offset) % n];
                while let StepOutcome::Progress = task.step(transport, &mut observe) {
                    progressed = true;
                    if schedule.poll == Poll::StepOne {
                        break;
                    }
                }
            }
            if endpoints.iter().all(|(task, _)| task.is_done()) {
                break;
            }
            if progressed {
                last_progress = Instant::now();
                idle_rounds = 0;
                continue;
            }
            idle_rounds += 1;
            if idle_rounds >= IDLE_ROUNDS && last_progress.elapsed() >= grace {
                for (task, _) in &mut endpoints {
                    task.mark_stalled();
                }
                break;
            }
            if !grace.is_zero() {
                std::thread::sleep(IDLE_SLEEP);
            }
        }

        if let Some(shadow) = &shadow {
            assert_eq!(monitor.is_compliant(), shadow.is_compliant());
            assert_eq!(monitor.is_complete(), shadow.is_complete());
            assert_eq!(monitor.trace(), shadow.trace());
        }
        let mut reports = BTreeMap::new();
        let mut transports = Vec::with_capacity(n);
        for (task, transport) in endpoints {
            let report = task.into_report();
            transports.push((report.role.clone(), transport));
            reports.insert(report.role.clone(), report);
        }
        let report = SessionReport {
            endpoints: reports,
            compliant: monitor.is_compliant(),
            complete: monitor.is_complete(),
            violations: monitor.take_violations(),
            global_trace: monitor.take_trace(),
        };
        (report, transports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecOptions;
    use crate::faults::{FaultKind, FaultPlan, FaultSite, FaultSpec, FaultyTransport};
    use zooid_mpst::global::GlobalType;
    use zooid_mpst::Sort;
    use zooid_proc::{Expr, Proc};

    #[test]
    fn the_idle_floor_releases_a_delayed_message_in_memory() {
        // `p -> q : m(nat)`, q's transport holding the message back for 1-3
        // of its own calls: with no grace, only the idle floor keeps q
        // polling until it is released.
        let (p, q) = (Role::new("p"), Role::new("q"));
        let g = GlobalType::msg1(p.clone(), q.clone(), "m", Sort::Nat, GlobalType::End);
        let task = |role: &Role, proc| {
            EndpointTask::new(proc, role.clone(), Externals::new(), ExecOptions::default())
        };
        for seed in 0..8 {
            let mut network = InMemoryNetwork::new([p.clone(), q.clone()]);
            let sender = network.take_endpoint(&p).expect("unique roles");
            let receiver = network.take_endpoint(&q).expect("unique roles");
            let delay = FaultPlan::new(seed).with(FaultSpec::new(FaultKind::Delay, FaultSite::Recv));
            let endpoints = vec![
                (
                    task(&p, Proc::send(q.clone(), "m", Expr::lit(7u64), Proc::Finish)),
                    FaultyTransport::new(sender, &FaultPlan::new(seed)),
                ),
                (
                    task(&q, Proc::recv1(p.clone(), "m", Sort::Nat, "x", Proc::Finish)),
                    FaultyTransport::new(receiver, &delay),
                ),
            ];
            let monitor = CompiledMonitor::for_global(&g).expect("projectable");
            let (report, mut transports) = Lockstep::new(monitor)
                .shadow(TraceMonitor::new(&g).expect("well-formed"))
                .run(endpoints);
            assert!(report.all_finished_and_compliant(), "seed {seed}: {report:?}");
            assert_eq!(transports[1].1.take_schedule().len(), 1, "seed {seed}");
        }
    }
}
