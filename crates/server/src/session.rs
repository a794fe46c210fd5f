//! One hosted session: a set of resumable endpoint tasks over an in-memory
//! network, stepped in bounded quanta with a live compiled monitor.
//!
//! Endpoints run on the **compiled data plane**, and only there: each
//! submitted process is lowered once per `(global type, role, process)`
//! (cached behind [`ProtocolArtifacts`]) and executed as a
//! [`CompiledEndpointTask`] — program counter plus slot array, with the
//! monitor fed pre-interned actions. Lowering fails only on an unbound jump
//! or a communication-free loop, and certification rejects both, so a
//! session whose process does not lower is closed at admission with every
//! endpoint `Failed` rather than handed to a second executor. The
//! tree-walking executor stays in `zooid-runtime` as the differential
//! referee; this crate does not run it.
//!
//! A session ends where it stands. Whoever holds it when it is over — this
//! module's slab session, a columnar batch, or the shard with a
//! [`DemotedSession`] in hand that quarantine will not let run on — turns
//! the state it already has into the [`SessionOutcome`]; every one of them
//! is assembled by the same private constructor here. Extracted state is
//! rebuilt into a slab session only to *resume* it.

use std::collections::BTreeMap;
use std::sync::Arc;

use zooid_dsl::CertifiedProcess;
use zooid_mpst::{Role, Trace};
use zooid_proc::{erase, Externals, ProcError};
use zooid_runtime::cbatch::{BatchOutcome, DemotedEndpoint, DemotedSession};
use zooid_runtime::cexec::{CompiledEndpointTask, EndpointProgram};
use zooid_runtime::checkpoint::checkpoint_task;
use zooid_runtime::error::RuntimeError;
use zooid_runtime::exec::{EndpointReport, EndpointStatus, ExecOptions, StepOutcome};
use zooid_runtime::monitor::{CompiledMonitor, MonitorViolation};
use zooid_runtime::transport::{InMemoryNetwork, InMemoryTransport};

use crate::error::{Result, ServerError};
use crate::registry::{ProtocolArtifacts, ProtocolId, ProtocolRegistry};

/// Server-wide id of a hosted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

/// Everything needed to start one session: the protocol and a certified
/// implementation (plus externals) for every participant.
///
/// The endpoint list is behind an `Arc`: a load generator (or any client
/// starting many sessions of the same implementations) builds it once and
/// submits clones of the *handle* — the certified processes themselves are
/// shared, never re-cloned per session, and on the worker shard the
/// compiled-program cache means session construction only reads them.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The registered protocol the session runs.
    pub protocol: ProtocolId,
    /// One certified endpoint per participant, in any order (shared).
    pub endpoints: Arc<[(CertifiedProcess, Externals)]>,
    /// Execution options applied to every endpoint (step limits for
    /// non-terminating protocols).
    pub options: ExecOptions,
}

impl SessionSpec {
    /// A spec with default options. Accepts a `Vec` (converted once) or an
    /// already shared `Arc` slice.
    pub fn new(
        protocol: ProtocolId,
        endpoints: impl Into<Arc<[(CertifiedProcess, Externals)]>>,
    ) -> Self {
        SessionSpec {
            protocol,
            endpoints: endpoints.into(),
            options: ExecOptions::default(),
        }
    }

    /// The deterministic skeleton cast (first-branch sends, default
    /// payloads) of a registered protocol, with default options.
    ///
    /// # Errors
    ///
    /// Fails if the protocol id is unknown or its projections need payload
    /// sorts with no default value.
    pub fn skeleton(registry: &ProtocolRegistry, protocol: ProtocolId) -> Result<Self> {
        let artifacts = registry.get(protocol).ok_or(ServerError::UnknownProtocol)?;
        let endpoints = crate::synth::skeleton_endpoints(artifacts.protocol())?;
        Ok(SessionSpec::new(protocol, endpoints))
    }

    /// Limits every endpoint to at most `max_steps` visible communications
    /// (required for looping protocols).
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.options = ExecOptions::with_max_steps(max_steps);
        self
    }
}

/// The outcome of one hosted session (the server-side counterpart of
/// [`zooid_runtime::SessionReport`]).
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The session's id.
    pub id: SessionId,
    /// The protocol it ran.
    pub protocol: ProtocolId,
    /// Per-endpoint reports (trace with values, final status).
    pub endpoints: BTreeMap<Role, EndpointReport>,
    /// The global interleaving accepted by the monitor (erased actions).
    pub global_trace: Trace,
    /// Whether every observed action was allowed by the protocol.
    pub compliant: bool,
    /// Whether the protocol ran to completion.
    pub complete: bool,
    /// Every observed violation.
    pub violations: Vec<MonitorViolation>,
    /// Whether the scheduler gave up because no endpoint could progress.
    pub stalled: bool,
    /// Whether the quarantine policy halted the session on its first
    /// monitor rejection (the session took zero steps after the violating
    /// action).
    pub quarantined: bool,
}

/// What a session's monitor concluded: the accepted global trace, whether
/// it was compliant, whether it was complete, and the violations.
type Verdicts = (Trace, bool, bool, Vec<MonitorViolation>);

/// Moves a monitor that is done observing into its verdicts (the flags are
/// read before the trace and the violations move out).
fn verdicts_of(monitor: &mut CompiledMonitor) -> Verdicts {
    let (compliant, complete) = (monitor.is_compliant(), monitor.is_complete());
    (monitor.take_trace(), compliant, complete, monitor.take_violations())
}

impl SessionOutcome {
    /// The one place an outcome is put together, whichever executor the
    /// session ended on.
    fn assemble(
        id: SessionId,
        protocol: ProtocolId,
        reports: impl IntoIterator<Item = EndpointReport>,
        (global_trace, compliant, complete, violations): Verdicts,
        stalled: bool,
        quarantined: bool,
    ) -> Self {
        SessionOutcome {
            id,
            protocol,
            endpoints: reports
                .into_iter()
                .map(|report| (report.role.clone(), report))
                .collect(),
            global_trace,
            compliant,
            complete,
            violations,
            stalled,
            quarantined,
        }
    }

    /// The outcome of a session that ended inside a columnar batch.
    pub(crate) fn from_batch(protocol: ProtocolId, outcome: BatchOutcome) -> Self {
        let verdicts = (
            outcome.global_trace,
            outcome.compliant,
            outcome.complete,
            outcome.violations,
        );
        let id = SessionId(outcome.token);
        Self::assemble(id, protocol, outcome.endpoints, verdicts, outcome.stalled, false)
    }

    /// The outcome of a session a batch demoted with its violation budget
    /// spent: quarantine ends it where the batch left it, so the extracted
    /// state *is* the outcome — every endpoint's recorded actions, its
    /// status if it had concluded and `Stalled` if not, the monitor's
    /// verdicts — and no executor is built to take zero steps with.
    pub(crate) fn quarantined(protocol: ProtocolId, demoted: DemotedSession) -> Self {
        let mut monitor = demoted.monitor;
        let reports = demoted.endpoints.into_iter().map(|ep| EndpointReport {
            role: ep.role,
            actions: ep.actions,
            status: ep.status.unwrap_or(EndpointStatus::Stalled),
        });
        let verdicts = verdicts_of(&mut monitor);
        Self::assemble(SessionId(demoted.token), protocol, reports, verdicts, false, true)
    }

    /// Returns `true` if every endpoint finished and the observed trace is
    /// compliant and complete.
    pub fn all_finished_and_compliant(&self) -> bool {
        self.compliant
            && self.complete
            && self.endpoints.values().all(|r| r.status.is_finished())
    }

    /// Total number of messages exchanged (sends accepted by the monitor).
    pub fn messages_exchanged(&self) -> usize {
        self.global_trace.iter().filter(|a| a.is_send()).count()
    }
}

/// What one scheduling quantum did to a session.
#[derive(Debug)]
pub(crate) struct QuantumResult {
    /// Visible communications performed during the quantum.
    pub(crate) actions: usize,
    /// Messages handed to the in-session network (sends).
    pub(crate) sends: usize,
    /// The session's outcome, if the quantum ended it: finished, stalled,
    /// or quarantined because its monitor has rejected as many actions as
    /// its violation threshold allows. The session must not be re-queued.
    /// `None` when the budget ran out mid-protocol: the session stays live
    /// and the next quantum picks it up where it stopped.
    pub(crate) closed: Option<SessionOutcome>,
}

/// A session hosted by a worker shard: one endpoint task per role, the
/// session's in-memory channels, and a [`CompiledMonitor`] observing every
/// communication.
#[derive(Debug)]
pub(crate) struct ActiveSession {
    id: SessionId,
    protocol: ProtocolId,
    monitor: CompiledMonitor,
    tasks: Vec<(CompiledEndpointTask, InMemoryTransport)>,
}

/// Checks that a spec's endpoints cover the protocol's participants exactly
/// once each (and belong to the protocol at all): submission validates
/// cheaply on the caller's thread, while resolution and *construction* —
/// lowered programs, channels, compiled tasks, monitor — happen on the worker
/// shard, in parallel across shards.
pub(crate) fn validate_spec(spec: &SessionSpec, artifacts: &ProtocolArtifacts) -> Result<()> {
    let mut remaining: Vec<&Role> = artifacts.roles().collect();
    for (cert, _) in spec.endpoints.iter() {
        if cert.protocol_name() != artifacts.name() {
            return Err(ServerError::WrongProtocol {
                expected: artifacts.name().to_owned(),
                found: cert.protocol_name().to_owned(),
            });
        }
        let Some(pos) = remaining.iter().position(|r| *r == cert.role()) else {
            return Err(ServerError::UnexpectedEndpoint {
                role: cert.role().clone(),
            });
        };
        remaining.swap_remove(pos);
    }
    if let Some(role) = remaining.first() {
        return Err(ServerError::MissingEndpoint { role: (*role).clone() });
    }
    Ok(())
}

/// The outcome of a session refused at admission because one of its
/// processes does not lower: nothing ran, and every endpoint reports
/// `Failed` with the lowering error (in the runtime's error format, as a
/// failing step would).
pub(crate) fn failed_at_admission(
    id: SessionId,
    artifacts: &ProtocolArtifacts,
    error: ProcError,
) -> SessionOutcome {
    let status = EndpointStatus::Failed {
        error: RuntimeError::from(error).to_string(),
    };
    let reports = artifacts.roles().map(|role| EndpointReport {
        role: role.clone(),
        actions: Vec::new(),
        status: status.clone(),
    });
    let nothing_observed = (Trace::empty(), true, false, Vec::new());
    SessionOutcome::assemble(id, artifacts.id(), reports, nothing_observed, false, false)
}

impl ActiveSession {
    /// The protocol the session runs.
    pub(crate) fn protocol(&self) -> ProtocolId {
        self.protocol
    }

    /// Builds the session from its resolved cast — `programs` is what
    /// [`ProtocolArtifacts::resolve`] returned for `spec.endpoints`, one per
    /// participant in sorted-role order — so nothing is lowered or validated
    /// here, and the tasks sit in sorted-role order: the batch role order
    /// and the checkpoint endpoint order.
    pub(crate) fn new(
        id: SessionId,
        spec: SessionSpec,
        programs: Vec<Arc<EndpointProgram>>,
        artifacts: &ProtocolArtifacts,
    ) -> Self {
        let mut network = InMemoryNetwork::from_sorted(Arc::clone(artifacts.sorted_roles()));
        let options = spec.options;
        let tasks = programs
            .into_iter()
            .map(|program| {
                let role = program.program().role();
                // The endpoints are shared (`Arc`), so nothing of the
                // process is cloned here.
                let (_, externals) = spec
                    .endpoints
                    .iter()
                    .find(|(cert, _)| cert.role() == role)
                    .expect("programs were resolved from these endpoints");
                let transport = network
                    .take_endpoint(role)
                    .expect("coverage was validated at submission");
                let task = CompiledEndpointTask::new(program, externals.clone(), options.clone());
                (task, transport)
            })
            .collect();
        let mut monitor = CompiledMonitor::new(Arc::clone(artifacts.compiled()));
        // Fire-and-forget sessions (`record_actions` off) skip the global
        // trace too: the outcome then carries the verdicts alone.
        monitor.set_record_trace(options.record_actions);
        ActiveSession {
            id,
            protocol: spec.protocol,
            monitor,
            tasks,
        }
    }

    /// Rebuilds a session from the state a [`SessionBatch`] extracted when
    /// it demoted the session mid-flight: every endpoint resumes as a
    /// compiled task at its exact program counter with its slot values,
    /// recorded actions and step count; the monitor resumes mid-stream; and
    /// the frames that were still in flight in the batch arena are
    /// re-injected through the senders' transports, preserving per-channel
    /// FIFO order. Nothing of the session's observable history is lost.
    ///
    /// Building the network and the tasks is worth it only for a session
    /// that will be stepped again: a violator under its threshold (or under
    /// `Observe`), a sort-mismatch demotion, a migrated checkpoint. One that
    /// is over closes from the extracted state directly
    /// ([`SessionOutcome::quarantined`]).
    ///
    /// [`SessionBatch`]: zooid_runtime::cbatch::SessionBatch
    pub(crate) fn from_demoted(demoted: DemotedSession, artifacts: &ProtocolArtifacts) -> Self {
        let DemotedSession {
            token,
            options,
            endpoints,
            monitor,
            frames,
        } = demoted;
        let mut network = InMemoryNetwork::from_sorted(Arc::clone(artifacts.sorted_roles()));
        let mut tasks: Vec<(CompiledEndpointTask, InMemoryTransport)> = endpoints
            .into_iter()
            .map(|ep| {
                let transport = network
                    .take_endpoint(&ep.role)
                    .expect("batch role order is the sorted role table");
                // A demoted session comes from a batch or a checkpoint, and
                // neither carries programs that call externals
                // ([`ActiveSession::checkpoint`] refuses them), so resuming
                // with an empty set is exact.
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
        // Task position, batch role index and dense peer index are all the
        // position in the sorted role table.
        for (from, to, label, value) in frames {
            let (_, transport) = &mut tasks[from as usize];
            transport
                .send_indexed(to as usize, label, value)
                .expect("co-batched roles are network peers");
        }
        ActiveSession {
            id: SessionId(token),
            protocol: artifacts.id(),
            monitor,
            tasks,
        }
    }

    /// Extracts a restorable snapshot of the live session without
    /// disturbing it: per-role task state (pc, slots, recorded actions,
    /// step counts), the monitor mid-stream, and every in-flight frame in
    /// per-channel FIFO order. Endpoints are emitted in **sorted role
    /// order** — the batch role order, which is also what
    /// [`zooid_runtime::SessionCheckpoint::into_demoted`] validates its
    /// programs against.
    ///
    /// In-flight frames are captured by draining each receiver's channels
    /// and immediately re-injecting every frame through its sender's
    /// transport, so the session is byte-for-byte unchanged afterwards.
    ///
    /// A session whose programs call externals cannot checkpoint — the
    /// closures live in the submitter's [`Externals`], not in the snapshot,
    /// and [`ActiveSession::from_demoted`] resumes with none — and is
    /// refused with [`RuntimeError::Recovery`].
    pub(crate) fn checkpoint(&mut self) -> std::result::Result<DemotedSession, RuntimeError> {
        let calls_externals = |(task, _): &(CompiledEndpointTask, _)| {
            task.program().program().calls_externals()
        };
        if self.tasks.iter().any(calls_externals) {
            return Err(RuntimeError::Recovery {
                reason: "session calls external actions; a checkpoint cannot carry them".into(),
            });
        }
        let endpoints: Vec<DemotedEndpoint> =
            self.tasks.iter().map(|(task, _)| checkpoint_task(task)).collect();
        let options = self.tasks[0].0.options().clone();
        // Capture in-flight frames: drain every (sender, receiver) channel
        // in FIFO order, then re-inject each frame through its sender so
        // the live session keeps running as if nothing happened. Task
        // position and dense peer index are both the position in the sorted
        // role table, so frame indices need no translation.
        let n = self.tasks.len();
        let mut frames: Vec<(u32, u32, zooid_mpst::Label, zooid_proc::Value)> = Vec::new();
        for (to, (_, transport)) in self.tasks.iter_mut().enumerate() {
            for from in (0..n).filter(|&from| from != to) {
                while let Some((label, value)) = transport.try_recv_indexed(from)? {
                    frames.push((from as u32, to as u32, label, value));
                }
            }
        }
        for (from, to, label, value) in &frames {
            let (_, transport) = &mut self.tasks[*from as usize];
            transport.send_indexed(*to as usize, label.clone(), value.clone())?;
        }
        Ok(DemotedSession {
            token: self.id.0,
            options,
            endpoints,
            monitor: self.monitor.clone(),
            frames,
        })
    }

    /// Runs the session for at most `budget` visible communications.
    ///
    /// Endpoints are stepped round-robin, each until it blocks; the quantum
    /// ends when the budget is exhausted (session re-queued by the caller),
    /// when every endpoint is done, or when a full round-robin pass makes no
    /// progress while tasks are still pending — which, for a self-contained
    /// in-memory session, means no message can ever arrive again: the
    /// remaining endpoints are marked [`EndpointStatus::Stalled`] and the
    /// session is closed.
    ///
    /// With a `violation_threshold` of `Some(n)`, the session is closed as
    /// quarantined as soon as the monitor has rejected `n` actions — at the
    /// default threshold of 1 the violating session takes **zero** further
    /// steps, its endpoints still mid-protocol are reported stalled and the
    /// outcome carries `quarantined = true`. `None` never quarantines
    /// (violations are recorded and the session runs on).
    ///
    /// [`EndpointStatus::Stalled`]: zooid_runtime::EndpointStatus::Stalled
    pub(crate) fn run_quantum(
        &mut self,
        budget: usize,
        violation_threshold: Option<u32>,
    ) -> QuantumResult {
        let mut actions = 0usize;
        let mut sends = 0usize;
        let ActiveSession { monitor, tasks, .. } = self;
        let closed = 'quantum: loop {
            let mut progressed = false;
            for (task, transport) in tasks.iter_mut() {
                if task.is_done() {
                    continue;
                }
                loop {
                    if actions >= budget {
                        // The task in hand had just made progress, so it
                        // cannot be done.
                        break 'quantum None;
                    }
                    // The pre-interned action makes the observation
                    // hash-free; sites whose template did not resolve go
                    // through the monitor's own lookups. The erased action
                    // is only built if the monitor records it (trace on, or
                    // a violation).
                    let outcome = task.step_mem(transport, &mut |va, interned| {
                        if va.is_send {
                            sends += 1;
                        }
                        match interned {
                            Some(interned) => {
                                monitor.observe_interned(interned, || erase(va));
                            }
                            None => {
                                monitor.observe(&erase(va));
                            }
                        }
                    });
                    match outcome {
                        StepOutcome::Progress => {
                            progressed = true;
                            actions += 1;
                            if violation_threshold
                                .is_some_and(|n| monitor.violations().len() >= n as usize)
                            {
                                break 'quantum Some(self.finish(false, true));
                            }
                        }
                        StepOutcome::WouldBlock { .. } | StepOutcome::Done(_) => break,
                    }
                }
            }
            let done = tasks.iter().all(|(task, _)| task.is_done());
            // A self-contained session with every endpoint blocked stalls:
            // no message will ever arrive again.
            if done || !progressed {
                break Some(self.finish(!done, false));
            }
        };
        QuantumResult {
            actions,
            sends,
            closed,
        }
    }

    /// Force-closes a session its scheduler will not run again (server
    /// shutdown, or a drain that cannot evacuate it): every endpoint still
    /// mid-protocol is reported stalled.
    pub(crate) fn close_stalled(mut self) -> SessionOutcome {
        self.finish(true, false)
    }

    /// Turns the session into its outcome. An endpoint that has not
    /// concluded reports `Stalled`.
    fn finish(&mut self, stalled: bool, quarantined: bool) -> SessionOutcome {
        let reports = std::mem::take(&mut self.tasks)
            .into_iter()
            .map(|(task, _)| task.into_report());
        let verdicts = verdicts_of(&mut self.monitor);
        SessionOutcome::assemble(self.id, self.protocol, reports, verdicts, stalled, quarantined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ProtocolRegistry;
    use zooid_dsl::Protocol;
    use zooid_mpst::generators;

    /// No certified process fails to lower (`tests/lowering.rs`), so no
    /// submission reaches this refusal; its shape is pinned here directly.
    #[test]
    fn a_lowering_failure_fails_every_endpoint_and_runs_none() {
        let mut registry = ProtocolRegistry::new();
        let id = registry
            .register(Protocol::new("ring", generators::ring3()).unwrap())
            .unwrap();
        let artifacts = registry.get(id).unwrap();
        let error = ProcError::UnboundJump { index: 0 };
        let outcome = failed_at_admission(SessionId(7), artifacts, error);
        assert_eq!((outcome.id, outcome.protocol), (SessionId(7), id));
        assert_eq!(outcome.endpoints.len(), 3);
        for report in outcome.endpoints.values() {
            assert!(report.actions.is_empty());
            assert_eq!(
                report.status,
                EndpointStatus::Failed {
                    error: "process error: jump to an unbound recursion variable (index 0)".into()
                }
            );
        }
        assert!(outcome.global_trace.is_empty() && outcome.violations.is_empty());
        assert!(!outcome.complete && !outcome.stalled && !outcome.quarantined);
    }

    fn run_to_end(mut session: ActiveSession) -> SessionOutcome {
        loop {
            if let Some(outcome) = session.run_quantum(usize::MAX, None).closed {
                return outcome;
            }
        }
    }

    /// Whatever order a cast is submitted in, a slab session keeps its tasks
    /// — and so emits its checkpoints — in sorted-role order, and a session
    /// resumed from a checkpoint taken after any number of actions, frames
    /// in flight included, ends exactly as the uninterrupted run does.
    #[test]
    fn a_reversed_cast_checkpoints_in_sorted_role_order_and_resumes_to_the_same_end() {
        let mut registry = ProtocolRegistry::new();
        let id = registry
            .register(Protocol::new("ring", generators::ring3()).unwrap())
            .unwrap();
        let artifacts = registry.get(id).unwrap();
        let mut endpoints = crate::synth::skeleton_endpoints(artifacts.protocol()).unwrap();
        endpoints.sort_by(|(a, _), (b, _)| b.role().cmp(a.role()));
        let spec = SessionSpec::new(id, endpoints);
        let session = || {
            let (programs, _) = artifacts.resolve(&spec.endpoints).unwrap();
            ActiveSession::new(SessionId(3), spec.clone(), programs, artifacts)
        };
        let uninterrupted = run_to_end(session());
        assert!(uninterrupted.all_finished_and_compliant());
        let mut in_flight = 0;
        for actions in 0..6 {
            let mut live = session();
            assert!(live.run_quantum(actions, None).closed.is_none());
            let checkpoint = live.checkpoint().unwrap();
            let roles: Vec<Role> = checkpoint.endpoints.iter().map(|e| e.role.clone()).collect();
            assert_eq!(roles[..], artifacts.sorted_roles()[..]);
            in_flight += checkpoint.frames.len();
            let resumed = ActiveSession::from_demoted(checkpoint, artifacts);
            for outcome in [run_to_end(resumed), run_to_end(live)] {
                assert_eq!(outcome.endpoints, uninterrupted.endpoints, "after {actions}");
                assert_eq!(outcome.global_trace, uninterrupted.global_trace);
                assert!(outcome.all_finished_and_compliant() && !outcome.stalled);
            }
        }
        assert!(in_flight > 0, "some checkpoint caught a frame between send and receive");
    }
}
