//! What a hosted session is made of, from submission to outcome: the
//! [`SessionSpec`] a caller submits, the admission check on it, and the
//! [`SessionOutcome`] it ends with.
//!
//! Every admitted session runs in a columnar batch
//! ([`zooid_engine::SessionBatch`]): each submitted process is lowered
//! once per `(global type, role, process)` (cached behind
//! [`ProtocolArtifacts`]), and the cast's programs share one batch layout.
//! Lowering fails only on an unbound jump or a communication-free loop, and
//! certification rejects both, so a session whose process does not lower is
//! closed at admission with every endpoint `Failed`. The per-session and
//! tree-walking executors stay in `zooid-runtime` as differential oracles;
//! this crate does not link them.
//!
//! A session ends where it stands. Whoever holds it when it is over — its
//! batch, or the shard with a violator's [`DemotedSession`] in hand — turns
//! the state it already has into the [`SessionOutcome`]; every one is
//! assembled by the same private constructor here.

use std::collections::BTreeMap;
use std::sync::Arc;

use zooid_dsl::CertifiedProcess;
use zooid_mpst::{Role, Trace};
use zooid_proc::{Externals, ProcError};
use zooid_engine::cbatch::{BatchOutcome, DemotedSession};
use zooid_engine::error::RuntimeError;
use zooid_engine::monitor::MonitorViolation;
use zooid_engine::report::{EndpointReport, EndpointStatus, ExecOptions};

use crate::error::{Result, ServerError};
use crate::registry::{ProtocolArtifacts, ProtocolId, ProtocolRegistry};

/// A session's cast as submitted: the handle [`SessionSpec::endpoints`]
/// shares.
pub(crate) type Cast = Arc<[(CertifiedProcess, Externals)]>;

/// Server-wide id of a hosted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

/// Everything needed to start one session: the protocol and a certified
/// implementation (plus externals) for every participant.
///
/// The endpoint list is behind an `Arc`: a load generator (or any client
/// starting many sessions of the same implementations) builds it once and
/// submits clones of the *handle*. A [`CertifiedProcess`] is itself a
/// handle on one shared certificate, so even a list built afresh per
/// session (`to_vec()` of a shared one) copies no process or type, and on
/// the worker shard the compiled-program cache means session construction
/// only reads them.
///
/// A cast is known by its certificates. Per protocol, submission keeps the
/// last cast it validated and each shard the last one it resolved into a
/// batch layout, and a submission repeats that cast when it is the same
/// handle or holds the same certificates ([`CertifiedProcess::same`]) in
/// the same order. The sessions of one set of certificates are thus
/// validated once and resolved once per shard, whether they share one
/// handle or each bring a new list of it. A cast with any certificate of
/// its own — a re-certified process, a byzantine mutant, the same
/// certificates in another order — is validated and resolved again, as is
/// every switch between two casts of one protocol. Externals play no part
/// in the comparison: validation and resolution read only the certificates,
/// and each session calls the externals of its own spec.
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
        let endpoints = zooid_dsl::synth::skeleton_endpoints(artifacts.protocol())?;
        Ok(SessionSpec::new(protocol, endpoints))
    }

    /// Limits every endpoint to at most `max_steps` visible communications
    /// (required for looping protocols).
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.options = ExecOptions::with_max_steps(max_steps);
        self
    }
}

/// The outcome of one hosted session (the server-side counterpart of the
/// runtime harness's `SessionReport`).
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The session's id.
    pub id: SessionId,
    /// The protocol it ran.
    pub protocol: ProtocolId,
    /// Per-endpoint reports (trace with values, step count, final status).
    /// The traces are empty when the session ran unrecorded, as every
    /// session opened through the TCP front door does.
    pub endpoints: BTreeMap<Role, EndpointReport>,
    /// The global interleaving accepted by the monitor (erased actions);
    /// empty when the session ran unrecorded, as front-door sessions do.
    pub global_trace: Trace,
    /// Whether every observed action was allowed by the protocol.
    pub compliant: bool,
    /// Whether the protocol ran to completion.
    pub complete: bool,
    /// Every observed violation.
    pub violations: Vec<MonitorViolation>,
    /// Whether the scheduler gave up because no endpoint could progress.
    pub stalled: bool,
    /// Whether the session was closed at a monitor rejection. Equals
    /// `!compliant`; nothing ran after the rejected action.
    pub quarantined: bool,
}

/// What a session's monitor concluded: the accepted global trace, whether
/// it was compliant, whether it was complete, and the violations.
type Verdicts = (Trace, bool, bool, Vec<MonitorViolation>);

impl SessionOutcome {
    /// The one place an outcome is put together, however the session
    /// ended. The reports are inserted one by one rather than collected: a
    /// batch hands them over in sorted-role order, so each lands at the
    /// end, where `collect` would buffer them in a `Vec` and sort it.
    fn assemble(
        id: SessionId,
        protocol: ProtocolId,
        reports: impl IntoIterator<Item = EndpointReport>,
        (global_trace, compliant, complete, violations): Verdicts,
        stalled: bool,
        quarantined: bool,
    ) -> Self {
        let mut endpoints = BTreeMap::new();
        for report in reports {
            endpoints.insert(report.role.clone(), report);
        }
        SessionOutcome {
            id,
            protocol,
            endpoints,
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

    /// The outcome of a session a batch demoted at a violation: the
    /// violation ends it where the batch left it, so the extracted state
    /// *is* the outcome — every endpoint's recorded actions, its
    /// status if it had concluded and `Stalled` if not, the monitor's
    /// verdicts.
    pub(crate) fn quarantined(protocol: ProtocolId, demoted: DemotedSession) -> Self {
        let mut monitor = demoted.monitor;
        let reports = demoted.endpoints.into_iter().map(|ep| EndpointReport {
            role: ep.role,
            actions: ep.actions,
            steps: ep.steps,
            status: ep.status.unwrap_or(EndpointStatus::Stalled),
        });
        // The flags are read before the trace and the violations move out.
        let (compliant, complete) = (monitor.is_compliant(), monitor.is_complete());
        let verdicts = (
            monitor.take_trace(),
            compliant,
            complete,
            monitor.take_violations(),
        );
        Self::assemble(
            SessionId(demoted.token),
            protocol,
            reports,
            verdicts,
            false,
            true,
        )
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

    /// The global interleaving accepted by the monitor (empty when the
    /// session ran unrecorded). This accessor, [`SessionOutcome::endpoint`]
    /// and [`SessionOutcome::steps`] are the reads the crate commits to
    /// keep whatever the representation under them.
    ///
    /// # Examples
    ///
    /// ```
    /// use zooid_dsl::Protocol;
    /// use zooid_mpst::{generators, Role};
    /// use zooid_server::{ProtocolRegistry, ServerConfig, SessionServer, SessionSpec};
    ///
    /// let mut registry = ProtocolRegistry::new();
    /// let ring = registry.register(Protocol::new("ring", generators::ring3()).unwrap()).unwrap();
    /// let spec = SessionSpec::skeleton(&registry, ring).unwrap();
    /// let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
    /// server.submit(spec).unwrap();
    /// let outcome = server.drain().pop().unwrap();
    /// // Three sends and their three receives.
    /// assert_eq!(outcome.global_trace().len(), 6);
    /// assert_eq!(outcome.steps(), 6);
    /// let alice = outcome.endpoint(&Role::new("Alice")).unwrap();
    /// assert_eq!(alice.actions().len(), 2);
    /// assert!(outcome.endpoint(&Role::new("Mallory")).is_none());
    /// server.shutdown();
    /// ```
    pub fn global_trace(&self) -> &Trace {
        &self.global_trace
    }

    /// The report of the endpoint that played `role`, if one did.
    pub fn endpoint(&self, role: &Role) -> Option<&EndpointReport> {
        self.endpoints.get(role)
    }

    /// Visible communications across every endpoint, recorded or not: the
    /// `actions` of the session's `Done` frame.
    pub fn steps(&self) -> u64 {
        self.endpoints.values().map(|r| r.steps() as u64).sum()
    }
}

/// Whether a submitted cast repeats one a memo remembers: the same handle,
/// or the same certificates in the same order (see [`SessionSpec`]). What
/// the memo skips for a repeat — validation, resolution — reads only the
/// certificates, so a repeat cannot run differently from a miss. The memo
/// holds the cast it compares, so a freed certificate's address cannot be
/// reused to fake a hit.
pub(crate) fn repeats(remembered: &Cast, cast: &Cast) -> bool {
    Arc::ptr_eq(remembered, cast)
        || (remembered.len() == cast.len()
            && remembered
                .iter()
                .zip(cast.iter())
                .all(|((known, _), (cert, _))| known.same(cert)))
}

/// Checks that a spec's endpoints cover the protocol's participants exactly
/// once each (and belong to the protocol at all): submission validates
/// cheaply on the caller's thread, while resolution and admission — lowered
/// programs, batch layout, a batch slot — happen on the worker shard, in
/// parallel across shards. Both are skipped for a cast that [`repeats`] the
/// one their side last accepted for the protocol.
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
        steps: 0,
        status: status.clone(),
    });
    let nothing_observed = (Trace::empty(), true, false, Vec::new());
    SessionOutcome::assemble(id, artifacts.id(), reports, nothing_observed, false, false)
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
            assert!(report.actions.is_empty() && report.steps() == 0);
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

    /// Whatever order a cast is submitted in, its batch runs — and so
    /// checkpoints — its endpoints in sorted-role order, and a session cut
    /// after any number of passes, frames in flight included, taken out
    /// through an encoded checkpoint and finished on the per-session oracle
    /// ends exactly as the uninterrupted run does.
    #[test]
    fn a_reversed_cast_round_trips_through_a_checkpoint_at_every_cut() {
        use zooid_engine::SessionBatch;
        use zooid_runtime::checkpoint::SessionCheckpoint;
        use zooid_runtime::lockstep::Lockstep;
        let mut registry = ProtocolRegistry::new();
        let id = registry
            .register(Protocol::new("ring", generators::ring3()).unwrap())
            .unwrap();
        let artifacts = registry.get(id).unwrap();
        let mut endpoints = crate::synth::skeleton_endpoints(artifacts.protocol()).unwrap();
        endpoints.sort_by(|(a, _), (b, _)| b.role().cmp(a.role()));
        let layout = artifacts.resolve(&endpoints).unwrap();
        let batch = || SessionBatch::new(Arc::clone(&layout), ExecOptions::default(), 1);
        let mut uninterrupted = batch();
        assert!(uninterrupted.admit(3));
        let mut out = uninterrupted.run_quantum(usize::MAX);
        assert!(uninterrupted.is_empty() && out.demoted.is_empty());
        let uninterrupted =
            SessionOutcome::from_batch(id, out.finished.pop().expect("the ring concludes"));
        assert!(uninterrupted.all_finished_and_compliant());
        let (mut passes, mut in_flight) = (0, 0);
        loop {
            let mut live = batch();
            assert!(live.admit(3));
            for _ in 0..passes {
                // A budget of one action ends the quantum after one pass.
                live.run_quantum(1);
            }
            let Some(demoted) = live.demote_all().pop() else {
                break;
            };
            let checkpoint =
                SessionCheckpoint::decode(&SessionCheckpoint::from_demoted(&demoted).encode())
                    .unwrap();
            let restored = checkpoint
                .into_demoted(layout.programs(), artifacts.compiled())
                .unwrap();
            let roles = restored.endpoints.iter().map(|endpoint| &endpoint.role);
            assert!(roles.eq(artifacts.sorted_roles().iter()));
            in_flight += restored.frames.len();
            let (lockstep, tasks) = Lockstep::resume(restored, artifacts.sorted_roles());
            let (outcome, _) = lockstep.run(tasks);
            assert_eq!(
                outcome.endpoints, uninterrupted.endpoints,
                "after {passes} passes"
            );
            assert_eq!(
                outcome.global_trace, uninterrupted.global_trace,
                "after {passes} passes"
            );
            // Every endpoint finished, so none stalled.
            assert!(outcome.all_finished_and_compliant());
            passes += 1;
        }
        assert!(passes > 2, "the ring takes several passes");
        assert!(
            in_flight > 0,
            "some cut caught a frame between send and receive"
        );
    }
}
