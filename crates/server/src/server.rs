//! The sharded session server: a bounded pool of worker shards hosting
//! thousands of concurrent sessions.
//!
//! Each worker shard holds the server's frozen [`ProtocolRegistry`] and owns
//! a run queue of live sessions, which it steps in bounded quanta
//! ([`ServerConfig::quantum`] visible actions), so a long-running session
//! cannot starve its neighbours and the number of OS threads is fixed by
//! [`ServerConfig::shards`] — never by the number of live sessions. A
//! submitted session crosses to its shard as an id and a [`SessionSpec`];
//! every protocol fact the shard then needs is an index into the registry by
//! [`ProtocolId`]. Sessions are assigned to shards by hashing their
//! [`SessionId`], all endpoints of one session live on the same shard (so
//! intra-session message arrival wakes the receiving endpoint on the very
//! next stepping pass, with no cross-thread signalling), and finished
//! sessions stream their [`SessionOutcome`] back to the submitter.

use std::collections::VecDeque;
use std::hash::Hasher;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use zooid_mpst::common::intern::{FxHashMap, FxHasher};
use zooid_runtime::cbatch::{BatchLayout, DemotedSession, SessionBatch};
use zooid_runtime::cexec::EndpointProgram;
use zooid_runtime::checkpoint::SessionCheckpoint;

use crate::error::{Result, ServerError};
use crate::metrics::{ObsReport, ServerReport, ShardInstruments};
use crate::obs::{FlightEvent, Incident, INCIDENT_PREFIX_CAP};
use crate::registry::{ProtocolId, ProtocolRegistry};
use crate::session::{
    failed_at_admission, ActiveSession, SessionId, SessionOutcome, SessionSpec,
};

/// What a worker shard does with a session whose monitor rejected an
/// action.
///
/// Detection alone (PR 8's incidents) still lets a byzantine endpoint keep
/// talking — burning shard budget and spraying messages at honest peers —
/// for as long as the session takes to finish on its own. Quarantine is the
/// policy beyond recording: the shard stops stepping the session the moment
/// the monitor says no.
///
/// There is no "try it again" policy: a session that calls no externals is
/// a deterministic function of its cast (the paper's Theorems 4.5/4.7), so
/// a re-run ends in the same violation at the same position, and a session
/// that does call externals cannot be re-run at all — its closures stay
/// with the submitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantinePolicy {
    /// Record the violation (metrics, incident capture) but keep stepping
    /// the session to its natural end.
    Observe,
    /// Halt the session once its monitor has rejected as many actions as
    /// its protocol's threshold allows (the first, unless
    /// [`ServerConfig::violation_thresholds`] says otherwise): zero further
    /// steps on either execution path — a slab session closes at the end of
    /// that step, a batch-demoted violator closes from the state the batch
    /// extracted instead of being rebuilt on the slab — endpoints still
    /// mid-protocol reported stalled, the outcome flagged `quarantined`,
    /// and a `Quarantined` flight-recorder event emitted. The default.
    Halt,
}

/// Configuration of a [`SessionServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of worker shards (and therefore worker threads).
    pub shards: usize,
    /// Maximum visible communications a session may perform per scheduling
    /// quantum before it is re-queued behind its shard neighbours.
    pub quantum: usize,
    /// What to do with a session the monitor rejects.
    pub quarantine: QuarantinePolicy,
    /// Per-protocol violation thresholds: a session of a listed protocol is
    /// only quarantined once its monitor has rejected that many actions
    /// (the adaptive knob for lenient protocols whose occasional stray
    /// message is tolerable); unlisted protocols quarantine at the first
    /// rejection. Ignored under [`QuarantinePolicy::Observe`].
    pub violation_thresholds: Vec<(ProtocolId, u32)>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            quantum: 64,
            quarantine: QuarantinePolicy::Halt,
            violation_thresholds: Vec::new(),
        }
    }
}

impl ServerConfig {
    /// A config with the given shard count and the default quantum.
    pub fn with_shards(shards: usize) -> Self {
        ServerConfig {
            shards: shards.max(1),
            ..ServerConfig::default()
        }
    }

    /// Tolerates up to `threshold - 1` monitor rejections for sessions of
    /// `protocol` before quarantining (a threshold of `0` is treated as 1).
    pub fn with_violation_threshold(mut self, protocol: ProtocolId, threshold: u32) -> Self {
        self.violation_thresholds.push((protocol, threshold.max(1)));
        self
    }
}

/// The worker-side view of the quarantine configuration: the policy plus
/// the violation threshold of every registered protocol, indexed by
/// [`ProtocolId`].
#[derive(Debug, Clone)]
struct QuarantineConfig {
    policy: QuarantinePolicy,
    thresholds: Vec<u32>,
}

impl QuarantineConfig {
    fn new(config: &ServerConfig, protocols: usize) -> Self {
        let mut thresholds = vec![1; protocols];
        for &(protocol, threshold) in &config.violation_thresholds {
            // No session runs an id the registry never issued.
            if let Some(slot) = thresholds.get_mut(protocol.index()) {
                *slot = threshold.max(1);
            }
        }
        QuarantineConfig {
            policy: config.quarantine,
            thresholds,
        }
    }

    /// How many monitor rejections a session of `protocol` may accumulate
    /// before the shard stops stepping it; `None` means never (observe).
    fn threshold_for(&self, protocol: ProtocolId) -> Option<u32> {
        match self.policy {
            QuarantinePolicy::Observe => None,
            QuarantinePolicy::Halt => Some(self.thresholds[protocol.index()]),
        }
    }
}

enum ShardMsg {
    /// A validated spec to resolve, build and run. Resolution and
    /// construction (lowered programs, channels, compiled task binding,
    /// monitor cursor) happen on the worker shard so a single submitter
    /// thread never serialises the whole batch's setup.
    Run { id: SessionId, spec: SessionSpec },
    /// Checkpoint every queued session and hand the encoded checkpoints
    /// back — the evacuation half of a session migration.
    Drain {
        reply: Sender<Vec<MigratedSession>>,
    },
    /// Re-admit a session restored from a checkpoint (already decoded and
    /// re-certified on the submitter thread) — the arrival half.
    Restore {
        protocol: ProtocolId,
        demoted: DemotedSession,
    },
    Shutdown,
}

/// A live session evacuated from a shard as an encoded, re-certifiable
/// checkpoint (see [`SessionServer::drain_shard`]). The bytes are the
/// [`SessionCheckpoint`] wire encoding — opaque but inspectable, so tests
/// can tamper with them and watch [`SessionServer::migrate_session`] refuse
/// the damage with a structured error instead of admitting it.
#[derive(Debug)]
pub struct MigratedSession {
    /// The session's id (stable across the migration).
    pub id: SessionId,
    /// The protocol the session runs.
    pub protocol: ProtocolId,
    /// The encoded [`SessionCheckpoint`].
    pub bytes: Vec<u8>,
    /// The compiled per-role programs the checkpoint's indices refer to,
    /// in the checkpoint's endpoint order.
    programs: Vec<Arc<EndpointProgram>>,
}

/// The server's handle on one worker: its inbox and its thread.
struct ShardHandle {
    tx: Sender<ShardMsg>,
    handle: std::thread::JoinHandle<()>,
}

/// A multi-session server hosting sessions of registered protocols on a
/// bounded worker pool.
///
/// # Examples
///
/// ```
/// use zooid_dsl::Protocol;
/// use zooid_mpst::generators;
/// use zooid_server::{ProtocolRegistry, ServerConfig, SessionServer, SessionSpec};
///
/// let mut registry = ProtocolRegistry::new();
/// let ring = registry.register(Protocol::new("ring", generators::ring3()).unwrap()).unwrap();
/// let endpoints = zooid_server::synth::skeleton_endpoints(
///     registry.get(ring).unwrap().protocol(),
/// ).unwrap();
///
/// let mut server = SessionServer::start(registry, ServerConfig::with_shards(2));
/// for _ in 0..10 {
///     server.submit(SessionSpec::new(ring, endpoints.clone())).unwrap();
/// }
/// let outcomes = server.drain();
/// assert_eq!(outcomes.len(), 10);
/// assert!(outcomes.iter().all(|o| o.all_finished_and_compliant()));
/// let report = server.shutdown();
/// assert_eq!(report.sessions_completed(), 10);
/// ```
#[derive(Debug)]
pub struct SessionServer {
    registry: Arc<ProtocolRegistry>,
    shards: Vec<ShardHandle>,
    instruments: Vec<Arc<ShardInstruments>>,
    results_rx: Receiver<Vec<SessionOutcome>>,
    /// Outcomes received from a shard's batch but not yet handed to the
    /// caller (shards flush finished sessions in batches to keep channel
    /// traffic off the per-session path).
    ready: VecDeque<SessionOutcome>,
    next_session: u64,
    in_flight: usize,
    /// Set when a shard worker died and its sessions were written off: the
    /// results stream can no longer be attributed reliably, so the server
    /// refuses further submissions.
    degraded: bool,
}

impl std::fmt::Debug for ShardHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardHandle").finish_non_exhaustive()
    }
}

impl SessionServer {
    /// Starts the worker shards over a (now frozen) protocol registry.
    pub fn start(registry: ProtocolRegistry, config: ServerConfig) -> Self {
        let registry = Arc::new(registry);
        let shard_count = config.shards.max(1);
        let (results_tx, results_rx) = unbounded();
        let mut shards = Vec::with_capacity(shard_count);
        let mut instruments = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (tx, rx) = unbounded();
            let shard_instruments = Arc::new(ShardInstruments::new(registry.len()));
            let shard = Shard::new(
                Arc::clone(&registry),
                results_tx.clone(),
                Arc::clone(&shard_instruments),
                &config,
            );
            let handle = std::thread::spawn(move || shard.run(rx));
            shards.push(ShardHandle { tx, handle });
            instruments.push(shard_instruments);
        }
        SessionServer {
            registry,
            shards,
            instruments,
            results_rx,
            ready: VecDeque::new(),
            next_session: 0,
            in_flight: 0,
            degraded: false,
        }
    }

    /// The registry the server serves.
    pub fn registry(&self) -> &ProtocolRegistry {
        &self.registry
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Submits a session for execution, returning its id immediately.
    ///
    /// # Errors
    ///
    /// Fails if the spec references an unknown protocol, does not cover the
    /// participants exactly, or the server is shut down.
    pub fn submit(&mut self, spec: SessionSpec) -> Result<SessionId> {
        if self.degraded {
            // A worker died and its sessions were written off: outcomes in
            // the results stream can no longer be matched to submissions.
            return Err(ServerError::Shutdown);
        }
        let artifacts = self
            .registry
            .get(spec.protocol)
            .ok_or(ServerError::UnknownProtocol)?;
        crate::session::validate_spec(&spec, artifacts)?;
        let id = SessionId(self.next_session);
        let shard = shard_of(id, self.shards.len());
        self.shards[shard]
            .tx
            .send(ShardMsg::Run { id, spec })
            .map_err(|_| ServerError::Shutdown)?;
        self.instruments[shard]
            .sessions_started
            .fetch_add(1, Ordering::Relaxed);
        self.next_session += 1;
        self.in_flight += 1;
        Ok(id)
    }

    /// Receives the next finished session, waiting up to `timeout`.
    pub fn next_outcome(&mut self, timeout: Duration) -> Option<SessionOutcome> {
        self.pop_outcome(|rx| rx.recv_timeout(timeout).ok())
    }

    /// Receives the next finished session if one is already available,
    /// without blocking.
    ///
    /// This is the poll the networked serving plane's IO event loop uses
    /// between socket sweeps: sockets and session outcomes are multiplexed
    /// on one thread, so neither side may park waiting for the other.
    pub fn try_next_outcome(&mut self) -> Option<SessionOutcome> {
        self.pop_outcome(|rx| rx.try_recv().ok())
    }

    /// Hands out the next buffered outcome, asking `receive` for a shard's
    /// next flushed batch only when the buffer is empty.
    fn pop_outcome(
        &mut self,
        receive: impl FnOnce(&Receiver<Vec<SessionOutcome>>) -> Option<Vec<SessionOutcome>>,
    ) -> Option<SessionOutcome> {
        if self.in_flight == 0 {
            return None;
        }
        if self.ready.is_empty() {
            self.ready.extend(receive(&self.results_rx)?);
        }
        let outcome = self.ready.pop_front()?;
        self.in_flight -= 1;
        Some(outcome)
    }

    /// Collects every in-flight session's outcome, blocking until all
    /// submitted sessions have finished. A session whose endpoints all block
    /// is detected as stalled by its shard and closed, so every *bounded*
    /// session finishes; a session of a looping protocol submitted without
    /// [`SessionSpec::with_max_steps`] never does, and `drain` will wait on
    /// it indefinitely — bound such sessions or stop them with
    /// [`SessionServer::shutdown`].
    ///
    /// If a shard worker dies (a panic inside session code), its assigned
    /// sessions can never report: once a quiet period passes with some
    /// worker thread gone, the missing outcomes are written off, the
    /// outcomes received so far are returned, and the server turns
    /// *degraded* — further [`SessionServer::submit`]s are refused, since
    /// outcomes could no longer be attributed to submissions reliably.
    /// Callers can detect the loss by comparing the returned length against
    /// their submission count.
    pub fn drain(&mut self) -> Vec<SessionOutcome> {
        let mut outcomes = Vec::with_capacity(self.in_flight);
        while self.in_flight > 0 {
            match self.next_outcome(Duration::from_secs(10)) {
                Some(outcome) => outcomes.push(outcome),
                None if self.shards.iter().any(|s| s.handle.is_finished()) => {
                    // A dead worker never reports again; leaving `in_flight`
                    // nonzero would make every later collect wait for
                    // outcomes that cannot come.
                    self.in_flight = 0;
                    self.degraded = true;
                    break;
                }
                // All workers alive: a long-running session, keep waiting.
                None => {}
            }
        }
        outcomes
    }

    /// Snapshots the per-shard metrics and the merged observability
    /// figures.
    pub fn report(&self) -> ServerReport {
        let mut obs = ObsReport::default();
        for shard in &self.instruments {
            shard.merge_into(&mut obs);
        }
        ServerReport {
            shards: self
                .instruments
                .iter()
                .enumerate()
                .map(|(i, shard)| shard.report(i))
                .collect(),
            obs,
        }
    }

    /// The retained [`Incident`]s across all shards (each one a replayable
    /// counterexample for one monitor violation), oldest first per shard.
    pub fn incidents(&self) -> Vec<Incident> {
        self.instruments
            .iter()
            .flat_map(|shard| shard.incidents.snapshot())
            .collect()
    }

    /// The retained flight-recorder events across all shards, oldest first
    /// per shard.
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        self.instruments
            .iter()
            .flat_map(|shard| shard.recorder.snapshot())
            .collect()
    }

    fn check_shard(&self, shard: usize) -> Result<()> {
        if shard >= self.shards.len() {
            return Err(ServerError::Unsupported {
                reason: format!(
                    "shard index {shard} out of range (server has {})",
                    self.shards.len()
                ),
            });
        }
        Ok(())
    }

    /// Evacuates every session queued on one shard: each is checkpointed
    /// (per-role pc, value slots, monitor cursor, in-flight frames), encoded
    /// through the wire codec, and returned as a [`MigratedSession`] ready
    /// for [`SessionServer::migrate_session`]. Sessions a checkpoint cannot
    /// carry (their programs call external actions, whose closures stay
    /// with the submitter) are closed as stalled and report through the
    /// normal outcome stream instead.
    ///
    /// # Errors
    ///
    /// Fails if the shard index is out of range or the worker is gone.
    pub fn drain_shard(&mut self, shard: usize) -> Result<Vec<MigratedSession>> {
        self.check_shard(shard)?;
        let (reply_tx, reply_rx) = unbounded();
        self.shards[shard]
            .tx
            .send(ShardMsg::Drain { reply: reply_tx })
            .map_err(|_| ServerError::Shutdown)?;
        let migrated = reply_rx.recv().map_err(|_| ServerError::Shutdown)?;
        // Evacuated sessions will not report outcomes until re-admitted.
        self.in_flight = self.in_flight.saturating_sub(migrated.len());
        Ok(migrated)
    }

    /// Re-admits an evacuated session on the given shard. The checkpoint is
    /// decoded and re-certified against the protocol's compiled tables
    /// *before* the shard sees it: a corrupted or tampered checkpoint is
    /// refused here with the runtime's structured recovery error, and the
    /// target shard never hosts unvalidated state.
    ///
    /// # Errors
    ///
    /// Fails on a bad shard index, an unregistered protocol, a server
    /// already degraded or shut down, or a checkpoint that does not decode
    /// and re-validate ([`ServerError::Runtime`]).
    pub fn migrate_session(&mut self, migrated: MigratedSession, to_shard: usize) -> Result<SessionId> {
        if self.degraded {
            return Err(ServerError::Shutdown);
        }
        self.check_shard(to_shard)?;
        let artifacts = self
            .registry
            .get(migrated.protocol)
            .ok_or(ServerError::UnknownProtocol)?;
        let checkpoint = SessionCheckpoint::decode(&migrated.bytes)?;
        if checkpoint.token() != migrated.id.0 {
            return Err(zooid_runtime::RuntimeError::Recovery {
                reason: format!(
                    "checkpoint token {} does not match migrated session id {}",
                    checkpoint.token(),
                    migrated.id.0
                ),
            }
            .into());
        }
        let demoted = checkpoint.into_demoted(&migrated.programs, artifacts.compiled())?;
        self.shards[to_shard]
            .tx
            .send(ShardMsg::Restore {
                protocol: migrated.protocol,
                demoted,
            })
            .map_err(|_| ServerError::Shutdown)?;
        self.in_flight += 1;
        Ok(migrated.id)
    }

    /// Stops the worker pool and returns the final metrics. Sessions still
    /// running or queued are closed as stalled (so `shutdown` returns even
    /// when an unbounded session would loop forever); outcomes not collected
    /// with [`SessionServer::drain`] beforehand are discarded.
    pub fn shutdown(mut self) -> ServerReport {
        for shard in &self.shards {
            let _ = shard.tx.send(ShardMsg::Shutdown);
        }
        for shard in self.shards.drain(..) {
            let _ = shard.handle.join();
        }
        self.report()
    }
}

/// Deterministic shard assignment by hashed session id.
fn shard_of(id: SessionId, shards: usize) -> usize {
    let mut hasher = FxHasher::default();
    hasher.write_u64(id.0);
    (hasher.finish() as usize) % shards.max(1)
}

/// Maximum sessions one [`SessionBatch`] holds before the next eligible
/// session opens a new batch.
const BATCH_CAPACITY: usize = 512;
/// Tag bit distinguishing batch indices from slab slots in the run queue.
const BATCH_BIT: u32 = 1 << 31;
/// Cap on the number of distinct batches a shard keeps alive. At the cap a
/// new batch key takes over the slot of an idle batch; eligible sessions
/// fall back to the slab only while every batch holds live sessions.
const MAX_BATCHES: usize = 64;

/// One columnar batch hosted by a shard. The key that decides which sessions
/// may coalesce into it: same protocol, same compiled per-role programs (the
/// batch's layout is cached per program set, so pointer equality is the
/// comparison) and same execution options.
struct ShardBatch {
    protocol: ProtocolId,
    batch: SessionBatch,
    /// Whether the batch currently has an entry in the run queue (batches
    /// are queued once, not once per member session).
    queued: bool,
}

/// The batch a session with this layout and these options joins: an open
/// one with the same key and room, else a new one — in a new slot while the
/// shard is under [`MAX_BATCHES`], in the slot of an idle batch (empty, hence
/// not in the run queue) once it is at the cap. `None` when every slot holds
/// live sessions: the session runs on the slab.
fn batch_for(
    batches: &mut Vec<ShardBatch>,
    spec: &SessionSpec,
    layout: Arc<BatchLayout>,
) -> Option<usize> {
    let existing = batches.iter().position(|b| {
        b.protocol == spec.protocol
            && Arc::ptr_eq(b.batch.layout(), &layout)
            && *b.batch.options() == spec.options
            && !b.batch.is_full()
    });
    if existing.is_some() {
        return existing;
    }
    let slot = if batches.len() < MAX_BATCHES {
        batches.len()
    } else {
        batches.iter().position(|b| b.batch.is_empty() && !b.queued)?
    };
    let fresh = ShardBatch {
        protocol: spec.protocol,
        batch: SessionBatch::new(layout, spec.options.clone(), BATCH_CAPACITY),
        queued: false,
    };
    if slot == batches.len() {
        batches.push(fresh);
    } else {
        batches[slot] = fresh;
    }
    Some(slot)
}

/// Worker-local observability state: the shard's shared
/// [`ShardInstruments`] plus what only the owning worker touches —
/// admission timestamps for session wall time.
struct WorkerObs {
    shared: Arc<ShardInstruments>,
    admitted: FxHashMap<u64, Instant>,
}

impl WorkerObs {
    fn new(shared: Arc<ShardInstruments>) -> Self {
        WorkerObs {
            shared,
            admitted: FxHashMap::default(),
        }
    }

    /// Stamps a session's admission: wall-clock start and the
    /// flight-recorder event. The caller supplies the stamp so one clock
    /// read covers a whole admission sweep.
    fn on_admit(&mut self, id: SessionId, batched: bool, at: Instant) {
        self.admitted.insert(id.0, at);
        self.shared.recorder.record(FlightEvent::Admitted {
            session: id.0,
            batched,
        });
    }

    /// Folds a finished session into the histograms, the flight recorder,
    /// and — when its monitor rejected anything — the incident store
    /// (captured against the protocol's compiled tables, looked up in the
    /// registry only then). The caller supplies `now` so one clock read
    /// covers every outcome of a quantum.
    fn on_outcome(&mut self, outcome: &SessionOutcome, registry: &ProtocolRegistry, now: Instant) {
        if let Some(start) = self.admitted.remove(&outcome.id.0) {
            let ns =
                u64::try_from(now.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX);
            self.shared.session_wall_ns.record(ns);
            self.shared.per_protocol_wall_ns[outcome.protocol.index()].record(ns);
        }
        if outcome.stalled {
            self.shared.recorder.record(FlightEvent::Stalled {
                session: outcome.id.0,
            });
        }
        if !outcome.violations.is_empty() {
            self.shared.recorder.record(FlightEvent::Violation {
                session: outcome.id.0,
            });
            let system = registry[outcome.protocol].compiled();
            for violation in &outcome.violations {
                self.shared.incidents.record(Incident::capture(
                    outcome.protocol,
                    outcome.id,
                    system,
                    violation,
                    &outcome.global_trace,
                    INCIDENT_PREFIX_CAP,
                ));
            }
        }
    }
}

/// One worker shard: drains its inbox, steps the front of its run queue for
/// one quantum, re-queues or finishes the work item, repeats. On shutdown
/// the sessions still in the run queue are closed as stalled — a session of
/// an unbounded looping protocol would otherwise keep the worker (and the
/// server's `shutdown` join) alive forever.
///
/// A run-queue entry is either a **slab slot** (one heterogeneous or
/// demoted session, stepped by [`ActiveSession::run_quantum`]) or, tagged
/// with [`BATCH_BIT`], a **batch index**: up to [`BATCH_CAPACITY`]
/// homogeneous sessions of one protocol stepped together in `(role, pc)`
/// cohorts over columnar state by [`SessionBatch::run_quantum`]. A batch is
/// one queue entry however many sessions it holds; its quantum budget
/// scales with its live population so batched sessions get the same action
/// budget per pass through the queue as slab sessions do.
///
/// A session that is over is closed by whoever holds it, from the state it
/// already has: the batch closes its concluded and its permanently blocked
/// sessions itself, a slab session closes at the end of its last quantum,
/// and a violator the batch demoted with its violation budget spent closes
/// as quarantined straight from the extracted state. Only a session that
/// must keep running changes executor — a violator still under its
/// threshold (or under [`QuarantinePolicy::Observe`]), a runtime sort
/// mismatch, an instruction the batch cannot run, a migrated checkpoint —
/// and is rebuilt as a slab session mid-flight with its traces, monitor
/// cursor and in-flight frames intact.
///
/// Slab sessions live in a flat `Vec` of slots with a free list, so the run
/// queue is a deque of `u32` indices instead of boxed sessions shuffling
/// through it, a finished session's slot (and the deque capacity) is reused
/// by the next submission, and a quantum touches the session in place — the
/// steady state of a loaded shard allocates nothing per reschedule.
struct Shard {
    /// The server's frozen registry: what a cast is resolved, a session
    /// rebuilt and an incident captured against.
    registry: Arc<ProtocolRegistry>,
    results: Sender<Vec<SessionOutcome>>,
    obs: WorkerObs,
    quantum: usize,
    quarantine: QuarantineConfig,
    slab: Vec<Option<ActiveSession>>,
    free: Vec<u32>,
    batches: Vec<ShardBatch>,
    run_queue: VecDeque<u32>,
    /// Finished sessions not yet flushed to the server.
    pending: Vec<SessionOutcome>,
}

impl Shard {
    fn new(
        registry: Arc<ProtocolRegistry>,
        results: Sender<Vec<SessionOutcome>>,
        instruments: Arc<ShardInstruments>,
        config: &ServerConfig,
    ) -> Self {
        Shard {
            obs: WorkerObs::new(instruments),
            quantum: config.quantum.max(1),
            quarantine: QuarantineConfig::new(config, registry.len()),
            registry,
            results,
            slab: Vec::new(),
            free: Vec::new(),
            batches: Vec::new(),
            run_queue: VecDeque::new(),
            pending: Vec::new(),
        }
    }

    fn run(mut self, rx: Receiver<ShardMsg>) {
        // Finished sessions are reported in batches: one channel operation
        // per FLUSH_AT outcomes while the shard is loaded, with a freshness
        // bound (FLUSH_EVERY_ITERS main-loop iterations) so outcomes of
        // short sessions are never parked behind a long-running neighbour.
        const FLUSH_AT: usize = 64;
        const FLUSH_EVERY_ITERS: usize = 16;
        let mut iters_since_flush = 0usize;
        loop {
            // Pull new sessions without blocking while there is work. One
            // clock read stamps the whole sweep's admissions.
            let mut shutting_down = false;
            let mut sweep_stamp: Option<Instant> = None;
            while let Ok(msg) = rx.try_recv() {
                shutting_down |= self.handle(msg, *sweep_stamp.get_or_insert_with(Instant::now));
            }
            if shutting_down {
                return self.close_all();
            }
            // The worker is the only writer, so a stale read can only
            // under-report for a moment.
            self.obs
                .shared
                .peak_queue_depth
                .fetch_max(self.run_queue.len() as u64, Ordering::Relaxed);
            iters_since_flush += 1;
            if !self.pending.is_empty()
                && (self.run_queue.is_empty()
                    || self.pending.len() >= FLUSH_AT
                    || iters_since_flush >= FLUSH_EVERY_ITERS)
            {
                iters_since_flush = 0;
                if self.flush().is_err() {
                    // The server (and with it every submitter) is gone.
                    return;
                }
            }
            match self.run_queue.pop_front() {
                Some(entry) if entry & BATCH_BIT != 0 => self.run_batch(entry),
                Some(slot) => self.run_slab(slot),
                // Idle: park on the inbox. Shutdown arrives as a message on
                // this same channel (and a dropped server disconnects it),
                // so a blocking receive cannot miss it and the worker burns
                // no wakeups.
                None => match rx.recv() {
                    Ok(msg) => {
                        if self.handle(msg, Instant::now()) {
                            return self.close_all();
                        }
                    }
                    Err(_) => return,
                },
            }
        }
    }

    /// Applies one inbox message; `true` means shut down.
    fn handle(&mut self, msg: ShardMsg, stamp: Instant) -> bool {
        match msg {
            ShardMsg::Run { id, spec } => self.admit(id, spec, stamp),
            ShardMsg::Drain { reply } => {
                let _ = reply.send(self.drain_for_migration());
            }
            ShardMsg::Restore { protocol, demoted } => {
                self.obs.shared.sessions_slab.fetch_add(1, Ordering::Relaxed);
                self.obs.on_admit(SessionId(demoted.token), false, stamp);
                self.resume_on_slab(protocol, demoted);
            }
            ShardMsg::Shutdown => return true,
        }
        false
    }

    /// Places a validated session on the shard: its cast is resolved once,
    /// and the session goes into a matching columnar batch when the cast
    /// has a batch layout, onto the per-session slab — built from the same
    /// resolved programs — otherwise.
    fn admit(&mut self, id: SessionId, spec: SessionSpec, at: Instant) {
        let artifacts = &self.registry[spec.protocol];
        let mut cast = artifacts.resolve(&spec.endpoints);
        let layout = cast.as_mut().ok().and_then(|(_, layout)| layout.take());
        if let Some(bi) = layout.and_then(|layout| batch_for(&mut self.batches, &spec, layout)) {
            let sb = &mut self.batches[bi];
            let admitted = sb.batch.admit(id.0);
            debug_assert!(admitted, "batch was checked for room");
            self.obs.shared.sessions_batched.fetch_add(1, Ordering::Relaxed);
            self.obs.on_admit(id, true, at);
            if !sb.queued {
                sb.queued = true;
                self.run_queue
                    .push_back(BATCH_BIT | u32::try_from(bi).expect("batch index fits"));
            }
            return;
        }
        self.obs.shared.sessions_slab.fetch_add(1, Ordering::Relaxed);
        self.obs.on_admit(id, false, at);
        match cast {
            // The spec was validated at submission; construction is the
            // shard's job so N shards build N sessions concurrently.
            Ok((programs, _)) => {
                self.enqueue_on_slab(ActiveSession::new(id, spec, programs, artifacts))
            }
            // A process that does not lower: closed before it ever runs.
            Err(error) => self.finish(failed_at_admission(id, artifacts, error), at),
        }
    }

    /// Stores a session in a free slab slot (growing the slab if none is
    /// free) and queues the slot.
    fn enqueue_on_slab(&mut self, session: ActiveSession) {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slab.push(None);
                u32::try_from(self.slab.len() - 1).expect("slab overflow")
            }
        };
        debug_assert!(slot & BATCH_BIT == 0, "slab slot collides with batch tag");
        self.slab[slot as usize] = Some(session);
        self.run_queue.push_back(slot);
    }

    /// Rebuilds a session from extracted state — a batch demotion or a
    /// migrated checkpoint — and queues it on the slab.
    fn resume_on_slab(&mut self, protocol: ProtocolId, demoted: DemotedSession) {
        let session = ActiveSession::from_demoted(demoted, &self.registry[protocol]);
        self.enqueue_on_slab(session);
    }

    /// Evacuates every session in the run queue as an encoded checkpoint:
    /// batch members are demoted in place and serialized, slab sessions are
    /// checkpointed live (non-destructively, then dropped). Sessions a
    /// checkpoint cannot carry — their programs call externals — close as
    /// stalled and report through the ordinary outcome stream.
    fn drain_for_migration(&mut self) -> Vec<MigratedSession> {
        let now = Instant::now();
        let mut migrated = Vec::new();
        while let Some(entry) = self.run_queue.pop_front() {
            if entry & BATCH_BIT != 0 {
                let sb = &mut self.batches[(entry & !BATCH_BIT) as usize];
                sb.queued = false;
                let protocol = sb.protocol;
                for demoted in sb.batch.demote_all() {
                    migrated.push(self.evacuate(protocol, &demoted));
                }
            } else {
                let mut session = self.slab[entry as usize]
                    .take()
                    .expect("queued slot is occupied");
                self.free.push(entry);
                match session.checkpoint() {
                    Ok(demoted) => migrated.push(self.evacuate(session.protocol(), &demoted)),
                    Err(_) => self.finish(session.close_stalled(), now),
                }
            }
        }
        migrated
    }

    /// Forgets an evacuated session and encodes its checkpoint for the
    /// trip, next to the compiled programs the checkpoint's dense indices
    /// refer to (in checkpoint endpoint order).
    fn evacuate(&mut self, protocol: ProtocolId, demoted: &DemotedSession) -> MigratedSession {
        self.obs.admitted.remove(&demoted.token);
        MigratedSession {
            id: SessionId(demoted.token),
            protocol,
            bytes: SessionCheckpoint::from_demoted(demoted).encode(),
            programs: demoted
                .endpoints
                .iter()
                .map(|e| Arc::clone(&e.program))
                .collect(),
        }
    }

    /// Steps one batch for a quantum, reports what is over and moves what
    /// it demoted to the slab — or, with its violation budget spent, closes
    /// it as quarantined from the state the batch extracted.
    fn run_batch(&mut self, entry: u32) {
        let bi = (entry & !BATCH_BIT) as usize;
        let sb = &mut self.batches[bi];
        // The batch is one queue entry standing for its whole live
        // population, so it gets the quantum each member would have gotten
        // on the slab.
        let budget = self.quantum.saturating_mul(sb.batch.live_count().max(1));
        let started = Instant::now();
        let result = sb.batch.run_quantum(budget);
        let ended = Instant::now();
        let protocol = sb.protocol;
        self.record_quantum(ended.saturating_duration_since(started), result.actions, result.sends);
        let shared = &self.obs.shared;
        shared
            .batch_cohorts
            .fetch_add(result.cohorts as u64, Ordering::Relaxed);
        shared
            .batch_cohort_sessions
            .fetch_add(result.cohort_sessions as u64, Ordering::Relaxed);
        for (bucket, &n) in result.cohort_widths.iter().enumerate() {
            shared.cohort_width.add_count(bucket, n);
        }
        for outcome in result.finished {
            self.finish(SessionOutcome::from_batch(protocol, outcome), ended);
        }
        for demoted in result.demoted {
            self.obs.shared.sessions_demoted.fetch_add(1, Ordering::Relaxed);
            self.obs.shared.recorder.record(FlightEvent::BatchDemoted {
                session: demoted.token,
            });
            let violations = demoted.monitor.violations().len();
            let over = self
                .quarantine
                .threshold_for(protocol)
                .is_some_and(|n| violations >= n as usize);
            if over {
                self.finish(SessionOutcome::quarantined(protocol, demoted), ended);
            } else {
                self.resume_on_slab(protocol, demoted);
            }
        }
        let sb = &mut self.batches[bi];
        if sb.batch.is_empty() {
            sb.queued = false;
        } else {
            self.run_queue.push_back(entry);
        }
    }

    /// Steps one slab session for a quantum, then re-queues it or reports
    /// how it closed.
    fn run_slab(&mut self, slot: u32) {
        let session = self.slab[slot as usize]
            .as_mut()
            .expect("queued slot is occupied");
        let threshold = self.quarantine.threshold_for(session.protocol());
        let started = Instant::now();
        let result = session.run_quantum(self.quantum, threshold);
        let ended = Instant::now();
        self.record_quantum(ended.saturating_duration_since(started), result.actions, result.sends);
        match result.closed {
            None => self.run_queue.push_back(slot),
            Some(outcome) => {
                self.slab[slot as usize] = None;
                self.free.push(slot);
                self.finish(outcome, ended);
            }
        }
    }

    /// Shutdown: closes every queued session as stalled and flushes.
    fn close_all(mut self) {
        let now = Instant::now();
        while let Some(entry) = self.run_queue.pop_front() {
            if entry & BATCH_BIT != 0 {
                let sb = &mut self.batches[(entry & !BATCH_BIT) as usize];
                sb.queued = false;
                let protocol = sb.protocol;
                for outcome in sb.batch.close_all() {
                    self.finish(SessionOutcome::from_batch(protocol, outcome), now);
                }
            } else {
                let session = self.slab[entry as usize]
                    .take()
                    .expect("queued slot is occupied");
                self.finish(session.close_stalled(), now);
            }
        }
        // A send failure means the server is gone too: nothing left to
        // report to.
        let _ = self.flush();
    }

    /// Counts one quantum in the shard metrics and records its per-action
    /// cost (elapsed time amortised over the actions it performed). Quantum
    /// granularity keeps the recorder off the stepping loop: two clock reads
    /// per quantum, not per action.
    fn record_quantum(&self, elapsed: Duration, actions: usize, sends: usize) {
        if actions > 0 {
            let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX) / actions as u64;
            self.obs.shared.action_cost_ns.record(ns);
        }
        let metrics = &self.obs.shared;
        metrics.quanta.fetch_add(1, Ordering::Relaxed);
        metrics
            .actions_executed
            .fetch_add(actions as u64, Ordering::Relaxed);
        metrics
            .messages_routed
            .fetch_add(sends as u64, Ordering::Relaxed);
    }

    /// Counts a finished session in the shard metrics, folds it into the
    /// observability plane (wall time, flight events, incident capture —
    /// every execution path funnels through here: slab, batch-closed,
    /// demoted-then-slab, demoted-then-quarantined, and shutdown close), and
    /// buffers its outcome for the next batched flush.
    fn finish(&mut self, outcome: SessionOutcome, now: Instant) {
        let metrics = &self.obs.shared;
        if outcome.stalled {
            metrics.sessions_stalled.fetch_add(1, Ordering::Relaxed);
        } else {
            metrics.sessions_completed.fetch_add(1, Ordering::Relaxed);
        }
        if !outcome.compliant {
            metrics.sessions_violated.fetch_add(1, Ordering::Relaxed);
        }
        if outcome.quarantined {
            metrics.sessions_quarantined.fetch_add(1, Ordering::Relaxed);
            metrics.recorder.record(FlightEvent::Quarantined {
                session: outcome.id.0,
            });
            metrics.per_protocol_quarantined[outcome.protocol.index()]
                .fetch_add(1, Ordering::Relaxed);
        }
        self.obs.on_outcome(&outcome, &self.registry, now);
        self.pending.push(outcome);
    }

    /// Sends the buffered outcomes as one batch. An error means the server
    /// side of the channel is gone.
    fn flush(&mut self) -> std::result::Result<(), ()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.results
            .send(std::mem::take(&mut self.pending))
            .map_err(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::skeleton_endpoints;
    use zooid_dsl::Protocol;
    use zooid_mpst::generators;
    use zooid_runtime::EndpointStatus;

    fn ring_registry() -> (ProtocolRegistry, ProtocolId) {
        let mut registry = ProtocolRegistry::new();
        let id = registry
            .register(Protocol::new("ring", generators::ring3()).unwrap())
            .unwrap();
        (registry, id)
    }

    #[test]
    fn a_thousand_sessions_complete_on_two_shards() {
        let (registry, ring) = ring_registry();
        let endpoints = skeleton_endpoints(registry.get(ring).unwrap().protocol()).unwrap();
        let mut server = SessionServer::start(registry, ServerConfig::with_shards(2));
        for _ in 0..1_000 {
            server.submit(SessionSpec::new(ring, endpoints.clone())).unwrap();
        }
        let outcomes = server.drain();
        assert_eq!(outcomes.len(), 1_000);
        assert!(outcomes.iter().all(|o| o.all_finished_and_compliant()));
        let report = server.shutdown();
        assert_eq!(report.sessions_started(), 1_000);
        assert_eq!(report.sessions_completed(), 1_000);
        assert_eq!(report.sessions_violated(), 0);
        assert_eq!(report.sessions_stalled(), 0);
        // The ring exchanges 3 messages per session.
        assert_eq!(report.messages_routed(), 3_000);
        assert_eq!(report.actions_executed(), 6_000);
        // Work is spread over both shards.
        assert!(report.shards.iter().all(|s| s.sessions_started > 0));
    }

    #[test]
    fn tiny_quanta_interleave_sessions_instead_of_running_them_to_death() {
        let (registry, ring) = ring_registry();
        let endpoints = skeleton_endpoints(registry.get(ring).unwrap().protocol()).unwrap();
        let config = ServerConfig {
            shards: 1,
            quantum: 1,
            ..ServerConfig::default()
        };
        let mut server = SessionServer::start(registry, config);
        for _ in 0..50 {
            server.submit(SessionSpec::new(ring, endpoints.clone())).unwrap();
        }
        let outcomes = server.drain();
        assert_eq!(outcomes.len(), 50);
        assert!(outcomes.iter().all(|o| o.all_finished_and_compliant()));
        let report = server.shutdown();
        // The 50 homogeneous ring sessions coalesce into one columnar batch
        // (one run-queue entry), whose budget scales with its population:
        // quantum 1 × 50 live sessions. A ring session takes 6 actions, so
        // the batch needs several bounded quanta rather than one
        // run-to-death pass.
        assert_eq!(report.sessions_batched(), 50, "{report}");
        assert_eq!(report.sessions_slab(), 0, "{report}");
        assert!(report.shards[0].quanta >= 2, "{report}");
        // Cohort stepping amortises per-instruction work over the lockstep
        // population: cohorts span many sessions.
        assert!(report.mean_cohort_width() > 8.0, "{report}");
    }

    #[test]
    fn homogeneous_sessions_batch_and_agree_with_slab_accounting() {
        let (registry, ring) = ring_registry();
        let endpoints = skeleton_endpoints(registry.get(ring).unwrap().protocol()).unwrap();
        let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
        for _ in 0..200 {
            server.submit(SessionSpec::new(ring, endpoints.clone())).unwrap();
        }
        let outcomes = server.drain();
        assert_eq!(outcomes.len(), 200);
        assert!(outcomes.iter().all(|o| o.all_finished_and_compliant()));
        // Every session carries its full global trace out of the batch.
        assert!(outcomes.iter().all(|o| o.messages_exchanged() == 3));
        let report = server.shutdown();
        assert_eq!(report.sessions_batched(), 200, "{report}");
        assert_eq!(report.sessions_slab(), 0, "{report}");
        assert_eq!(report.sessions_demoted(), 0, "{report}");
        // Action accounting matches the slab's: 3 sends + 3 receives each.
        assert_eq!(report.messages_routed(), 600);
        assert_eq!(report.actions_executed(), 1_200);
        assert!(report.mean_cohort_width() > 1.0, "{report}");
    }

    #[test]
    fn structural_twins_share_a_layout_but_neither_a_batch_nor_an_id() {
        let mut registry = ProtocolRegistry::new();
        let mut twin = |name| {
            let protocol = Protocol::new(name, generators::ring3()).unwrap();
            let id = registry.register(protocol).unwrap();
            let endpoints = skeleton_endpoints(registry.get(id).unwrap().protocol()).unwrap();
            SessionSpec::new(id, endpoints)
        };
        let (a, b) = (twin("ring-a"), twin("ring-b"));
        let (results, _outcomes) = unbounded();
        let config = ServerConfig::default();
        let instruments = Arc::new(ShardInstruments::new(registry.len()));
        let mut shard = Shard::new(Arc::new(registry), results, instruments, &config);
        let now = Instant::now();
        for (n, spec) in [&a, &b, &a, &b].into_iter().enumerate() {
            shard.admit(SessionId(n as u64), spec.clone(), now);
        }
        // One batch per name, over the one layout the twins share.
        let keys: Vec<_> = shard.batches.iter().map(|sb| sb.protocol).collect();
        assert_eq!(keys, [a.protocol, b.protocol]);
        let layout = |i: usize| shard.batches[i].batch.layout();
        assert!(Arc::ptr_eq(layout(0), layout(1)));
        while let Some(entry) = shard.run_queue.pop_front() {
            shard.run_batch(entry);
        }
        let mut ran: Vec<_> = shard.pending.iter().map(|o| (o.id.0, o.protocol)).collect();
        ran.sort();
        assert_eq!(
            ran,
            [(0, a.protocol), (1, b.protocol), (2, a.protocol), (3, b.protocol)]
        );
        assert!(shard.pending.iter().all(|o| o.all_finished_and_compliant()));
    }

    #[test]
    fn a_migrated_session_that_then_violates_closes_quarantined_where_it_stands() {
        // `mu X. A -> B : tick. B -> A : tock. X`, with an A that after
        // three rounds sends a label the protocol does not have. The source
        // shard is stepped by hand, so the drain catches the session after
        // exactly four actions; the violation happens on the shard it
        // migrates to, which closes it there and then with the whole
        // history, the four actions it arrived with included.
        use zooid_mpst::global::GlobalType;
        use zooid_mpst::{Role, Sort};
        let (a, b) = (Role::new("A"), Role::new("B"));
        let round = |cont| {
            let tock = GlobalType::msg1(b.clone(), a.clone(), "tock", Sort::Nat, cont);
            GlobalType::msg1(a.clone(), b.clone(), "tick", Sort::Nat, tock)
        };
        let stray = GlobalType::msg1(a.clone(), b.clone(), "stray", Sort::Nat, GlobalType::End);
        let decoy = Protocol::new("metronome", round(round(round(stray)))).unwrap();
        let metronome = Protocol::new("metronome", GlobalType::rec(round(GlobalType::var(0)))).unwrap();
        let mut endpoints = skeleton_endpoints(&decoy).unwrap();
        endpoints.retain(|(cert, _)| *cert.role() == a);
        endpoints.extend(
            skeleton_endpoints(&metronome)
                .unwrap()
                .into_iter()
                .filter(|(cert, _)| *cert.role() == b),
        );
        let mut registry = ProtocolRegistry::new();
        let id = registry.register(metronome).unwrap();
        let config = ServerConfig {
            shards: 1,
            quantum: 1,
            ..ServerConfig::default()
        };
        let mut server = SessionServer::start(registry, config.clone());

        let (results, _outcomes) = unbounded();
        let instruments = Arc::new(ShardInstruments::new(server.registry.len()));
        let mut source = Shard::new(Arc::clone(&server.registry), results, instruments, &config);
        source.admit(SessionId(0), SessionSpec::new(id, endpoints), Instant::now());
        for _ in 0..4 {
            let slot = source.run_queue.pop_front().expect("still live");
            source.run_slab(slot);
        }
        assert_eq!(source.obs.shared.report(0).actions_executed, 4);
        let mut migrated = source.drain_for_migration();
        assert_eq!(migrated.len(), 1);
        server.migrate_session(migrated.pop().unwrap(), 0).unwrap();

        let outcomes = server.drain();
        assert_eq!(outcomes.len(), 1, "the session reports exactly once");
        let outcome = &outcomes[0];
        assert!(outcome.quarantined && !outcome.compliant && !outcome.stalled);
        // The trace is the twelve compliant actions of three rounds: four
        // carried over by the checkpoint, eight performed here.
        assert_eq!(outcome.global_trace.len(), 12);
        assert_eq!(outcome.violations.len(), 1);
        assert_eq!(outcome.violations[0].position, 12);
        let report = server.shutdown();
        assert_eq!(report.sessions_quarantined(), 1, "{report}");
        // What was left to do on arrival (8 actions and the stray send),
        // and not one step after it.
        assert_eq!(report.actions_executed(), 9, "{report}");
    }

    #[test]
    fn an_idle_batch_gives_its_slot_to_a_new_key_at_the_cap() {
        // 100 batch keys on one shard (the step limit is part of the key),
        // each drained before the next arrives: past MAX_BATCHES the new
        // key must take over an idle batch's slot, not run on the slab for
        // the life of the server.
        let mut registry = ProtocolRegistry::new();
        let id = registry
            .register(Protocol::new("pipeline", generators::pipeline()).unwrap())
            .unwrap();
        let endpoints = skeleton_endpoints(registry.get(id).unwrap().protocol()).unwrap();
        let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
        for max_steps in 1..=100 {
            server
                .submit(SessionSpec::new(id, endpoints.clone()).with_max_steps(max_steps))
                .unwrap();
            assert_eq!(server.drain().len(), 1);
        }
        let report = server.shutdown();
        assert_eq!(report.sessions_batched(), 100, "{report}");
        assert_eq!(report.sessions_slab(), 0, "{report}");
    }

    #[test]
    fn blocked_batch_sessions_close_as_stalled_inside_their_batch() {
        // Pipeline with a step limit: the upstream endpoints hit their
        // limits inside the batch, the tail receiver then blocks forever,
        // and the batch's no-progress pass closes the session as stalled
        // where it stands — same verdicts the slab produces when it runs
        // the session from the start, and no slab session is ever built.
        let mut registry = ProtocolRegistry::new();
        let id = registry
            .register(Protocol::new("pipeline", generators::pipeline()).unwrap())
            .unwrap();
        let endpoints = skeleton_endpoints(registry.get(id).unwrap().protocol()).unwrap();
        let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
        for _ in 0..8 {
            server
                .submit(SessionSpec::new(id, endpoints.clone()).with_max_steps(10))
                .unwrap();
        }
        let outcomes = server.drain();
        assert_eq!(outcomes.len(), 8);
        for outcome in &outcomes {
            assert!(outcome.compliant, "{:?}", outcome.violations);
            assert!(!outcome.complete);
            assert!(outcome
                .endpoints
                .values()
                .any(|r| r.status == EndpointStatus::StepLimitReached));
        }
        let report = server.shutdown();
        assert_eq!(report.sessions_batched(), 8, "{report}");
        assert_eq!(report.sessions_demoted(), 0, "{report}");
        assert_eq!(report.sessions_slab(), 0, "{report}");
        assert_eq!(report.sessions_stalled(), 8, "{report}");
    }

    #[test]
    fn step_limited_recursive_sessions_finish_with_step_limit_status() {
        let mut registry = ProtocolRegistry::new();
        let id = registry
            .register(Protocol::new("pipeline", generators::pipeline()).unwrap())
            .unwrap();
        let endpoints = skeleton_endpoints(registry.get(id).unwrap().protocol()).unwrap();
        let mut server = SessionServer::start(registry, ServerConfig::with_shards(2));
        server
            .submit(SessionSpec::new(id, endpoints).with_max_steps(10))
            .unwrap();
        let outcomes = server.drain();
        assert_eq!(outcomes.len(), 1);
        let outcome = &outcomes[0];
        assert!(outcome.compliant, "{:?}", outcome.violations);
        assert!(!outcome.complete);
        // Alice (the sender) certainly hits her limit; the others either hit
        // theirs or stall waiting for the eleventh message.
        assert!(outcome.endpoints.values().any(|r| r.status == EndpointStatus::StepLimitReached));
        server.shutdown();
    }

    #[test]
    fn shutdown_closes_unbounded_sessions_as_stalled_instead_of_hanging() {
        let mut registry = ProtocolRegistry::new();
        let id = registry
            .register(Protocol::new("pipeline", generators::pipeline()).unwrap())
            .unwrap();
        let endpoints = skeleton_endpoints(registry.get(id).unwrap().protocol()).unwrap();
        let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
        // No step limit: the session loops forever and is re-queued after
        // every quantum. Shutdown must still return, closing it as stalled.
        server.submit(SessionSpec::new(id, endpoints)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let report = server.shutdown();
        assert_eq!(report.sessions_started(), 1);
        assert_eq!(report.sessions_stalled(), 1, "{report}");
        assert_eq!(report.sessions_completed(), 0, "{report}");
        assert!(report.actions_executed() > 0, "the session did run");
    }

    #[test]
    fn bad_specs_are_rejected_at_submission() {
        let (registry, ring) = ring_registry();
        let endpoints = skeleton_endpoints(registry.get(ring).unwrap().protocol()).unwrap();
        let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
        // Missing one endpoint.
        let missing = SessionSpec::new(ring, endpoints[..2].to_vec());
        assert!(matches!(
            server.submit(missing),
            Err(ServerError::MissingEndpoint { .. })
        ));
        // Duplicated endpoint.
        let mut doubled = endpoints.clone();
        doubled.push(endpoints[0].clone());
        assert!(matches!(
            server.submit(SessionSpec::new(ring, doubled)),
            Err(ServerError::UnexpectedEndpoint { .. })
        ));
        // Unknown protocol id.
        assert!(matches!(
            server.submit(SessionSpec::new(ProtocolId(99), endpoints)),
            Err(ServerError::UnknownProtocol)
        ));
        server.shutdown();
    }

    #[test]
    fn sessions_hash_to_stable_shards() {
        assert_eq!(shard_of(SessionId(7), 4), shard_of(SessionId(7), 4));
        assert_eq!(shard_of(SessionId(7), 1), 0);
        // Ids spread over shards (not all in one bucket).
        let buckets: std::collections::BTreeSet<usize> =
            (0..64).map(|i| shard_of(SessionId(i), 4)).collect();
        assert!(buckets.len() > 1);
    }
}
