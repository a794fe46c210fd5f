//! The sharded session server: a bounded pool of worker shards hosting
//! thousands of concurrent sessions.
//!
//! Each worker shard holds the server's frozen [`ProtocolRegistry`] and owns
//! a run queue of live sessions, which it steps in bounded quanta (a fixed
//! number of visible actions per session), so a long-running session
//! cannot starve its neighbours and the number of OS threads is fixed by
//! [`ServerConfig::shards`] — never by the number of live sessions. A
//! submitted session crosses to its shard as an id and a [`SessionSpec`];
//! every protocol fact the shard then needs is an index into the registry by
//! [`ProtocolId`]. Sessions are assigned to shards by hashing their
//! [`SessionId`], all endpoints of one session live on the same shard (so
//! intra-session message arrival wakes the receiving endpoint on the very
//! next stepping pass, with no cross-thread signalling), and finished
//! sessions stream their [`SessionOutcome`] back to the submitter.
//!
//! A shard has one executor: every admitted session runs in a columnar
//! [`SessionBatch`] keyed by its protocol, its cast's batch layout and its
//! options, and a batch is one run-queue entry however many sessions it
//! holds.
//!
//! A violator that ran unrecorded still leaves a complete [`Incident`]. A
//! batch steps each session in whole passes, every live endpoint once per
//! pass in role order, so a session whose cast calls no externals performs
//! the same actions in the same order in any batch, at any width and
//! quantum. The shard re-runs such a violator's cast once, alone in a
//! one-slot batch with recording on, and captures the incident from that
//! run's trace; the outcome it delivers is still the unrecorded one. A
//! re-run that does not end at the same violation, and a cast that calls
//! externals (whose answers a re-run could not repeat), keep the
//! incomplete incident the unrecorded trace gives.

use std::collections::VecDeque;
use std::hash::Hasher;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use zooid_dsl::CertifiedProcess;
use zooid_mpst::common::intern::{FxHashMap, FxHasher};
use zooid_mpst::{Role, Trace};
use zooid_engine::cbatch::{BatchLayout, DemotedSession, SessionBatch};
use zooid_engine::report::ExecOptions;
use zooid_proc::Externals;

use crate::error::{Result, ServerError};
use crate::metrics::{ObsReport, ServerReport, ShardInstruments};
use crate::obs::{FlightEvent, Incident, INCIDENT_PREFIX_CAP};
use crate::registry::{ProtocolId, ProtocolRegistry};
use crate::session::{failed_at_admission, SessionId, SessionOutcome, SessionSpec};

/// A session's cast as submitted: the handle [`SessionSpec::endpoints`]
/// shares, and the identity the per-protocol memos compare.
type Cast = Arc<[(CertifiedProcess, Externals)]>;

/// Configuration of a [`SessionServer`].
///
/// What happens to a session whose monitor rejects an action is not
/// configurable: the rejection ends it (see the crate docs for why). The
/// shard takes no step after the rejected action and closes the session
/// from the state its batch extracted, flagged `quarantined`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of worker shards (and therefore worker threads).
    pub shards: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { shards: 4 }
    }
}

impl ServerConfig {
    /// A config with the given shard count.
    pub fn with_shards(shards: usize) -> Self {
        ServerConfig {
            shards: shards.max(1),
        }
    }
}

/// Maximum visible communications a session may perform per scheduling
/// quantum before it is re-queued behind its shard neighbours.
const QUANTUM: usize = 64;

enum ShardMsg {
    /// A validated spec to resolve, admit and run. Resolution and admission
    /// (lowered programs, batch layout, a batch slot) happen on the worker
    /// shard so a single submitter thread never serialises the whole
    /// burst's setup.
    Run { id: SessionId, spec: SessionSpec },
    Shutdown,
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
    /// Per protocol, the last cast that passed `validate_spec`: a
    /// submission of that same handle is not validated again. The entry
    /// holds the `Arc` it compares, so a freed cast's address cannot be
    /// reused to fake a hit.
    validated: Vec<Option<Cast>>,
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
        for index in 0..shard_count {
            let (tx, rx) = unbounded();
            let shard_instruments = Arc::new(ShardInstruments::new(registry.len()));
            let shard = Shard::new(
                Arc::clone(&registry),
                results_tx.clone(),
                Arc::clone(&shard_instruments),
            );
            // Named like the front door's `zooid-net-io`, so per-thread
            // tools (`/proc/self/task/*/comm`, `schedstat`) tell them apart.
            let handle = std::thread::Builder::new()
                .name(format!("zooid-shard-{index}"))
                .spawn(move || shard.run(rx))
                .expect("spawning a shard thread");
            shards.push(ShardHandle { tx, handle });
            instruments.push(shard_instruments);
        }
        SessionServer {
            validated: vec![None; registry.len()],
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
    /// The spec is validated unless its `endpoints` handle is the one this
    /// protocol's last accepted submission carried (see [`SessionSpec`]).
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
        let validated = &mut self.validated[spec.protocol.index()];
        if !validated
            .as_ref()
            .is_some_and(|cast| Arc::ptr_eq(cast, &spec.endpoints))
        {
            crate::session::validate_spec(&spec, artifacts)?;
            *validated = Some(Arc::clone(&spec.endpoints));
        }
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

/// The global trace an unrecorded violator would have recorded, from a
/// re-run of its cast alone in a one-slot batch with recording on (see the
/// module docs for why it repeats the original). Its budget is the
/// original's step count plus one action: the pass that violated may have
/// counted none, and a quantum only ends between passes. `None` when the
/// batch records (its outcome carries the trace), when the layout calls
/// externals, or when the re-run does not end at the very violation the
/// original did: an incomplete incident is kept rather than a wrong one.
fn rerecord(batch: &SessionBatch, demoted: &DemotedSession) -> Option<Trace> {
    let layout = batch.layout();
    if batch.options().record_actions || layout.calls_externals() {
        return None;
    }
    let options = batch.options().clone().record_actions(true);
    let mut twin = SessionBatch::new(Arc::clone(layout), options, 1);
    twin.admit(demoted.token);
    let steps: usize = demoted.endpoints.iter().map(|ep| ep.steps).sum();
    let mut rerun = twin.run_quantum(steps + 1).demoted.pop()?;
    let same = rerun.monitor.violations() == demoted.monitor.violations();
    same.then(|| rerun.monitor.take_trace())
}

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

    /// Stamps a session's admission into a batch: wall-clock start, the
    /// batched count and the flight-recorder event. The caller supplies the
    /// stamp so one clock read covers a whole admission sweep.
    fn on_admit(&mut self, id: SessionId, at: Instant) {
        self.admitted.insert(id.0, at);
        self.shared.sessions_batched.fetch_add(1, Ordering::Relaxed);
        self.shared
            .recorder
            .record(FlightEvent::Admitted { session: id.0 });
    }

    /// Folds a finished session into the histograms, the flight recorder,
    /// and — when its monitor rejected anything — the incident store
    /// (captured against the protocol's compiled tables, looked up in the
    /// registry only then). An incident's prefix comes from `witness`, the
    /// trace of a recorded re-run, when there is one, and from the outcome's
    /// own global trace otherwise. The caller supplies `now` so one clock
    /// read covers every outcome of a quantum.
    fn on_outcome(
        &mut self,
        outcome: &SessionOutcome,
        witness: Option<&Trace>,
        registry: &ProtocolRegistry,
        now: Instant,
    ) {
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
            let trace = witness.unwrap_or(outcome.global_trace());
            for violation in &outcome.violations {
                self.shared.incidents.record(Incident::capture(
                    outcome.protocol,
                    outcome.id,
                    system,
                    violation,
                    trace,
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
/// A run-queue entry is a **batch index**. A shard keeps one batch per key,
/// which starts at one slot and doubles when it is full, so its columns are
/// as wide as its key's traffic; its sessions step together in
/// `(role, pc)` cohorts over columnar state by
/// [`SessionBatch::run_quantum`]. A batch is one queue entry however many
/// sessions it holds; its quantum budget scales with its live population,
/// so each session gets [`QUANTUM`] actions per pass through the queue.
///
/// A session is closed by its batch, from the state it already has: the
/// batch closes its concluded and its permanently blocked sessions itself,
/// and a violator it demoted closes as quarantined straight from the
/// extracted state. A live session never leaves its batch: shards are
/// fixed when the server starts, and nothing moves a session between
/// them.
///
/// Admission remembers, per protocol, the last cast it resolved and the
/// [`BatchLayout`] it resolved to. A session whose cast is that same handle
/// (`Arc::ptr_eq`) joins its batch without a lock or a shared `Arc` clone.
/// Any other cast — a fresh handle, or another cast of the protocol — is
/// resolved against the registry's caches as if there were no memo, counted
/// in `casts_resolved`, and takes the entry's place if it lowers.
struct Shard {
    /// The server's frozen registry: what a cast is resolved and an
    /// incident captured against.
    registry: Arc<ProtocolRegistry>,
    results: Sender<Vec<SessionOutcome>>,
    obs: WorkerObs,
    /// Per protocol, the last cast resolved and its layout. The entry holds
    /// the cast it compares, so allocator address reuse cannot fake a hit.
    resolved: Vec<Option<(Cast, Arc<BatchLayout>)>>,
    batches: Vec<ShardBatch>,
    run_queue: VecDeque<usize>,
    /// Finished sessions not yet flushed to the server.
    pending: Vec<SessionOutcome>,
}

impl Shard {
    fn new(
        registry: Arc<ProtocolRegistry>,
        results: Sender<Vec<SessionOutcome>>,
        instruments: Arc<ShardInstruments>,
    ) -> Self {
        Shard {
            obs: WorkerObs::new(instruments),
            resolved: vec![None; registry.len()],
            registry,
            results,
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
                Some(bi) => self.run_batch(bi),
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
            ShardMsg::Shutdown => return true,
        }
        false
    }

    /// Places a validated session on the shard: its cast is resolved into
    /// its batch layout unless it is the protocol's remembered cast, and
    /// the session joins the batch for its key with the externals its
    /// endpoints call.
    fn admit(&mut self, id: SessionId, spec: SessionSpec, at: Instant) {
        let memo = &mut self.resolved[spec.protocol.index()];
        if !memo
            .as_ref()
            .is_some_and(|(cast, _)| Arc::ptr_eq(cast, &spec.endpoints))
        {
            self.obs
                .shared
                .casts_resolved
                .fetch_add(1, Ordering::Relaxed);
            let artifacts = &self.registry[spec.protocol];
            match artifacts.resolve(&spec.endpoints) {
                Ok(layout) => *memo = Some((Arc::clone(&spec.endpoints), layout)),
                // A process that does not lower: closed before it ever runs.
                Err(error) => {
                    return self.finish(failed_at_admission(id, artifacts, error), None, at)
                }
            }
        }
        let Shard {
            resolved,
            batches,
            obs,
            ..
        } = self;
        let (_, layout) = resolved[spec.protocol.index()]
            .as_ref()
            .expect("resolved above");
        let externals = if layout.calls_externals() {
            let of = |role: &Role| {
                let endpoint = spec.endpoints.iter().find(|(cert, _)| cert.role() == role);
                let (_, externals) = endpoint.expect("coverage was validated at submission");
                externals.clone()
            };
            layout.roles().iter().map(of).collect()
        } else {
            Vec::new()
        };
        let bi = Self::batch_for(batches, obs, spec.protocol, layout, &spec.options);
        let admitted = batches[bi].batch.admit_with_externals(id.0, externals);
        debug_assert!(admitted, "batch_for found room");
        obs.on_admit(id, at);
        self.enqueue(bi);
    }

    /// The batch a session of this key joins, with a free slot: the key's
    /// batch, doubled if it is full, else a new one-slot batch. A new batch
    /// takes the place of an idle one (empty, hence not in the run queue),
    /// which is dropped with its columns, or a new place if none is idle.
    /// An emptied batch stays with its key until then: a closed loop
    /// empties and refills its batch between quanta. Only a new batch
    /// clones `layout`, which admission borrows from the shard's memo —
    /// hence the shard's fields as arguments rather than `&mut self`.
    fn batch_for(
        batches: &mut Vec<ShardBatch>,
        obs: &WorkerObs,
        protocol: ProtocolId,
        layout: &Arc<BatchLayout>,
        options: &ExecOptions,
    ) -> usize {
        let keyed = batches.iter().position(|b| {
            b.protocol == protocol
                && Arc::ptr_eq(b.batch.layout(), layout)
                && b.batch.options() == options
        });
        let bi = match keyed {
            Some(bi) if !batches[bi].batch.is_full() => return bi,
            Some(bi) => {
                let batch = &mut batches[bi].batch;
                batch.grow(2 * batch.capacity());
                bi
            }
            None => {
                let fresh = ShardBatch {
                    protocol,
                    batch: SessionBatch::new(Arc::clone(layout), options.clone(), 1),
                    queued: false,
                };
                match batches.iter().position(|b| b.batch.is_empty() && !b.queued) {
                    Some(bi) => {
                        batches[bi] = fresh;
                        bi
                    }
                    None => {
                        batches.push(fresh);
                        batches.len() - 1
                    }
                }
            }
        };
        let slots = batches.iter().map(|b| b.batch.capacity() as u64).sum();
        let peak = &obs.shared.peak_batch_slots;
        peak.fetch_max(slots, Ordering::Relaxed);
        bi
    }

    /// Queues a batch that has just taken a session, unless it is queued.
    fn enqueue(&mut self, bi: usize) {
        let sb = &mut self.batches[bi];
        if !sb.queued {
            sb.queued = true;
            self.run_queue.push_back(bi);
        }
    }

    /// Steps one batch for a quantum, reports what is over — the sessions
    /// it closed, and the violators it demoted, closed as quarantined from
    /// the state it extracted (an unrecorded one with the trace of its
    /// recorded re-run as the incident's witness) — and re-queues it while
    /// it has live sessions.
    fn run_batch(&mut self, bi: usize) {
        let sb = &mut self.batches[bi];
        // The batch is one queue entry standing for its whole live
        // population, so it gets the quantum of each member.
        let budget = QUANTUM.saturating_mul(sb.batch.live_count().max(1));
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
            self.finish(SessionOutcome::from_batch(protocol, outcome), None, ended);
        }
        for demoted in result.demoted {
            self.obs.shared.sessions_demoted.fetch_add(1, Ordering::Relaxed);
            let witness = rerecord(&self.batches[bi].batch, &demoted);
            let outcome = SessionOutcome::quarantined(protocol, demoted);
            self.finish(outcome, witness.as_ref(), ended);
        }
        let sb = &mut self.batches[bi];
        if sb.batch.is_empty() {
            sb.queued = false;
        } else {
            self.run_queue.push_back(bi);
        }
    }

    /// Shutdown: closes every queued session as stalled and flushes.
    fn close_all(mut self) {
        let now = Instant::now();
        while let Some(bi) = self.run_queue.pop_front() {
            let sb = &mut self.batches[bi];
            sb.queued = false;
            let protocol = sb.protocol;
            for outcome in sb.batch.close_all() {
                self.finish(SessionOutcome::from_batch(protocol, outcome), None, now);
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
    /// every way a session ends funnels through here: closed by its batch,
    /// quarantined at a violation, closed at shutdown, refused at
    /// admission), and buffers its outcome for the next batched flush.
    /// `witness` is the recorded trace an incident is captured from when
    /// the outcome carries none (see [`rerecord`]).
    fn finish(&mut self, outcome: SessionOutcome, witness: Option<&Trace>, now: Instant) {
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
            metrics.per_protocol_quarantined[outcome.protocol.index()]
                .fetch_add(1, Ordering::Relaxed);
        }
        self.obs.on_outcome(&outcome, witness, &self.registry, now);
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
    use zooid_engine::EndpointStatus;

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

    #[cfg(target_os = "linux")]
    #[test]
    fn shard_threads_carry_their_names() {
        let (registry, _) = ring_registry();
        let server = SessionServer::start(registry, ServerConfig::with_shards(2));
        let names = || -> Vec<String> {
            std::fs::read_dir("/proc/self/task")
                .unwrap()
                .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
                .map(|comm| comm.trim_end().to_owned())
                .collect()
        };
        // A thread names itself once it runs, so a fresh one may still wear
        // its parent's name for a moment.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        for shard in ["zooid-shard-0", "zooid-shard-1"] {
            while !names().iter().any(|n| n == shard) {
                assert!(
                    std::time::Instant::now() < deadline,
                    "no {shard} among {:?}",
                    names()
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        server.shutdown();
    }

    #[test]
    fn sessions_longer_than_a_quantum_interleave_instead_of_running_to_death() {
        let mut registry = ProtocolRegistry::new();
        let ring = registry
            .register(Protocol::new("ring64", generators::ring_n(64)).unwrap())
            .unwrap();
        let endpoints = skeleton_endpoints(registry.get(ring).unwrap().protocol()).unwrap();
        let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
        for _ in 0..50 {
            server.submit(SessionSpec::new(ring, endpoints.clone())).unwrap();
        }
        let outcomes = server.drain();
        assert_eq!(outcomes.len(), 50);
        assert!(outcomes.iter().all(|o| o.all_finished_and_compliant()));
        let report = server.shutdown();
        // The 50 homogeneous ring sessions coalesce into one columnar batch
        // (one run-queue entry), whose budget scales with its population:
        // QUANTUM × live sessions. A 64-role ring session takes 128 actions,
        // twice its share, so the batch needs several bounded quanta rather
        // than one run-to-death pass.
        assert_eq!(report.sessions_batched(), 50, "{report}");
        assert_eq!(report.sessions_slab(), 0, "{report}");
        assert!(report.shards[0].quanta >= 2, "{report}");
        // Cohort stepping amortises per-instruction work over the lockstep
        // population: cohorts span many sessions.
        assert!(report.mean_cohort_width() > 8.0, "{report}");
    }

    #[test]
    fn homogeneous_sessions_share_a_batch_and_count_every_action() {
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
        // 3 sends + 3 receives each.
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
        let instruments = Arc::new(ShardInstruments::new(registry.len()));
        let mut shard = Shard::new(Arc::new(registry), results, instruments);
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

    /// The registered `pipeline` and its cast under a step limit: the limit
    /// is part of the batch key, so each limit is a key of its own.
    fn pipeline_keys() -> (Arc<ProtocolRegistry>, impl Fn(usize) -> SessionSpec) {
        let mut registry = ProtocolRegistry::new();
        let id = registry
            .register(Protocol::new("pipeline", generators::pipeline()).unwrap())
            .unwrap();
        let endpoints = skeleton_endpoints(registry.get(id).unwrap().protocol()).unwrap();
        let spec = move |max_steps| SessionSpec::new(id, endpoints.clone()).with_max_steps(max_steps);
        (Arc::new(registry), spec)
    }

    /// A shard over `registry`, stepped by hand.
    fn hand_shard(registry: &Arc<ProtocolRegistry>) -> Shard {
        let (results, _outcomes) = unbounded();
        let instruments = Arc::new(ShardInstruments::new(registry.len()));
        Shard::new(Arc::clone(registry), results, instruments)
    }

    fn run_to_idle(shard: &mut Shard) {
        while let Some(bi) = shard.run_queue.pop_front() {
            shard.run_batch(bi);
        }
    }

    #[test]
    fn keys_that_run_one_after_another_share_one_batch_place() {
        // 100 keys on one shard, each drained before the next arrives: every
        // new key takes the idle batch's place, so the shard never holds two.
        let (registry, spec) = pipeline_keys();
        let mut shard = hand_shard(&registry);
        for max_steps in 1..=100 {
            shard.admit(SessionId(max_steps as u64), spec(max_steps), Instant::now());
            run_to_idle(&mut shard);
        }
        assert_eq!(shard.batches.len(), 1);
        assert_eq!(shard.pending.len(), 100);
        assert_eq!(shard.obs.shared.report(0).peak_batch_slots, 1);
    }

    #[test]
    fn a_burst_of_one_key_doubles_one_batch() {
        let (registry, spec) = pipeline_keys();
        let mut shard = hand_shard(&registry);
        let now = Instant::now();
        for n in 0..600 {
            shard.admit(SessionId(n), spec(10), now);
        }
        assert_eq!(shard.batches.len(), 1);
        assert_eq!(shard.batches[0].batch.capacity(), 1_024);
        assert_eq!(shard.batches[0].batch.live_count(), 600);
        assert_eq!(shard.run_queue.len(), 1);
        run_to_idle(&mut shard);
        assert_eq!(shard.pending.len(), 600);
        assert!(shard.pending.iter().all(|o| o.compliant && !o.quarantined));
        assert_eq!(shard.obs.shared.report(0).peak_batch_slots, 1_024);
    }

    #[test]
    fn keys_live_at_once_get_a_batch_each_and_a_new_key_takes_an_idle_place() {
        let (registry, spec) = pipeline_keys();
        let mut shard = hand_shard(&registry);
        let now = Instant::now();
        for n in 0..65 {
            shard.admit(SessionId(n as u64), spec(n + 1), now);
        }
        assert_eq!(shard.batches.len(), 65);
        run_to_idle(&mut shard);
        assert_eq!(shard.pending.len(), 65);
        assert!(shard.pending.iter().all(|o| o.compliant && !o.quarantined));
        shard.admit(SessionId(65), spec(66), now);
        assert_eq!(shard.batches.len(), 65, "the 66th key takes an idle place");
        let report = shard.obs.shared.report(0);
        assert_eq!(report.sessions_batched, 66);
        assert_eq!(report.peak_batch_slots, 65);
    }

    #[test]
    fn blocked_batch_sessions_close_as_stalled_inside_their_batch() {
        // Pipeline with a step limit: the upstream endpoints hit their
        // limits inside the batch, the tail receiver then blocks forever,
        // and the batch's no-progress pass closes the session as stalled
        // where it stands, without a demotion.
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
    fn a_certified_right_injection_is_not_quarantined() {
        // `p -> q : m(unit + bool)` with `p` sending `inr true`: typing,
        // lowering and the batch's recording all give the literal the sort
        // `unit + bool`, so the monitor accepts the send.
        use zooid_mpst::global::GlobalType;
        use zooid_mpst::{Role, Sort};
        use zooid_proc::{Expr, Externals, Proc, Value};
        let (p, q) = (Role::new("p"), Role::new("q"));
        let sum = Sort::sum(Sort::Unit, Sort::Bool);
        let g = GlobalType::msg1(p.clone(), q.clone(), "m", sum.clone(), GlobalType::End);
        let protocol = Protocol::new("right", g).unwrap();
        let send = Proc::send(
            q.clone(),
            "m",
            Expr::lit(Value::inr(Value::Bool(true))),
            Proc::Finish,
        );
        let recv = Proc::recv1(p.clone(), "m", sum, "x", Proc::Finish);
        let endpoints: Vec<_> = [(&p, send), (&q, recv)]
            .into_iter()
            .map(|(role, proc)| {
                let cert = protocol.implement_against_projection(role, proc, &Externals::new());
                (cert.unwrap(), Externals::new())
            })
            .collect();
        let mut registry = ProtocolRegistry::new();
        let id = registry.register(protocol).unwrap();
        let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
        server.submit(SessionSpec::new(id, endpoints)).unwrap();
        let outcomes = server.drain();
        assert_eq!(outcomes.len(), 1);
        let outcome = &outcomes[0];
        assert!(!outcome.quarantined, "{:?}", outcome.violations);
        assert!(outcome.all_finished_and_compliant(), "{outcome:?}");
        assert_eq!(outcome.messages_exchanged(), 1);
        server.shutdown();
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
