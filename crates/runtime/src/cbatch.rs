//! Columnar batch execution: struct-of-arrays stepping for homogeneous
//! sessions.
//!
//! The slab executor in `zooid-server` steps each session through its own
//! [`CompiledEndpointTask`](crate::cexec::CompiledEndpointTask): one pointer
//! chase into the session's slot array, one `RefCell` borrow of its channel
//! core and one virtual port dispatch per action — per session. At serving
//! scale most live sessions run the *same* protocol and sit at the *same*
//! handful of program counters, so almost all of that per-session state is
//! redundant. This module splits a session population the other way:
//!
//! * the **skeleton** — the compiled per-role programs
//!   ([`EndpointProgram`]), the protocol's compiled transition tables and
//!   the derived routing tables ([`BatchLayout`]: dense peer indices and a
//!   batch-wide wire-label table) — is shared once per batch;
//! * the **variables** — program counters, step counts, value slots,
//!   monitor cursors, traces — live in struct-of-arrays *columns* indexed
//!   by session slot ([`SessionBatch`]). Value slots are laid out per-slot
//!   across sessions (`slots[slot * capacity + session]`), so a cohort of
//!   sessions executing the same instruction reads and writes contiguous
//!   memory.
//!
//! Each scheduling pass groups live endpoints by `(role, pc)` and steps
//! every cohort with a tight loop: the instruction, its
//! [`ActionTemplate`], the peer index and the
//! wire label are resolved **once per cohort**, and sends between co-batched
//! endpoints are index writes into a shared frame arena — no per-channel
//! `VecDeque` behind a `RefCell`, no role or label comparison, and
//! zero-hash monitoring via the pre-interned actions
//! ([`zooid_cfsm::CompiledSystem::observe_interned`]).
//!
//! A session is **batch-eligible** when every role's program avoids
//! external actions (`read`/`write`/`interact` run arbitrary host closures)
//! and every communication site has a statically known sort with a
//! pre-interned action ([`BatchLayout::new`] checks this once per program
//! set).
//!
//! A session leaves its batch one of two ways. One that is **over** is
//! closed where it stands, as a [`BatchOutcome`]: every endpoint concluded,
//! or a full pass made no progress — which for a self-contained session
//! proves none can ever come — and the endpoints still mid-protocol are
//! reported stalled. One the batch **cannot carry further** — after a
//! monitor violation, a payload whose runtime sort differs from the static
//! one, or an instruction the batch cannot run — is **demoted**: its columns
//! are gathered into a [`DemotedSession`] carrying the program counters,
//! slot values, action traces, in-flight frames and the monitor state. The
//! slab executor resumes it from there without losing a single observation
//! ([`CompiledEndpointTask::resume`](crate::cexec::CompiledEndpointTask::resume),
//! [`CompiledMonitor::resume`]) — unless the holder decides the violation
//! ended it (the server's quarantine), in which case that same state is all
//! its outcome needs.
//!
//! The slab and tree executors remain the behavioural oracles: the
//! differential suite (`tests/batch_exec.rs`) checks statuses, per-endpoint
//! value traces and monitor verdicts agree in lockstep on case studies and
//! randomized projectable protocols.

use std::mem;
use std::sync::Arc;

use zooid_cfsm::{CompiledSystem, MonitorCursor};
use zooid_mpst::{Label, Role, Trace};
use zooid_proc::compile::{Arm, CExpr, Instr};
use zooid_proc::{erase, Value, ValueAction};

use crate::cexec::{admin_tick, ActionTemplate, EndpointProgram};
use crate::error::RuntimeError;
use crate::exec::{sort_of_value, EndpointReport, EndpointStatus, ExecOptions};
use crate::faults::{ArenaFaults, FaultKind, FaultPlan, InjectedFault};
use crate::monitor::{CompiledMonitor, MonitorViolation};

/// The wire id an arena [`FaultKind::Truncate`] injection writes in place
/// of the real one. Deliberately out of range for every layout (`u32::MAX`
/// doubles as `BatchLayout::label_wire`'s "no site" sentinel), so the
/// receiver surfaces it as a codec failure rather than a mis-delivery.
const CORRUPT_WIRE: u32 = u32::MAX;

/// The shared skeleton of a batch: the per-role compiled programs plus the
/// routing tables derived from them once — dense peer indices
/// (`role × RoleId → batch role index`) and a batch-wide wire-label table
/// (`role × LabelId → wire id`), so the stepping loop never compares a role
/// or label string.
#[derive(Debug)]
pub struct BatchLayout {
    roles: Arc<[Role]>,
    programs: Vec<Arc<EndpointProgram>>,
    system: Arc<CompiledSystem>,
    /// The deduplicated labels of every communication site across all
    /// programs; frames in the arena carry an index into this table.
    labels: Vec<Label>,
    /// `label_wire[r][LabelId::index()]` — the wire id of that role's
    /// interned label (`u32::MAX` for label ids without a communication
    /// site).
    label_wire: Vec<Vec<u32>>,
    /// `peer_map[r][RoleId::index()]` — the batch role index of that role's
    /// interned peer.
    peer_map: Vec<Vec<u32>>,
    /// Per-role slot counts (the per-role column heights).
    slot_counts: Vec<usize>,
}

impl BatchLayout {
    /// Derives the shared layout for one program per role, or `None` when
    /// the combination is not batch-eligible: `roles` must be sorted and
    /// match the programs' roles positionally, no program may call external
    /// actions, and every communication site must carry a statically known
    /// sort with a pre-interned action (compile the programs with
    /// [`EndpointProgram::with_system`] against the same `system`).
    pub fn new(
        roles: Arc<[Role]>,
        programs: Vec<Arc<EndpointProgram>>,
        system: Arc<CompiledSystem>,
    ) -> Option<Arc<BatchLayout>> {
        if programs.len() != roles.len() || roles.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        let mut labels: Vec<Label> = Vec::new();
        let mut label_wire = Vec::with_capacity(programs.len());
        let mut peer_map = Vec::with_capacity(programs.len());
        let mut slot_counts = Vec::with_capacity(programs.len());
        for (r, program) in programs.iter().enumerate() {
            let compiled = program.program();
            if compiled.role() != &roles[r] || compiled.calls_externals() {
                return None;
            }
            if program
                .templates()
                .iter()
                .any(|t| t.static_sort.is_none() || t.interned.is_none())
            {
                return None;
            }
            let snapshot = compiled.snapshot();
            let mut map = Vec::with_capacity(snapshot.roles().len());
            for role in snapshot.roles() {
                let pos = roles.binary_search(role).ok()?;
                map.push(pos as u32);
            }
            peer_map.push(map);
            let mut wires: Vec<u32> = Vec::new();
            let mut assign = |wires: &mut Vec<u32>, lid: zooid_mpst::common::intern::LabelId| {
                let i = lid.index();
                if wires.len() <= i {
                    wires.resize(i + 1, u32::MAX);
                }
                if wires[i] == u32::MAX {
                    let label = snapshot.label(lid);
                    let wire = labels.iter().position(|l| l == label).unwrap_or_else(|| {
                        labels.push(label.clone());
                        labels.len() - 1
                    });
                    wires[i] = wire as u32;
                }
            };
            for instr in compiled.instrs() {
                match instr {
                    Instr::Send { label, .. } => assign(&mut wires, *label),
                    Instr::Recv { arms, .. } => {
                        for arm in arms.iter() {
                            assign(&mut wires, arm.label);
                        }
                    }
                    _ => {}
                }
            }
            label_wire.push(wires);
            slot_counts.push(compiled.slot_count());
        }
        Some(Arc::new(BatchLayout {
            roles,
            programs,
            system,
            labels,
            label_wire,
            peer_map,
            slot_counts,
        }))
    }

    /// The sorted session roles, in batch role-index order.
    pub fn roles(&self) -> &Arc<[Role]> {
        &self.roles
    }

    /// The per-role compiled programs, in batch role-index order.
    pub fn programs(&self) -> &[Arc<EndpointProgram>] {
        &self.programs
    }

    /// The protocol's compiled transition tables.
    pub fn system(&self) -> &Arc<CompiledSystem> {
        &self.system
    }
}

/// One session-indexed cell of the frame arena: an append-only buffer with
/// a read head — push is a `Vec` push, pop swaps the value out and bumps
/// the head, and the buffer resets once drained so capacity is reused.
#[derive(Debug, Default)]
struct FrameQueue {
    buf: Vec<(u32, Value)>,
    head: usize,
}

impl FrameQueue {
    fn push(&mut self, wire: u32, value: Value) {
        self.buf.push((wire, value));
    }

    fn pop(&mut self) -> Option<(u32, Value)> {
        if self.head < self.buf.len() {
            let frame = mem::replace(&mut self.buf[self.head], (0, Value::Unit));
            self.head += 1;
            if self.head == self.buf.len() {
                self.buf.clear();
                self.head = 0;
            }
            Some(frame)
        } else {
            None
        }
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

/// What one [`SessionBatch::run_quantum`] call did: action counts for
/// metrics, the sessions that are over, the sessions that demoted to the
/// slab executor, and cohort statistics (a cohort is one `(role, pc)` run
/// of a scheduling pass).
#[derive(Debug, Default)]
pub struct BatchQuantum {
    /// Visible communications performed (sends + receives).
    pub actions: usize,
    /// Sends among them (message-routing metric).
    pub sends: usize,
    /// Sessions that are over: every endpoint concluded, or no endpoint can
    /// ever progress again ([`BatchOutcome::stalled`]).
    pub finished: Vec<BatchOutcome>,
    /// Sessions that continue elsewhere, pulled out mid-flight: a monitor
    /// violation, a runtime sort mismatch, or an instruction the batch
    /// cannot run. A session that merely cannot progress is not here — it
    /// is over, and closes in `finished`.
    pub demoted: Vec<DemotedSession>,
    /// Number of `(role, pc)` cohorts stepped.
    pub cohorts: usize,
    /// Total sessions across those cohorts (mean cohort width =
    /// `cohort_sessions / cohorts`).
    pub cohort_sessions: usize,
    /// Cohort-width distribution: `cohort_widths[b]` counts cohorts whose
    /// width fell in log2 bucket `b` (bucket 0 is unused — a cohort has at
    /// least one session; widths ≥ 2^15 land in the last bucket). The
    /// server folds this into its width histogram without touching the
    /// stepping loop.
    pub cohort_widths: [u64; 16],
}

/// The conclusion of one batched session, in the same terms as a slab
/// session outcome: per-endpoint reports (in batch role order), the
/// monitor's verdicts and — when recording was on — the compliant global
/// trace.
#[derive(Debug)]
pub struct BatchOutcome {
    /// The caller-supplied session token (see [`SessionBatch::admit`]).
    pub token: u64,
    /// Per-endpoint reports, in batch role-index order.
    pub endpoints: Vec<EndpointReport>,
    /// The compliant global trace (empty when recording was off).
    pub global_trace: Trace,
    /// `true` if the monitor observed no violation.
    pub compliant: bool,
    /// `true` if the protocol ran to completion.
    pub complete: bool,
    /// The violations observed.
    pub violations: Vec<MonitorViolation>,
    /// `true` if the session was closed with endpoints still mid-protocol
    /// (reported [`EndpointStatus::Stalled`]): a full pass found every one
    /// of them blocked, or the batch was closed under it
    /// ([`SessionBatch::close_all`]).
    pub stalled: bool,
}

/// One endpoint's extracted execution state, ready for
/// [`CompiledEndpointTask::resume`](crate::cexec::CompiledEndpointTask::resume).
#[derive(Debug)]
pub struct DemotedEndpoint {
    /// The endpoint's role.
    pub role: Role,
    /// The shared compiled program the endpoint was running.
    pub program: Arc<EndpointProgram>,
    /// The program counter to resume at.
    pub pc: u32,
    /// The endpoint's slot values, in slot-id order.
    pub slots: Vec<Value>,
    /// The recorded actions so far (empty when recording was off).
    pub actions: Vec<ValueAction>,
    /// Visible communications performed so far.
    pub steps: usize,
    /// The endpoint's status, when it already concluded inside the batch.
    pub status: Option<EndpointStatus>,
}

/// A session pulled out of a batch mid-flight: everything the slab executor
/// needs to continue it exactly where its columns left off — per-endpoint
/// state, the resumed monitor, and the frames that were still in flight in
/// the batch arena (per-channel FIFO order preserved).
#[derive(Debug)]
pub struct DemotedSession {
    /// The caller-supplied session token.
    pub token: u64,
    /// The execution options the batch ran with.
    pub options: ExecOptions,
    /// Per-endpoint state, in batch role-index order.
    pub endpoints: Vec<DemotedEndpoint>,
    /// The monitor, resumed mid-stream (cursor, trace, verdicts intact).
    pub monitor: CompiledMonitor,
    /// Undelivered frames as `(from, to, label, value)` with `from`/`to`
    /// batch role indices; per-channel order is the delivery order.
    pub frames: Vec<(u32, u32, Label, Value)>,
}

/// One action a recording session performed, as the batch logs it: the
/// endpoint, the communication site of its program, the payload, and the
/// monitor's verdict. The [`ValueAction`] it stands for — and, if accepted,
/// its erasure in the global trace — is built from the site's
/// [`ActionTemplate`] when the log is appended to the session's traces.
#[derive(Debug)]
struct Performed {
    value: Value,
    role: u32,
    event: u32,
    send: bool,
    accepted: bool,
}

/// Endpoint `r`'s value action at communication site `event` of its
/// program: the role, the site's peer, label and static sort (a send's
/// payload was checked against it before the send was performed), and
/// `value`.
fn site_action(layout: &BatchLayout, r: usize, event: u32, send: bool, value: Value) -> ValueAction {
    let site = &layout.programs[r].templates()[event as usize];
    let (me, peer, label) = (layout.roles[r].clone(), site.peer.clone(), site.label.clone());
    let sort = site
        .static_sort
        .clone()
        .expect("batch-eligible templates have static sorts");
    if send {
        ValueAction::send(me, peer, label, sort, value)
    } else {
        ValueAction::recv(me, peer, label, sort, value)
    }
}

/// A fixed-capacity population of homogeneous sessions stepped in columns.
///
/// All sessions share one [`BatchLayout`] and one [`ExecOptions`]; their
/// mutable state lives in struct-of-arrays columns indexed by session slot.
/// [`SessionBatch::admit`] claims a slot, [`SessionBatch::run_quantum`]
/// steps the whole population in `(role, pc)` cohorts, and sessions leave
/// as [`BatchOutcome`]s (over: concluded or stalled) or [`DemotedSession`]s
/// (to continue on the slab executor).
#[derive(Debug)]
pub struct SessionBatch {
    layout: Arc<BatchLayout>,
    options: ExecOptions,
    record: bool,
    cap: usize,
    // Session columns (one entry per slot).
    tokens: Vec<u64>,
    live: Vec<bool>,
    free: Vec<u32>,
    live_count: usize,
    cursors: Vec<MonitorCursor>,
    traces: Vec<Trace>,
    // What each recording session performed since its traces were last
    // appended to, one small entry per action. A pass steps every live
    // session, so pushing each action straight onto its traces scatters
    // writes over every session's growing vectors; the logs stay small and
    // cache-resident, and the end of the quantum appends each to its
    // session's traces in one run.
    logs: Vec<Vec<Performed>>,
    violations: Vec<Vec<MonitorViolation>>,
    accepted: Vec<usize>,
    observed: Vec<usize>,
    demote: Vec<bool>,
    progress: Vec<bool>,
    // Endpoint columns, indexed `role * cap + slot`.
    pcs: Vec<u32>,
    steps: Vec<usize>,
    statuses: Vec<Option<EndpointStatus>>,
    actions: Vec<Vec<ValueAction>>,
    // Value columns, per role, laid out per-slot across sessions:
    // `slots[role][slot_id * cap + slot]`.
    slots: Vec<Vec<Value>>,
    // Frame arena, indexed `(from * n + to) * cap + slot`.
    queues: Vec<FrameQueue>,
    // (pc, session) scratch for cohort grouping, reused across passes.
    scratch: Vec<(u32, u32)>,
    // Fault evaluator for the arena write path (hostile-world suite);
    // `None` outside fault campaigns, costing one branch per send.
    arena_faults: Option<ArenaFaults>,
}

impl SessionBatch {
    /// Creates an empty batch of the given capacity (at least 1).
    pub fn new(layout: Arc<BatchLayout>, options: ExecOptions, capacity: usize) -> Self {
        let cap = capacity.max(1);
        let n = layout.roles.len();
        let record = options.record_actions;
        let cursor = layout.system.monitor_cursor();
        let slots = layout
            .slot_counts
            .iter()
            .map(|&count| vec![Value::Unit; count * cap])
            .collect();
        let mut queues = Vec::with_capacity(n * n * cap);
        queues.resize_with(n * n * cap, FrameQueue::default);
        SessionBatch {
            layout,
            options,
            record,
            cap,
            tokens: vec![0; cap],
            live: vec![false; cap],
            free: (0..cap as u32).rev().collect(),
            live_count: 0,
            cursors: vec![cursor; cap],
            traces: vec![Trace::empty(); cap],
            logs: (0..cap).map(|_| Vec::new()).collect(),
            violations: vec![Vec::new(); cap],
            accepted: vec![0; cap],
            observed: vec![0; cap],
            demote: vec![false; cap],
            progress: vec![false; cap],
            pcs: vec![0; n * cap],
            steps: vec![0; n * cap],
            statuses: vec![None; n * cap],
            actions: vec![Vec::new(); n * cap],
            slots,
            queues,
            scratch: Vec::new(),
            arena_faults: None,
        }
    }

    /// Arms deterministic fault injection on the arena write path. In-batch
    /// sends never cross a [`Transport`](crate::transport::Transport), so
    /// [`crate::faults::FaultyTransport`] cannot reach them; this is the
    /// batch plane's counterpart. See [`ArenaFaults`] for which
    /// [`FaultKind`]s are meaningful at this seam.
    pub fn set_arena_faults(&mut self, plan: &FaultPlan) {
        self.arena_faults = Some(ArenaFaults::new(plan));
    }

    /// The deterministic log of arena faults injected so far (empty when
    /// no plan is armed).
    pub fn arena_fault_schedule(&self) -> &[InjectedFault] {
        self.arena_faults.as_ref().map_or(&[], ArenaFaults::schedule)
    }

    /// The shared layout the batch runs.
    pub fn layout(&self) -> &Arc<BatchLayout> {
        &self.layout
    }

    /// The execution options every session of the batch runs under.
    pub fn options(&self) -> &ExecOptions {
        &self.options
    }

    /// Number of session slots.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of live sessions.
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Returns `true` if no slot is free.
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Returns `true` if no session is live.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Admits a new session under the caller's `token` (any identifier;
    /// outcomes and demotions carry it back). Returns `false` when the
    /// batch is full.
    pub fn admit(&mut self, token: u64) -> bool {
        let Some(s) = self.free.pop() else {
            return false;
        };
        let s = s as usize;
        let cap = self.cap;
        self.tokens[s] = token;
        self.live[s] = true;
        self.live_count += 1;
        self.demote[s] = false;
        self.progress[s] = false;
        self.cursors[s] = self.layout.system.monitor_cursor();
        self.traces[s] = Trace::empty();
        self.violations[s].clear();
        self.accepted[s] = 0;
        self.observed[s] = 0;
        for r in 0..self.layout.programs.len() {
            let idx = r * cap + s;
            self.pcs[idx] = self.layout.programs[r].program().entry();
            self.steps[idx] = 0;
            self.statuses[idx] = None;
            self.actions[idx].clear();
        }
        true
    }

    /// Steps the whole population in full passes until `budget` visible
    /// actions were performed (the last pass may overshoot) or no session
    /// is left. Each pass groups live endpoints by `(role, pc)` and steps
    /// every cohort once; a session whose endpoints all conclude, or that a
    /// full pass could not move (which for a self-contained session proves
    /// it can never progress again), leaves as a [`BatchOutcome`]; one that
    /// diverges (violation, runtime sort mismatch, an instruction the batch
    /// cannot run) leaves as a [`DemotedSession`].
    pub fn run_quantum(&mut self, budget: usize) -> BatchQuantum {
        let mut out = BatchQuantum::default();
        let layout = Arc::clone(&self.layout);
        while self.live_count > 0 && out.actions < budget {
            self.run_pass(&layout, &mut out);
            self.settle(&mut out);
        }
        for s in 0..self.cap {
            self.append_log(&layout, s);
        }
        out
    }

    /// Closes every live session (server shutdown): endpoints that had not
    /// concluded are marked stalled, and the outcome is flagged as such.
    pub fn close_all(&mut self) -> Vec<BatchOutcome> {
        let cap = self.cap;
        let n = self.layout.roles.len();
        let mut outcomes = Vec::with_capacity(self.live_count);
        for s in 0..cap {
            if !self.live[s] {
                continue;
            }
            let undone = (0..n).any(|r| self.statuses[r * cap + s].is_none());
            outcomes.push(self.extract_outcome(s, undone));
        }
        outcomes
    }

    /// Pulls one live session out of the batch by token (straggler-demotion
    /// handle, used by the handoff tests). Returns `None` for unknown
    /// tokens.
    pub fn demote_now(&mut self, token: u64) -> Option<DemotedSession> {
        let s = (0..self.cap).find(|&s| self.live[s] && self.tokens[s] == token)?;
        Some(self.extract_demoted(s))
    }

    /// Demotes **every** live session out of the batch (shard drain /
    /// migration): each leaves with its full resumable state, exactly as a
    /// mid-flight straggler demotion would, and the batch ends empty.
    pub fn demote_all(&mut self) -> Vec<DemotedSession> {
        let live: Vec<usize> = (0..self.cap).filter(|&s| self.live[s]).collect();
        live.into_iter().map(|s| self.extract_demoted(s)).collect()
    }

    fn run_pass(&mut self, layout: &BatchLayout, out: &mut BatchQuantum) {
        let cap = self.cap;
        let n = layout.roles.len();
        for flag in &mut self.progress {
            *flag = false;
        }
        for r in 0..n {
            let mut scratch = mem::take(&mut self.scratch);
            scratch.clear();
            for s in 0..cap {
                if self.live[s] && !self.demote[s] && self.statuses[r * cap + s].is_none() {
                    scratch.push((self.pcs[r * cap + s], s as u32));
                }
            }
            scratch.sort_unstable();
            let mut i = 0;
            while i < scratch.len() {
                let pc = scratch[i].0;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == pc {
                    j += 1;
                }
                out.cohorts += 1;
                out.cohort_sessions += j - i;
                let width = (j - i) as u64;
                out.cohort_widths[(64 - width.leading_zeros()).min(15) as usize] += 1;
                self.step_cohort(layout, r, pc, &scratch[i..j], out);
                i = j;
            }
            self.scratch = scratch;
        }
    }

    /// Steps one `(role, pc)` cohort: the instruction, template, peer index
    /// and wire label are resolved once, then the session loop touches only
    /// columns.
    fn step_cohort(
        &mut self,
        layout: &BatchLayout,
        r: usize,
        pc: u32,
        cohort: &[(u32, u32)],
        out: &mut BatchQuantum,
    ) {
        let cap = self.cap;
        let n = layout.roles.len();
        let program = &layout.programs[r];
        match &program.program().instrs()[pc as usize] {
            Instr::Finish => {
                for &(_, s) in cohort {
                    let s = s as usize;
                    self.statuses[r * cap + s] = Some(EndpointStatus::Finished);
                    self.progress[s] = true;
                }
            }
            Instr::Send {
                peer,
                label,
                payload,
                event,
                next,
            } => {
                let template = &program.templates()[*event as usize];
                let q = layout.peer_map[r][peer.index()] as usize;
                let wire = layout.label_wire[r][label.index()];
                for &(_, s) in cohort {
                    let site = (*event, template);
                    self.send_one(layout, r, s as usize, q, site, payload, wire, *next, out);
                }
            }
            Instr::Recv { peer, arms } => {
                let q = layout.peer_map[r][peer.index()] as usize;
                let ch = (q * n + r) * cap;
                for &(_, s) in cohort {
                    self.recv_one(layout, r, s as usize, q, arms, ch, out);
                }
            }
            _ => {
                for &(_, s) in cohort {
                    self.step_endpoint(layout, r, s as usize, out);
                }
            }
        }
    }

    /// The general path for internal instructions: mirrors one
    /// [`CompiledEndpointTask`](crate::cexec::CompiledEndpointTask) step —
    /// run the internal chain under fresh fuel counters, then perform at
    /// most one visible communication.
    fn step_endpoint(&mut self, layout: &BatchLayout, r: usize, s: usize, out: &mut BatchQuantum) {
        let cap = self.cap;
        let n = layout.roles.len();
        let idx = r * cap + s;
        let program = &layout.programs[r];
        let instrs = program.program().instrs();
        let mut admin = 0usize;
        let mut back_edges = 0usize;
        loop {
            match &instrs[self.pcs[idx] as usize] {
                Instr::Finish => {
                    self.statuses[idx] = Some(EndpointStatus::Finished);
                    self.progress[s] = true;
                    return;
                }
                Instr::Cond {
                    cond,
                    then_pc,
                    else_pc,
                } => {
                    let target = match cond
                        .eval_strided(&self.slots[r], cap, s)
                        .and_then(|v| v.as_bool())
                    {
                        Ok(true) => *then_pc,
                        Ok(false) => *else_pc,
                        Err(e) => {
                            self.fail(idx, s, RuntimeError::from(e));
                            return;
                        }
                    };
                    if let Err(e) = admin_tick(&mut admin, &mut back_edges, self.pcs[idx], target) {
                        self.fail(idx, s, e);
                        return;
                    }
                    self.pcs[idx] = target;
                }
                Instr::Send {
                    peer,
                    label,
                    payload,
                    event,
                    next,
                } => {
                    let template = &program.templates()[*event as usize];
                    let q = layout.peer_map[r][peer.index()] as usize;
                    let wire = layout.label_wire[r][label.index()];
                    let site = (*event, template);
                    self.send_one(layout, r, s, q, site, payload, wire, *next, out);
                    return;
                }
                Instr::Recv { peer, arms } => {
                    let q = layout.peer_map[r][peer.index()] as usize;
                    let ch = (q * n + r) * cap;
                    self.recv_one(layout, r, s, q, arms, ch, out);
                    return;
                }
                // External actions are excluded at layout time; if one is
                // ever reached the session leaves for the slab executor,
                // which can run it.
                _ => {
                    self.demote[s] = true;
                    return;
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send_one(
        &mut self,
        layout: &BatchLayout,
        r: usize,
        s: usize,
        q: usize,
        (event, template): (u32, &ActionTemplate),
        payload: &CExpr,
        wire: u32,
        next: u32,
        out: &mut BatchQuantum,
    ) {
        let cap = self.cap;
        let idx = r * cap + s;
        let ch = (r * layout.roles.len() + q) * cap;
        if let Some(limit) = self.options.max_steps {
            if self.steps[idx] >= limit {
                self.statuses[idx] = Some(EndpointStatus::StepLimitReached);
                self.progress[s] = true;
                return;
            }
        }
        let value = match payload.eval_strided(&self.slots[r], cap, s) {
            Ok(value) => value,
            Err(e) => {
                self.fail(idx, s, RuntimeError::from(e));
                return;
            }
        };
        let sort = sort_of_value(&value);
        if template.static_sort.as_ref() != Some(&sort) {
            // The pre-interned action is stale for this payload: demote
            // *before* performing the action, so the slab executor
            // re-evaluates and performs it identically (with the monitor
            // falling back to its own lookups).
            self.demote[s] = true;
            return;
        }
        let interned = template
            .interned
            .as_ref()
            .expect("batch-eligible templates are interned");
        let accepted = layout.system.observe_interned(&mut self.cursors[s], interned);
        self.note(layout, s, r, (event, true), accepted, &value);
        // The arena seam: by this point the send is observed and recorded —
        // exactly like a transport-level fault, which strikes after the
        // sender has committed the action.
        match self
            .arena_faults
            .as_mut()
            .and_then(|f| f.decide(&template.peer, &template.label))
        {
            Some(FaultKind::Drop) => {}
            Some(FaultKind::Duplicate) => {
                self.queues[ch + s].push(wire, value.clone());
                self.queues[ch + s].push(wire, value);
            }
            Some(FaultKind::Truncate) => self.queues[ch + s].push(CORRUPT_WIRE, value),
            _ => self.queues[ch + s].push(wire, value),
        }
        self.steps[idx] += 1;
        self.pcs[idx] = next;
        self.progress[s] = true;
        out.actions += 1;
        out.sends += 1;
        if !accepted {
            // Violation: the action was completed first (observed, recorded
            // and delivered), then the session leaves for the slab.
            self.demote[s] = true;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn recv_one(
        &mut self,
        layout: &BatchLayout,
        r: usize,
        s: usize,
        q: usize,
        arms: &[Arm],
        ch: usize,
        out: &mut BatchQuantum,
    ) {
        let cap = self.cap;
        let idx = r * cap + s;
        if let Some(limit) = self.options.max_steps {
            if self.steps[idx] >= limit {
                self.statuses[idx] = Some(EndpointStatus::StepLimitReached);
                self.progress[s] = true;
                return;
            }
        }
        let Some((wire, value)) = self.queues[ch + s].pop() else {
            // Blocked: no progress recorded, the pc stays put.
            return;
        };
        let Some(arm) = arms
            .iter()
            .find(|arm| layout.label_wire[r][arm.label.index()] == wire)
        else {
            // A wire id outside the label table is a corrupted frame (the
            // arena Truncate fault, or a bug), not a mis-labelled message.
            let err = match layout.labels.get(wire as usize) {
                Some(label) => RuntimeError::UnexpectedMessage {
                    from: layout.roles[q].clone(),
                    label: label.clone(),
                },
                None => RuntimeError::Codec {
                    reason: format!(
                        "corrupted frame in the batch arena from `{}` (wire id {wire})",
                        layout.roles[q]
                    ),
                },
            };
            self.fail(idx, s, err);
            return;
        };
        let template = &layout.programs[r].templates()[arm.event as usize];
        let sort = template
            .static_sort
            .as_ref()
            .expect("batch-eligible templates have static sorts");
        if !value.has_sort(sort) {
            self.fail(
                idx,
                s,
                RuntimeError::BadPayload {
                    from: layout.roles[q].clone(),
                    label: layout.labels[wire as usize].clone(),
                },
            );
            return;
        }
        let interned = template
            .interned
            .as_ref()
            .expect("batch-eligible templates are interned");
        let accepted = layout.system.observe_interned(&mut self.cursors[s], interned);
        self.note(layout, s, r, (arm.event, false), accepted, &value);
        self.slots[r][arm.slot as usize * cap + s] = value;
        self.steps[idx] += 1;
        self.pcs[idx] = arm.next;
        self.progress[s] = true;
        out.actions += 1;
        if !accepted {
            self.demote[s] = true;
        }
    }

    /// Mirrors [`CompiledMonitor`]'s observation bookkeeping on the
    /// session's columns for endpoint `r`'s action at site `event`, and logs
    /// the action when the session records.
    fn note(
        &mut self,
        layout: &BatchLayout,
        s: usize,
        r: usize,
        (event, send): (u32, bool),
        accepted: bool,
        value: &Value,
    ) {
        let position = self.observed[s];
        self.observed[s] += 1;
        if accepted {
            self.accepted[s] += 1;
        } else {
            // The monitor sees the action with its value erased.
            let action = erase(&site_action(layout, r, event, send, Value::Unit));
            self.violations[s].push(MonitorViolation {
                action,
                position,
                trace_len: self.accepted[s],
            });
        }
        if self.record {
            self.logs[s].push(Performed {
                value: value.clone(),
                role: r as u32,
                event,
                send,
                accepted,
            });
        }
    }

    /// Appends a session's log to its traces: each entry to its endpoint's
    /// value trace and, if the monitor accepted it, to the global trace.
    /// The log keeps its capacity.
    fn append_log(&mut self, layout: &BatchLayout, s: usize) {
        let mut log = mem::take(&mut self.logs[s]);
        for entry in log.drain(..) {
            let r = entry.role as usize;
            let action = site_action(layout, r, entry.event, entry.send, entry.value);
            if entry.accepted {
                self.traces[s].push(erase(&action));
            }
            self.actions[r * self.cap + s].push(action);
        }
        self.logs[s] = log;
    }

    fn fail(&mut self, idx: usize, s: usize, err: RuntimeError) {
        self.statuses[idx] = Some(EndpointStatus::Failed {
            error: err.to_string(),
        });
        self.progress[s] = true;
    }

    /// Post-pass bookkeeping: pull out demoted sessions, close concluded and
    /// permanently stuck ones.
    fn settle(&mut self, out: &mut BatchQuantum) {
        let cap = self.cap;
        let n = self.layout.roles.len();
        for s in 0..cap {
            if !self.live[s] {
                continue;
            }
            if self.demote[s] {
                let demoted = self.extract_demoted(s);
                out.demoted.push(demoted);
                continue;
            }
            let done = (0..n).all(|r| self.statuses[r * cap + s].is_some());
            // A full pass without progress on a self-contained session:
            // nothing can unblock it, so it is over where it stands.
            if done || !self.progress[s] {
                let outcome = self.extract_outcome(s, !done);
                out.finished.push(outcome);
            }
        }
    }

    fn extract_demoted(&mut self, s: usize) -> DemotedSession {
        let layout = Arc::clone(&self.layout);
        let cap = self.cap;
        let n = layout.roles.len();
        self.append_log(&layout, s);
        let mut endpoints = Vec::with_capacity(n);
        for r in 0..n {
            let idx = r * cap + s;
            let slot_count = layout.slot_counts[r];
            let mut slots = Vec::with_capacity(slot_count);
            for k in 0..slot_count {
                slots.push(mem::replace(&mut self.slots[r][k * cap + s], Value::Unit));
            }
            endpoints.push(DemotedEndpoint {
                role: layout.roles[r].clone(),
                program: Arc::clone(&layout.programs[r]),
                pc: self.pcs[idx],
                slots,
                actions: mem::take(&mut self.actions[idx]),
                steps: self.steps[idx],
                status: self.statuses[idx].take(),
            });
        }
        let monitor = CompiledMonitor::resume(
            Arc::clone(&layout.system),
            mem::replace(&mut self.cursors[s], layout.system.monitor_cursor()),
            mem::replace(&mut self.traces[s], Trace::empty()),
            self.accepted[s],
            mem::take(&mut self.violations[s]),
            self.observed[s],
            self.record,
        );
        let mut frames = Vec::new();
        for from in 0..n {
            for to in 0..n {
                let queue = &mut self.queues[(from * n + to) * cap + s];
                while let Some((wire, value)) = queue.pop() {
                    // A corrupted in-flight frame keeps a deliberately
                    // unknown label, so the slab receiver rejects it just
                    // as the batch receiver would have.
                    let label = layout
                        .labels
                        .get(wire as usize)
                        .cloned()
                        .unwrap_or_else(|| Label::new("\u{fffd}corrupt"));
                    frames.push((from as u32, to as u32, label, value));
                }
            }
        }
        let token = self.tokens[s];
        let options = self.options.clone();
        self.release(s);
        DemotedSession {
            token,
            options,
            endpoints,
            monitor,
            frames,
        }
    }

    fn extract_outcome(&mut self, s: usize, stalled: bool) -> BatchOutcome {
        let layout = Arc::clone(&self.layout);
        let cap = self.cap;
        let n = layout.roles.len();
        self.append_log(&layout, s);
        let mut endpoints = Vec::with_capacity(n);
        for r in 0..n {
            let idx = r * cap + s;
            endpoints.push(EndpointReport {
                role: layout.roles[r].clone(),
                actions: mem::take(&mut self.actions[idx]),
                status: self.statuses[idx].take().unwrap_or(EndpointStatus::Stalled),
            });
        }
        let compliant = self.violations[s].is_empty();
        let complete = layout.system.is_terminated(&self.cursors[s]);
        let outcome = BatchOutcome {
            token: self.tokens[s],
            endpoints,
            global_trace: mem::replace(&mut self.traces[s], Trace::empty()),
            compliant,
            complete,
            violations: mem::take(&mut self.violations[s]),
            stalled,
        };
        self.release(s);
        outcome
    }

    /// Returns a slot to the free list with its value cells scrubbed, so
    /// [`SessionBatch::admit`] can assume clean columns.
    fn release(&mut self, s: usize) {
        let cap = self.cap;
        let n = self.layout.roles.len();
        for r in 0..n {
            let idx = r * cap + s;
            self.actions[idx].clear();
            self.statuses[idx] = None;
            for k in 0..self.layout.slot_counts[r] {
                self.slots[r][k * cap + s] = Value::Unit;
            }
        }
        for ch in 0..n * n {
            self.queues[ch * cap + s].clear();
        }
        self.live[s] = false;
        self.live_count -= 1;
        self.free.push(s as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zooid_cfsm::System;
    use zooid_mpst::global::GlobalType;
    use zooid_mpst::Sort;
    use zooid_proc::{CompiledProc, Expr, Externals, Proc};

    /// `mu X. p -> q : tick(nat). X` with its two skeleton endpoints.
    fn ticker() -> Arc<BatchLayout> {
        let (p, q) = (Role::new("p"), Role::new("q"));
        let g = GlobalType::rec(GlobalType::msg1(
            p.clone(),
            q.clone(),
            "tick",
            Sort::Nat,
            GlobalType::var(0),
        ));
        let system = Arc::new(System::from_global(&g).unwrap().compile());
        let procs = [
            (&p, Proc::loop_(Proc::send(q.clone(), "tick", Expr::lit(0u64), Proc::Jump(0)))),
            (&q, Proc::loop_(Proc::recv1(p.clone(), "tick", Sort::Nat, "x", Proc::Jump(0)))),
        ];
        let programs = procs
            .iter()
            .map(|(role, proc)| {
                let compiled = CompiledProc::compile(proc, role, &Externals::new()).unwrap();
                Arc::new(EndpointProgram::with_system(Arc::new(compiled), &system))
            })
            .collect();
        BatchLayout::new([p.clone(), q.clone()].into(), programs, system).unwrap()
    }

    /// The step column is as wide as the slab's counter: an unbounded
    /// session steps past `u32::MAX` actions per endpoint, a limit above it
    /// is reached, and a demotion carries the true count.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn the_step_column_counts_past_u32_max() {
        let past = u32::MAX as usize + 1;
        let mut unbounded = SessionBatch::new(ticker(), ExecOptions::default(), 1);
        assert!(unbounded.admit(7));
        unbounded.steps.fill(u32::MAX as usize);
        assert_eq!(unbounded.run_quantum(2).actions, 2);
        let demoted = unbounded.demote_now(7).unwrap();
        assert!(demoted.endpoints.iter().all(|e| e.steps == past && e.status.is_none()));

        let mut bounded = SessionBatch::new(ticker(), ExecOptions::with_max_steps(past), 1);
        assert!(bounded.admit(7));
        bounded.steps.fill(u32::MAX as usize);
        let mut out = bounded.run_quantum(usize::MAX);
        assert_eq!(out.actions, 2);
        let outcome = out.finished.pop().unwrap();
        assert!(outcome
            .endpoints
            .iter()
            .all(|r| r.status == EndpointStatus::StepLimitReached));
    }
}
