//! Columnar batch execution: struct-of-arrays stepping for homogeneous
//! sessions.
//!
//! A per-session compiled executor (the runtime's `CompiledEndpointTask`,
//! now only an oracle) steps one endpoint of one session: one pointer chase
//! into the session's slot array, one `RefCell` borrow of its channel core
//! and one virtual port dispatch per action — per session. At serving
//! scale most live sessions run the *same* protocol and sit at the *same*
//! handful of program counters, so almost all of that per-session state is
//! redundant. This module splits a session population the other way:
//!
//! * the **skeleton** — the compiled per-role programs
//!   ([`EndpointProgram`]), the protocol's compiled transition tables and
//!   the derived routing tables ([`BatchLayout`]: dense peer indices and a
//!   batch-wide wire-label table) — is shared once per batch;
//! * the **variables** — program counters, the monitor's machine states,
//!   step counts, value slots, traces — live in struct-of-arrays *columns*
//!   indexed by session slot ([`SessionBatch`]). Value slots are laid out
//!   per-slot across sessions (`slots[slot * capacity + session]`), so a
//!   cohort of sessions executing the same instruction reads and writes
//!   contiguous memory.
//!
//! Each scheduling pass groups live endpoints by `(role, pc)` and steps
//! every cohort with a tight loop: the instruction, its
//! [`ActionTemplate`], the peer index and the
//! wire label are resolved **once per cohort**, and sends between co-batched
//! endpoints are index writes into a shared frame arena — no per-channel
//! `VecDeque` behind a `RefCell`, no role or label comparison, and
//! zero-hash monitoring via the pre-interned actions
//! ([`zooid_cfsm::CompiledSystem::transition`]).
//!
//! The monitor (§3.4) is one machine state per role and one FIFO per
//! ordered role pair. The states are a column beside the program counters,
//! and the FIFO is the frame arena itself: each frame carries the message
//! its send was observed as, and a receive is accepted only when the frame
//! it reads carries its own. A session holds each message in flight once.
//! The [`MonitorCursor`](zooid_cfsm::MonitorCursor) type appears only at
//! the boundary: extraction builds one from the columns and the arena.
//!
//! A pass visits live endpoints only. The batch keeps its occupied slots
//! in one dense, ascending list, and every per-pass loop — the cohort
//! gather, the post-pass settle and the end-of-quantum trace append —
//! walks that list, never the whole slot range, so empty slots cost memory
//! and no work. The columns are as wide as the traffic asks:
//! [`SessionBatch::grow`] re-strides every column to a larger capacity,
//! each session keeping its slot, its values and its frames in flight, so
//! a batch can start at one slot and double when it is full (CAST's
//! guard: the columnar form pays on long streams, so size the columns to
//! the stream). Ascending slot order is also the order the cohorts, the
//! `finished` and the `demoted` lists come out in.
//!
//! Every lowered cast has a layout: [`BatchLayout::new`] only checks that
//! there is one program per role, in role order. The batch then runs
//! whatever the per-session executor runs, with the same results:
//!
//! * `read`, `write` and `interact` call the endpoint's own [`Externals`],
//!   which [`SessionBatch::admit_with_externals`] stores in a column, and
//!   spend the same internal-action fuel;
//! * an action with no pre-interned form — its label or peer is not in the
//!   protocol, or a send's payload is not of the site's static sort — is
//!   interned against the protocol's tables when it happens, as the
//!   per-session monitor does, and an action that does not intern is
//!   rejected;
//! * a send to a role outside the session is observed, then fails its
//!   endpoint.
//!
//! A session leaves its batch one of two ways. One that is **over** is
//! closed where it stands, as a [`BatchOutcome`]: every endpoint concluded,
//! or a full pass made no progress — which for a self-contained session
//! proves none can ever come — and the endpoints still mid-protocol are
//! reported stalled. One whose monitor rejects an action is **demoted**
//! right after that action: its columns are gathered into a
//! [`DemotedSession`] carrying the program counters, slot values, action
//! traces, in-flight frames and the monitor state, which is all its
//! outcome needs. The same extraction takes live sessions out on request
//! ([`SessionBatch::demote_now`], [`SessionBatch::demote_all`]). No serving
//! path calls these two: they are what the oracles in `zooid-runtime` — the
//! session checkpoint codec and the durability suites — cut a session
//! with, and an extracted session continues only on the per-session
//! executor there. A session never re-enters a batch, and the server never
//! moves a live session.
//!
//! The frame arena is process memory written only by this module, so it
//! has no fault seam: every wire id in it was assigned by
//! [`BatchLayout::new`]. A batch's hostile input is its cast, which the
//! monitor judges.
//!
//! The per-session and tree executors remain the behavioural oracles: the
//! differential suite (`tests/batch_exec.rs`) checks statuses, per-endpoint
//! value traces and monitor verdicts agree in lockstep on case studies,
//! randomized projectable protocols, external actions and violating casts.

use std::collections::VecDeque;
use std::mem;
use std::sync::Arc;

use zooid_cfsm::{CompiledSystem, InternedAction};
use zooid_mpst::common::intern::{MsgId, RoleId};
use zooid_mpst::{Action, Label, Role, Sort, Trace};
use zooid_proc::compile::{Arm, CExpr, Instr};
use zooid_proc::{erase, sort_of_value, Externals, Value, ValueAction};

use crate::error::RuntimeError;
use crate::monitor::{CompiledMonitor, MonitorViolation};
use crate::program::{admin_tick, ActionTemplate, EndpointProgram};
use crate::report::{EndpointReport, EndpointStatus, ExecOptions};

/// The [`BatchLayout`] peer index of a role that is not a peer in the
/// session: one outside it, or the endpoint's own role.
const NO_PEER: u32 = u32::MAX;

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
    /// interned peer, [`NO_PEER`] for a role that is not one.
    peer_map: Vec<Vec<u32>>,
    /// `channels[from * n + to]` — the protocol's dense channel id for
    /// messages from batch role `from` to batch role `to`, if it has one:
    /// where a frame of that arena row sits in a monitor cursor.
    channels: Vec<Option<usize>>,
    /// Per-role slot counts (the per-role column heights).
    slot_counts: Vec<usize>,
    /// Whether some program calls external actions.
    calls_externals: bool,
}

impl BatchLayout {
    /// Derives the shared layout for one program per role. `roles` must be
    /// sorted and match the programs' roles positionally, else this is
    /// `None`. Any such program set runs; compiling the programs with
    /// [`EndpointProgram::with_system`] against the same `system` lets the
    /// batch monitor their actions without a lookup.
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
            if compiled.role() != &roles[r] {
                return None;
            }
            let snapshot = compiled.snapshot();
            let peers = snapshot
                .roles()
                .iter()
                .map(|role| match roles.binary_search(role) {
                    Ok(pos) if pos != r => pos as u32,
                    _ => NO_PEER,
                });
            peer_map.push(peers.collect());
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
        let calls_externals = programs.iter().any(|p| p.program().calls_externals());
        let channels = roles
            .iter()
            .flat_map(|from| roles.iter().map(|to| system.channel(from, to)))
            .collect();
        Some(Arc::new(BatchLayout {
            roles,
            programs,
            system,
            labels,
            label_wire,
            peer_map,
            channels,
            slot_counts,
            calls_externals,
        }))
    }

    /// The protocol's channel id of arena row `row` (`from * n + to`),
    /// which an observed message travelled on.
    fn channel(&self, row: usize) -> usize {
        self.channels[row].expect("an observed message travels on a protocol channel")
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

    /// Whether some program calls external actions: its sessions need
    /// their [`Externals`] at admission, and an extracted session does not
    /// carry them.
    pub fn calls_externals(&self) -> bool {
        self.calls_externals
    }
}

/// One message in flight: its wire label, its payload, and the message
/// the monitor observed its send as — `None` for a send the monitor
/// rejected, which it never queued.
#[derive(Debug)]
struct Frame {
    wire: u32,
    msg: Option<MsgId>,
    value: Value,
}

/// One session-indexed cell of the frame arena: an append-only buffer with
/// a read head — push is a `Vec` push, pop swaps the value out and bumps
/// the head, and the buffer resets once drained so capacity is reused.
#[derive(Debug, Default)]
struct FrameQueue {
    buf: Vec<Frame>,
    head: usize,
}

impl FrameQueue {
    fn push(&mut self, frame: Frame) {
        self.buf.push(frame);
    }

    /// The next frame to be read, left in place.
    fn front(&self) -> Option<&Frame> {
        self.buf.get(self.head)
    }

    fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    fn pop(&mut self) -> Option<Frame> {
        if self.head < self.buf.len() {
            let spent = Frame {
                wire: 0,
                msg: None,
                value: Value::Unit,
            };
            let frame = mem::replace(&mut self.buf[self.head], spent);
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

/// The action a session's monitor rejected, which ends the session. A
/// rejected receive has already taken its frame off the arena while the
/// monitor's queue still holds that message, so the rejection keeps the
/// arena row and the message for extraction to put back.
#[derive(Debug)]
struct Rejection {
    violation: MonitorViolation,
    unread: Option<(usize, MsgId)>,
}

/// What one [`SessionBatch::run_quantum`] call did: action counts for
/// metrics, the sessions that are over, the sessions demoted at a
/// violation, and cohort statistics (a cohort is one `(role, pc)` run of a
/// scheduling pass).
#[derive(Debug, Default)]
pub struct BatchQuantum {
    /// Visible communications performed (sends + receives).
    pub actions: usize,
    /// Sends among them (message-routing metric).
    pub sends: usize,
    /// Sessions that are over: every endpoint concluded, or no endpoint can
    /// ever progress again ([`BatchOutcome::stalled`]).
    pub finished: Vec<BatchOutcome>,
    /// Sessions pulled out right after their monitor rejected an action,
    /// with the state their outcome is read from: the monitor holds that
    /// one violation and a cursor built from the machine-state column and
    /// the arena, so a rejected send's frame is in `frames` only and a
    /// rejected receive's message in the cursor only. A session that
    /// merely cannot progress is not here — it closes in `finished`.
    pub demoted: Vec<DemotedSession>,
    /// Number of `(role, pc)` cohorts stepped.
    pub cohorts: usize,
    /// Total sessions across those cohorts (mean cohort width =
    /// `cohort_sessions / cohorts`).
    pub cohort_sessions: usize,
    /// Cohort-width distribution: `cohort_widths[b]` counts cohorts whose
    /// width fell in log2 bucket `b`, which holds widths in
    /// `[2^(b-1), 2^b)` (bucket 0 is unused — a cohort has at least one
    /// session; every width ≥ 2^14 lands in the last bucket, 15). The
    /// server folds this into its width histogram without touching the
    /// stepping loop.
    pub cohort_widths: [u64; 16],
}

/// The conclusion of one batched session: per-endpoint reports (in batch
/// role order), the monitor's verdicts and — when recording was on — the
/// compliant global trace.
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

impl BatchOutcome {
    /// The compliant global trace (empty when recording was off). Read it
    /// through this rather than the field: the representation under it may
    /// change, the accessor stays.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use zooid_cfsm::System;
    /// use zooid_engine::{BatchLayout, EndpointProgram, ExecOptions, SessionBatch};
    /// use zooid_mpst::global::GlobalType;
    /// use zooid_mpst::{Role, Sort};
    /// use zooid_proc::{CompiledProc, Expr, Externals, Proc, Value};
    ///
    /// let (alice, bob) = (Role::new("Alice"), Role::new("Bob"));
    /// let g = GlobalType::msg1(alice.clone(), bob.clone(), "hi", Sort::Nat, GlobalType::End);
    /// let system = Arc::new(System::from_global(&g).unwrap().compile());
    /// let procs = [
    ///     (&alice, Proc::send(bob.clone(), "hi", Expr::lit(Value::Nat(1)), Proc::Finish)),
    ///     (&bob, Proc::recv1(alice.clone(), "hi", Sort::Nat, "x", Proc::Finish)),
    /// ];
    /// let programs = procs
    ///     .iter()
    ///     .map(|(role, proc)| {
    ///         let compiled = CompiledProc::compile(proc, role, &Externals::new()).unwrap();
    ///         Arc::new(EndpointProgram::with_system(Arc::new(compiled), &system))
    ///     })
    ///     .collect();
    /// let roles = vec![alice.clone(), bob.clone()].into();
    /// let layout = BatchLayout::new(roles, programs, system).unwrap();
    /// let mut batch = SessionBatch::new(layout, ExecOptions::default(), 1);
    /// assert!(batch.admit(7));
    /// let outcome = batch.run_quantum(usize::MAX).finished.pop().unwrap();
    /// // Alice's send and Bob's receive.
    /// assert_eq!(outcome.global_trace().len(), 2);
    /// ```
    pub fn global_trace(&self) -> &Trace {
        &self.global_trace
    }
}

/// One endpoint's extracted execution state, ready for the runtime
/// oracle's `CompiledEndpointTask::resume`.
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

/// A session pulled out of a batch mid-flight: everything needed to
/// continue it on the per-session executor exactly where its columns left
/// off — per-endpoint state, the monitor mid-stream, and the frames that
/// were still in flight in the batch arena (per-channel FIFO order
/// preserved). Its external actions stay behind: a session continued from
/// one runs with none.
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

/// Widens a column of `rows` rows of `old` cells to rows of `cap` cells:
/// every cell moves to the same row and offset, and the new cells are
/// `fill()`.
fn restride<T>(
    column: &mut Vec<T>,
    rows: usize,
    old: usize,
    cap: usize,
    mut fill: impl FnMut() -> T,
) {
    debug_assert_eq!(column.len(), rows * old);
    let mut cells = mem::take(column).into_iter();
    let mut wider = Vec::with_capacity(rows * cap);
    for _ in 0..rows {
        wider.extend(cells.by_ref().take(old));
        wider.extend(std::iter::repeat_with(&mut fill).take(cap - old));
    }
    *column = wider;
}

/// The [`BatchQuantum::cohort_widths`] bucket of a cohort `width` sessions
/// wide.
fn width_bucket(width: usize) -> usize {
    ((usize::BITS - width.leading_zeros()) as usize).min(15)
}

/// The sort an action at `site` carrying `value` is recorded and observed
/// at, the one the per-session executor gives it: a send's payload's own
/// sort, a receive's declared sort.
fn site_sort(site: &ActionTemplate, send: bool, value: &Value) -> Sort {
    if send {
        sort_of_value(value)
    } else {
        site.static_sort
            .clone()
            .expect("a receive site carries its declared sort")
    }
}

/// Endpoint `r`'s value action at communication site `event` of its
/// program: the role, the site's peer and label, and `value` at
/// [`site_sort`].
fn site_action(layout: &BatchLayout, r: usize, event: u32, send: bool, value: Value) -> ValueAction {
    let site = &layout.programs[r].templates()[event as usize];
    let (me, peer, label) = (layout.roles[r].clone(), site.peer.clone(), site.label.clone());
    let sort = site_sort(site, send, &value);
    if send {
        ValueAction::send(me, peer, label, sort, value)
    } else {
        ValueAction::recv(me, peer, label, sort, value)
    }
}

/// The erasure of [`site_action`]: what the monitor sees.
fn site_erasure(layout: &BatchLayout, r: usize, event: u32, send: bool, value: &Value) -> Action {
    let site = &layout.programs[r].templates()[event as usize];
    let (me, peer, label) = (
        layout.roles[r].clone(),
        site.peer.clone(),
        site.label.clone(),
    );
    let sort = site_sort(site, send, value);
    if send {
        Action::send(me, peer, label, sort)
    } else {
        Action::recv(me, peer, label, sort)
    }
}

/// A growable population of homogeneous sessions stepped in columns.
///
/// All sessions share one [`BatchLayout`] and one [`ExecOptions`]; their
/// mutable state lives in struct-of-arrays columns indexed by session slot.
/// [`SessionBatch::admit`] claims a slot, [`SessionBatch::run_quantum`]
/// steps the live sessions in `(role, pc)` cohorts, and sessions leave as
/// [`BatchOutcome`]s (over: concluded or stalled) or [`DemotedSession`]s
/// (at a violation, or on request).
#[derive(Debug)]
pub struct SessionBatch {
    layout: Arc<BatchLayout>,
    options: ExecOptions,
    record: bool,
    cap: usize,
    // Session columns (one entry per slot).
    tokens: Vec<u64>,
    // The occupied slots, ascending: every per-pass loop walks this list.
    live_slots: Vec<u32>,
    free: Vec<u32>,
    traces: Vec<Trace>,
    // What each recording session performed since its traces were last
    // appended to, one small entry per action. A pass steps every live
    // session, so pushing each action straight onto its traces scatters
    // writes over every session's growing vectors; the logs stay small and
    // cache-resident, and the end of the quantum appends each to its
    // session's traces in one run.
    logs: Vec<Vec<Performed>>,
    // The action the monitor rejected, if any: the first ends the session,
    // so a live session has none, and one that has it is extracted at the
    // end of the pass. The monitor has observed `accepted` actions plus
    // this one.
    rejections: Vec<Option<Box<Rejection>>>,
    accepted: Vec<usize>,
    progress: Vec<bool>,
    // The monitor's machine states, indexed `machine * cap + slot` in the
    // protocol's machine order; the frame arena is its queue.
    mstates: Vec<u32>,
    // Endpoint columns, indexed `role * cap + slot`.
    pcs: Vec<u32>,
    steps: Vec<usize>,
    statuses: Vec<Option<EndpointStatus>>,
    actions: Vec<Vec<ValueAction>>,
    // Empty unless the layout calls external actions.
    externals: Vec<Externals>,
    // Value columns, per role, laid out per-slot across sessions:
    // `slots[role][slot_id * cap + slot]`.
    slots: Vec<Vec<Value>>,
    // Frame arena, indexed `(from * n + to) * cap + slot`.
    queues: Vec<FrameQueue>,
    // (pc, session) scratch for cohort grouping, reused across passes.
    scratch: Vec<(u32, u32)>,
    // Copy of `live_slots` that `settle` walks while extraction edits the
    // list, reused across passes.
    settling: Vec<u32>,
}

impl SessionBatch {
    /// Creates an empty batch with room for `capacity` sessions (at least
    /// 1). [`SessionBatch::grow`] widens it later, so a caller can start it
    /// at one slot and let its traffic size it.
    pub fn new(layout: Arc<BatchLayout>, options: ExecOptions, capacity: usize) -> Self {
        let n = layout.roles.len();
        let mut batch = SessionBatch {
            record: options.record_actions,
            options,
            cap: 0,
            tokens: Vec::new(),
            live_slots: Vec::new(),
            free: Vec::new(),
            traces: Vec::new(),
            logs: Vec::new(),
            rejections: Vec::new(),
            accepted: Vec::new(),
            progress: Vec::new(),
            mstates: Vec::new(),
            pcs: Vec::new(),
            steps: Vec::new(),
            statuses: Vec::new(),
            actions: Vec::new(),
            externals: Vec::new(),
            slots: (0..n).map(|_| Vec::new()).collect(),
            queues: Vec::new(),
            scratch: Vec::new(),
            settling: Vec::new(),
            layout,
        };
        batch.grow(capacity.max(1));
        batch
    }

    /// Widens every column to `capacity` slots. Each session keeps its
    /// slot, so the live list, cohort order and outcome order are
    /// unchanged, and its values, externals, machine states and frames in
    /// flight move with it: session columns are extended, and machine,
    /// endpoint and value columns and the frame arena are re-strided row by
    /// row. The new slots are claimed after the free ones, lowest first.
    /// Unclaimed slots hold placeholders that allocate nothing.
    ///
    /// # Panics
    ///
    /// If `capacity` is not larger than [`SessionBatch::capacity`].
    pub fn grow(&mut self, capacity: usize) {
        let (old, cap) = (self.cap, capacity);
        assert!(cap > old, "a batch only grows");
        let n = self.layout.roles.len();
        self.tokens.resize(cap, 0);
        self.traces.resize_with(cap, Trace::empty);
        self.logs.resize_with(cap, Vec::new);
        self.rejections.resize_with(cap, || None);
        self.accepted.resize(cap, 0);
        self.progress.resize(cap, false);
        let machines = self.layout.system.machine_count();
        restride(&mut self.mstates, machines, old, cap, || 0);
        restride(&mut self.pcs, n, old, cap, || 0);
        restride(&mut self.steps, n, old, cap, || 0);
        restride(&mut self.statuses, n, old, cap, || None);
        restride(&mut self.actions, n, old, cap, Vec::new);
        if self.layout.calls_externals {
            restride(&mut self.externals, n, old, cap, Externals::new);
        }
        for (column, &count) in self.slots.iter_mut().zip(&self.layout.slot_counts) {
            restride(column, count, old, cap, || Value::Unit);
        }
        restride(&mut self.queues, n * n, old, cap, FrameQueue::default);
        // The free list is a stack: the new slots go under it, lowest on top.
        let mut free: Vec<u32> = (old as u32..cap as u32).rev().collect();
        free.append(&mut self.free);
        self.free = free;
        self.cap = cap;
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
        self.live_slots.len()
    }

    /// Returns `true` if no slot is free.
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Returns `true` if no session is live.
    pub fn is_empty(&self) -> bool {
        self.live_slots.is_empty()
    }

    /// Admits a new session under the caller's `token` (any identifier;
    /// outcomes and demotions carry it back), with no external actions.
    /// Returns `false` when the batch is full.
    pub fn admit(&mut self, token: u64) -> bool {
        self.admit_with_externals(token, Vec::new())
    }

    /// Admits a new session whose endpoints call the given external
    /// actions, one [`Externals`] per role in batch role order (missing
    /// entries are empty; they are not kept at all when the layout calls
    /// none). Returns `false` when the batch is full.
    pub fn admit_with_externals(&mut self, token: u64, externals: Vec<Externals>) -> bool {
        let Some(s) = self.claim(token) else {
            return false;
        };
        let cap = self.cap;
        let system = &self.layout.system;
        for m in 0..system.machine_count() {
            self.mstates[m * cap + s] = system.initial_state(m);
        }
        self.traces[s] = Trace::empty();
        self.accepted[s] = 0;
        for r in 0..self.layout.programs.len() {
            let idx = r * cap + s;
            self.pcs[idx] = self.layout.programs[r].program().entry();
            self.steps[idx] = 0;
            self.statuses[idx] = None;
            self.actions[idx].clear();
        }
        if self.layout.calls_externals {
            for (r, externals) in externals.into_iter().enumerate() {
                self.externals[r * cap + s] = externals;
            }
        }
        true
    }

    /// Takes a free slot for `token` and enters it in the live list; the
    /// session columns are the caller's to fill.
    fn claim(&mut self, token: u64) -> Option<usize> {
        let slot = self.free.pop()?;
        let at = self.live_slots.partition_point(|&live| live < slot);
        self.live_slots.insert(at, slot);
        let s = slot as usize;
        self.tokens[s] = token;
        self.progress[s] = false;
        Some(s)
    }

    /// Steps the live sessions in full passes until `budget` visible
    /// actions were performed (the last pass may overshoot) or no session
    /// is left. Each pass groups live endpoints by `(role, pc)` and steps
    /// every cohort once; a session whose endpoints all conclude, or that a
    /// full pass could not move (which for a self-contained session proves
    /// it can never progress again), leaves as a [`BatchOutcome`]; one whose
    /// monitor rejects an action leaves as a [`DemotedSession`].
    ///
    /// Every loop of a pass, of its settle and of the final trace append
    /// walks the live-slot list, so a quantum costs what the live sessions
    /// cost: the batch's capacity bounds its memory, not this work.
    pub fn run_quantum(&mut self, budget: usize) -> BatchQuantum {
        let mut out = BatchQuantum::default();
        let layout = Arc::clone(&self.layout);
        while !self.live_slots.is_empty() && out.actions < budget {
            self.run_pass(&layout, &mut out);
            self.settle(&mut out);
        }
        for i in 0..self.live_slots.len() {
            self.append_log(&layout, self.live_slots[i] as usize);
        }
        out
    }

    /// Closes every live session (server shutdown): endpoints that had not
    /// concluded are marked stalled, and the outcome is flagged as such.
    pub fn close_all(&mut self) -> Vec<BatchOutcome> {
        let cap = self.cap;
        let n = self.layout.roles.len();
        let live = self.live_slots.clone();
        let mut outcomes = Vec::with_capacity(live.len());
        for s in live {
            let s = s as usize;
            let undone = (0..n).any(|r| self.statuses[r * cap + s].is_none());
            outcomes.push(self.extract_outcome(s, undone));
        }
        outcomes
    }

    /// Pulls one live session out of the batch by token. Returns `None`
    /// for unknown tokens.
    pub fn demote_now(&mut self, token: u64) -> Option<DemotedSession> {
        let s = *self.live_slots.iter().find(|&&s| self.tokens[s as usize] == token)?;
        Some(self.extract_demoted(s as usize))
    }

    /// Demotes **every** live session out of the batch: each leaves with
    /// its full resumable state, and the batch ends empty. The oracles and
    /// the benchmark's checkpoint replay cut sessions with it; the server
    /// does not.
    pub fn demote_all(&mut self) -> Vec<DemotedSession> {
        let live = self.live_slots.clone();
        live.into_iter().map(|s| self.extract_demoted(s as usize)).collect()
    }

    fn run_pass(&mut self, layout: &BatchLayout, out: &mut BatchQuantum) {
        let cap = self.cap;
        let n = layout.roles.len();
        for &s in &self.live_slots {
            self.progress[s as usize] = false;
        }
        for r in 0..n {
            let mut scratch = mem::take(&mut self.scratch);
            scratch.clear();
            for &s in &self.live_slots {
                let idx = r * cap + s as usize;
                if self.rejections[s as usize].is_none() && self.statuses[idx].is_none() {
                    scratch.push((self.pcs[idx], s));
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
                out.cohort_widths[width_bucket(j - i)] += 1;
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
                let q = layout.peer_map[r][peer.index()];
                let wire = layout.label_wire[r][label.index()];
                for &(_, s) in cohort {
                    let site = (*event, template);
                    self.send_one(layout, r, s as usize, q, site, payload, wire, *next, out);
                }
            }
            Instr::Recv { peer, arms } => {
                let q = layout.peer_map[r][peer.index()];
                for &(_, s) in cohort {
                    self.recv_one(layout, r, s as usize, (q, *peer), arms, out);
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
    /// `CompiledEndpointTask` step —
    /// run the internal chain (conditionals and external actions) under
    /// fresh fuel counters, then perform at most one visible communication.
    fn step_endpoint(&mut self, layout: &BatchLayout, r: usize, s: usize, out: &mut BatchQuantum) {
        let cap = self.cap;
        let idx = r * cap + s;
        let program = &layout.programs[r];
        let compiled = program.program();
        let mut admin = 0usize;
        let mut back_edges = 0usize;
        loop {
            let pc = self.pcs[idx];
            let (action, arg, slot, next) = match &compiled.instrs()[pc as usize] {
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
                    let target = cond
                        .eval_strided(&self.slots[r], cap, s)
                        .and_then(|v| v.as_bool())
                        .map_err(RuntimeError::from)
                        .map(|taken| if taken { *then_pc } else { *else_pc })
                        .and_then(|target| {
                            admin_tick(&mut admin, &mut back_edges, pc, target).map(|()| target)
                        });
                    match target {
                        Ok(target) => self.pcs[idx] = target,
                        Err(e) => return self.fail(idx, s, e),
                    }
                    continue;
                }
                Instr::Send {
                    peer,
                    label,
                    payload,
                    event,
                    next,
                } => {
                    let template = &program.templates()[*event as usize];
                    let q = layout.peer_map[r][peer.index()];
                    let wire = layout.label_wire[r][label.index()];
                    let site = (*event, template);
                    return self.send_one(layout, r, s, q, site, payload, wire, *next, out);
                }
                Instr::Recv { peer, arms } => {
                    let q = layout.peer_map[r][peer.index()];
                    return self.recv_one(layout, r, s, (q, *peer), arms, out);
                }
                Instr::Read { action, slot, next } => (*action, None, Some(*slot), *next),
                Instr::Write { action, arg, next } => (*action, Some(arg), None, *next),
                Instr::Interact {
                    action,
                    arg,
                    slot,
                    next,
                } => (*action, Some(arg), Some(*slot), *next),
            };
            // An external action: the same fuel, argument and call as the
            // per-session executor's, against this endpoint's externals.
            let result = admin_tick(&mut admin, &mut back_edges, pc, next).and_then(|()| {
                let arg = match arg {
                    Some(arg) => arg.eval_strided(&self.slots[r], cap, s)?,
                    None => Value::Unit,
                };
                let name = &compiled.action_names()[action as usize];
                Ok(self.externals[idx].call(name, arg)?)
            });
            match result {
                Ok(value) => {
                    if let Some(slot) = slot {
                        self.slots[r][slot as usize * cap + s] = value;
                    }
                    self.pcs[idx] = next;
                }
                Err(e) => return self.fail(idx, s, e),
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send_one(
        &mut self,
        layout: &BatchLayout,
        r: usize,
        s: usize,
        q: u32,
        (event, template): (u32, &ActionTemplate),
        payload: &CExpr,
        wire: u32,
        next: u32,
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
        let value = match payload.eval_strided(&self.slots[r], cap, s) {
            Ok(value) => value,
            Err(e) => return self.fail(idx, s, RuntimeError::from(e)),
        };
        // The pre-interned action stands for the payload only when the
        // payload has the site's static sort (it almost always does).
        let interned = match (&template.interned, &template.static_sort) {
            (Some(interned), Some(sort)) if *sort == sort_of_value(&value) => Some(interned),
            _ => None,
        };
        // Observed before the frame is in flight, as on every executor.
        let msg = self.observe(layout, s, r, (event, true), interned, &value, None);
        if q == NO_PEER {
            let role = template.peer.clone();
            return self.fail(idx, s, RuntimeError::UnknownPeer { role });
        }
        self.note(s, r, (event, true), msg.is_some(), &value);
        let row = r * layout.roles.len() + q as usize;
        self.queues[row * cap + s].push(Frame { wire, msg, value });
        self.steps[idx] += 1;
        self.pcs[idx] = next;
        self.progress[s] = true;
        out.actions += 1;
        out.sends += 1;
    }

    fn recv_one(
        &mut self,
        layout: &BatchLayout,
        r: usize,
        s: usize,
        (q, peer): (u32, RoleId),
        arms: &[Arm],
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
        if q == NO_PEER {
            let role = layout.programs[r].program().snapshot().role(peer).clone();
            return self.fail(idx, s, RuntimeError::UnknownPeer { role });
        }
        let q = q as usize;
        let row = q * layout.roles.len() + r;
        let Some(frame) = self.queues[row * cap + s].front() else {
            // Blocked: no progress recorded, the pc stays put.
            return;
        };
        // A receive that fails before it is observed leaves its frame at
        // the head, where the monitor's queue still has it; the endpoint
        // has failed and never reads the channel again.
        let wire = frame.wire;
        let Some(arm) = arms
            .iter()
            .find(|arm| layout.label_wire[r][arm.label.index()] == wire)
        else {
            // Every wire id in the arena was assigned by `BatchLayout::new`.
            let err = RuntimeError::UnexpectedMessage {
                from: layout.roles[q].clone(),
                label: layout.labels[wire as usize].clone(),
            };
            return self.fail(idx, s, err);
        };
        let template = &layout.programs[r].templates()[arm.event as usize];
        let sort = template
            .static_sort
            .as_ref()
            .expect("a receive site carries its declared sort");
        if !frame.value.has_sort(sort) {
            let err = RuntimeError::BadPayload {
                from: layout.roles[q].clone(),
                label: layout.labels[wire as usize].clone(),
            };
            return self.fail(idx, s, err);
        }
        let Frame { msg, value, .. } = self.queues[row * cap + s].pop().expect("the head frame");
        let interned = template.interned.as_ref();
        let read = Some((row, msg));
        let msg = self.observe(layout, s, r, (arm.event, false), interned, &value, read);
        self.note(s, r, (arm.event, false), msg.is_some(), &value);
        self.slots[r][arm.slot as usize * cap + s] = value;
        self.steps[idx] += 1;
        self.pcs[idx] = arm.next;
        self.progress[s] = true;
        out.actions += 1;
    }

    /// Feeds endpoint `r`'s action at site `event` to the session's
    /// monitor and returns the message it was observed as, or `None` if
    /// the monitor rejects it. The action goes through `interned` when the
    /// site's pre-interned action stands for it, else it is interned now
    /// (one that does not intern is rejected), and
    /// [`CompiledSystem::transition`] moves its machine's state in the
    /// column. The arena is the monitor's queue: a receive passes `read`,
    /// the arena row its frame came off and the message that frame
    /// carries, and is accepted only if that is its own message. A
    /// rejection ends the session: it is kept, with a rejected receive's
    /// message, for the extraction at the end of the pass.
    #[allow(clippy::too_many_arguments)]
    fn observe(
        &mut self,
        layout: &BatchLayout,
        s: usize,
        r: usize,
        (event, send): (u32, bool),
        interned: Option<&InternedAction>,
        value: &Value,
        read: Option<(usize, Option<MsgId>)>,
    ) -> Option<MsgId> {
        let action = match interned {
            Some(interned) => Some(*interned),
            None => layout
                .system
                .intern_action(&site_erasure(layout, r, event, send, value)),
        };
        let accepted = action.and_then(|action| {
            let state = &mut self.mstates[action.machine() * self.cap + s];
            let target = layout.system.transition(*state, &action)?;
            if read.is_some_and(|(_, head)| head != Some(action.msg())) {
                return None;
            }
            *state = target;
            Some(action.msg())
        });
        if accepted.is_some() {
            self.accepted[s] += 1;
        } else {
            let trace_len = self.accepted[s];
            self.rejections[s] = Some(Box::new(Rejection {
                violation: MonitorViolation {
                    action: site_erasure(layout, r, event, send, value),
                    position: trace_len,
                    trace_len,
                },
                unread: read.and_then(|(row, head)| Some((row, head?))),
            }));
        }
        accepted
    }

    /// Logs endpoint `r`'s completed action at site `event` when the
    /// session records.
    fn note(
        &mut self,
        s: usize,
        r: usize,
        (event, send): (u32, bool),
        accepted: bool,
        value: &Value,
    ) {
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
    /// permanently stuck ones. Extraction edits the live list, so this walks
    /// a copy of it.
    fn settle(&mut self, out: &mut BatchQuantum) {
        let cap = self.cap;
        let n = self.layout.roles.len();
        let mut settling = mem::take(&mut self.settling);
        settling.clear();
        settling.extend_from_slice(&self.live_slots);
        for &s in &settling {
            let s = s as usize;
            if self.rejections[s].is_some() {
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
        self.settling = settling;
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
        // The cursor, built from the machine-state column and the arena: a
        // rejected send's frame was never queued, and a rejected receive's
        // message still is, at the head of its channel.
        let system = &layout.system;
        let states = (0..system.machine_count())
            .map(|m| self.mstates[m * cap + s])
            .collect();
        let mut queued = vec![VecDeque::new(); system.channel_count()];
        let mut frames = Vec::new();
        for from in 0..n {
            for to in 0..n {
                let row = from * n + to;
                let queue = &mut self.queues[row * cap + s];
                while let Some(Frame { wire, msg, value }) = queue.pop() {
                    if let Some(msg) = msg {
                        queued[layout.channel(row)].push_back(msg);
                    }
                    let label = layout.labels[wire as usize].clone();
                    frames.push((from as u32, to as u32, label, value));
                }
            }
        }
        let (violations, unread) = match self.rejections[s].take() {
            Some(rejection) => (vec![rejection.violation], rejection.unread),
            None => (Vec::new(), None),
        };
        if let Some((row, msg)) = unread {
            queued[layout.channel(row)].push_front(msg);
        }
        let cursor = system
            .restore_cursor(states, queued)
            .expect("the columns hold a cursor of the batch's protocol");
        let observed = self.accepted[s] + violations.len();
        let monitor = CompiledMonitor::resume(
            Arc::clone(system),
            cursor,
            mem::replace(&mut self.traces[s], Trace::empty()),
            self.accepted[s],
            violations,
            observed,
            self.record,
        );
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
                steps: self.steps[idx],
                status: self.statuses[idx].take().unwrap_or(EndpointStatus::Stalled),
            });
        }
        // Terminated: every machine final and every channel drained, the
        // arena being the monitor's queue.
        let system = &layout.system;
        let complete = (0..system.machine_count())
            .all(|m| system.is_final(m, self.mstates[m * cap + s]))
            && (0..n * n).all(|row| self.queues[row * cap + s].is_empty());
        let violations: Vec<MonitorViolation> =
            self.rejections[s].take().map(|r| r.violation).into_iter().collect();
        let outcome = BatchOutcome {
            token: self.tokens[s],
            endpoints,
            global_trace: mem::replace(&mut self.traces[s], Trace::empty()),
            compliant: violations.is_empty(),
            complete,
            violations,
            stalled,
        };
        self.release(s);
        outcome
    }

    /// Returns a slot to the free list with its value cells and externals
    /// scrubbed, so admission can assume clean columns.
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
            if self.layout.calls_externals {
                self.externals[idx] = Externals::new();
            }
        }
        for ch in 0..n * n {
            self.queues[ch * cap + s].clear();
        }
        let slot = s as u32;
        let at = self.live_slots.binary_search(&slot).expect("a released slot is live");
        self.live_slots.remove(at);
        self.free.push(slot);
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

    /// The step column is as wide as the per-session counter: an unbounded
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

    #[test]
    fn cohort_width_buckets_are_log2_and_saturate_at_15() {
        for (width, bucket) in [(1, 1), (2, 2), (3, 2), (16_384, 15), (40_000, 15)] {
            assert_eq!(width_bucket(width), bucket, "width {width}");
        }
    }

    /// The live list is the batch's only record of which slots are
    /// occupied: after every call it must equal the ascending set of slots
    /// not on the free list, and carry exactly the tokens still inside.
    #[test]
    fn the_live_list_tracks_occupied_slots_through_a_seeded_run() {
        fn check(batch: &SessionBatch, inside: &std::collections::BTreeSet<u64>) {
            let occupied: Vec<u32> =
                (0..batch.cap as u32).filter(|s| !batch.free.contains(s)).collect();
            assert_eq!(batch.live_slots, occupied);
            let tokens: std::collections::BTreeSet<u64> =
                batch.live_slots.iter().map(|&s| batch.tokens[s as usize]).collect();
            assert_eq!(&tokens, inside);
            assert_eq!(batch.live_count(), inside.len());
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut batch = SessionBatch::new(ticker(), ExecOptions::with_max_steps(6), 1);
        let mut inside = std::collections::BTreeSet::new();
        let mut token = 0u64;
        for _ in 0..2_000 {
            // Grown at random steps, with sessions and frames in flight.
            if batch.capacity() < 64 && next(12) == 0 {
                let wider = batch.capacity() + 1 + next(batch.capacity() as u64) as usize;
                batch.grow(wider);
                check(&batch, &inside);
            }
            match next(10) {
                0..=4 => {
                    if batch.admit(token) {
                        inside.insert(token);
                    } else {
                        let full = batch.capacity();
                        assert_eq!(inside.len(), full, "admission fails only when full");
                    }
                    token += 1;
                }
                5..=7 => {
                    let out = batch.run_quantum(next(8) as usize + 1);
                    for t in out.finished.iter().map(|o| o.token) {
                        assert!(inside.remove(&t), "session {t} closed twice");
                    }
                    for t in out.demoted.iter().map(|d| d.token) {
                        assert!(inside.remove(&t), "session {t} demoted twice");
                    }
                }
                8 => {
                    let Some(&t) = inside.iter().nth(next(inside.len().max(1) as u64) as usize)
                    else {
                        continue;
                    };
                    assert_eq!(batch.demote_now(t).map(|d| d.token), Some(t));
                    inside.remove(&t);
                }
                _ => {
                    let closed = batch.close_all();
                    assert_eq!(closed.len(), inside.len());
                    inside.clear();
                }
            }
            check(&batch, &inside);
        }
    }
}
