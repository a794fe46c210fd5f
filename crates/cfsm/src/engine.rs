//! The interned CFSM state-space engine.
//!
//! [`System::explore_exhaustive`] walks configurations represented as
//! `BTreeMap<(Role, Role), VecDeque<(Label, Sort)>>` — every step deep-clones
//! role strings, labels and sorts, and every visited-set probe hashes them
//! again. This module compiles a [`System`] once into dense tables so the
//! hot loop never touches a string:
//!
//! * machine states are `u32`s into per-state transition tables;
//! * every `(Label, Sort)` message payload is interned to a dense
//!   [`MsgId`] via the shared [`zooid_mpst::Interner`], so matching a queued
//!   message against an expected one is a single integer comparison;
//! * every ordered `(sender, receiver)` pair that can ever carry a message
//!   gets a dense channel id, so a configuration's channels are an indexed
//!   `Vec` of `MsgId` buffers instead of a `BTreeMap` keyed on role pairs;
//! * the visited set is an `FxHashMap` over the packed configurations, and
//!   every configuration records the (parent, action) edge that first
//!   discovered it, so each violation comes with a shortest replayable
//!   counterexample trace back to the initial configuration.
//!
//! The engine implements exactly the same bounded-FIFO (and, at bound 0,
//! rendezvous) semantics as [`System::successors`]; the differential tests
//! check both explorers agree on verdicts, counts and violating
//! configurations, and that every counterexample trace replays through
//! [`System::successors`].
//!
//! On top of the plain BFS the engine offers two faster exploration modes
//! that preserve verdicts (but not configuration counts or trace shapes):
//!
//! * [`CompiledSystem::explore_por`] applies an ample-set **partial-order
//!   reduction**: at a configuration where some machine's entire transition
//!   set is receives on a single channel whose head matches exactly one of
//!   them, only that receive is expanded. Such a step commutes with every
//!   other enabled action of a FIFO system, the machine can take no other
//!   first action until it fires, and ample steps strictly shrink the total
//!   queue volume (so no cycle of the reduced graph consists of reduced
//!   steps only — the standard cycle proviso holds structurally). Deadlocks,
//!   orphans, reception errors, reachability of termination and the
//!   liveness fixpoint are all preserved; see the module tests and
//!   `tests/differential_modes.rs`.
//! * [`CompiledSystem::explore_parallel`] (in [`crate::parallel`]) runs the
//!   reduced exploration on a work-stealing frontier over N threads with a
//!   sharded visited map.

use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};

use zooid_mpst::common::intern::{FxHashMap, FxHasher, MsgId, RoleId};
use zooid_mpst::{Action, Interner, InternerSnapshot};

use crate::machine::{CfsmAction, Direction};
use crate::system::{
    ExplorationOutcome, System, SystemConfig, TraceStep, Violation, ViolationKind,
};

/// A compiled transition: everything the exploration loop needs, as ids.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CTrans {
    /// Send or receive.
    pub(crate) dir: Direction,
    /// Dense id of the channel the message travels on.
    pub(crate) channel: u32,
    /// Interned `(label, sort)` payload.
    pub(crate) msg: MsgId,
    /// Machine state after the transition.
    pub(crate) target: u32,
    /// Index of the partner's machine, or `u32::MAX` if no machine in the
    /// system implements the partner role.
    partner_machine: u32,
}

/// Endpoints of a dense channel id, for decoding configurations back into
/// role-keyed form.
#[derive(Debug, Clone, Copy)]
struct ChannelInfo {
    from: RoleId,
    to: RoleId,
}

/// A packed configuration: machine states as `u32`s plus one message-id
/// buffer per dense channel, with the 64-bit FxHash of that content cached
/// inline. Cloning never touches a string, and hashing (visited-set probes,
/// shard routing in the parallel explorer) writes the cached word instead of
/// re-walking the vectors.
///
/// Invariant: `hash == Self::content_hash(&states, &queues)` whenever the
/// configuration is compared or inserted anywhere. [`PackedConfig::rehash`]
/// restores it after in-place mutation.
#[derive(Debug, Clone)]
pub(crate) struct PackedConfig {
    hash: u64,
    pub(crate) states: Vec<u32>,
    pub(crate) queues: Vec<Vec<MsgId>>,
}

impl PartialEq for PackedConfig {
    fn eq(&self, other: &Self) -> bool {
        // The cached hash is a function of the content: compare it first as
        // a cheap reject, then confirm on the content itself.
        self.hash == other.hash && self.states == other.states && self.queues == other.queues
    }
}

impl Eq for PackedConfig {}

impl Hash for PackedConfig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PackedConfig {
    pub(crate) fn new(states: Vec<u32>, queues: Vec<Vec<MsgId>>) -> Self {
        let mut cfg = PackedConfig {
            hash: 0,
            states,
            queues,
        };
        cfg.rehash();
        cfg
    }

    fn content_hash(states: &[u32], queues: &[Vec<MsgId>]) -> u64 {
        let mut h = FxHasher::default();
        for &s in states {
            h.write_u32(s);
        }
        for q in queues {
            // Length-prefix each buffer so shifting a message between
            // channels cannot collide by concatenation.
            h.write_usize(q.len());
            for &m in q {
                h.write_u32(m.index() as u32);
            }
        }
        h.finish()
    }

    /// Recomputes the cached hash after in-place mutation of `states` or
    /// `queues`.
    pub(crate) fn rehash(&mut self) {
        self.hash = Self::content_hash(&self.states, &self.queues);
    }

    /// The cached 64-bit content hash (shard routing key of the parallel
    /// explorer).
    pub(crate) fn cached_hash(&self) -> u64 {
        self.hash
    }

    pub(crate) fn all_queues_empty(&self) -> bool {
        self.queues.iter().all(Vec::is_empty)
    }
}

/// A [`System`] compiled into dense per-state transition tables over interned
/// action ids, ready for repeated exploration.
///
/// # Examples
///
/// ```
/// use zooid_cfsm::{Cfsm, CompiledSystem, System};
/// use zooid_mpst::local::LocalType;
/// use zooid_mpst::{Role, Sort};
///
/// let p = Cfsm::from_local_type(
///     Role::new("p"),
///     &LocalType::send1(Role::new("q"), "l", Sort::Nat, LocalType::End),
/// )
/// .unwrap();
/// let q = Cfsm::from_local_type(
///     Role::new("q"),
///     &LocalType::recv1(Role::new("p"), "l", Sort::Nat, LocalType::End),
/// )
/// .unwrap();
/// let system = System::new(vec![p, q]).unwrap();
/// let outcome = CompiledSystem::compile(&system).explore(2, 10_000);
/// assert!(outcome.is_safe());
/// ```
#[derive(Debug)]
pub struct CompiledSystem {
    /// Read-only snapshot of the interner the tables were compiled against.
    /// Workers of the parallel explorer share it freely (`Send + Sync`)
    /// without ever touching the live hash-consing maps.
    snapshot: InternerSnapshot,
    /// Role of each machine, in system order.
    roles: Vec<zooid_mpst::Role>,
    /// Initial state of each machine.
    initial: Vec<u32>,
    /// `finals[m][s]` ⟺ state `s` of machine `m` is final.
    finals: Vec<Vec<bool>>,
    /// `tables[m][s]` = transitions leaving state `s` of machine `m`, in the
    /// same order as [`crate::Cfsm::transitions_from`].
    tables: Vec<Vec<Vec<CTrans>>>,
    /// Endpoints of each dense channel id.
    channels: Vec<ChannelInfo>,
    /// Machine index of each interned role.
    machine_of_role: FxHashMap<RoleId, u32>,
    /// Dense channel id of each ordered `(sender, receiver)` pair that can
    /// carry a message.
    channel_ids: FxHashMap<(RoleId, RoleId), u32>,
}

impl CompiledSystem {
    /// Compiles a system into dense transition tables.
    pub fn compile(system: &System) -> Self {
        let machines = system.machines();
        let mut interner = Interner::new();
        let roles: Vec<_> = machines.iter().map(|m| m.role().clone()).collect();
        let role_ids: Vec<RoleId> = roles.iter().map(|r| interner.role_id(r)).collect();
        let mut machine_of_role: FxHashMap<RoleId, u32> = FxHashMap::default();
        for (idx, &rid) in role_ids.iter().enumerate() {
            machine_of_role.insert(rid, idx as u32);
        }

        let mut channels: Vec<ChannelInfo> = Vec::new();
        let mut channel_ids: FxHashMap<(RoleId, RoleId), u32> = FxHashMap::default();
        let mut tables = Vec::with_capacity(machines.len());
        let mut finals = Vec::with_capacity(machines.len());
        let mut initial = Vec::with_capacity(machines.len());

        for (m, machine) in machines.iter().enumerate() {
            let mut table: Vec<Vec<CTrans>> = vec![Vec::new(); machine.state_count()];
            for (src, action, dst) in machine.transitions() {
                let partner = interner.role_id(&action.partner);
                let endpoints = match action.direction {
                    Direction::Send => (role_ids[m], partner),
                    Direction::Recv => (partner, role_ids[m]),
                };
                let channel = *channel_ids.entry(endpoints).or_insert_with(|| {
                    let id = u32::try_from(channels.len()).expect("channel table overflow");
                    channels.push(ChannelInfo {
                        from: endpoints.0,
                        to: endpoints.1,
                    });
                    id
                });
                let label = interner.label_id(&action.label);
                let sort = interner.sort_id(&action.sort);
                let msg = interner.msg_id(label, sort);
                table[*src].push(CTrans {
                    dir: action.direction,
                    channel,
                    msg,
                    target: u32::try_from(*dst).expect("state table overflow"),
                    partner_machine: machine_of_role.get(&partner).copied().unwrap_or(u32::MAX),
                });
            }
            let mut fin = vec![false; machine.state_count()];
            for &s in machine.final_states() {
                fin[s] = true;
            }
            tables.push(table);
            finals.push(fin);
            initial.push(u32::try_from(machine.initial()).expect("state table overflow"));
        }

        CompiledSystem {
            snapshot: interner.snapshot(),
            roles,
            initial,
            finals,
            tables,
            channels,
            machine_of_role,
            channel_ids,
        }
    }

    /// The role of each machine, in system order.
    pub fn roles(&self) -> &[zooid_mpst::Role] {
        &self.roles
    }

    /// Number of machines in the compiled system.
    pub fn machine_count(&self) -> usize {
        self.roles.len()
    }

    /// Number of dense channel ids (ordered role pairs that can ever carry a
    /// message).
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    pub(crate) fn initial_config(&self) -> PackedConfig {
        PackedConfig::new(self.initial.clone(), vec![Vec::new(); self.channels.len()])
    }

    pub(crate) fn is_final(&self, cfg: &PackedConfig) -> bool {
        cfg.all_queues_empty()
            && cfg
                .states
                .iter()
                .enumerate()
                .all(|(m, &s)| self.finals[m][s as usize])
    }

    /// Whether state `s` of machine `m` is final.
    pub(crate) fn machine_is_final(&self, m: usize, s: u32) -> bool {
        self.finals[m][s as usize]
    }

    /// Returns `true` if every machine is in a final state (queues are not
    /// inspected) — the orphan-message half of the terminal classification.
    pub(crate) fn all_machines_final(&self, cfg: &PackedConfig) -> bool {
        cfg.states
            .iter()
            .enumerate()
            .all(|(m, &s)| self.machine_is_final(m, s))
    }

    /// Classifies a terminal (successor-less, non-final) configuration,
    /// mirroring the exhaustive explorer's rules: empty queues mean a
    /// deadlock, all-final machines with messages left mean an orphan, and
    /// a stuck configuration with messages in flight but no reception
    /// error is reported as a deadlock (possibly a bound artefact).
    ///
    /// Shared by the sequential and parallel explorers so the verdict
    /// semantics cannot drift apart.
    pub(crate) fn classify_terminal(
        &self,
        cfg: &PackedConfig,
        unspec: bool,
    ) -> Option<ViolationKind> {
        if cfg.all_queues_empty() {
            Some(ViolationKind::Deadlock)
        } else if self.all_machines_final(cfg) {
            Some(ViolationKind::OrphanMessage)
        } else if !unspec {
            Some(ViolationKind::Deadlock)
        } else {
            None
        }
    }

    /// Enumerates the successors of `cfg` into `out`, in the same order as
    /// [`System::successors`]: machines in system order, each machine's
    /// transitions in table order.
    pub(crate) fn successors(
        &self,
        cfg: &PackedConfig,
        bound: usize,
        out: &mut Vec<(PackedConfig, u32, CTrans)>,
    ) {
        out.clear();
        for m in 0..self.roles.len() {
            let state = cfg.states[m] as usize;
            for &t in &self.tables[m][state] {
                match t.dir {
                    // Rendezvous semantics at bound 0: a send fires together
                    // with a matching receive of the partner, atomically.
                    Direction::Send if bound == 0 => {
                        if t.partner_machine == u32::MAX {
                            continue;
                        }
                        let pm = t.partner_machine as usize;
                        let pstate = cfg.states[pm] as usize;
                        for &rt in &self.tables[pm][pstate] {
                            if rt.dir == Direction::Recv
                                && rt.channel == t.channel
                                && rt.msg == t.msg
                            {
                                let mut next = cfg.clone();
                                next.states[m] = t.target;
                                next.states[pm] = rt.target;
                                next.rehash();
                                out.push((next, m as u32, t));
                            }
                        }
                    }
                    Direction::Send => {
                        if cfg.queues[t.channel as usize].len() >= bound {
                            continue;
                        }
                        let mut next = cfg.clone();
                        next.states[m] = t.target;
                        next.queues[t.channel as usize].push(t.msg);
                        next.rehash();
                        out.push((next, m as u32, t));
                    }
                    Direction::Recv => {
                        if cfg.queues[t.channel as usize].first() != Some(&t.msg) {
                            continue;
                        }
                        let mut next = cfg.clone();
                        next.states[m] = t.target;
                        next.queues[t.channel as usize].remove(0);
                        next.rehash();
                        out.push((next, m as u32, t));
                    }
                }
            }
        }
    }

    /// Ample-set selection for the partial-order reduction: returns a
    /// machine (and its single enabled receive) whose expansion alone is
    /// sufficient at `cfg`, or `None` when the configuration must be
    /// expanded in full.
    ///
    /// A machine `m` in state `s` is *ample* when
    ///
    /// 1. every transition of `m` from `s` is a **receive on one channel**
    ///    `c` (so no other first action of `m` can ever become enabled
    ///    before the head of `c` is consumed — the singleton is persistent);
    /// 2. the head of `c` exists and matches **exactly one** of those
    ///    transitions (FIFO head determinism; a second match would drop a
    ///    nondeterministic branch).
    ///
    /// Such a receive commutes with every other enabled action: peers'
    /// sends append to tails (and a pop can only *enable* a bounded send,
    /// never disable one), peers' receives pop channels with a different
    /// receiver, and `m` itself has no alternative. Because an ample step
    /// strictly decreases the total queued-message count, no cycle of the
    /// reduced graph consists of ample steps only — the cycle proviso that
    /// prevents the classic "ignoring problem" holds structurally, without
    /// bookkeeping.
    ///
    /// At `bound == 0` (rendezvous) every queue is permanently empty, so
    /// condition 2 never holds and the reduction naturally degenerates to
    /// the full exploration; the early return just makes that explicit.
    ///
    /// Reception errors are never masked: if the head matches *zero*
    /// transitions the machine is skipped (and the caller flags the
    /// configuration via [`CompiledSystem::has_unspecified_reception`]),
    /// while errors at other machines survive an ample step untouched —
    /// the step pops only channel `c`, whose sole receiver is `m`.
    pub(crate) fn ample(&self, cfg: &PackedConfig, bound: usize) -> Option<(u32, CTrans)> {
        if bound == 0 {
            return None;
        }
        'machines: for m in 0..self.roles.len() {
            let table = &self.tables[m][cfg.states[m] as usize];
            let Some(first) = table.first() else {
                continue;
            };
            let channel = first.channel;
            let mut chosen: Option<CTrans> = None;
            for &t in table {
                if t.dir != Direction::Recv || t.channel != channel {
                    continue 'machines;
                }
                if Some(&t.msg) == cfg.queues[channel as usize].first() {
                    if chosen.is_some() {
                        // Two matching receives: expanding one would drop a
                        // genuine nondeterministic branch.
                        continue 'machines;
                    }
                    chosen = Some(t);
                }
            }
            if let Some(t) = chosen {
                return Some((m as u32, t));
            }
        }
        None
    }

    /// Applies an ample receive step, producing the single reduced
    /// successor.
    pub(crate) fn apply_ample(&self, cfg: &PackedConfig, m: u32, t: CTrans) -> PackedConfig {
        debug_assert_eq!(t.dir, Direction::Recv);
        let mut next = cfg.clone();
        next.states[m as usize] = t.target;
        next.queues[t.channel as usize].remove(0);
        next.rehash();
        next
    }

    /// Enumerates successors with the partial-order reduction applied when
    /// `reduce` is set: an ample configuration expands to its single ample
    /// step, everything else expands in full.
    pub(crate) fn expand(
        &self,
        cfg: &PackedConfig,
        bound: usize,
        reduce: bool,
        out: &mut Vec<(PackedConfig, u32, CTrans)>,
    ) {
        if reduce {
            if let Some((m, t)) = self.ample(cfg, bound) {
                out.clear();
                out.push((self.apply_ample(cfg, m, t), m, t));
                return;
            }
        }
        self.successors(cfg, bound, out);
    }

    /// Mirrors `System::has_unspecified_reception` on packed configurations:
    /// some machine is in a receiving state and the head of a corresponding
    /// channel cannot be consumed by any of its transitions.
    pub(crate) fn has_unspecified_reception(&self, cfg: &PackedConfig) -> bool {
        for m in 0..self.roles.len() {
            let state = cfg.states[m] as usize;
            let table = &self.tables[m][state];
            for t in table {
                // A state may list several receives on the same channel;
                // re-checking that channel's head is idempotent, so no dedup.
                if t.dir != Direction::Recv {
                    continue;
                }
                let Some(&head) = cfg.queues[t.channel as usize].first() else {
                    continue;
                };
                let handled = table
                    .iter()
                    .any(|t2| t2.dir == Direction::Recv && t2.channel == t.channel && t2.msg == head);
                if !handled {
                    return true;
                }
            }
        }
        false
    }

    /// Decodes a packed configuration back into the role-keyed form used by
    /// [`System::successors`] and the counterexample traces.
    pub(crate) fn decode(&self, cfg: &PackedConfig) -> SystemConfig {
        let mut channels = BTreeMap::new();
        for (c, queue) in cfg.queues.iter().enumerate() {
            if queue.is_empty() {
                continue;
            }
            let info = self.channels[c];
            let key = (
                self.snapshot.role(info.from).clone(),
                self.snapshot.role(info.to).clone(),
            );
            let msgs: VecDeque<_> = queue
                .iter()
                .map(|&mid| {
                    let (l, s) = self.snapshot.msg(mid);
                    (self.snapshot.label(l).clone(), self.snapshot.sort(s).clone())
                })
                .collect();
            channels.insert(key, msgs);
        }
        SystemConfig {
            states: cfg.states.iter().map(|&s| s as usize).collect(),
            channels,
        }
    }

    /// Reconstructs the [`CfsmAction`] of a compiled transition.
    pub(crate) fn action(&self, t: CTrans) -> CfsmAction {
        let info = self.channels[t.channel as usize];
        let partner = match t.dir {
            Direction::Send => info.to,
            Direction::Recv => info.from,
        };
        let (label, sort) = self.snapshot.msg(t.msg);
        CfsmAction {
            direction: t.dir,
            partner: self.snapshot.role(partner).clone(),
            label: self.snapshot.label(label).clone(),
            sort: self.snapshot.sort(sort).clone(),
        }
    }

    /// Walks the parent pointers from `idx` back to the initial configuration
    /// and returns the forward trace (one step per edge, each carrying the
    /// configuration it leads to).
    fn trace_to(
        &self,
        idx: u32,
        configs: &[PackedConfig],
        parents: &[Option<(u32, u32, CTrans)>],
    ) -> Vec<TraceStep> {
        let mut rev: Vec<TraceStep> = Vec::new();
        let mut cur = idx;
        while let Some((parent, machine, trans)) = parents[cur as usize] {
            rev.push(TraceStep {
                role: self.roles[machine as usize].clone(),
                action: self.action(trans),
                config: self.decode(&configs[cur as usize]),
            });
            cur = parent;
        }
        rev.reverse();
        rev
    }

    // ------------------------------------------------------------------
    // Per-role monitor view
    // ------------------------------------------------------------------

    /// The initial [`MonitorCursor`]: every machine in its initial state,
    /// every channel empty.
    pub fn monitor_cursor(&self) -> MonitorCursor {
        MonitorCursor {
            states: self.initial.clone(),
            queues: vec![VecDeque::new(); self.channels.len()],
        }
    }

    /// Rebuilds a [`MonitorCursor`] from raw state, validating every
    /// component against the compiled tables: one state per machine, each in
    /// range for that machine's state table; one queue per channel, each
    /// queued [`MsgId`] in range for the interned message table.
    ///
    /// This is the trust boundary for persisted monitor state (checkpoints,
    /// write-ahead logs): `None` means the raw state cannot have come from
    /// this system, so the caller must refuse it rather than admit a cursor
    /// whose indices would be read out of bounds.
    pub fn restore_cursor(
        &self,
        states: Vec<u32>,
        queues: Vec<VecDeque<MsgId>>,
    ) -> Option<MonitorCursor> {
        if states.len() != self.machine_count() || queues.len() != self.channels.len() {
            return None;
        }
        for (m, &s) in states.iter().enumerate() {
            if (s as usize) >= self.tables[m].len() {
                return None;
            }
        }
        let msgs = self.snapshot.msg_len();
        for queue in &queues {
            if queue.iter().any(|msg| msg.index() >= msgs) {
                return None;
            }
        }
        Some(MonitorCursor { states, queues })
    }

    /// Advances `cursor` by one observed action, following the per-role
    /// transition tables with unbounded FIFO channels (the asynchronous
    /// semantics of the protocol, §3.4).
    ///
    /// Returns `true` if the subject's machine has a matching transition (for
    /// a receive, additionally requiring the message at the head of its
    /// channel); otherwise the cursor is left unchanged and `false` is
    /// returned. Every lookup resolves the action's roles, label and sort to
    /// interned ids once; the transition scan itself compares only dense ids.
    pub fn observe(&self, cursor: &mut MonitorCursor, action: &Action) -> bool {
        match self.intern_action(action) {
            Some(interned) => self.observe_interned(cursor, &interned),
            None => false,
        }
    }

    /// Resolves an action's roles, label and sort against the compiled
    /// tables once, yielding an [`InternedAction`] that can be observed any
    /// number of times without ever hashing a string again.
    ///
    /// Returns `None` when some component of the action does not occur in
    /// the protocol at all — such an action can never be accepted, matching
    /// [`CompiledSystem::observe`] returning `false`.
    ///
    /// This is what makes the serving data plane's per-action monitoring
    /// allocation- and hash-free: the compiled endpoint executor resolves
    /// each send/receive site of a program to an `InternedAction` once and
    /// replays it on every visit.
    pub fn intern_action(&self, action: &Action) -> Option<InternedAction> {
        let from = self.snapshot.lookup_role(action.from())?;
        let to = self.snapshot.lookup_role(action.to())?;
        let label = self.snapshot.lookup_label(action.label())?;
        let sort = self.snapshot.lookup_sort(action.sort())?;
        let msg = self.snapshot.lookup_msg(label, sort)?;
        let channel = *self.channel_ids.get(&(from, to))?;
        let (dir, subject) = if action.is_send() {
            (Direction::Send, from)
        } else {
            (Direction::Recv, to)
        };
        let machine = *self.machine_of_role.get(&subject)?;
        Some(InternedAction {
            dir,
            machine,
            channel,
            msg,
        })
    }

    /// [`CompiledSystem::observe`] over a pre-resolved action: the per-call
    /// cost is one scan of the subject's (tiny) out-transition list plus one
    /// queue operation — no role/label/sort hashing.
    pub fn observe_interned(&self, cursor: &mut MonitorCursor, action: &InternedAction) -> bool {
        self.try_observe_interned(cursor, action).is_some()
    }

    fn try_observe_interned(
        &self,
        cursor: &mut MonitorCursor,
        action: &InternedAction,
    ) -> Option<()> {
        let m = action.machine as usize;
        let state = cursor.states[m] as usize;
        let t = self.tables[m][state]
            .iter()
            .find(|t| t.dir == action.dir && t.channel == action.channel && t.msg == action.msg)?;
        match action.dir {
            Direction::Send => {
                cursor.queues[action.channel as usize].push_back(action.msg);
            }
            Direction::Recv => {
                if cursor.queues[action.channel as usize].front() != Some(&action.msg) {
                    return None;
                }
                cursor.queues[action.channel as usize].pop_front();
            }
        }
        cursor.states[m] = t.target;
        Some(())
    }

    /// Returns `true` if the cursor has run the protocol to completion:
    /// every machine in a final state and every channel drained.
    pub fn is_terminated(&self, cursor: &MonitorCursor) -> bool {
        cursor.queues.iter().all(VecDeque::is_empty)
            && cursor
                .states
                .iter()
                .enumerate()
                .all(|(m, &s)| self.finals[m][s as usize])
    }

    /// The outcome of the degenerate `max_configs == 0` limit: not even the
    /// initial configuration may be admitted (matching the exhaustive
    /// explorer, which truncates before expanding anything).
    pub(crate) fn empty_outcome() -> ExplorationOutcome {
        ExplorationOutcome {
            configurations: 0,
            transitions: 0,
            deadlocks: Vec::new(),
            orphan_messages: Vec::new(),
            unspecified_receptions: Vec::new(),
            truncated: true,
            final_reachable: false,
            live: true,
            violations: Vec::new(),
        }
    }

    /// Worklist BFS over the packed state space, mirroring the verdicts and
    /// counts of [`System::explore_exhaustive`] while recording parent
    /// pointers so every violation carries a shortest replayable trace.
    ///
    /// Trace materialisation is deliberate, not lazy: every reported
    /// violation decodes its full path back to the initial configuration
    /// (the replay test-suite checks each one step-by-step). On safe inputs
    /// this costs nothing; on heavily-unsafe inputs with deep state spaces
    /// it is O(violations × depth) decodes after the BFS finishes.
    pub fn explore(&self, bound: usize, max_configs: usize) -> ExplorationOutcome {
        self.explore_impl(bound, max_configs, false)
    }

    /// Like [`CompiledSystem::explore`], but with the ample-set
    /// partial-order reduction enabled (the crate-private `ample` method in
    /// `engine.rs` documents the exact condition and its soundness
    /// argument).
    ///
    /// The reduction collapses commuting interleavings before they are
    /// generated, so `configurations` / `transitions` counts shrink and
    /// counterexample traces may order independent steps differently — but
    /// the verdict, `final_reachable` and `live` agree with the full
    /// exploration, every reported violation is a real reachable
    /// configuration, and every trace still replays through
    /// [`System::successors`]. At `bound == 0` no configuration is ever
    /// ample, so the mode coincides with [`CompiledSystem::explore`].
    pub fn explore_por(&self, bound: usize, max_configs: usize) -> ExplorationOutcome {
        self.explore_impl(bound, max_configs, true)
    }

    fn explore_impl(&self, bound: usize, max_configs: usize, reduce: bool) -> ExplorationOutcome {
        if max_configs == 0 {
            return Self::empty_outcome();
        }
        let mut visited: FxHashMap<PackedConfig, u32> = FxHashMap::default();
        let mut configs: Vec<PackedConfig> = Vec::new();
        let mut parents: Vec<Option<(u32, u32, CTrans)>> = Vec::new();
        // Successor indices per expanded configuration (for the liveness
        // fixpoint) and final-configuration indices.
        let mut succ_lists: Vec<Vec<u32>> = Vec::new();
        let mut final_indices: Vec<u32> = Vec::new();

        // Violations are recorded as (kind, index) during the BFS and
        // materialised (decoded configs + traces) only after the loop, so
        // the hot path never builds a role-keyed configuration.
        let mut found: Vec<(ViolationKind, u32)> = Vec::new();
        let mut transitions = 0usize;
        let mut truncated = false;
        let mut final_reachable = false;
        let mut live = true;

        let init = self.initial_config();
        visited.insert(init.clone(), 0);
        configs.push(init);
        parents.push(None);

        let mut succs: Vec<(PackedConfig, u32, CTrans)> = Vec::new();
        let mut head = 0usize;
        while head < configs.len() {
            let idx = head as u32;
            head += 1;

            let cfg = &configs[idx as usize];
            self.expand(cfg, bound, reduce, &mut succs);
            transitions += succs.len();

            let is_final = self.is_final(cfg);
            if is_final {
                final_reachable = true;
                final_indices.push(idx);
            }
            live &= is_final || !succs.is_empty();

            let unspec = self.has_unspecified_reception(cfg);
            if succs.is_empty() && !is_final {
                if let Some(kind) = self.classify_terminal(cfg, unspec) {
                    found.push((kind, idx));
                }
            }
            if unspec {
                found.push((ViolationKind::UnspecifiedReception, idx));
            }

            let mut list = Vec::with_capacity(succs.len());
            for (next, machine, trans) in succs.drain(..) {
                if let Some(&j) = visited.get(&next) {
                    list.push(j);
                    continue;
                }
                if configs.len() >= max_configs {
                    truncated = true;
                    continue;
                }
                let j = configs.len() as u32;
                visited.insert(next.clone(), j);
                configs.push(next);
                parents.push(Some((idx, machine, trans)));
                list.push(j);
            }
            succ_lists.push(list);
        }

        // Liveness, second half: when the protocol can terminate and the
        // whole bounded state space was covered, termination must remain
        // reachable from every configuration (backwards BFS from the finals).
        if final_reachable && live && !truncated {
            let mut preds: Vec<Vec<u32>> = vec![Vec::new(); configs.len()];
            for (i, list) in succ_lists.iter().enumerate() {
                for &j in list {
                    preds[j as usize].push(i as u32);
                }
            }
            live = all_can_finish(&preds, final_indices);
        }

        let violations: Vec<Violation> = found
            .into_iter()
            .map(|(kind, idx)| Violation {
                kind,
                config: self.decode(&configs[idx as usize]),
                trace: self.trace_to(idx, &configs, &parents),
            })
            .collect();
        let pick = |kind: ViolationKind| {
            violations
                .iter()
                .filter(|v| v.kind == kind)
                .map(|v| v.config.clone())
                .collect::<Vec<_>>()
        };
        ExplorationOutcome {
            configurations: configs.len(),
            transitions,
            deadlocks: pick(ViolationKind::Deadlock),
            orphan_messages: pick(ViolationKind::OrphanMessage),
            unspecified_receptions: pick(ViolationKind::UnspecifiedReception),
            truncated,
            final_reachable,
            live,
            violations,
        }
    }
}

/// Backwards reachability of the final configurations over per-node
/// predecessor lists: `true` iff *every* explored configuration can reach
/// one of `final_indices`. Shared by the sequential and parallel explorers
/// (they build `preds` from their own layouts and agree on the fixpoint).
pub(crate) fn all_can_finish(preds: &[Vec<u32>], final_indices: Vec<u32>) -> bool {
    let mut can_finish = vec![false; preds.len()];
    let mut stack = final_indices;
    for &i in &stack {
        can_finish[i as usize] = true;
    }
    while let Some(i) = stack.pop() {
        for &p in &preds[i as usize] {
            if !can_finish[p as usize] {
                can_finish[p as usize] = true;
                stack.push(p);
            }
        }
    }
    can_finish.iter().all(|&b| b)
}

/// The mutable state of an online protocol monitor walking a
/// [`CompiledSystem`]: one machine state per role plus one unbounded FIFO of
/// interned message ids per dense channel.
///
/// Cursors are created by [`CompiledSystem::monitor_cursor`] and advanced by
/// [`CompiledSystem::observe`]; cloning or comparing one never touches a
/// string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorCursor {
    states: Vec<u32>,
    queues: Vec<VecDeque<MsgId>>,
}

impl MonitorCursor {
    /// The current machine state per role, in machine order. Raw material
    /// for checkpoint serialization; rebuild a cursor with
    /// [`CompiledSystem::restore_cursor`], never by hand.
    pub fn states(&self) -> &[u32] {
        &self.states
    }

    /// The queued interned message ids per dense channel, in channel order.
    pub fn queues(&self) -> &[VecDeque<MsgId>] {
        &self.queues
    }
}

/// An observable action pre-resolved against a [`CompiledSystem`]'s tables:
/// the subject's machine index, the dense channel id and the interned
/// message id.
///
/// Produced by [`CompiledSystem::intern_action`] and consumed by
/// [`CompiledSystem::observe_interned`]; only meaningful for the system that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternedAction {
    dir: Direction,
    machine: u32,
    channel: u32,
    msg: MsgId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use zooid_mpst::local::LocalType;
    use zooid_mpst::{Role, Sort};

    use crate::machine::Cfsm;
    use crate::system::Verdict;

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    fn machine(role: &str, local: &LocalType) -> Cfsm {
        Cfsm::from_local_type(r(role), local).unwrap()
    }

    fn good_pair() -> System {
        System::new(vec![
            machine("p", &LocalType::send1(r("q"), "l", Sort::Nat, LocalType::End)),
            machine("q", &LocalType::recv1(r("p"), "l", Sort::Nat, LocalType::End)),
        ])
        .unwrap()
    }

    #[test]
    fn compilation_produces_dense_tables() {
        let compiled = CompiledSystem::compile(&good_pair());
        assert_eq!(compiled.machine_count(), 2);
        assert_eq!(compiled.channel_count(), 1); // p -> q only
    }

    #[test]
    fn the_engine_matches_the_exhaustive_explorer_on_a_pair() {
        let system = good_pair();
        let fast = system.explore(4, 10_000);
        let slow = system.explore_exhaustive(4, 10_000);
        assert_eq!(fast.configurations, slow.configurations);
        assert_eq!(fast.transitions, slow.transitions);
        assert_eq!(fast.verdict(), slow.verdict());
        assert_eq!(fast.verdict(), Verdict::Safe);
        assert!(fast.live && slow.live);
    }

    #[test]
    fn deadlock_counterexamples_carry_a_trace() {
        let system = System::new(vec![
            machine("p", &LocalType::recv1(r("q"), "l", Sort::Nat, LocalType::End)),
            machine("q", &LocalType::recv1(r("p"), "l", Sort::Nat, LocalType::End)),
        ])
        .unwrap();
        let outcome = system.explore(4, 10_000);
        assert_eq!(outcome.violations.len(), 1);
        let v = &outcome.violations[0];
        assert_eq!(v.kind, ViolationKind::Deadlock);
        // The initial configuration is itself the deadlock: empty trace.
        assert!(v.trace.is_empty());
        assert_eq!(v.config, system.initial());
    }

    #[test]
    fn the_monitor_view_accepts_a_compliant_async_run() {
        let compiled = CompiledSystem::compile(&good_pair());
        let mut cursor = compiled.monitor_cursor();
        let send = Action::send(r("p"), r("q"), zooid_mpst::Label::new("l"), Sort::Nat);
        assert!(!compiled.is_terminated(&cursor));
        assert!(compiled.observe(&mut cursor, &send));
        // The receive cannot be replayed twice, and must match the queue head.
        assert!(compiled.observe(&mut cursor, &send.dual()));
        assert!(!compiled.observe(&mut cursor, &send.dual()));
        assert!(compiled.is_terminated(&cursor));
    }

    #[test]
    fn the_monitor_view_rejects_unknown_and_premature_actions() {
        let compiled = CompiledSystem::compile(&good_pair());
        let mut cursor = compiled.monitor_cursor();
        let recv_first = Action::recv(r("q"), r("p"), zooid_mpst::Label::new("l"), Sort::Nat);
        assert!(!compiled.observe(&mut cursor, &recv_first), "empty channel");
        let wrong_label = Action::send(r("p"), r("q"), zooid_mpst::Label::new("zzz"), Sort::Nat);
        assert!(!compiled.observe(&mut cursor, &wrong_label));
        let wrong_sort = Action::send(r("p"), r("q"), zooid_mpst::Label::new("l"), Sort::Bool);
        assert!(!compiled.observe(&mut cursor, &wrong_sort));
        let unknown_role = Action::send(r("z"), r("q"), zooid_mpst::Label::new("l"), Sort::Nat);
        assert!(!compiled.observe(&mut cursor, &unknown_role));
        // A rejected action leaves the cursor unchanged.
        assert_eq!(cursor, compiled.monitor_cursor());
    }

    #[test]
    fn orphan_traces_replay_through_successors() {
        let system = System::new(vec![
            machine("p", &LocalType::send1(r("q"), "l", Sort::Nat, LocalType::End)),
            machine("q", &LocalType::End),
        ])
        .unwrap();
        let outcome = system.explore(4, 10_000);
        let v = outcome
            .violations
            .iter()
            .find(|v| v.kind == ViolationKind::OrphanMessage)
            .expect("an orphan violation");
        assert_eq!(v.trace.len(), 1, "one send leads to the orphan");
        let mut cur = system.initial();
        for step in &v.trace {
            assert!(
                system.successors(&cur, 4).contains(&step.config),
                "trace step not replayable from {cur:?}"
            );
            cur = step.config.clone();
        }
        assert_eq!(cur, v.config);
    }
}
