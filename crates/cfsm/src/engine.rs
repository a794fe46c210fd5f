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
//!   gets a dense channel id, so a configuration is one flat run of `u32`
//!   words, `[machine states | for each channel: length, then the queued
//!   MsgIds]`, instead of a `BTreeMap` keyed on role pairs;
//! * every admitted configuration is stored once, back to back in the one
//!   append-only word arena of a `ConfigArena`, whose visited set is an
//!   open-addressing index of configuration ids. A successor is written
//!   straight onto the arena's tail, hashed once, and truncated off again if
//!   it was already visited, so an expansion allocates nothing;
//! * every configuration records the (parent, action) edge that first
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
//!   sharded visited map. It shares the encoding, the arena, and the one
//!   expansion and successor function (`expand`, `write_successor`) with the
//!   sequential explorer.

use std::collections::{BTreeMap, VecDeque};
use std::hash::Hasher;

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

/// The word form of a message id inside an encoded configuration.
fn word(msg: MsgId) -> u32 {
    // Lossless: a `MsgId` is a `u32` index.
    msg.index() as u32
}

/// The 64-bit content hash of an encoded configuration: FxHash over its
/// words, two to a round. The encoding length-prefixes every channel, so moving a message
/// from one channel to the next changes the words and not just their split.
///
/// Invariant: the hash carries entropy in its **top** bits (FxHash ends
/// every word with a multiply, which pushes each input bit upwards). The
/// parallel explorer routes a configuration to its shard on the top six
/// bits, and [`ConfigArena`] places it in its index on bits 32 and up, so
/// the two never read the same bits for any index under 2^26 slots.
pub(crate) fn hash_words(words: &[u32]) -> u64 {
    // Two words per round: FxHash is one dependent multiply per round, so
    // this halves the chain a large configuration hashes through.
    let mut h = FxHasher::default();
    let mut pairs = words.chunks_exact(2);
    for pair in &mut pairs {
        h.write_u64(u64::from(pair[0]) | u64::from(pair[1]) << 32);
    }
    if let [last] = pairs.remainder() {
        h.write_u32(*last);
    }
    h.finish()
}

/// Marks an empty slot of a [`ConfigArena`]'s index.
const EMPTY: u32 = u32::MAX;

/// Every configuration an exploration admitted, each stored once.
///
/// A configuration is encoded as one flat run of words, `[machine states |
/// for each channel: length, then the queued MsgIds]`; the encoding is
/// injective for a fixed system, so two configurations are equal iff their
/// words are. The arena keeps all of them back to back in one append-only
/// `Vec<u32>`, with an end-offset column and a column of cached content
/// hashes ([`hash_words`]) beside it. The visited set is an open-addressing
/// index of `u32` configuration ids (linear probing, at most half full),
/// compared by cached hash first and then by slice.
///
/// A candidate successor is written onto the tail of `words`, past the
/// last admitted configuration, then either kept as the next id or
/// truncated off again ([`ConfigArena::intern_tail`]), so checking a
/// successor allocates nothing once the columns have grown.
#[derive(Debug)]
pub(crate) struct ConfigArena {
    /// The admitted configurations' words, then the candidate being built.
    words: Vec<u32>,
    /// `ends[i]` is where configuration `i`'s words end (and `i + 1`'s
    /// begin); the first begins at 0.
    ends: Vec<usize>,
    /// `hashes[i] == hash_words(config(i))`.
    hashes: Vec<u64>,
    /// Configuration ids by hash slot, [`EMPTY`] where none; a power of two
    /// in length.
    index: Vec<u32>,
}

impl Default for ConfigArena {
    fn default() -> Self {
        ConfigArena {
            words: Vec::new(),
            ends: Vec::new(),
            hashes: Vec::new(),
            index: vec![EMPTY; 16],
        }
    }
}

/// What [`ConfigArena::intern_tail`] did with a candidate configuration;
/// `Id` is the id the explorer hands out for it.
pub(crate) enum Interned<Id = u32> {
    /// Unseen and admitted: the new configuration's id.
    New(Id),
    /// Already admitted under this id.
    Existing(Id),
    /// Unseen, but admission was refused (the budget is spent).
    Refused,
}

impl ConfigArena {
    /// Number of admitted configurations.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Where the candidate at the tail begins.
    fn committed(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// The words of configuration `id`.
    pub(crate) fn config(&self, id: u32) -> &[u32] {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.words[start..self.ends[id]]
    }

    /// The home slot of `hash`: bits 32 and up (see [`hash_words`]).
    fn home(&self, hash: u64) -> usize {
        (hash >> 32) as usize & (self.index.len() - 1)
    }

    /// Keeps the candidate written at the tail of the arena (its words past
    /// the last admitted configuration, with content hash `hash`) if no
    /// admitted configuration equals it and `admit` agrees, and truncates it
    /// off otherwise.
    pub(crate) fn intern_tail(&mut self, hash: u64, admit: impl FnOnce() -> bool) -> Interned {
        let start = self.committed();
        let mask = self.index.len() - 1;
        let mut slot = self.home(hash);
        loop {
            let id = self.index[slot];
            if id == EMPTY {
                break;
            }
            if self.hashes[id as usize] == hash && self.config(id) == &self.words[start..] {
                self.words.truncate(start);
                return Interned::Existing(id);
            }
            slot = (slot + 1) & mask;
        }
        if !admit() {
            self.words.truncate(start);
            return Interned::Refused;
        }
        assert!(self.len() < EMPTY as usize, "configuration ids overflow");
        let id = self.len() as u32;
        self.index[slot] = id;
        self.ends.push(self.words.len());
        self.hashes.push(hash);
        if 2 * self.len() > self.index.len() {
            self.grow();
        }
        Interned::New(id)
    }

    /// [`ConfigArena::intern_tail`] for a configuration built elsewhere.
    pub(crate) fn intern(
        &mut self,
        cfg: &[u32],
        hash: u64,
        admit: impl FnOnce() -> bool,
    ) -> Interned {
        self.words.extend_from_slice(cfg);
        self.intern_tail(hash, admit)
    }

    /// Doubles the index, re-placing every id by its cached hash.
    fn grow(&mut self) {
        self.index = vec![EMPTY; 2 * self.index.len()];
        let mask = self.index.len() - 1;
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = self.home(hash);
            while self.index[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = id as u32;
        }
    }
}

/// One move of a configuration: machine `machine` fires `trans`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    pub(crate) machine: u32,
    pub(crate) trans: CTrans,
    /// At bound 0 a send fires together with the partner's matching receive
    /// (`trans.partner_machine`), which moves the partner to this state.
    partner_target: Option<u32>,
}

/// What one expansion learns about a configuration, in buffers an explorer
/// reuses for every configuration it expands ([`CompiledSystem::expand`]).
#[derive(Debug, Default)]
pub(crate) struct Expansion {
    /// Position of each channel's length word in the configuration.
    chan: Vec<u32>,
    /// The steps to take: every enabled one in [`System::successors`] order,
    /// or the single ample step under the reduction.
    pub(crate) steps: Vec<Step>,
    /// Every machine final and every channel empty.
    pub(crate) is_final: bool,
    /// The violations this configuration exhibits, in report order: at most
    /// a terminal one (deadlock or orphan), then an unspecified reception.
    pub(crate) violations: Vec<ViolationKind>,
}

impl Expansion {
    /// The message at the head of channel `c` of `cfg`, as a word.
    fn head(&self, cfg: &[u32], c: u32) -> Option<u32> {
        let at = self.chan[c as usize] as usize;
        (cfg[at] > 0).then(|| cfg[at + 1])
    }

    /// Number of messages queued on channel `c` of `cfg`.
    fn queued(&self, cfg: &[u32], c: u32) -> usize {
        cfg[self.chan[c as usize] as usize] as usize
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

    /// Number of words of a configuration whose channels are all empty.
    fn quiescent_len(&self) -> usize {
        self.roles.len() + self.channels.len()
    }

    /// The encoded initial configuration: every machine in its initial
    /// state, every channel empty.
    pub(crate) fn initial_config(&self) -> Vec<u32> {
        let mut cfg = self.initial.clone();
        cfg.resize(self.quiescent_len(), 0);
        cfg
    }

    /// Whether every machine of `cfg` is in a final state (queues are not
    /// inspected): the orphan-message half of the terminal classification.
    fn all_machines_final(&self, cfg: &[u32]) -> bool {
        cfg[..self.roles.len()]
            .iter()
            .enumerate()
            .all(|(m, &s)| self.finals[m][s as usize])
    }

    /// Classifies a terminal (successor-less, non-final) configuration,
    /// mirroring the exhaustive explorer's rules: empty queues mean a
    /// deadlock, all-final machines with messages left mean an orphan, and
    /// a stuck configuration with messages in flight but no reception
    /// error is reported as a deadlock (possibly a bound artefact).
    fn classify_terminal(&self, cfg: &[u32], unspec: bool) -> Option<ViolationKind> {
        if cfg.len() == self.quiescent_len() {
            Some(ViolationKind::Deadlock)
        } else if self.all_machines_final(cfg) {
            Some(ViolationKind::OrphanMessage)
        } else if !unspec {
            Some(ViolationKind::Deadlock)
        } else {
            None
        }
    }

    /// Expands the encoded configuration `cfg` into `ex`: where its
    /// channels sit, the steps to take from it (with the partial-order
    /// reduction when `reduce` is set: an ample configuration takes its
    /// single ample step, everything else every enabled step), whether it is
    /// final, and the violations it exhibits.
    ///
    /// Shared by the sequential and parallel explorers so the verdict
    /// semantics cannot drift apart.
    pub(crate) fn expand(&self, cfg: &[u32], bound: usize, reduce: bool, ex: &mut Expansion) {
        ex.chan.clear();
        let mut at = self.roles.len();
        for _ in 0..self.channels.len() {
            ex.chan
                .push(u32::try_from(at).expect("configurations fit in u32 words"));
            at += 1 + cfg[at] as usize;
        }
        debug_assert_eq!(at, cfg.len(), "a configuration ends with its last channel");

        ex.steps.clear();
        match reduce.then(|| self.ample(cfg, ex, bound)).flatten() {
            Some(step) => ex.steps.push(step),
            None => self.successors(cfg, ex, bound),
        }
        ex.is_final = cfg.len() == self.quiescent_len() && self.all_machines_final(cfg);
        let unspec = self.has_unspecified_reception(cfg, ex);
        ex.violations.clear();
        if ex.steps.is_empty() && !ex.is_final {
            ex.violations.extend(self.classify_terminal(cfg, unspec));
        }
        if unspec {
            ex.violations.push(ViolationKind::UnspecifiedReception);
        }
    }

    /// Appends every enabled step of `cfg` to `ex.steps`, in the same order
    /// as [`System::successors`]: machines in system order, each machine's
    /// transitions in table order.
    fn successors(&self, cfg: &[u32], ex: &mut Expansion, bound: usize) {
        for m in 0..self.roles.len() {
            for &t in &self.tables[m][cfg[m] as usize] {
                let step = |partner_target| Step {
                    machine: m as u32,
                    trans: t,
                    partner_target,
                };
                match t.dir {
                    // Rendezvous semantics at bound 0: a send fires together
                    // with a matching receive of the partner, atomically.
                    Direction::Send if bound == 0 => {
                        if t.partner_machine == u32::MAX {
                            continue;
                        }
                        let pm = t.partner_machine as usize;
                        for &rt in &self.tables[pm][cfg[pm] as usize] {
                            if rt.dir == Direction::Recv
                                && rt.channel == t.channel
                                && rt.msg == t.msg
                            {
                                ex.steps.push(step(Some(rt.target)));
                            }
                        }
                    }
                    Direction::Send => {
                        if ex.queued(cfg, t.channel) < bound {
                            ex.steps.push(step(None));
                        }
                    }
                    Direction::Recv => {
                        if ex.head(cfg, t.channel) == Some(word(t.msg)) {
                            ex.steps.push(step(None));
                        }
                    }
                }
            }
        }
    }

    /// Appends to `out` the encoding of the configuration `step` leads to
    /// from `cfg` (as expanded into `ex`): a copy of `cfg` with one word
    /// inserted (a send), removed (a receive) or neither (a rendezvous), and
    /// the moved machines' states overwritten. The one successor function
    /// of both explorers.
    pub(crate) fn write_successor(
        &self,
        cfg: &[u32],
        ex: &Expansion,
        step: Step,
        out: &mut Vec<u32>,
    ) {
        let base = out.len();
        let t = step.trans;
        let len_at = ex.chan[t.channel as usize] as usize;
        if step.partner_target.is_some() {
            out.extend_from_slice(cfg);
        } else if t.dir == Direction::Send {
            let tail = len_at + 1 + cfg[len_at] as usize;
            out.extend_from_slice(&cfg[..tail]);
            out.push(word(t.msg));
            out.extend_from_slice(&cfg[tail..]);
            out[base + len_at] += 1;
        } else {
            out.extend_from_slice(&cfg[..=len_at]);
            out.extend_from_slice(&cfg[len_at + 2..]);
            out[base + len_at] -= 1;
        }
        out[base + step.machine as usize] = t.target;
        if let Some(target) = step.partner_target {
            out[base + t.partner_machine as usize] = target;
        }
    }

    /// Ample-set selection for the partial-order reduction: returns a
    /// machine's single enabled receive whose expansion alone is sufficient
    /// at `cfg`, or `None` when the configuration must be expanded in full.
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
    /// transitions the machine is skipped (and `expand` flags the
    /// configuration as an unspecified reception), while errors at other
    /// machines survive an ample step untouched — the step pops only
    /// channel `c`, whose sole receiver is `m`.
    fn ample(&self, cfg: &[u32], ex: &Expansion, bound: usize) -> Option<Step> {
        if bound == 0 {
            return None;
        }
        'machines: for m in 0..self.roles.len() {
            let table = &self.tables[m][cfg[m] as usize];
            let Some(first) = table.first() else {
                continue;
            };
            let channel = first.channel;
            let head = ex.head(cfg, channel);
            let mut chosen: Option<CTrans> = None;
            for &t in table {
                if t.dir != Direction::Recv || t.channel != channel {
                    continue 'machines;
                }
                if Some(word(t.msg)) == head {
                    if chosen.is_some() {
                        // Two matching receives: expanding one would drop a
                        // genuine nondeterministic branch.
                        continue 'machines;
                    }
                    chosen = Some(t);
                }
            }
            if let Some(trans) = chosen {
                return Some(Step {
                    machine: m as u32,
                    trans,
                    partner_target: None,
                });
            }
        }
        None
    }

    /// Mirrors `System::has_unspecified_reception` on encoded
    /// configurations: some machine is in a receiving state and the head of
    /// a corresponding channel cannot be consumed by any of its transitions.
    fn has_unspecified_reception(&self, cfg: &[u32], ex: &Expansion) -> bool {
        for m in 0..self.roles.len() {
            let table = &self.tables[m][cfg[m] as usize];
            for t in table {
                // A state may list several receives on the same channel;
                // re-checking that channel's head is idempotent, so no dedup.
                if t.dir != Direction::Recv {
                    continue;
                }
                let Some(head) = ex.head(cfg, t.channel) else {
                    continue;
                };
                let handled = table.iter().any(|t2| {
                    t2.dir == Direction::Recv && t2.channel == t.channel && word(t2.msg) == head
                });
                if !handled {
                    return true;
                }
            }
        }
        false
    }

    /// Decodes an encoded configuration back into the role-keyed form used
    /// by [`System::successors`] and the counterexample traces.
    pub(crate) fn decode(&self, cfg: &[u32]) -> SystemConfig {
        let machines = self.roles.len();
        let mut channels = BTreeMap::new();
        let mut at = machines;
        for info in &self.channels {
            let len = cfg[at] as usize;
            let queue = &cfg[at + 1..at + 1 + len];
            at += 1 + len;
            if queue.is_empty() {
                continue;
            }
            let key = (
                self.snapshot.role(info.from).clone(),
                self.snapshot.role(info.to).clone(),
            );
            let msgs: VecDeque<_> = queue
                .iter()
                .map(|&w| {
                    let mid = MsgId::from_index(w as usize).expect("a queued word is a MsgId");
                    let (l, s) = self.snapshot.msg(mid);
                    (self.snapshot.label(l).clone(), self.snapshot.sort(s).clone())
                })
                .collect();
            channels.insert(key, msgs);
        }
        SystemConfig {
            states: cfg[..machines].iter().map(|&s| s as usize).collect(),
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
        arena: &ConfigArena,
        parents: &[Option<(u32, u32, CTrans)>],
    ) -> Vec<TraceStep> {
        let mut rev: Vec<TraceStep> = Vec::new();
        let mut cur = idx;
        while let Some((parent, machine, trans)) = parents[cur as usize] {
            rev.push(TraceStep {
                role: self.roles[machine as usize].clone(),
                action: self.action(trans),
                config: self.decode(arena.config(cur)),
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
        let m = action.machine();
        let Some(target) = self.transition(cursor.states[m], action) else {
            return false;
        };
        let queue = &mut cursor.queues[action.channel as usize];
        match action.dir {
            Direction::Send => queue.push_back(action.msg),
            Direction::Recv if queue.front() == Some(&action.msg) => {
                queue.pop_front();
            }
            Direction::Recv => return false,
        }
        cursor.states[m] = target;
        true
    }

    /// The monitor's transition rule on one machine: the state `action`'s
    /// machine moves to from `state`, or `None` when no transition of that
    /// state matches the action.
    ///
    /// The rule reads machine states only; the channel is the caller's. A
    /// send appends [`InternedAction::msg`] to its channel's queue, and a
    /// receive is allowed only when that message is at the head of its
    /// channel, which it then pops. [`CompiledSystem::observe_interned`]
    /// applies the rule to a [`MonitorCursor`]; a caller that keeps machine
    /// states and queues in its own layout applies it there.
    pub fn transition(&self, state: u32, action: &InternedAction) -> Option<u32> {
        self.tables[action.machine()][state as usize]
            .iter()
            .find(|t| t.dir == action.dir && t.channel == action.channel && t.msg == action.msg)
            .map(|t| t.target)
    }

    /// The initial state of machine `machine`.
    pub fn initial_state(&self, machine: usize) -> u32 {
        self.initial[machine]
    }

    /// Returns `true` if `state` is a final state of machine `machine`.
    pub fn is_final(&self, machine: usize, state: u32) -> bool {
        self.finals[machine][state as usize]
    }

    /// The dense channel id of messages from `from` to `to`, or `None` when
    /// the protocol never sends one there.
    pub fn channel(&self, from: &zooid_mpst::Role, to: &zooid_mpst::Role) -> Option<usize> {
        let key = (self.snapshot.lookup_role(from)?, self.snapshot.lookup_role(to)?);
        self.channel_ids.get(&key).map(|&ch| ch as usize)
    }

    /// The label of an interned message id, as queued in a
    /// [`MonitorCursor`] or carried by an [`InternedAction`].
    pub fn message_label(&self, msg: MsgId) -> &zooid_mpst::Label {
        self.snapshot.label(self.snapshot.msg(msg).0)
    }

    /// Returns `true` if the cursor has run the protocol to completion:
    /// every machine in a final state and every channel drained.
    pub fn is_terminated(&self, cursor: &MonitorCursor) -> bool {
        cursor.queues.iter().all(VecDeque::is_empty)
            && cursor
                .states
                .iter()
                .enumerate()
                .all(|(m, &s)| self.is_final(m, s))
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
        let mut arena = ConfigArena::default();
        let mut parents: Vec<Option<(u32, u32, CTrans)>> = Vec::new();
        // Discovery edges for the liveness fixpoint, recorded only while
        // the search is complete (a truncated one skips the fixpoint), and
        // final-configuration indices.
        let mut edges: Vec<(u32, u32)> = Vec::new();
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
        arena.intern(&init, hash_words(&init), || true);
        parents.push(None);

        // The configuration being expanded is copied out of the arena once,
        // so its successors can be written straight onto the arena's tail.
        let mut cfg: Vec<u32> = Vec::new();
        let mut ex = Expansion::default();
        let mut head = 0u32;
        while (head as usize) < arena.len() {
            let idx = head;
            head += 1;
            cfg.clear();
            cfg.extend_from_slice(arena.config(idx));

            self.expand(&cfg, bound, reduce, &mut ex);
            transitions += ex.steps.len();
            if ex.is_final {
                final_reachable = true;
                final_indices.push(idx);
            }
            live &= ex.is_final || !ex.steps.is_empty();
            found.extend(ex.violations.iter().map(|&kind| (kind, idx)));

            for &step in &ex.steps {
                self.write_successor(&cfg, &ex, step, &mut arena.words);
                let hash = hash_words(&arena.words[arena.committed()..]);
                let full = arena.len() >= max_configs;
                let j = match arena.intern_tail(hash, || !full) {
                    Interned::Existing(j) => j,
                    Interned::New(j) => {
                        parents.push(Some((idx, step.machine, step.trans)));
                        j
                    }
                    Interned::Refused => {
                        truncated = true;
                        continue;
                    }
                };
                if !truncated {
                    edges.push((idx, j));
                }
            }
        }

        // Liveness, second half: when the protocol can terminate and the
        // whole bounded state space was covered, termination must remain
        // reachable from every configuration (backwards BFS from the finals).
        if final_reachable && live && !truncated {
            let (offsets, preds) = predecessors(arena.len(), edges.iter().copied());
            live = all_can_finish(&offsets, &preds, final_indices);
        }

        let violations: Vec<Violation> = found
            .into_iter()
            .map(|(kind, idx)| Violation {
                kind,
                config: self.decode(arena.config(idx)),
                trace: self.trace_to(idx, &arena, &parents),
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
            configurations: arena.len(),
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

/// Predecessor lists in compressed sparse row form, built from `(from, to)`
/// edges over `n` configurations by a counting sort (two passes over the
/// edges, no `Vec` per configuration): the predecessors of configuration
/// `i` are `preds[offsets[i]..offsets[i + 1]]`.
pub(crate) fn predecessors(
    n: usize,
    edges: impl Iterator<Item = (u32, u32)> + Clone,
) -> (Vec<usize>, Vec<u32>) {
    let mut offsets = vec![0usize; n + 1];
    for (_, to) in edges.clone() {
        offsets[to as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut next = offsets[..n].to_vec();
    let mut preds = vec![0u32; offsets[n]];
    for (from, to) in edges {
        let at = &mut next[to as usize];
        preds[*at] = from;
        *at += 1;
    }
    (offsets, preds)
}

/// Backwards reachability of the final configurations over predecessor
/// lists in the CSR form of [`predecessors`]: `true` iff *every* explored
/// configuration can reach one of `final_indices`. Shared by the sequential
/// and parallel explorers (they collect edges from their own layouts and
/// agree on the fixpoint).
pub(crate) fn all_can_finish(offsets: &[usize], preds: &[u32], final_indices: Vec<u32>) -> bool {
    let mut can_finish = vec![false; offsets.len() - 1];
    let mut stack = final_indices;
    for &i in &stack {
        can_finish[i as usize] = true;
    }
    while let Some(i) = stack.pop() {
        let i = i as usize;
        for &p in &preds[offsets[i]..offsets[i + 1]] {
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

impl InternedAction {
    /// The index of the subject's machine: the sender of a send, the
    /// receiver of a receive.
    pub fn machine(&self) -> usize {
        self.machine as usize
    }

    /// The interned message the action sends or receives.
    pub fn msg(&self) -> MsgId {
        self.msg
    }
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
