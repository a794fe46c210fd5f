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
//!   gets a dense channel id, so a configuration is one flat run of words,
//!   `[machine states | one length per channel | the queued MsgIds, channel
//!   by channel]`, instead of a `BTreeMap` keyed on role pairs. A channel's
//!   length sits at a fixed offset (machine count + channel id), so a
//!   receive-only machine checks its channel without knowing where any
//!   queue starts, and the queues' starts are one prefix sum over the
//!   contiguous lengths;
//! * a word is a byte whenever every value it can hold fits: compilation
//!   records the largest state index and message id, and an exploration
//!   whose bound (the longest a queue gets) and those two are at most 255
//!   runs on `u8` words, any other on `u32` (`CompiledSystem::width`). The
//!   explorers are generic over the private `Word` trait, which has just
//!   those two implementations and narrows every value with a checked
//!   conversion;
//! * every admitted configuration is stored once, back to back in the one
//!   append-only word arena of a `ConfigArena`, whose visited set is an
//!   open-addressing index of configuration ids. A successor is written
//!   straight onto the arena's tail and truncated off again if it was
//!   already visited, so an expansion allocates nothing;
//! * a configuration's hash is a wrapping sum of one term per machine state
//!   and one per channel content (`config_hash`), so a successor's hash is
//!   its parent's with the moved machines' terms and the touched channel's
//!   term swapped (`successor_hash`): O(queue length), not O(configuration);
//! * compilation records the *shape* of every machine state (no
//!   transitions, receives on one channel only, or anything else), so an
//!   expansion walks the machines once and an idle machine (finished, or
//!   waiting on an empty channel) costs two loads (`expand`);
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
//!   sharded visited map. It shares the encoding, the arena, the hash, and
//!   the one expansion and successor function (`expand`, `write_successor`,
//!   `successor_hash`) and the width rule with the sequential explorer.
//!
//! The expansion before the one-pass `expand` (ample set, then every
//! enabled step, then a third pass for unspecified receptions) stays under
//! `#[cfg(test)]` as its oracle: a unit test expands every configuration it
//! reaches both ways and checks every successor's incremental hash against
//! the full one. The `u32` width is the byte width's reference: a unit test
//! explores every system of that test at both widths and compares the
//! outcomes.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Debug;
use std::hash::Hasher;

use zooid_mpst::common::intern::{FxHashMap, FxHasher, MsgId, RoleId};
use zooid_mpst::{Action, Interner, InternerSnapshot};

use crate::machine::{CfsmAction, Direction};
use crate::system::{
    ExplorationOutcome, System, SystemConfig, TraceStep, Violation, ViolationKind,
};

/// A compiled transition: everything the exploration loop needs, as ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// What a machine state's transitions allow an expansion to skip, decided
/// once at compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// No transitions: the machine never moves again.
    Stuck,
    /// Every transition receives on this one channel: the machine moves
    /// only on that channel's head, and is idle while it is empty.
    Recv(u32),
    /// Anything else: sends, or receives on more than one channel.
    Mixed,
}

impl Shape {
    /// The shape of a state with transitions `table`.
    fn of(table: &[CTrans]) -> Shape {
        match table.first() {
            None => Shape::Stuck,
            Some(first)
                if table
                    .iter()
                    .all(|t| t.dir == Direction::Recv && t.channel == first.channel) =>
            {
                Shape::Recv(first.channel)
            }
            Some(_) => Shape::Mixed,
        }
    }
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

/// Keeps [`Word`]'s implementations to the two below.
mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u32 {}
}

/// One slot of an encoded configuration: a machine state, a channel's
/// length, or a queued message id. Implemented by `u8` and `u32` only; an
/// exploration picks the narrowest that holds every value it can meet
/// ([`CompiledSystem::width`]).
pub(crate) trait Word:
    sealed::Sealed + Copy + Eq + Default + Debug + Send + Sync + 'static
{
    /// `value` as a word. Panics if it does not fit: the width was chosen so
    /// that every state index, message id and queue length of the system
    /// explored does, so a value that does not is a broken invariant.
    fn narrow(value: u32) -> Self;

    /// The value the word holds.
    fn widen(self) -> u32;
}

impl Word for u8 {
    fn narrow(value: u32) -> u8 {
        u8::try_from(value)
            .expect("byte-wide configurations hold states, message ids and lengths of at most 255")
    }

    fn widen(self) -> u32 {
        u32::from(self)
    }
}

impl Word for u32 {
    fn narrow(value: u32) -> u32 {
        value
    }

    fn widen(self) -> u32 {
        self
    }
}

/// The word an exploration encodes its configurations in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Width {
    /// `u8` words.
    Byte,
    /// `u32` words.
    Wide,
}

/// The splitmix64 finaliser (with its golden-ratio increment, so 0 does not
/// map to 0): every input bit reaches every output bit.
fn mix(x: u64) -> u64 {
    let x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The hash term of machine `m` in state `state`.
fn machine_term(m: usize, state: u32) -> u64 {
    mix((m as u64) << 32 | u64::from(state))
}

/// The hash term of channel `c` holding `queue`: FxHash over the channel id,
/// the length and the queued message ids in order, then [`mix`] to spread
/// it. The ids are hashed as `u32`s whatever the word width, so a
/// configuration hashes alike at both widths.
fn channel_term<W: Word>(c: usize, queue: &[W]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64((c as u64) << 32 | queue.len() as u64);
    for &w in queue {
        h.write_u32(w.widen());
    }
    mix(h.finish())
}

/// Marks an empty slot of a [`ConfigArena`]'s index.
const EMPTY: u32 = u32::MAX;

/// Every configuration an exploration admitted, each stored once.
///
/// A configuration is encoded as one flat run of words, `[machine states |
/// one length per channel | the queued MsgIds, channel by channel]`; the
/// encoding is injective for a fixed system, so two configurations are
/// equal iff their words are. A word `W` is a `u8` when the system's
/// largest state index and message id and the exploration's bound are all
/// at most 255, and a `u32` otherwise ([`CompiledSystem::width`]), so a
/// configuration of a byte-wide exploration costs one byte per machine, per
/// channel and per queued message. The arena keeps all of them back to
/// back in one append-only `Vec<W>`, with an end-offset column and a
/// column of cached hashes beside it. The visited set is an open-addressing
/// index of `u32` configuration ids (linear probing, at most half full),
/// compared by cached hash first and then by slice, so the hash decides
/// only where a configuration is looked for, never whether two are equal.
///
/// The hash ([`CompiledSystem::config_hash`]) is a wrapping sum of
/// [`mix`]ed terms, so it carries entropy in every bit. The index places a
/// configuration on bits 32 and up, and the parallel explorer routes it to
/// its shard on the top six, so the two never read the same bits for any
/// index under 2^26 slots.
///
/// A candidate successor is written onto the tail of `words`, past the
/// last admitted configuration, then either kept as the next id or
/// truncated off again ([`ConfigArena::intern_tail`]), so checking a
/// successor allocates nothing once the columns have grown.
#[derive(Debug)]
pub(crate) struct ConfigArena<W> {
    /// The admitted configurations' words, then the candidate being built.
    words: Vec<W>,
    /// `ends[i]` is where configuration `i`'s words end (and `i + 1`'s
    /// begin); the first begins at 0.
    ends: Vec<usize>,
    /// `hashes[i] == config_hash(config(i))` for the system explored.
    hashes: Vec<u64>,
    /// Configuration ids by hash slot, [`EMPTY`] where none; a power of two
    /// in length.
    index: Vec<u32>,
}

impl<W> Default for ConfigArena<W> {
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

impl<W: Word> ConfigArena<W> {
    /// Number of admitted configurations.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Where the candidate at the tail begins.
    fn committed(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// The words of configuration `id`.
    pub(crate) fn config(&self, id: u32) -> &[W] {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.words[start..self.ends[id]]
    }

    /// The cached hash of configuration `id`.
    pub(crate) fn hash(&self, id: u32) -> u64 {
        self.hashes[id as usize]
    }

    /// The home slot of `hash`: bits 32 and up.
    fn home(&self, hash: u64) -> usize {
        (hash >> 32) as usize & (self.index.len() - 1)
    }

    /// Keeps the candidate written at the tail of the arena (its words past
    /// the last admitted configuration, with hash `hash`) if no
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
        cfg: &[W],
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Position of the first length word (the machine count): channel `c`'s
    /// length sits at `lens + c`.
    lens: usize,
    /// Position of each channel's first queued word in the configuration.
    chan: Vec<usize>,
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
    /// The message id at the head of channel `c` of `cfg`.
    fn head<W: Word>(&self, cfg: &[W], c: u32) -> Option<u32> {
        (self.queued(cfg, c) > 0).then(|| cfg[self.chan[c as usize]].widen())
    }

    /// Number of messages queued on channel `c` of `cfg`.
    fn queued<W: Word>(&self, cfg: &[W], c: u32) -> usize {
        cfg[self.lens + c as usize].widen() as usize
    }

    /// The words queued on channel `c` of `cfg`, or of a successor of it
    /// that changed no channel before `c`, the one it touched.
    fn queue<'a, W: Word>(&self, cfg: &'a [W], c: usize) -> &'a [W] {
        let at = self.chan[c];
        &cfg[at..at + cfg[self.lens + c].widen() as usize]
    }

    /// Whether some receive of `table` faces a head on its channel that no
    /// receive of `table` on that channel takes: an unspecified reception,
    /// as `System::has_unspecified_reception` defines it for one machine.
    fn unhandled_head<W: Word>(&self, cfg: &[W], table: &[CTrans]) -> bool {
        table.iter().any(|t| {
            t.dir == Direction::Recv
                && self.head(cfg, t.channel).is_some_and(|head| {
                    !table.iter().any(|t2| {
                        t2.dir == Direction::Recv && t2.channel == t.channel && word(t2.msg) == head
                    })
                })
        })
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
    /// `shapes[m][s]` = the [`Shape`] of `tables[m][s]`.
    shapes: Vec<Vec<Shape>>,
    /// Endpoints of each dense channel id.
    channels: Vec<ChannelInfo>,
    /// Machine index of each interned role.
    machine_of_role: FxHashMap<RoleId, u32>,
    /// Dense channel id of each ordered `(sender, receiver)` pair that can
    /// carry a message.
    channel_ids: FxHashMap<(RoleId, RoleId), u32>,
    /// The largest state index of any machine and message id of any
    /// transition: with the bound, what decides the word width.
    widest: u32,
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
        let mut shapes = Vec::with_capacity(machines.len());
        let mut finals = Vec::with_capacity(machines.len());
        let mut initial = Vec::with_capacity(machines.len());
        let mut widest = 0u32;

        for (m, machine) in machines.iter().enumerate() {
            let last_state = machine.state_count().saturating_sub(1);
            widest = widest.max(u32::try_from(last_state).expect("state table overflow"));
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
                widest = widest.max(word(msg));
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
            shapes.push(table.iter().map(|t| Shape::of(t)).collect());
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
            shapes,
            channels,
            machine_of_role,
            channel_ids,
            widest,
        }
    }

    /// The word width an exploration at `bound` encodes configurations in:
    /// a byte if every state index, message id and queue length (a queue
    /// never holds more than `bound` messages) fits in one, else `u32`.
    pub(crate) fn width(&self, bound: usize) -> Width {
        if self.widest <= u32::from(u8::MAX) && bound <= usize::from(u8::MAX) {
            Width::Byte
        } else {
            Width::Wide
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
    pub(crate) fn initial_config<W: Word>(&self) -> Vec<W> {
        let mut cfg: Vec<W> = self.initial.iter().map(|&s| W::narrow(s)).collect();
        cfg.resize(self.quiescent_len(), W::narrow(0));
        cfg
    }

    /// Whether every machine of `cfg` is in a final state (queues are not
    /// inspected): the orphan-message half of the terminal classification.
    fn all_machines_final<W: Word>(&self, cfg: &[W]) -> bool {
        cfg[..self.roles.len()]
            .iter()
            .enumerate()
            .all(|(m, &s)| self.finals[m][s.widen() as usize])
    }

    /// Classifies a terminal (successor-less, non-final) configuration,
    /// mirroring the exhaustive explorer's rules: empty queues mean a
    /// deadlock, all-final machines with messages left mean an orphan, and
    /// a stuck configuration with messages in flight but no reception
    /// error is reported as a deadlock (possibly a bound artefact).
    fn classify_terminal<W: Word>(&self, cfg: &[W], unspec: bool) -> Option<ViolationKind> {
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
    /// One pass over the machines, in system order, reads each state's
    /// [`Shape`]. A stuck machine, or a receive-only one whose channel is
    /// empty (its length word, at a fixed offset, is 0), contributes
    /// nothing. A receive-only one with a head contributes the receives
    /// matching it, in table order, or an unspecified reception when none
    /// does. A mixed one takes the general per-machine rules,
    /// rendezvous at bound 0 included. The steps come out in
    /// [`System::successors`] order: machines in system order, each
    /// machine's transitions in table order.
    ///
    /// Under the reduction, the first machine whose state is receive-only
    /// with exactly one transition matching the head is *ample*, and its
    /// receive is the only step taken. Such a machine's transitions are all
    /// receives on one channel `c`, so no other first action of it can become
    /// enabled before the head of `c` is consumed (the singleton is
    /// persistent), and a second matching receive would drop a genuine
    /// nondeterministic branch. The receive commutes with every other
    /// enabled action: peers' sends append to tails (and a pop can only
    /// *enable* a bounded send, never disable one), and peers' receives pop
    /// channels with a different receiver. Because an ample step strictly
    /// decreases the total queued-message count, no cycle of the reduced
    /// graph consists of ample steps only, so the cycle proviso that prevents
    /// the classic "ignoring problem" holds structurally, without
    /// bookkeeping. At bound 0 (rendezvous) every queue is permanently empty,
    /// so no machine is ever ample and the reduction is the full
    /// exploration. Reception errors are never masked: a head that matches
    /// no transition flags the configuration, and errors at other machines
    /// survive an ample step untouched, since the step pops only `c`, whose
    /// sole receiver is the ample machine.
    ///
    /// Shared by the sequential and parallel explorers so the verdict
    /// semantics cannot drift apart.
    pub(crate) fn expand<W: Word>(
        &self,
        cfg: &[W],
        bound: usize,
        reduce: bool,
        ex: &mut Expansion,
    ) {
        self.locate_channels(cfg, ex);
        ex.steps.clear();
        // Index in `ex.steps` of the first ample machine's receive.
        let mut ample: Option<usize> = None;
        let mut unspec = false;
        for (m, &state) in cfg[..self.roles.len()].iter().enumerate() {
            let state = state.widen() as usize;
            match self.shapes[m][state] {
                Shape::Stuck => {}
                Shape::Recv(c) => {
                    let Some(head) = ex.head(cfg, c) else {
                        continue;
                    };
                    let first = ex.steps.len();
                    for &trans in &self.tables[m][state] {
                        if word(trans.msg) == head {
                            ex.steps.push(Step {
                                machine: m as u32,
                                trans,
                                partner_target: None,
                            });
                        }
                    }
                    match ex.steps.len() - first {
                        0 => unspec = true,
                        1 if ample.is_none() => ample = Some(first),
                        _ => {}
                    }
                }
                Shape::Mixed => {
                    let table = &self.tables[m][state];
                    self.push_steps(cfg, ex, bound, m, table);
                    unspec = unspec || ex.unhandled_head(cfg, table);
                }
            }
        }
        if let Some(at) = ample.filter(|_| reduce) {
            let step = ex.steps[at];
            ex.steps.clear();
            ex.steps.push(step);
        }
        self.classify(cfg, unspec, ex);
    }

    /// Records in `ex` where `cfg`'s length words start and where each
    /// channel's queued words start: a prefix sum over the lengths, which
    /// sit side by side.
    fn locate_channels<W: Word>(&self, cfg: &[W], ex: &mut Expansion) {
        let machines = self.roles.len();
        let mut at = self.quiescent_len();
        ex.lens = machines;
        ex.chan.clear();
        for &len in &cfg[machines..at] {
            ex.chan.push(at);
            at += len.widen() as usize;
        }
        debug_assert_eq!(at, cfg.len(), "a configuration ends with its last channel");
    }

    /// Fills in `ex.is_final` and `ex.violations` once `ex.steps` is known,
    /// `unspec` saying whether some machine faces a head it cannot receive.
    fn classify<W: Word>(&self, cfg: &[W], unspec: bool, ex: &mut Expansion) {
        ex.is_final = cfg.len() == self.quiescent_len() && self.all_machines_final(cfg);
        ex.violations.clear();
        if ex.steps.is_empty() && !ex.is_final {
            ex.violations.extend(self.classify_terminal(cfg, unspec));
        }
        if unspec {
            ex.violations.push(ViolationKind::UnspecifiedReception);
        }
    }

    /// Appends to `ex.steps` every enabled step of machine `m`, whose state's
    /// transitions are `table`, in table order.
    fn push_steps<W: Word>(
        &self,
        cfg: &[W],
        ex: &mut Expansion,
        bound: usize,
        m: usize,
        table: &[CTrans],
    ) {
        for &t in table {
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
                    for &rt in &self.tables[pm][cfg[pm].widen() as usize] {
                        if rt.dir == Direction::Recv && rt.channel == t.channel && rt.msg == t.msg {
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

    /// Appends to `out` the encoding of the configuration `step` leads to
    /// from `cfg` (as expanded into `ex`): a copy of `cfg` with one word
    /// inserted at the tail of the channel's queue and its length bumped (a
    /// send), its head removed and its length dropped (a receive), or
    /// neither (a rendezvous), and the moved machines' states overwritten.
    /// The one successor function of both explorers.
    pub(crate) fn write_successor<W: Word>(
        &self,
        cfg: &[W],
        ex: &Expansion,
        step: Step,
        out: &mut Vec<W>,
    ) {
        let base = out.len();
        let t = step.trans;
        let c = t.channel as usize;
        let len_at = ex.lens + c;
        if step.partner_target.is_some() {
            out.extend_from_slice(cfg);
        } else if t.dir == Direction::Send {
            let len = cfg[len_at].widen();
            let tail = ex.chan[c] + len as usize;
            out.extend_from_slice(&cfg[..tail]);
            out.push(W::narrow(word(t.msg)));
            out.extend_from_slice(&cfg[tail..]);
            out[base + len_at] = W::narrow(len + 1);
        } else {
            let head = ex.chan[c];
            out.extend_from_slice(&cfg[..head]);
            out.extend_from_slice(&cfg[head + 1..]);
            out[base + len_at] = W::narrow(cfg[len_at].widen() - 1);
        }
        out[base + step.machine as usize] = W::narrow(t.target);
        if let Some(target) = step.partner_target {
            out[base + t.partner_machine as usize] = W::narrow(target);
        }
    }

    /// The hash of the encoded configuration `cfg`: the wrapping sum of one
    /// term per machine (its index and state) and one per channel (its id
    /// and queued message ids, in order). The terms read values, not words,
    /// so the hash does not depend on the width. Explorers compute it in
    /// full only for the initial configuration and take every other from
    /// [`CompiledSystem::successor_hash`].
    pub(crate) fn config_hash<W: Word>(&self, cfg: &[W]) -> u64 {
        let machines = self.roles.len();
        let mut h = 0u64;
        for (m, &state) in cfg[..machines].iter().enumerate() {
            h = h.wrapping_add(machine_term(m, state.widen()));
        }
        for (c, queue) in self.queues(cfg).enumerate() {
            h = h.wrapping_add(channel_term(c, queue));
        }
        h
    }

    /// The queued words of each channel of `cfg`, in channel order.
    fn queues<'a, W: Word>(&self, cfg: &'a [W]) -> impl Iterator<Item = &'a [W]> {
        let mut at = self.quiescent_len();
        cfg[self.roles.len()..at].iter().map(move |&len| {
            let queue = &cfg[at..at + len.widen() as usize];
            at += queue.len();
            queue
        })
    }

    /// The hash of `next`, the configuration [`CompiledSystem::write_successor`]
    /// wrote for `step` from `cfg` (as expanded into `ex`), given `parent`,
    /// the hash of `cfg`: the parent's sum with the terms of the machines
    /// the step moved and of the channel it touched swapped for their new
    /// values. Equal to `config_hash(next)`, in O(queue length).
    pub(crate) fn successor_hash<W: Word>(
        &self,
        parent: u64,
        cfg: &[W],
        ex: &Expansion,
        step: Step,
        next: &[W],
    ) -> u64 {
        let swap = |h: u64, m: usize| {
            h.wrapping_sub(machine_term(m, cfg[m].widen()))
                .wrapping_add(machine_term(m, next[m].widen()))
        };
        let t = step.trans;
        let m = step.machine as usize;
        let mut h = swap(parent, m);
        if step.partner_target.is_some() {
            let pm = t.partner_machine as usize;
            if pm != m {
                h = swap(h, pm);
            }
        } else {
            let c = t.channel as usize;
            h = h
                .wrapping_sub(channel_term(c, ex.queue(cfg, c)))
                .wrapping_add(channel_term(c, ex.queue(next, c)));
        }
        debug_assert_eq!(h, self.config_hash(next), "the incremental hash drifted");
        h
    }

    /// Decodes an encoded configuration back into the role-keyed form used
    /// by [`System::successors`] and the counterexample traces.
    pub(crate) fn decode<W: Word>(&self, cfg: &[W]) -> SystemConfig {
        let machines = self.roles.len();
        let mut channels = BTreeMap::new();
        for (info, queue) in self.channels.iter().zip(self.queues(cfg)) {
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
                    let mid =
                        MsgId::from_index(w.widen() as usize).expect("a queued word is a MsgId");
                    let (l, s) = self.snapshot.msg(mid);
                    (self.snapshot.label(l).clone(), self.snapshot.sort(s).clone())
                })
                .collect();
            channels.insert(key, msgs);
        }
        SystemConfig {
            states: cfg[..machines].iter().map(|&s| s.widen() as usize).collect(),
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
    fn trace_to<W: Word>(
        &self,
        idx: u32,
        arena: &ConfigArena<W>,
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
    /// This is the trust boundary for persisted monitor state (session
    /// checkpoints): `None` means the raw state cannot have come from
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
    /// partial-order reduction enabled (the crate-private `expand` method in
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
        match self.width(bound) {
            Width::Byte => self.explore_words::<u8>(bound, max_configs, reduce),
            Width::Wide => self.explore_words::<u32>(bound, max_configs, reduce),
        }
    }

    /// The breadth-first search of [`CompiledSystem::explore`] and
    /// [`CompiledSystem::explore_por`] on `W` words (`max_configs` > 0).
    fn explore_words<W: Word>(
        &self,
        bound: usize,
        max_configs: usize,
        reduce: bool,
    ) -> ExplorationOutcome {
        let mut arena = ConfigArena::<W>::default();
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

        let init = self.initial_config::<W>();
        arena.intern(&init, self.config_hash(&init), || true);
        parents.push(None);

        // The configuration being expanded is copied out of the arena once,
        // so its successors can be written straight onto the arena's tail.
        let mut cfg: Vec<W> = Vec::new();
        let mut ex = Expansion::default();
        let mut head = 0u32;
        while (head as usize) < arena.len() {
            let idx = head;
            head += 1;
            cfg.clear();
            cfg.extend_from_slice(arena.config(idx));

            let parent_hash = arena.hash(idx);
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
                let next = &arena.words[arena.committed()..];
                let hash = self.successor_hash(parent_hash, &cfg, &ex, step, next);
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

/// The expansion as it was before the one-pass [`CompiledSystem::expand`]:
/// the ample set, then every enabled step, then a third pass for
/// unspecified receptions. Kept as the oracle the one pass is tested
/// against.
#[cfg(test)]
impl CompiledSystem {
    /// [`CompiledSystem::expand`], three passes over the machines.
    fn expand_oracle<W: Word>(&self, cfg: &[W], bound: usize, reduce: bool, ex: &mut Expansion) {
        self.locate_channels(cfg, ex);
        ex.steps.clear();
        match reduce.then(|| self.ample(cfg, ex, bound)).flatten() {
            Some(step) => ex.steps.push(step),
            None => self.successors(cfg, ex, bound),
        }
        let unspec = self.has_unspecified_reception(cfg, ex);
        self.classify(cfg, unspec, ex);
    }

    /// Appends every enabled step of `cfg` to `ex.steps`, in the same order
    /// as [`System::successors`]: machines in system order, each machine's
    /// transitions in table order.
    fn successors<W: Word>(&self, cfg: &[W], ex: &mut Expansion, bound: usize) {
        for m in 0..self.roles.len() {
            for &t in &self.tables[m][cfg[m].widen() as usize] {
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
                        for &rt in &self.tables[pm][cfg[pm].widen() as usize] {
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

    /// Ample-set selection for the partial-order reduction: returns a
    /// machine's single enabled receive whose expansion alone is sufficient
    /// at `cfg`, or `None` when the configuration must be expanded in full.
    /// The first machine whose every transition receives on one channel,
    /// and exactly one of them matches that channel's head, is ample; the
    /// soundness argument is on [`CompiledSystem::expand`].
    fn ample<W: Word>(&self, cfg: &[W], ex: &Expansion, bound: usize) -> Option<Step> {
        if bound == 0 {
            return None;
        }
        'machines: for m in 0..self.roles.len() {
            let table = &self.tables[m][cfg[m].widen() as usize];
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
    fn has_unspecified_reception<W: Word>(&self, cfg: &[W], ex: &Expansion) -> bool {
        for m in 0..self.roles.len() {
            let table = &self.tables[m][cfg[m].widen() as usize];
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

    /// Breadth-first over the configurations [`CompiledSystem::expand`]
    /// reaches from the initial one on `u32` words, the reference width;
    /// see [`CompiledSystem::reach_words`].
    pub(crate) fn reach(
        &self,
        bound: usize,
        reduce: bool,
        cap: usize,
        visit: impl FnMut(&[u32], &Expansion),
    ) -> ConfigArena<u32> {
        self.reach_words(bound, reduce, cap, visit)
    }

    /// Breadth-first over the configurations [`CompiledSystem::expand`]
    /// reaches from the initial one on `W` words, admitting at most `cap`:
    /// hands each expanded configuration and its expansion to `visit`,
    /// checks that every written successor's
    /// [`CompiledSystem::successor_hash`] equals its
    /// [`CompiledSystem::config_hash`], and returns the arena.
    pub(crate) fn reach_words<W: Word>(
        &self,
        bound: usize,
        reduce: bool,
        cap: usize,
        mut visit: impl FnMut(&[W], &Expansion),
    ) -> ConfigArena<W> {
        let mut arena = ConfigArena::default();
        let init = self.initial_config::<W>();
        arena.intern(&init, self.config_hash(&init), || true);
        let mut cfg: Vec<W> = Vec::new();
        let mut ex = Expansion::default();
        let mut head = 0u32;
        while (head as usize) < arena.len() {
            cfg.clear();
            cfg.extend_from_slice(arena.config(head));
            let parent = arena.hash(head);
            head += 1;
            self.expand(&cfg, bound, reduce, &mut ex);
            visit(&cfg, &ex);
            for &step in &ex.steps {
                self.write_successor(&cfg, &ex, step, &mut arena.words);
                let next = &arena.words[arena.committed()..];
                let hash = self.successor_hash(parent, &cfg, &ex, step, next);
                assert_eq!(hash, self.config_hash(next), "{step:?} from {cfg:?}");
                let full = arena.len() >= cap;
                arena.intern_tail(hash, || !full);
            }
        }
        arena
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

    /// The system of `locals`, with machine `cut` (if any) implementing the
    /// local type `swap` gives its role instead of its own.
    fn patched(
        locals: &[(Role, LocalType)],
        cut: usize,
        swap: impl Fn(&Role) -> Option<LocalType>,
    ) -> Option<System> {
        let machines = locals
            .iter()
            .enumerate()
            .map(|(i, (role, local))| {
                let local = if i == cut { swap(role)? } else { local.clone() };
                Cfsm::from_local_type(role.clone(), &local).ok()
            })
            .collect::<Option<Vec<_>>>()?;
        System::new(machines).ok()
    }

    /// The systems the expansion and width tests run on: the ring, chain
    /// and fanout sizes `register` lists, the case studies and the
    /// projectable random seeds it draws from, each intact and with its
    /// first or last machine cut to `end` (orphans, deadlocks); each random
    /// one also with its first machine taken from the next one's projection
    /// (reception errors).
    fn mutated_systems() -> Vec<System> {
        use zooid_mpst::generators::{self, RandomProtocol};
        use zooid_mpst::projection::project_all;
        let mut globals = vec![
            generators::ring3(),
            generators::pipeline(),
            generators::ping_pong(),
            generators::two_buyer(),
        ];
        for n in [2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64] {
            globals.push(generators::ring_n(n));
            globals.push(generators::chain_n(n));
        }
        globals.extend((2..=10).map(generators::fanout_n));
        let random: Vec<_> = (0..40)
            .map(|seed| generators::random_global(seed, &RandomProtocol::default()))
            .filter(|g| project_all(g).is_ok())
            .collect();
        assert_eq!(random.len(), 8, "seeds 0..40 hold eight projectable ones");
        globals.extend(random.iter().cloned());

        let mut systems = Vec::new();
        for (i, global) in globals.iter().enumerate() {
            let locals = project_all(global).expect("projectable");
            let donor = random
                .iter()
                .position(|g| g == global)
                .map(|k| project_all(&random[(k + 1) % random.len()]).expect("projectable"));
            let last = locals.len() - 1;
            systems.extend(patched(&locals, usize::MAX, |_| None));
            systems.extend(patched(&locals, 0, |_| Some(LocalType::End)));
            systems.extend(patched(&locals, last, |_| Some(LocalType::End)));
            if let Some(donor) = donor {
                systems.extend(patched(&locals, 0, |role| {
                    donor.iter().find(|(r, _)| r == role).map(|(_, l)| l.clone())
                }));
            }
            assert!(systems.len() >= 3 * (i + 1), "{global} yields its systems");
        }
        systems
    }

    /// Enough configurations to reach every state of the small systems of
    /// [`mutated_systems`] and deep into the large ones, in a debug build's
    /// test time.
    const CAP: usize = 2_000;

    #[test]
    fn the_one_pass_expansion_matches_the_three_pass_oracle() {
        let systems = mutated_systems();
        let mut oracle = Expansion::default();
        let mut expanded = 0usize;
        let mut seen: BTreeMap<ViolationKind, usize> = BTreeMap::new();
        for system in &systems {
            let compiled = system.compile();
            for bound in 0..=2 {
                for reduce in [false, true] {
                    compiled.reach(bound, reduce, CAP, |cfg, ex| {
                        compiled.expand_oracle(cfg, bound, reduce, &mut oracle);
                        let at = format!("{cfg:?} at bound {bound}, reduce {reduce}");
                        assert_eq!(ex.steps, oracle.steps, "{at}");
                        assert_eq!(ex.is_final, oracle.is_final, "{at}");
                        assert_eq!(ex.violations, oracle.violations, "{at}");
                        expanded += 1;
                        for &kind in &ex.violations {
                            *seen.entry(kind).or_default() += 1;
                        }
                    });
                }
            }
        }
        assert!(expanded > 200_000, "only {expanded} configurations expanded");
        for kind in [
            ViolationKind::Deadlock,
            ViolationKind::OrphanMessage,
            ViolationKind::UnspecifiedReception,
        ] {
            assert!(seen.contains_key(&kind), "no {kind:?} met: {seen:?}");
        }
    }

    #[test]
    fn the_byte_width_matches_the_wide_one() {
        let mut compared = 0usize;
        for (i, system) in mutated_systems().iter().enumerate() {
            let compiled = system.compile();
            for bound in 0..=2 {
                let at = format!("system {i} at bound {bound}");
                assert_eq!(compiled.width(bound), Width::Byte, "{at}");
                for reduce in [false, true] {
                    let narrow = compiled.explore_words::<u8>(bound, CAP, reduce);
                    let wide = compiled.explore_words::<u32>(bound, CAP, reduce);
                    assert_eq!(narrow, wide, "{at}, reduce {reduce}");
                    compared += narrow.configurations;
                }
            }
        }
        assert!(compared > 200_000, "only {compared} configurations compared");
    }

    /// `p` sends `l` to `q` `sends` times, and `q` receives it as often.
    fn sequential_sends(sends: usize) -> System {
        let (mut p, mut q) = (LocalType::End, LocalType::End);
        for _ in 0..sends {
            p = LocalType::send1(r("q"), "l", Sort::Nat, p);
            q = LocalType::recv1(r("p"), "l", Sort::Nat, q);
        }
        System::new(vec![machine("p", &p), machine("q", &q)]).unwrap()
    }

    /// `p` sends `l` to `q` forever, and `q` receives one and ends: at bound
    /// `b`, `p` fills the channel to `b` messages and deadlocks there.
    fn flood() -> System {
        let p = LocalType::rec(LocalType::send1(r("q"), "l", Sort::Nat, LocalType::var(0)));
        let q = LocalType::recv1(r("p"), "l", Sort::Nat, LocalType::End);
        System::new(vec![machine("p", &p), machine("q", &q)]).unwrap()
    }

    /// The systems no byte holds, each with the bound to explore it at: a
    /// machine of 301 states, and a queue of up to 256 messages.
    fn wide_systems() -> Vec<(&'static str, System, usize)> {
        vec![
            ("300 sequential sends", sequential_sends(300), 2),
            ("a flood at bound 256", flood(), 256),
        ]
    }

    #[test]
    fn the_wide_width_runs_where_no_byte_fits() {
        for (name, system, bound) in wide_systems() {
            let compiled = system.compile();
            let fast = compiled.explore(bound, 100_000);
            let slow = system.explore_exhaustive(bound, 100_000);
            assert!(!fast.truncated, "{name}");
            assert_eq!(fast.configurations, slow.configurations, "{name}");
            assert_eq!(fast.transitions, slow.transitions, "{name}");
            assert_eq!(fast.verdict(), slow.verdict(), "{name}");
            assert_eq!(fast.deadlocks, slow.deadlocks, "{name}");
            assert_eq!(fast.orphan_messages, slow.orphan_messages, "{name}");
            assert_eq!(
                fast.unspecified_receptions, slow.unspecified_receptions,
                "{name}"
            );
            assert_eq!(fast.final_reachable, slow.final_reachable, "{name}");
            assert_eq!(fast.live, slow.live, "{name}");
            let por = compiled.explore_por(bound, 100_000);
            assert_eq!(por.verdict(), slow.verdict(), "{name}");
            for threads in [1, 2] {
                let par = compiled.explore_parallel(bound, 100_000, threads);
                let at = format!("{name}, {threads} threads");
                assert_eq!(par.configurations, por.configurations, "{at}");
                assert_eq!(par.transitions, por.transitions, "{at}");
                assert_eq!(par.verdict(), por.verdict(), "{at}");
                assert_eq!(par.deadlocks, por.deadlocks, "{at}");
                assert_eq!(par.final_reachable, por.final_reachable, "{at}");
                assert_eq!(par.live, por.live, "{at}");
            }
            assert_eq!(compiled.width(bound), Width::Wide, "{name}");
        }
        // The flood's deadlock holds all 256 messages, which a byte-wide
        // length would have wrapped to 0.
        let flood = flood().explore(256, 100_000);
        let [deadlock] = &flood.deadlocks[..] else {
            panic!("one deadlock: {flood:?}");
        };
        assert_eq!(deadlock.channels.values().map(VecDeque::len).sum::<usize>(), 256);
    }

    #[test]
    fn every_register_family_explores_byte_wide() {
        use zooid_mpst::generators;
        // Bound 2 is the registry's default safety budget's channel bound.
        let mut globals = Vec::new();
        for n in [2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64] {
            globals.push(generators::ring_n(n));
            globals.push(generators::chain_n(n));
        }
        globals.extend((2..=10).map(generators::fanout_n));
        globals.extend((2..=6).map(generators::branching));
        for global in &globals {
            let compiled = System::from_global(global).expect("projectable").compile();
            assert_eq!(compiled.width(2), Width::Byte, "{global}");
        }
        for (name, system, bound) in wide_systems() {
            assert_eq!(system.compile().width(bound), Width::Wide, "{name}");
        }
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
