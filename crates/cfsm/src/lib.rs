//! Communicating finite-state machines (CFSMs) compiled from local session
//! types, with explicit-state safety and liveness exploration.
//!
//! The paper's operational semantics is designed "with automata in mind"
//! (§3.3), following the correspondence between multiparty session types and
//! communicating automata of Deniélou and Yoshida. This crate makes that
//! substrate concrete:
//!
//! * [`machine::Cfsm`] compiles a local type into a finite-state machine
//!   whose transitions are send/receive actions towards the other
//!   participants;
//! * [`system::System`] composes one machine per participant with FIFO
//!   channels (bounded during exploration; rendezvous at bound 0) and
//!   explores the reachable configurations, detecting deadlocks, orphan
//!   messages, unspecified receptions and progress violations;
//! * [`engine::CompiledSystem`] is the interned state-space engine behind
//!   [`system::System::explore`]: machines compile once into dense per-state
//!   transition tables whose actions are interned `(label, sort)` ids from
//!   the shared [`zooid_mpst::Interner`], a configuration is one flat run
//!   of words (machine states, then each channel's length and queued
//!   message ids), every admitted configuration is stored once in an
//!   append-only word arena whose visited set is an open-addressing index
//!   of ids with a cached hash per configuration (so a successor costs no
//!   allocation, and its hash is its parent's with the changed terms
//!   swapped), and a worklist BFS over that arena
//!   records parent pointers so every violation carries a shortest
//!   replayable counterexample trace ([`system::Violation`]). The original
//!   explicit-state explorer is kept as
//!   [`system::System::explore_exhaustive`] and serves as an independent
//!   oracle for the differential test-suite, mirroring
//!   `check_trace_equivalence_exhaustive` in `zooid_mpst`. The compiled
//!   system also exposes a per-role **monitor view**
//!   ([`engine::MonitorCursor`] / [`engine::CompiledSystem::observe`]):
//!   observed actions advance machine states and unbounded FIFO buffers of
//!   interned message ids, which is what the runtime's `CompiledMonitor` and
//!   the session server use to check protocol compliance in O(1) per action.
//!   The rule itself is [`engine::CompiledSystem::transition`], over one
//!   machine state, so a caller may keep the states and queues in its own
//!   layout (the server's batch keeps the queues in its frame arena);
//! * two reduced exploration modes sit on top of the engine and preserve
//!   its verdicts while skipping most of the interleaving space:
//!   [`system::System::explore_por`] applies an ample-set **partial-order
//!   reduction** (a configuration where some machine's entire transition
//!   set is receives on one channel whose head matches exactly one of them
//!   expands to that single receive — see [`engine::CompiledSystem::explore_por`]
//!   for why this is sound for bounded-FIFO systems, including the
//!   structural cycle proviso), and [`system::System::explore_parallel`]
//!   runs the same reduced search on a **work-stealing frontier** of N
//!   threads over a visited map sharded by the cached configuration hash
//!   ([`parallel`]). Both agree with [`system::System::explore`] and
//!   [`system::System::explore_exhaustive`] on verdicts, termination
//!   reachability and liveness (`tests/differential_modes.rs`), and every
//!   violation they report still replays through
//!   [`system::System::successors`];
//! * [`compat::check_protocol`] runs the whole pipeline for a global type —
//!   project, compile, compose, explore — producing the safety/liveness
//!   verdicts that the paper's well-typed processes inherit from the
//!   metatheory, and that the evaluation harness reports for every case
//!   study (`zooid-bench`'s `case-studies`, the paper's §5.2). Its
//!   [`compat::SafetyReport`] exposes a three-valued [`system::Verdict`], so
//!   a truncated search reports `Inconclusive` instead of a false `Safe`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compat;
pub mod engine;
pub mod error;
pub mod machine;
pub mod parallel;
pub mod system;

pub use compat::{check_protocol, check_protocol_exhaustive, SafetyReport};
pub use engine::{CompiledSystem, InternedAction, MonitorCursor};
pub use error::{CfsmError, Result};
pub use machine::{Cfsm, CfsmAction, Direction, StateId};
pub use system::{
    ExplorationOutcome, System, SystemConfig, TraceStep, Verdict, Violation, ViolationKind,
};
