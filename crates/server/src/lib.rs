//! `zooid-server` — a multi-session server for certified session protocols.
//!
//! The paper's runtime (§4.5) executes one session at a time, one OS thread
//! per participant. This crate is the serving layer the ROADMAP's north star
//! asks for: host **thousands of concurrent sessions** of registered
//! protocols on a **bounded worker pool**, amortizing every per-protocol
//! cost through the compile-once substrate built in earlier PRs (the shared
//! interner and the dense [`zooid_cfsm::CompiledSystem`] transition tables).
//!
//! * [`registry`] — a [`ProtocolRegistry`] compiles each registered protocol
//!   exactly once (well-formedness → projection → per-role CFSMs →
//!   [`zooid_cfsm::System::compile`] → a reduced safety exploration) and
//!   files the artifacts under a dense [`ProtocolId`]; starting the server
//!   **freezes** it behind one `Arc` every shard holds, the one place
//!   protocol facts live from then on. Per global type and `(role, process)`
//!   it caches the **compiled endpoint program**
//!   ([`zooid_runtime::EndpointProgram`], a [`zooid_proc::CompiledProc`]
//!   with its action templates pre-interned against the protocol's
//!   transition tables) and per program set the batch layout, so admission
//!   resolves a session's cast exactly once;
//! * [`session`] — an [`ActiveSession`](session::SessionSpec) bundles one
//!   endpoint task per participant — always a compiled
//!   [`zooid_runtime::CompiledEndpointTask`] (program counter + slot array;
//!   certification guarantees every process lowers, so the tree-walking
//!   executor of [`zooid_runtime::exec`] is the runtime crate's differential
//!   oracle and never runs here) — with the session's in-memory channels
//!   (direct `(Label, Value)` frames, dense peer indices, no codec) and a
//!   [`zooid_runtime::CompiledMonitor`] fed **pre-interned actions**, so
//!   steady-state serving neither hashes a string nor walks a tree;
//! * [`server`] — the [`SessionServer`] schedules sessions over N worker
//!   shards (sessions hashed by id, validated specs shipped — an id and a
//!   spec, nothing else — to the shard that *resolves and constructs* them
//!   against the registry, outcomes flushed in batches); each shard steps
//!   its work in bounded quanta, so thread count is fixed by the shard
//!   count while sessions number in the tens of thousands. Homogeneous
//!   sessions — same protocol, same compiled per-role programs, same
//!   options, batch-eligible layout (no externals, statically sorted and
//!   pre-interned communication sites) — coalesce into **columnar
//!   batches** ([`zooid_runtime::SessionBatch`]): the invariant skeleton is
//!   shared once and the per-session state lives in struct-of-arrays
//!   columns stepped in `(role, pc)` cohorts, with co-batched sends as
//!   index writes into a shared frame arena. Everything else — and every
//!   session a batch demotes mid-flight because it must keep running and
//!   cannot there (a tolerated violation, a runtime sort mismatch), with
//!   its traces, monitor cursor and in-flight frames intact — runs on the
//!   per-session **slab** (reusable slots, also the behavioural oracle for
//!   the batched path). Under the default [`QuarantinePolicy::Halt`] a
//!   session the monitor flags is **quarantined**: never stepped again
//!   (slab and batch paths alike), closed from the state it is in,
//!   counted per shard and per protocol, and recorded as a
//!   [`FlightEvent::Quarantined`];
//! * [`metrics`] — the instrument tables, one per layer: every counter
//!   and histogram a shard or the IO loop keeps is one row (name, doc, wire
//!   key, kind), and the live atomics ([`metrics::ShardInstruments`],
//!   [`metrics::NetInstruments`]), the reports ([`ShardReport`],
//!   [`ObsReport`], [`NetReport`]), the cross-shard totals on
//!   [`ServerReport`], the [`StatsSnapshot`] codec a live [`NetServer`]
//!   answers `MuxFrame::Stats` frames with, and the plain-text `Display` of
//!   every report are derived from the rows;
//! * [`obs`] — what the instruments are made of: the lock-free log2-bucket
//!   [`obs::Histogram`] (`p50/p90/p99/max`), the bounded
//!   [`obs::FlightRecorder`] of dense structured events, and — on every
//!   monitor violation — a replayable [`obs::Incident`] (role, action,
//!   monitor cursor, bounded compliant-trace prefix) that re-certifies the
//!   violation against the [`zooid_cfsm::CompiledSystem`];
//! * [`synth`] — skeleton endpoint implementations synthesized from
//!   projections, used by the load generator and the differential tests,
//!   plus the **byzantine driver generator**: for a registered protocol it
//!   synthesizes minimally-wrong endpoint casts — wrong label, wrong
//!   payload sort, a message after termination, premature silence — one
//!   mutation per driver, each with a known expected violation class, for
//!   the hostile-world campaign (`tests/hostile_campaign.rs`);
//! * [`net`] — the event-driven networked serving plane: a [`NetServer`]
//!   fronts the [`SessionServer`] with one non-blocking IO thread (which
//!   blocks only when idle, and then on the shards' outcome channel)
//!   speaking the framed, multiplexed wire protocol of
//!   [`zooid_runtime::wire`]. Many sessions
//!   share one connection; admission control (bounded accepts, per-
//!   connection and global in-flight caps) sheds load with structured
//!   rejection frames, and hostile framing is a counted, bounded error —
//!   never an allocation or a hang. Connections that never produce a
//!   decodable frame are reaped after
//!   [`NetServerConfig::idle_timeout`], and quarantined sessions can
//!   optionally tear down their opening connection
//!   ([`NetServerConfig::close_on_quarantine`]) — or, with
//!   [`NetServerConfig::ban_after_quarantines`], a connection whose
//!   sessions keep getting quarantined has its further opens rejected
//!   while it stays up for in-flight work.
//!
//! Sessions are **movable**: a session's state is copied out only when the
//! session leaves its shard. [`SessionServer::drain_shard`] takes every
//! in-flight session off a shard as a [`MigratedSession`] — an encoded
//! [`zooid_runtime::checkpoint::SessionCheckpoint`] plus its compiled
//! programs — and [`SessionServer::migrate_session`] re-admits one on any
//! shard after the decoder re-validates every index against the
//! protocol's compiled artifacts (a tampered or foreign checkpoint is a
//! structured [`error`], never a panic). Nothing is snapshotted on the
//! scheduling path. Quarantine is a *policy family*:
//! [`QuarantinePolicy::Observe`] records violations but keeps stepping,
//! [`QuarantinePolicy::Halt`] (the default) stops a flagged session at its
//! first violation and closes it from the state its executor already holds.
//! There is no re-run policy: a certified endpoint is a deterministic
//! function of what it receives, so re-running a session that calls no
//! externals repeats its verdict, and one that calls them cannot be re-run.
//! Per-protocol violation thresholds
//! ([`ServerConfig::with_violation_threshold`]) let designated lenient
//! protocols absorb violations Observe-style while everything else stays
//! strict. `tests/crash_recovery.rs` drives drain/migrate conservation,
//! checkpoint tampering, quarantine on both execution paths and connection
//! bans.
//!
//! A session **ends where it stands**: whoever holds it when it is over —
//! a columnar batch (concluded, or every endpoint blocked for good), a slab
//! session at the end of its last quantum, the shard holding a violator a
//! batch has just demoted — builds the [`SessionOutcome`] from the state it
//! already has. A session changes executor only to keep running.
//!
//! The harness-vs-server differential suite (`tests/differential.rs`)
//! checks that a session hosted here is indistinguishable — per-endpoint
//! statuses, traces, monitor verdicts — from the same endpoints run by the
//! thread-per-participant [`zooid_runtime::SessionHarness`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
mod instruments;
pub mod metrics;
pub mod net;
pub mod obs;
pub mod registry;
pub mod server;
pub mod session;
pub mod synth;

pub use error::{Result, ServerError};
pub use metrics::{
    NetReport, NetServerReport, ObsReport, RejectCounts, ServerReport, ShardReport, StatsSnapshot,
};
pub use obs::{
    FlightEvent, FlightRecorder, Histogram, HistogramSnapshot, Incident, IncidentStore,
    IncidentSummary,
};
pub use net::{NetClient, NetServer, NetServerConfig, Service};
pub use registry::{ProtocolArtifacts, ProtocolId, ProtocolRegistry, SafetyBudget};
pub use server::{MigratedSession, QuarantinePolicy, ServerConfig, SessionServer};
pub use synth::{ByzantineDriver, ByzantineMutation, ExpectedClass};
pub use session::{SessionId, SessionOutcome, SessionSpec};
