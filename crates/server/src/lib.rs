//! `zooid-server` — a multi-session server for certified session protocols.
//!
//! The server links one runtime crate, the serving engine
//! ([`zooid_engine`]): compiled programs, the columnar batch, the compiled
//! monitor and the wire codec. The paper's reference runtime and the
//! oracles (`zooid-runtime`, session checkpoints included) are a
//! dev-dependency only — the differential suites run them next to the
//! server — so no serving module can name an oracle, and `scripts/ci.sh`
//! fails if `zooid-runtime` ever enters this crate's normal dependencies.
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
//!   ([`zooid_engine::EndpointProgram`], a [`zooid_proc::CompiledProc`]
//!   with its action templates pre-interned against the protocol's
//!   transition tables) and per program set the batch layout, so admission
//!   resolves a session's cast exactly once;
//! * [`session`] — what a hosted session is: the [`SessionSpec`] a caller
//!   submits (one certified process and its externals per participant),
//!   the admission check on it, and the [`SessionOutcome`] it ends with;
//! * [`server`] — the [`SessionServer`] schedules sessions over N worker
//!   shards (sessions hashed by id, validated specs shipped — an id and a
//!   spec, nothing else — to the shard that *resolves and admits* them
//!   against the registry, outcomes flushed in batches). Both sides keep
//!   a **per-protocol memo** of the last cast they accepted — the server
//!   the cast it validated, each shard the cast it resolved and its batch
//!   layout. A cast is known by its certificates: the sessions of one set
//!   of certificates, in one shared handle or in a new list each, skip
//!   validation and resolution, and admission takes no lock. A miss (a
//!   cast with a certificate of its own, or reordered) runs the full
//!   check and resolution and replaces the entry; `casts_resolved` counts
//!   the misses. Each shard steps its work in bounded quanta, so thread
//!   count is fixed by the shard count while sessions number in the tens
//!   of thousands. A shard has one executor: every session runs in a
//!   **columnar batch** ([`zooid_engine::SessionBatch`]) with the
//!   sessions of its key — same protocol, same compiled per-role
//!   programs, same options — one batch per key, which starts at one slot
//!   and doubles when it is full. The invariant skeleton is shared once
//!   and the per-session state lives in struct-of-arrays columns stepped
//!   in `(role, pc)` cohorts, with co-batched sends as index writes into
//!   a shared frame arena and every action checked by the protocol's
//!   compiled monitor, through **pre-interned actions** where the cast's
//!   sites have them, so steady-state serving neither hashes a string nor
//!   walks a tree. The per-session and tree-walking executors of
//!   `zooid-runtime` are its differential oracles and are not linked
//!   here. A session whose monitor rejects an action is **quarantined**:
//!   never stepped again, closed from the state it is in, counted per
//!   shard and per protocol, and recorded as one
//!   [`FlightEvent::Violation`];
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
//! * [`synth`] — a re-export of [`zooid_dsl::synth`], kept at this path
//!   because the frozen benchmark and the `load_sim` example import it
//!   from here: skeleton endpoint implementations certified from
//!   projections, for the load generator and the differential tests, and
//!   the **byzantine driver generator**, which certifies minimally-wrong
//!   endpoint casts — wrong label, wrong payload sort, a message after
//!   termination, premature silence — one mutation per driver, each with a
//!   known expected violation class, for the hostile-world campaign
//!   (`tests/hostile_campaign.rs`);
//! * [`net`] — the event-driven networked serving plane: a [`NetServer`]
//!   fronts the [`SessionServer`] with one non-blocking IO thread (which
//!   blocks only when idle, and then on the shards' outcome channel)
//!   speaking the framed, multiplexed wire protocol of
//!   [`zooid_engine::wire`]. Many sessions
//!   share one connection; admission control (bounded accepts, per-
//!   connection and global in-flight caps) sheds load with structured
//!   rejection frames, and hostile framing is a counted, bounded error —
//!   never an allocation or a hang. Connections that never produce a
//!   decodable frame are reaped after
//!   [`NetServerConfig::idle_timeout`]. A quarantined session reaches its
//!   opener as a `Done` frame like any other: the server runs its own
//!   catalog cast, so a violation is no fault of the connection.
//!
//! A session **stays on its shard**: shards are fixed when the server
//! starts, nothing moves a live session between them, and nothing is
//! snapshotted on the scheduling path. A closed certified session is a
//! deterministic function of its cast (Theorem 4.7 and per-pair FIFO), so
//! the way back from an interruption is to submit the session again, not
//! to resume it.
//!
//! A violation ends the session, and that is the whole policy: a process
//! certified against the protocol's projection performs only the
//! protocol's traces (the paper's Theorem 4.7), so the first rejected
//! action proves the cast is not what its certificate says, and the shard
//! closes the session there, from the state its executor already holds.
//! The shard does not re-run it: a certified endpoint is a deterministic
//! function of what it receives, so re-running a session that calls no
//! externals repeats its verdict, and one that calls them cannot be re-run.
//! `tests/quarantine.rs` drives quarantine.
//!
//! A session **ends where it stands**: whoever holds it when it is over —
//! its batch (concluded, or every endpoint blocked for good), or the shard
//! holding a violator its batch has just demoted — builds the
//! [`SessionOutcome`] from the state it already has. A live session never
//! leaves its batch.
//!
//! The harness-vs-server differential suite (`tests/differential.rs`)
//! checks that a session hosted here is indistinguishable — per-endpoint
//! statuses, traces, monitor verdicts — from the same endpoints run by the
//! `SessionHarness` of `zooid-runtime`.

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
pub use net::{NetClient, NetServer, NetServerConfig, Service, SessionDone};
pub use registry::{ProtocolArtifacts, ProtocolId, ProtocolRegistry, SafetyBudget};
pub use server::{ServerConfig, SessionServer};
pub use synth::{ByzantineDriver, ByzantineMutation, ExpectedClass};
pub use session::{SessionId, SessionOutcome, SessionSpec};
