//! Execution substrate for certified Zooid processes (§4.4–§4.5 of the
//! paper: extraction, the process monad and the OCaml/Lwt runtime), and the
//! oracles the serving engine is checked against.
//!
//! The paper extracts Coq processes to OCaml values in a `ProcessMonad`, then
//! runs them with an Lwt/TCP runtime that supplies the transport and the
//! serialisation. This crate plays both parts, as a reference: it is what
//! the examples, the harness and the differential suites run, not what the
//! server runs. The server runs the serving engine (`zooid-engine`), which
//! holds only what a served session passes through; this crate depends on
//! it and re-exports its modules ([`cbatch`], [`codec`], [`error`],
//! [`wire`]) and items at their old paths, so a caller sees one runtime.
//! Its own modules are the paper's runtime and the oracles:
//!
//! * [`transport`] — the [`Transport`] trait is the counterpart of the
//!   process monad's communication operations (`send`, `recv`); the
//!   [`transport::InMemoryNetwork`] gives every ordered pair of roles its own
//!   FIFO channel (the queue environments of §3.3) carrying `(Label, Value)`
//!   frames directly — no codec round-trip in process, and no receive that
//!   waits — with peers addressable by **dense index** for the compiled
//!   executor; [`tcp`]
//!   provides the §4.5 TCP transport with `Server`/`Client` connection
//!   specs, hardened against hostile framing (frame-size caps, connect and
//!   receive deadlines, a genuinely non-blocking `try_recv` over
//!   permanently non-blocking sockets), framed by the engine's [`wire`] and
//!   [`codec`], and [`tcp::loopback_mesh`] wires a whole session's roles
//!   over loopback sockets;
//! * [`exec`] — the tree-walking interpreter that runs a certified process
//!   against a transport (the counterpart of `extract_proc` composed with
//!   the monad instance), recording the endpoint's trace. The interpreter is
//!   a resumable state machine ([`exec::EndpointTask`]) whose `step()`
//!   yields [`exec::StepOutcome::WouldBlock`] on an empty channel instead of
//!   parking, so one thread can interleave many endpoints, as the
//!   [`lockstep`] runner does; the blocking [`execute`] entry point, which
//!   an endpoint run on its own over TCP uses, is a loop around it;
//! * [`cexec`] — the per-session compiled oracle:
//!   [`cexec::CompiledEndpointTask`] steps one endpoint's
//!   [`EndpointProgram`] as a program counter plus a slot array over an
//!   [`transport::InMemoryTransport`]. The differential suites hold the
//!   engine's columnar batch to it and it to the tree-walking executor
//!   (`tests/batch_exec.rs`, `tests/compiled_exec.rs`);
//! * [`monitor`] — [`TraceMonitor`] replays observed actions against the
//!   global type's LTS, the reference for the engine's
//!   [`CompiledMonitor`]; both record structured [`MonitorViolation`]s and
//!   agree on accept/reject (checked differentially);
//! * [`harness`] — the session harness: wires every certified endpoint of
//!   a protocol to an in-memory network, runs them on the [`lockstep`]
//!   runner in role order and reports the traces together with the
//!   monitors' verdict; the server's differential suite holds the server
//!   to it;
//! * [`lockstep`] — the single-threaded scheduler of the harness and the
//!   differential suites: [`lockstep::Lockstep`] steps one session's tree or compiled
//!   tasks round-robin in the caller's order, feeds every action to a
//!   [`CompiledMonitor`] (optionally shadowed by a [`TraceMonitor`] that
//!   must agree on each one), and returns a [`SessionReport`] with the
//!   transports. A session stalls once no task has progressed for 64
//!   rounds *and* for the caller's grace (zero in memory, where nothing
//!   sleeps; a delivery latency over TCP). [`lockstep::Lockstep::resume`]
//!   continues a session demoted out of a batch;
//! * [`faults`] — deterministic fault injection for the hostile-world
//!   suite: a seed-driven [`faults::FaultPlan`] of at most one transport
//!   fault (delay, drop, duplicate, reorder, truncate, mid-session
//!   disconnect), attached to the send or the receive side and firing once,
//!   executed by the [`faults::FaultyTransport`] wrapper over any
//!   [`Transport`]. Every injection is logged, so the same seed reproduces
//!   the same schedule on every backend. These are test instruments, and
//!   the serving engine cannot name them;
//! * [`wal`] — a write-only columnar encoding of logged actions (skeleton =
//!   per-site template ids, variables = payload values), which the
//!   benchmark's layer replay times. There is no log file, no scan and no
//!   recovery, and no serving path encodes one;
//! * [`checkpoint`] — [`SessionCheckpoint`], a session cut out of a batch
//!   ([`cbatch::SessionBatch::demote_all`]) serialized with the engine's
//!   [`codec`], and decoded under re-validation against the compiled
//!   programs and tables before the per-session executor
//!   ([`cexec::CompiledEndpointTask::resume`]) may continue it. No serving
//!   path takes one: the server never moves a live session, and a session
//!   interrupted for good is re-run from its cast. The durability suite
//!   checks with it that a batch's extraction loses nothing, the codec
//!   suite feeds its decoder hostile names and nesting, and the benchmark's
//!   layer replay times it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use zooid_engine::{cbatch, codec, error, wire};

pub mod cexec;
pub mod checkpoint;
pub mod exec;
pub mod faults;
pub mod harness;
pub mod lockstep;
pub mod monitor;
pub mod tcp;
pub mod transport;
pub mod wal;

pub use cbatch::{
    BatchLayout, BatchOutcome, BatchQuantum, DemotedEndpoint, DemotedSession, SessionBatch,
};
pub use checkpoint::SessionCheckpoint;
pub use cexec::{CompiledEndpointTask, EndpointProgram};
pub use codec::Message;
pub use error::{Result, RuntimeError};
pub use exec::{execute, EndpointReport, EndpointStatus, EndpointTask, ExecOptions, StepOutcome};
pub use faults::{FaultKind, FaultPlan, FaultSite, FaultSpec, FaultyTransport, InjectedFault};
pub use harness::{SessionHarness, SessionReport};
pub use monitor::{CompiledMonitor, MonitorViolation, TraceMonitor};
pub use transport::{InMemoryNetwork, Transport};
pub use wire::{FrameReader, MuxFrame, RejectCode, DEFAULT_MAX_FRAME_BYTES};
