//! Execution substrate for certified Zooid processes (§4.4–§4.5 of the
//! paper: extraction, the process monad and the OCaml/Lwt runtime).
//!
//! The paper extracts Coq processes to OCaml values in a `ProcessMonad`, then
//! runs them with an Lwt/TCP runtime that supplies the transport and the
//! serialisation. This crate plays both parts:
//!
//! * [`transport`] — the [`Transport`] trait is the counterpart of the
//!   process monad's communication operations (`send`, `recv`); the
//!   [`transport::InMemoryNetwork`] gives every ordered pair of roles its own
//!   FIFO channel (the queue environments of §3.3) carrying `(Label, Value)`
//!   frames directly — no codec round-trip in process — with peers
//!   addressable by **dense index** for the compiled fast path; [`tcp`]
//!   provides the §4.5 TCP transport with `Server`/`Client` connection
//!   specs, hardened against hostile framing (frame-size caps, connect and
//!   receive deadlines, a genuinely non-blocking `try_recv` over
//!   permanently non-blocking sockets);
//! * [`codec`] — a length-delimited binary encoding of messages, standing in
//!   for OCaml's `Marshal` module (the wire format of the TCP path, kept
//!   honest by round-trip property tests). Every encoder in the crate
//!   appends to a plain `Vec<u8>` through one set of big-endian `put_*`
//!   functions and every decoder reads a `&mut &[u8]` cursor through the
//!   matching `get_*`, so an encoding is built once, in the buffer that
//!   travels. The value and sort decoders follow at most
//!   [`codec::MAX_NESTING`] constructors inwards — every decoder of outside
//!   bytes (a peer's message, a mux frame, a checkpoint, a log image)
//!   inherits the bound, so nesting cannot be made to overflow a stack.
//!   Role and label names are looked up in the process-wide name table
//!   ([`zooid_mpst::Role::lookup`], [`zooid_mpst::Label::lookup`]) and never
//!   entered into it: a name no code in the process made is refused with
//!   [`RuntimeError::Codec`], so outside bytes cannot grow a table that is
//!   never freed;
//! * [`wire`] — framing for real sockets: every frame is a big-endian `u32`
//!   length followed by that many payload bytes, the length validated
//!   against a configurable `max_frame_bytes` cap (default 16 MiB) **before
//!   any body byte is buffered**, so a hostile length prefix can never
//!   force a large allocation. [`wire::FrameReader`] parses incrementally
//!   (partial frames persist across non-blocking reads) and
//!   [`wire::MuxFrame`] defines the session-multiplexing control frames
//!   (`Open`/`Accepted`/`Rejected`/`Done`) the networked serving plane
//!   speaks — many sessions per connection, client-chosen ids echoed on
//!   every response, structured load-shed rejections
//!   ([`wire::RejectCode`]);
//! * [`exec`] — the tree-walking interpreter that runs a certified process
//!   against a transport (the counterpart of `extract_proc` composed with
//!   the monad instance), recording the endpoint's trace. The interpreter is
//!   a resumable state machine ([`exec::EndpointTask`]) whose `step()`
//!   yields [`exec::StepOutcome::WouldBlock`] on an empty channel instead of
//!   parking, so schedulers (the `zooid-server` session server) can
//!   multiplex thousands of endpoints on a bounded worker pool; the blocking
//!   [`execute`] entry point is a loop around it;
//! * [`cexec`] — the **compiled** endpoint executor: a certified process is
//!   lowered once ([`zooid_proc::CompiledProc`]) into a flat instruction
//!   table with interned ids, resolved loop back-edges and dense value
//!   slots, and [`cexec::CompiledEndpointTask`] steps it over an
//!   [`transport::InMemoryTransport`] (the only transport it speaks) as a
//!   program counter plus a slot array — no per-step tree cloning,
//!   substitution or re-normalisation. Per-site [`cexec::ActionTemplate`]s carry the actions
//!   pre-interned against the protocol's [`zooid_cfsm::CompiledSystem`], so
//!   live monitoring does not hash strings either. The tree-walking
//!   executor is kept as the behavioural oracle (`tests/compiled_exec.rs`
//!   drives both in lockstep);
//! * [`cbatch`] — the **columnar batch** executor for homogeneous session
//!   populations: the invariant skeleton (the compiled per-role programs
//!   and routing tables, [`cbatch::BatchLayout`]) is shared once, while the
//!   per-session variables — program counters, value slots, monitor
//!   cursors — live in struct-of-arrays columns ([`cbatch::SessionBatch`]),
//!   stepped in `(role, pc)` cohorts over contiguous memory with sends
//!   between co-batched sessions as index writes into a shared frame arena.
//!   A session is batch-eligible when its programs call no externals and
//!   every communication site carries a statically known sort with a
//!   pre-interned action. A session that is over — concluded, or blocked
//!   for good — is closed inside its batch; only one the batch cannot carry
//!   further (violation, runtime sort mismatch) demotes mid-flight, with its
//!   traces and monitor state, for the per-session executor to resume
//!   (`tests/batch_exec.rs` drives batch, slab and tree executors in
//!   lockstep);
//! * [`monitor`] — online protocol-compliance monitors (the "dynamic
//!   monitoring" application of type-level transition systems mentioned in
//!   §1): [`TraceMonitor`] replays observed actions against the global
//!   type's LTS, [`monitor::CompiledMonitor`] checks them against the dense
//!   interned transition tables of a [`zooid_cfsm::CompiledSystem`] in O(1)
//!   per action; both record structured [`monitor::MonitorViolation`]s and
//!   agree on accept/reject (checked differentially);
//! * [`harness`] — a multi-threaded session harness that wires every
//!   certified endpoint of a protocol to an in-memory network, runs them to
//!   completion and reports the traces together with the monitor's verdict;
//! * [`faults`] — deterministic fault injection for the hostile-world
//!   suite: a seed-driven [`faults::FaultPlan`] of site-addressable,
//!   budget-capped transport faults (delay, drop, duplicate, reorder,
//!   truncate, mid-session disconnect) executed by the
//!   [`faults::FaultyTransport`] wrapper over any [`Transport`], and a
//!   [`faults::FaultReader`] that corrupts the byte stream below the codec
//!   (bit flips, split deliveries, hostile length prefixes) at the
//!   [`wire::FrameReader`] seam. Every injection is logged, so the same
//!   seed reproduces the same schedule on every backend. The columnar batch
//!   plane has its own injection point — [`cbatch::SessionBatch`] takes a
//!   `FaultPlan` for its in-arena sends, which never cross a `Transport` —
//!   so the hostile-world suite covers both data planes;
//! * [`checkpoint`] — movable sessions: a live session (per-role pc, value
//!   slots, monitor cursor, in-flight frames in channel order) serialized
//!   through the wire codec into a `Vec<u8>` as a
//!   [`checkpoint::SessionCheckpoint`] — the server takes one only to move
//!   a session between shards — and restored under re-validation: nesting
//!   is capped and names are looked up as in [`codec`], and every index is
//!   checked against the compiled programs and transition tables before
//!   anything resumes, so a corrupted or hostile checkpoint is refused
//!   ([`RuntimeError::Recovery`]), never admitted;
//! * [`wal`] — an append-only write-ahead trace log whose records are
//!   columnarized before framing (skeleton = per-site template ids,
//!   variables = payload values — the batch plane's structural-entropy
//!   trick buying audit-log density), group-committed per quantum with
//!   torn-tail detection on reopen, and recovered by **replaying** each
//!   session's suffix through a fresh [`monitor::CompiledMonitor`]: a
//!   restored trace is re-certified, not just restored.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cbatch;
pub mod cexec;
pub mod checkpoint;
pub mod codec;
pub mod error;
pub mod exec;
pub mod faults;
pub mod harness;
pub mod monitor;
pub mod tcp;
pub mod transport;
pub mod wal;
pub mod wire;

pub use cbatch::{
    BatchLayout, BatchOutcome, BatchQuantum, DemotedEndpoint, DemotedSession, SessionBatch,
};
pub use checkpoint::SessionCheckpoint;
pub use cexec::{CompiledEndpointTask, EndpointProgram};
pub use codec::Message;
pub use error::{Result, RuntimeError};
pub use exec::{execute, EndpointReport, EndpointStatus, EndpointTask, ExecOptions, StepOutcome};
pub use faults::{
    ArenaFaults, FaultKind, FaultPlan, FaultReader, FaultSite, FaultSpec, FaultyTransport,
    InjectedFault, WireFault,
};
pub use harness::{SessionHarness, SessionReport};
pub use monitor::{CompiledMonitor, MonitorViolation, TraceMonitor};
pub use transport::{InMemoryNetwork, Transport};
pub use wal::{WalIndexer, WalRecord, WalScan, WalWriter};
pub use wire::{FrameReader, MuxFrame, RejectCode, DEFAULT_MAX_FRAME_BYTES};
