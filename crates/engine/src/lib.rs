//! `zooid-engine` — the serving core: exactly the code a served session
//! passes through, and the only runtime crate `zooid-server` links.
//!
//! Theorem 4.7 of the paper covers a certified process and the runtime it is
//! extracted to (§4.4–4.5), so the code a server trusts should be the code it
//! runs and nothing more. A session the server hosts is lowered to compiled
//! programs, stepped in a columnar batch under a compiled monitor, and
//! framed on the wire; those are this crate's modules:
//!
//! * [`program`] — [`EndpointProgram`]: a lowered process
//!   ([`zooid_proc::CompiledProc`]) with one [`program::ActionTemplate`] per
//!   communication site, pre-interned against the protocol's
//!   [`zooid_cfsm::CompiledSystem`], plus [`program::admin_tick`], the fuel
//!   rule for internal actions;
//! * [`report`] — what an execution is configured with and reports
//!   ([`ExecOptions`], [`EndpointStatus`], [`EndpointReport`]);
//! * [`cbatch`] — the columnar batch executor ([`SessionBatch`] over a
//!   shared [`BatchLayout`]): per-session state in struct-of-arrays columns,
//!   stepped in `(role, pc)` cohorts, sends between co-batched sessions as
//!   index writes into a frame arena. Every admitted session runs here; a
//!   session that is over closes as a [`BatchOutcome`], and a violator
//!   leaves as a [`DemotedSession`];
//! * [`monitor`] — [`CompiledMonitor`], the O(1)-per-action compliance
//!   monitor over the compiled transition tables, and [`MonitorViolation`];
//! * [`codec`] and [`wire`] — the binary encoding of values and messages
//!   (every decoder of outside bytes stops at [`codec::MAX_NESTING`] and
//!   looks names up rather than interning them) and the length-prefixed
//!   framing with the session-multiplexing [`MuxFrame`]s;
//! * [`error`] — [`RuntimeError`].
//!
//! Nothing else belongs here. The paper's reference runtime and every
//! oracle the engine is checked against — the tree-walking and per-session
//! executors, the in-memory and peer-to-peer TCP transports, the session
//! harness, the reference trace monitor, fault injection, the session
//! checkpoint codec and the columnar action encoding — live in
//! `zooid-runtime`, which depends on this crate and re-exports its modules
//! at their old paths. So the crate graph, not a convention, keeps an
//! oracle off the serving path: `zooid-server` has no way to name one
//! outside its tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cbatch;
pub mod codec;
pub mod error;
pub mod monitor;
pub mod program;
pub mod report;
pub mod wire;

pub use cbatch::{
    BatchLayout, BatchOutcome, BatchQuantum, DemotedEndpoint, DemotedSession, SessionBatch,
};
pub use codec::Message;
pub use error::{Result, RuntimeError};
pub use monitor::{CompiledMonitor, MonitorViolation};
pub use program::EndpointProgram;
pub use report::{EndpointReport, EndpointStatus, ExecOptions};
pub use wire::{FrameReader, MuxFrame, RejectCode, DEFAULT_MAX_FRAME_BYTES};
