//! `zooid` — multiparty session types with a well-typed-by-construction
//! process DSL, an execution runtime and executable metatheory checkers.
//!
//! This is the facade crate of the workspace; it re-exports the individual
//! layers so that applications (and the examples and integration tests in
//! this repository) can depend on a single crate:
//!
//! * [`mpst`] — global/local session types, semantic trees, projection, the
//!   asynchronous labelled-transition semantics and the trace-equivalence
//!   checkers (§3 of the paper);
//! * [`proc`] — the session-typed process language, its typing system and its
//!   operational semantics (§4.1–4.3);
//! * [`dsl`] — the Zooid DSL: well-typed-by-construction processes, the
//!   protocol projection workflow and equality up to unravelling (§4.2, §5);
//! * [`engine`] — the serving core: compiled endpoint programs, the columnar
//!   batch executor, compiled monitors and the wire codec — exactly what a
//!   served session passes through;
//! * [`runtime`] — extraction of processes to executable programs, transports
//!   and the multi-participant session harness (§4.4–4.5), plus the oracles
//!   the engine is checked against, session checkpoints among them (it
//!   re-exports the engine's modules);
//! * [`cfsm`] — communicating finite-state machines compiled from local
//!   types, with safety and liveness exploration;
//! * [`server`] — the multi-session server: a protocol registry compiling
//!   each protocol once, a sharded scheduler multiplexing thousands of
//!   concurrent sessions on a bounded worker pool, and compiled per-role
//!   monitors (see `examples/load_sim.rs`).
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for the ring protocol of §2.3 implemented,
//! checked and executed end to end.

#![forbid(unsafe_code)]

pub use zooid_cfsm as cfsm;
pub use zooid_dsl as dsl;
pub use zooid_engine as engine;
pub use zooid_mpst as mpst;
pub use zooid_proc as proc;
pub use zooid_runtime as runtime;
pub use zooid_server as server;
