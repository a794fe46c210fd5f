//! A session-typed process language: the `proc` layer of Zooid (§4.1–4.3 of
//! the paper, `Proc.v` in the Coq development).
//!
//! The crate provides:
//!
//! * [`value::Value`] — runtime values, one per payload [`Sort`];
//! * [`expr::Expr`] — a small, deeply-embedded expression language standing
//!   in for the paper's shallow embedding of Gallina terms (the paper's
//!   payload computations are opaque to its typing judgement too; a deep
//!   embedding keeps typing decidable in Rust — see the [`expr`] module);
//! * [`external`] — registries of *external actions*, the counterpart of the
//!   OCaml functions invoked by `read`/`write`/`interact`;
//! * [`proc::Proc`] — the process syntax (Definition 4.1);
//! * [`typing`] — the typing judgement `Γ ⊢lt e : L` (Definition 4.2,
//!   Figure 5) as a decidable checker;
//! * [`semantics`] — the labelled transition system for processes
//!   (Definition 4.4) with value-carrying actions and their erasure;
//! * [`subtrace`] — the complete-subtrace relation (Definition 4.6);
//! * [`preservation`] — executable counterparts of type preservation
//!   (Theorem 4.5) and of *process traces are global traces* (Theorem 4.7).
//!
//! [`Sort`]: zooid_mpst::Sort

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compile;
pub mod error;
pub mod expr;
pub mod external;
pub mod preservation;
pub mod proc;
pub mod semantics;
pub mod subtrace;
pub mod typing;
pub mod value;

pub use compile::{CompiledProc, EventMeta};
pub use error::{ProcError, Result};
pub use expr::Expr;
pub use external::{ExternalKind, ExternalSig, Externals};
pub use proc::{Proc, RecvAlt};
pub use semantics::{erase, ValueAction};
pub use subtrace::is_complete_subtrace;
pub use typing::{infer_local_type, type_check, TypingCtx};
pub use value::Value;
