//! Asynchronous multiparty session types (MPST): syntax, semantic trees,
//! projection, labelled-transition semantics and trace-equivalence checking.
//!
//! This crate is the Rust counterpart of the metatheory layer of *Zooid: a DSL
//! for Certified Multiparty Computation* (PLDI 2021, §3 and Appendix A). It
//! provides:
//!
//! * the inductive syntax of **global** and **local** session types
//!   ([`global::GlobalType`], [`local::LocalType`]) together with the
//!   well-formedness conditions the paper assumes throughout (guardedness,
//!   closedness, non-empty and label-distinct branches);
//! * **semantic trees** ([`global::GlobalTree`], [`local::LocalTree`]): the
//!   finite, graph-based representation of the regular (possibly infinite)
//!   trees obtained by unravelling recursion, mirroring the paper's
//!   coinductive `rg_ty`/`rl_ty`;
//! * **unravelling** (the paper's `GUnroll`/`LUnroll` relations) as both a
//!   constructive operation and a checkable relation;
//! * **projection**: the inductive, partial projection of global types onto
//!   participants ([`projection::project`]) and the more permissive
//!   coinductive projection on trees ([`projection::cproject()`]), together with
//!   the *unravelling preserves projection* checker (Theorem 3.6);
//! * the **asynchronous operational semantics**: queue environments, local
//!   environments, the global LTS on execution prefixes and the local LTS on
//!   environment pairs (Definitions 3.13/3.14), trace admissibility
//!   (Definitions 3.19/3.20) and the executable counterparts of step
//!   soundness/completeness and trace equivalence (Theorems 3.16, 3.17, 3.21)
//!   in [`trace_equiv`];
//! * deterministic **protocol generators** used by the test-suite and the
//!   benchmark harness ([`generators`]).
//!
//! # Quick example
//!
//! ```rust
//! use zooid_mpst::global::GlobalType;
//! use zooid_mpst::local::LocalType;
//! use zooid_mpst::projection::project;
//! use zooid_mpst::{Label, Role, Sort};
//!
//! // G = Alice -> Bob : l(nat) . Carol gets a copy . end
//! let g = GlobalType::msg(
//!     Role::new("Alice"),
//!     Role::new("Bob"),
//!     vec![(Label::new("l"), Sort::Nat, GlobalType::End)],
//! );
//! let l = project(&g, &Role::new("Alice")).expect("projectable");
//! assert_eq!(
//!     l,
//!     LocalType::send(Role::new("Bob"), vec![(Label::new("l"), Sort::Nat, LocalType::End)]),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod common;
pub mod error;
pub mod generators;
pub mod global;
pub mod local;
pub mod projection;
pub mod trace_equiv;

pub use common::actions::{Action, ActionKind};
pub use common::intern::{Interner, InternerSnapshot};
pub use common::label::Label;
pub use common::role::{Role, RoleSet};
pub use common::sort::Sort;
pub use common::trace::Trace;
pub use error::{Error, Result};
