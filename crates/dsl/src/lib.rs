//! The Zooid DSL: well-typed-by-construction multiparty processes
//! (§4.2–§4.3 and §5 of the paper, `Zooid.v` in the Coq development).
//!
//! The DSL layer sits on top of [`zooid_proc`] and [`zooid_mpst`] and turns
//! "write a process, then hope it follows the protocol" into the paper's
//! workflow (§5, *A Common Workflow*):
//!
//! 1. specify the protocol as a global type and wrap it in a [`Protocol`]
//!    (which checks well-formedness);
//! 2. project it onto every participant with [`Protocol::project_all`]
//!    (the `\project` notation) and pick a participant's local type with
//!    [`Protocol::get`] (the `\get` notation);
//! 3. implement the participant with the smart constructors of [`builder`]:
//!    every constructor fully determines the local type of the term it
//!    builds, so the result is a [`WtProc`] — a process *paired with* its
//!    inferred local type, the counterpart of the Coq dependent pair
//!    `{P : Proc | of_lt P L}`. [`synth`] is the automatic implementation
//!    of this step: it walks a projection into a skeleton endpoint
//!    (first-branch sends of default payloads, every receive handled)
//!    through the same constructors, and minimally wrong byzantine casts
//!    for hostile-world tests;
//! 4. certify it against the protocol with [`Protocol::implement`], which
//!    checks the typing derivation and that the inferred type is equal *up
//!    to unravelling* to the projection (the step the paper performs with a
//!    small coinductive proof, §5.1);
//! 5. hand the resulting [`CertifiedProcess`] to `zooid-runtime` for
//!    execution.
//!
//! # Example: the §2.3 ring, Alice's endpoint
//!
//! ```
//! use zooid_dsl::builder::{self, WtProc};
//! use zooid_dsl::Protocol;
//! use zooid_mpst::global::GlobalType;
//! use zooid_mpst::{Role, Sort};
//! use zooid_proc::{Expr, Externals};
//!
//! // G = Alice -> Bob : l(nat). Bob -> Carol : l(nat). Carol -> Alice : l(nat). end
//! let g = GlobalType::msg1(Role::new("Alice"), Role::new("Bob"), "l", Sort::Nat,
//!     GlobalType::msg1(Role::new("Bob"), Role::new("Carol"), "l", Sort::Nat,
//!         GlobalType::msg1(Role::new("Carol"), Role::new("Alice"), "l", Sort::Nat,
//!             GlobalType::End)));
//! let protocol = Protocol::new("ring", g).unwrap();
//!
//! // proc = send Bob (l, 7 : nat)! recv Carol (l, y : nat)? finish
//! let alice: WtProc = builder::send(
//!     Role::new("Bob"), "l", Sort::Nat, Expr::lit(7u64),
//!     builder::recv1(Role::new("Carol"), "l", Sort::Nat, "y", builder::finish()).unwrap(),
//! ).unwrap();
//!
//! let certified = protocol
//!     .implement(&Role::new("Alice"), alice, &Externals::new())
//!     .unwrap();
//! assert_eq!(certified.role().name(), "Alice");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod error;
pub mod protocol;
pub mod synth;
pub mod unravel_eq;

pub use builder::WtProc;
pub use error::{DslError, Result};
pub use protocol::{CertifiedProcess, Protocol};
pub use unravel_eq::unravel_eq;
