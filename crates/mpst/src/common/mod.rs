//! Common building blocks shared by global types, local types, processes and
//! the operational semantics.
//!
//! This corresponds to the `Common/` folder of the Coq development
//! (`Common/AtomSets.v`, `Common/Actions.v`, `Common/Action.v`).

pub mod actions;
pub mod arena;
pub mod branch;
pub mod intern;
pub mod label;
mod name;
pub mod role;
pub mod sort;
pub mod trace;
