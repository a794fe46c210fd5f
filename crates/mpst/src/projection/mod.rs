//! Projection of global types and trees onto participants
//! (§3.2–3.3, `Projection/` in the Coq development).
//!
//! * [`iproject`] — the inductive, partial projection of global *types*
//!   (Definition 3.4, Figure 3a);
//! * [`mod@cproject`] — the coinductive projection of global *trees* and of
//!   execution prefixes (Definition 3.4, Figure 3b), both as a computation and
//!   as a checkable relation;
//! * [`mod@qproject`] — the projection of execution prefixes onto queue
//!   environments (Definition 3.8);
//! * [`mod@eproject`] — environment projection and the one-shot projection of a
//!   configuration (Definitions 3.10 and 3.11);
//! * [`correctness`] — the executable counterpart of Theorem 3.6
//!   (*unravelling preserves projections*).

pub mod correctness;
pub mod cproject;
pub mod eproject;
pub mod iproject;
pub mod qproject;

pub use correctness::{unravelling_preserves_all_projections, unravelling_preserves_projection};
pub use cproject::{
    cproject, is_cprojection, is_cprojection_at, is_prefix_cprojection, prefix_part_of,
};
pub use eproject::{eproject, one_shot_projection, one_shot_projection_holds};
pub use iproject::{project, project_all};
pub use qproject::qproject;
