//! Compiled endpoint programs: what every executor of a lowered process
//! shares.
//!
//! A certified process is lowered once ([`CompiledProc`]) into a flat
//! instruction table with interned ids, resolved loop back-edges and dense
//! value slots. An [`EndpointProgram`] bundles that table with one
//! [`ActionTemplate`] per send/receive site, resolved once per
//! `(program, protocol)` pair: the peer role, label and (statically known)
//! sort as values for trace recording, and the pre-interned
//! [`InternedAction`] the live
//! [`CompiledMonitor`](crate::monitor::CompiledMonitor) consumes without
//! hashing a single string. [`admin_tick`] is the fuel rule for the internal
//! actions between two communications.
//!
//! The columnar [`SessionBatch`](crate::cbatch::SessionBatch) runs these
//! programs; so does the per-session oracle it is checked against, which
//! lives in `zooid-runtime` with the other oracles.

use std::sync::Arc;

use zooid_cfsm::{CompiledSystem, InternedAction};
use zooid_mpst::{Action, Label, Role, Sort};
use zooid_proc::compile::CompiledProc;
use zooid_proc::{Externals, Proc, ProcError};

use crate::error::{Result, RuntimeError};

/// Same bound as the tree-walking semantics: a well-typed process performs
/// finitely many internal actions between communications; the fuel protects
/// against ill-typed ones, with the same error.
const ADMIN_FUEL: usize = 10_000;

/// One communication site of a program, resolved against the protocol: the
/// concrete roles/label/sort for recording the action, and the pre-interned
/// form the compiled monitor accepts without any lookup.
#[derive(Debug, Clone)]
pub struct ActionTemplate {
    /// The partner role (receiver of a send site, sender of a receive arm).
    pub peer: Role,
    /// The message label.
    pub label: Label,
    /// The statically known payload sort: always present for receive arms
    /// (their declared sort), present for send sites whose payload sort
    /// inference succeeded.
    pub static_sort: Option<Sort>,
    /// The action pre-resolved against the protocol's compiled transition
    /// tables, when a [`CompiledSystem`] was supplied and every component of
    /// the action occurs in it.
    pub interned: Option<InternedAction>,
}

/// A compiled program bundled with its per-site [`ActionTemplate`]s —
/// everything a session needs to run one endpoint, shareable (`Arc`) across
/// every session of the same `(protocol, role, process)`.
#[derive(Debug)]
pub struct EndpointProgram {
    program: Arc<CompiledProc>,
    templates: Vec<ActionTemplate>,
}

impl EndpointProgram {
    /// Wraps a compiled program without monitor pre-resolution (actions are
    /// still recorded; a monitor fed through the observer falls back to its
    /// own lookups).
    pub fn new(program: Arc<CompiledProc>) -> Self {
        EndpointProgram::build(program, None)
    }

    /// Wraps a compiled program, pre-resolving every send/receive site
    /// against the protocol's compiled transition tables.
    pub fn with_system(program: Arc<CompiledProc>, system: &CompiledSystem) -> Self {
        EndpointProgram::build(program, Some(system))
    }

    /// Compiles `proc` and wraps it in one go (no monitor pre-resolution).
    ///
    /// # Errors
    ///
    /// Same as [`CompiledProc::compile`].
    pub fn compile(
        proc: &Proc,
        role: &Role,
        externals: &Externals,
    ) -> zooid_proc::Result<Self> {
        Ok(EndpointProgram::new(Arc::new(CompiledProc::compile(
            proc, role, externals,
        )?)))
    }

    fn build(program: Arc<CompiledProc>, system: Option<&CompiledSystem>) -> Self {
        let snapshot = program.snapshot();
        let self_role = program.role().clone();
        let templates = program
            .events()
            .iter()
            .map(|event| {
                let peer = snapshot.role(event.peer).clone();
                let label = snapshot.label(event.label).clone();
                let static_sort = event.static_sort.map(|id| snapshot.sort(id).clone());
                let interned = match (system, &static_sort) {
                    (Some(system), Some(sort)) => {
                        let action = if event.is_send {
                            Action::send(self_role.clone(), peer.clone(), label.clone(), sort.clone())
                        } else {
                            Action::recv(self_role.clone(), peer.clone(), label.clone(), sort.clone())
                        };
                        system.intern_action(&action)
                    }
                    _ => None,
                };
                ActionTemplate {
                    peer,
                    label,
                    static_sort,
                    interned,
                }
            })
            .collect();
        EndpointProgram { program, templates }
    }

    /// The underlying compiled program.
    pub fn program(&self) -> &Arc<CompiledProc> {
        &self.program
    }

    /// The per-site action templates, indexed by event id.
    pub fn templates(&self) -> &[ActionTemplate] {
        &self.templates
    }
}

/// Counts one internal action against the fuel, matching the tree
/// semantics: `admin_normalize` gets a fresh fuel tank at every loop
/// unfolding, so a backward jump (`next <= pc`, which in a compiled
/// program is exactly a loop back-edge) resets the straight-line
/// counter — while the back-edges themselves are bounded like the tree
/// executor's unfoldings, so an all-internal cycle (`loop { if c then
/// jump 0 else ... }` with `c` forever true) still fails instead of
/// spinning.
///
/// Every executor of an [`EndpointProgram`] spends fuel through this one
/// rule, so they fail on the same internal step with the same error.
///
/// # Errors
///
/// [`RuntimeError::Process`] ([`ProcError::Stuck`]) once either bound is
/// exhausted.
pub fn admin_tick(
    admin: &mut usize,
    back_edges: &mut usize,
    from_pc: u32,
    to_pc: u32,
) -> Result<()> {
    if to_pc <= from_pc {
        *admin = 0;
        *back_edges += 1;
        if *back_edges > ADMIN_FUEL {
            return Err(RuntimeError::Process(ProcError::Stuck {
                context: "recursion does not reach a communication".to_owned(),
            }));
        }
    }
    *admin += 1;
    // `>=`, not `>`: the tree's `admin_normalize` spends one of its
    // `ADMIN_FUEL` iterations on the final is-it-a-communication check,
    // so it performs at most `ADMIN_FUEL - 1` reductions.
    if *admin >= ADMIN_FUEL {
        return Err(RuntimeError::Process(ProcError::Stuck {
            context: "internal actions did not terminate within the fuel bound".to_owned(),
        }));
    }
    Ok(())
}
