//! Unravelling of global types into semantic global trees
//! (Definition 3.3 / A.5, `Global/Unravel.v`).
//!
//! The paper defines unravelling `G ℜ Gc` as a coinductive relation between a
//! global type and the tree obtained by unfolding its recursion forever.
//! Because every guarded, closed global type denotes exactly one regular tree
//! (up to bisimilarity), we expose unravelling both as a *function*
//! ([`unravel_global`]) that constructs the finite graph representation and
//! as a *relation checker* ([`g_unravels_to`]) that decides whether a given
//! tree is (bisimilar to) the unravelling of a given type.

use std::collections::HashMap;

use crate::common::arena::NodeId;
use crate::common::branch::Branch;
use crate::common::intern::{GTerm, Interner, TypeId};
use crate::error::Result;
use crate::global::syntax::GlobalType;
use crate::global::tree::{GlobalTree, GlobalTreeNode};

/// Unravels a closed, guarded global type into its semantic tree.
///
/// The construction repeatedly head-unfolds recursion (`[g-unr-rec]`) and
/// creates one graph node per distinct head-normal form encountered
/// (`[g-unr-end]`, `[g-unr-msg]`); revisiting a head-normal form creates a
/// back-edge, which is how the infinite regular tree is represented finitely.
///
/// The type is first hash-consed into an [`Interner`], so head-normal forms
/// are shared maximally, revisit detection is an id-equality check, and the
/// unfold/substitution steps reuse every untouched subterm instead of
/// deep-cloning.
///
/// # Errors
///
/// Returns an error if the type is not well-formed (see
/// [`GlobalType::well_formed`]).
///
/// # Examples
///
/// ```
/// use zooid_mpst::global::{unravel_global, GlobalType};
/// use zooid_mpst::{Role, Sort};
///
/// let g = GlobalType::msg1(Role::new("p"), Role::new("q"), "l", Sort::Nat, GlobalType::End);
/// let tree = unravel_global(&g).unwrap();
/// assert_eq!(tree.len(), 2); // the message node and the end node
/// ```
pub fn unravel_global(g: &GlobalType) -> Result<GlobalTree> {
    let mut interner = Interner::new();
    let root = interner.intern_global(g);
    interner.well_formed_global(root)?;
    Ok(unravel_interned(&mut interner, root))
}

/// Unravels an already-interned, well-formed global type.
///
/// Callers must have validated [`GlobalType::well_formed`] before interning;
/// head-normalisation panics on unguarded or open terms.
pub(crate) fn unravel_interned(interner: &mut Interner, root: TypeId) -> GlobalTree {
    let mut builder = Builder::default();
    let root = builder.node_of(interner, root);
    GlobalTree::from_parts(builder.nodes, root)
}

/// Decides the unravelling relation `G ℜ Gc`: does `tree` (rooted at its
/// root) represent the infinite unfolding of `g`?
///
/// Since unravelling is functional up to bisimilarity, this is checked by
/// unravelling `g` and testing bisimilarity with `tree`.
///
/// Returns `false` (rather than an error) when `g` is not well-formed, since
/// ill-formed types unravel to nothing.
pub fn g_unravels_to(g: &GlobalType, tree: &GlobalTree) -> bool {
    match unravel_global(g) {
        Ok(t) => t.bisimilar(t.root(), tree, tree.root()),
        Err(_) => false,
    }
}

#[derive(Default)]
struct Builder {
    nodes: Vec<GlobalTreeNode>,
    /// Head-normal form id → arena node. Hash-consing makes this lookup an
    /// id hash instead of a deep structural hash of the whole unfolding.
    memo: HashMap<TypeId, NodeId>,
}

impl Builder {
    /// Returns the node representing the unravelling of `t`, creating it (and
    /// its reachable sub-graph) if necessary.
    fn node_of(&mut self, interner: &mut Interner, t: TypeId) -> NodeId {
        let head = interner.unfold_head_global(t);
        if let Some(&id) = self.memo.get(&head) {
            return id;
        }
        // Allocate the node first so cycles through recursion variables can
        // refer back to it while the branches are still being processed.
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(GlobalTreeNode::End);
        self.memo.insert(head, id);
        let node = match interner.global(head).clone() {
            GTerm::End => GlobalTreeNode::End,
            GTerm::Msg { from, to, branches } => {
                let bs = branches
                    .iter()
                    .map(|b| Branch {
                        label: interner.label(b.label).clone(),
                        sort: interner.sort(b.sort).clone(),
                        cont: self.node_of(interner, b.cont),
                    })
                    .collect();
                GlobalTreeNode::Msg {
                    from: interner.role(from).clone(),
                    to: interner.role(to).clone(),
                    branches: bs,
                }
            }
            GTerm::Rec(_) | GTerm::Var(_) => {
                unreachable!("unfold_head returns a head-normal form of a closed type")
            }
        };
        self.nodes[id.index()] = node;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::label::Label;
    use crate::common::role::Role;
    use crate::common::sort::Sort;

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    #[test]
    fn end_unravels_to_end() {
        let t = unravel_global(&GlobalType::End).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.node(t.root()).is_end());
        assert!(g_unravels_to(&GlobalType::End, &t));
    }

    #[test]
    fn unfolding_does_not_change_the_unravelling() {
        // [g-unr-rec]: mu X. G and G[mu X. G / X] unravel to the same tree.
        let g = GlobalType::rec(GlobalType::msg1(
            r("p"),
            r("q"),
            "l",
            Sort::Nat,
            GlobalType::var(0),
        ));
        let t = unravel_global(&g).unwrap();
        assert!(g_unravels_to(&g.unfold_once(), &t));
        assert!(g_unravels_to(&g.unfold_once().unfold_once(), &t));
    }

    #[test]
    fn distinct_protocols_do_not_unravel_to_each_other() {
        let g1 = GlobalType::msg1(r("p"), r("q"), "l", Sort::Nat, GlobalType::End);
        let g2 = GlobalType::msg1(r("p"), r("q"), "m", Sort::Nat, GlobalType::End);
        let t1 = unravel_global(&g1).unwrap();
        assert!(g_unravels_to(&g1, &t1));
        assert!(!g_unravels_to(&g2, &t1));
    }

    #[test]
    fn ill_formed_types_do_not_unravel() {
        let unguarded = GlobalType::rec(GlobalType::var(0));
        assert!(unravel_global(&unguarded).is_err());
        let t = unravel_global(&GlobalType::End).unwrap();
        assert!(!g_unravels_to(&unguarded, &t));
    }

    #[test]
    fn example_a19_types_share_their_unravelling() {
        // G0 = mu X. p -> r : l(nat). X
        // G1 = p -> r : l(nat). mu X. p -> r : l(nat). X
        // (Example A.19: both unravel to the same infinite tree Gc01.)
        let g0 = GlobalType::rec(GlobalType::msg1(
            r("p"),
            r("r"),
            "l",
            Sort::Nat,
            GlobalType::var(0),
        ));
        let g1 = GlobalType::msg1(r("p"), r("r"), "l", Sort::Nat, g0.clone());
        let t0 = unravel_global(&g0).unwrap();
        let t1 = unravel_global(&g1).unwrap();
        assert!(t0.bisimilar(t0.root(), &t1, t1.root()));
    }

    #[test]
    fn arena_is_shared_across_identical_subterms() {
        // Two branches with identical continuations share one node.
        let cont = GlobalType::msg1(r("q"), r("p"), "done", Sort::Unit, GlobalType::End);
        let g = GlobalType::msg(
            r("p"),
            r("q"),
            vec![
                (Label::new("a"), Sort::Nat, cont.clone()),
                (Label::new("b"), Sort::Bool, cont),
            ],
        );
        let t = unravel_global(&g).unwrap();
        // root + shared continuation + end = 3 nodes.
        assert_eq!(t.len(), 3);
    }
}
