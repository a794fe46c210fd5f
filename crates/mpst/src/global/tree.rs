//! Semantic global trees (Definition 3.2 / A.4 / A.7, `Global/Tree.v`).
//!
//! A guarded, closed global type denotes a *regular* (possibly infinite) tree
//! obtained by unfolding recursion forever. The paper represents that tree
//! with the coinductive datatype `rg_ty`; here we represent it with a finite
//! graph: an arena of nodes, where back-edges stand for the infinitely
//! repeating parts. The "message in flight" constructor (`p ~l~> q`) is *not*
//! part of these trees — exactly as in the Coq development (`rg_ty` versus
//! `ig_ty`, Remark A.6) it only appears in execution prefixes
//! ([`GlobalPrefix`](crate::global::GlobalPrefix)).

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::fmt;
use std::sync::OnceLock;


use crate::common::branch::Branch;
use crate::common::role::{Role, RoleSet};
pub use crate::common::arena::NodeId;

/// One node of a semantic global tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GlobalTreeNode {
    /// The terminated protocol `end_c`.
    End,
    /// A message that is yet to be sent: `p -> q : { l_i(S_i). G_i }`.
    Msg {
        /// The sending participant.
        from: Role,
        /// The receiving participant.
        to: Role,
        /// The alternatives; continuations are node ids in the same arena.
        branches: Vec<Branch<NodeId>>,
    },
}

impl GlobalTreeNode {
    /// Returns `true` if the node is `end_c`.
    pub fn is_end(&self) -> bool {
        matches!(self, GlobalTreeNode::End)
    }
}

/// A semantic global tree: the regular tree denoted by a closed, guarded
/// global type, represented as a finite graph.
///
/// Build one with [`unravel_global`](crate::global::unravel_global); inspect
/// it through [`GlobalTree::node`] starting from [`GlobalTree::root`].
///
/// # Examples
///
/// ```
/// use zooid_mpst::global::{unravel_global, GlobalType, GlobalTreeNode};
/// use zooid_mpst::{Label, Role, Sort};
///
/// let g = GlobalType::rec(GlobalType::msg1(
///     Role::new("p"), Role::new("q"), "l", Sort::Nat, GlobalType::var(0)));
/// let tree = unravel_global(&g).unwrap();
/// // The infinite unfolding is a single message node looping on itself.
/// match tree.node(tree.root()) {
///     GlobalTreeNode::Msg { branches, .. } => assert_eq!(branches[0].cont, tree.root()),
///     GlobalTreeNode::End => unreachable!(),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct GlobalTree {
    nodes: Vec<GlobalTreeNode>,
    root: NodeId,
    /// Lazily computed role table and per-node participation sets (the
    /// paper's `part_of`, answered in O(1) once built). Lazy so that callers
    /// that never project — e.g. plain unravelling — do not pay for it.
    tables: OnceLock<RoleTables>,
}

/// The derived role data of a tree: the sorted role table and, per node, the
/// set of roles reachable from it.
#[derive(Debug, Clone)]
struct RoleTables {
    roles: Vec<Role>,
    participation: Vec<RoleSet>,
}

impl PartialEq for GlobalTree {
    fn eq(&self, other: &Self) -> bool {
        // The tables are derived from the nodes; compare the structure only.
        self.nodes == other.nodes && self.root == other.root
    }
}

impl Eq for GlobalTree {}

impl GlobalTree {
    /// Creates a tree from its arena and root. Used by the unraveller; not
    /// exposed publicly because arbitrary arenas need not be well-formed.
    pub(crate) fn from_parts(nodes: Vec<GlobalTreeNode>, root: NodeId) -> Self {
        GlobalTree {
            nodes,
            root,
            tables: OnceLock::new(),
        }
    }

    fn tables(&self) -> &RoleTables {
        self.tables.get_or_init(|| {
            let mut role_set: BTreeSet<Role> = BTreeSet::new();
            for node in &self.nodes {
                if let GlobalTreeNode::Msg { from, to, .. } = node {
                    role_set.insert(from.clone());
                    role_set.insert(to.clone());
                }
            }
            let roles: Vec<Role> = role_set.into_iter().collect();
            let index = |role: &Role| roles.binary_search(role).expect("role is in the table");

            // Fixpoint: participation[n] = mentions(n) ∪ ⋃ participation[child].
            // Nodes are allocated in DFS preorder, so a reverse sweep converges
            // in one pass for forward edges; repeat sweeps absorb back edges.
            let mut participation: Vec<RoleSet> = self
                .nodes
                .iter()
                .map(|node| match node {
                    GlobalTreeNode::End => RoleSet::new(),
                    GlobalTreeNode::Msg { from, to, .. } => {
                        [index(from), index(to)].into_iter().collect()
                    }
                })
                .collect();
            let mut changed = true;
            while changed {
                changed = false;
                for i in (0..self.nodes.len()).rev() {
                    if let GlobalTreeNode::Msg { branches, .. } = &self.nodes[i] {
                        for b in branches {
                            if b.cont.index() != i {
                                let child = participation[b.cont.index()].clone();
                                if !child.is_subset(&participation[i]) {
                                    participation[i].union_with(&child);
                                    changed = true;
                                }
                            }
                        }
                    }
                }
            }
            RoleTables {
                roles,
                participation,
            }
        })
    }

    /// The sorted role table of the tree. [`RoleSet`]s over this tree use
    /// positions in this slice as indices.
    pub fn role_table(&self) -> &[Role] {
        &self.tables().roles
    }

    /// The index of a role in [`GlobalTree::role_table`], if it occurs in the
    /// tree.
    pub fn role_index(&self, role: &Role) -> Option<usize> {
        self.tables().roles.binary_search(role).ok()
    }

    /// The participation set of a node: every role occurring reachable from
    /// it, as a [`RoleSet`] over this tree's role table.
    pub fn participation(&self, node: NodeId) -> &RoleSet {
        &self.tables().participation[node.index()]
    }

    /// [`GlobalTree::part_of`] for a pre-resolved role index (see
    /// [`GlobalTree::role_index`]); the hot checkers resolve the role once
    /// and query by index.
    #[inline]
    pub fn part_of_index(&self, role_index: usize, node: NodeId) -> bool {
        self.tables().participation[node.index()].contains(role_index)
    }

    /// The root node of the tree.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree's arena.
    pub fn node(&self, id: NodeId) -> &GlobalTreeNode {
        &self.nodes[id.index()]
    }

    /// Number of distinct nodes in the arena.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the arena is empty (never the case for trees built
    /// by the unraveller, which always contain at least the root).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over `(id, node)` pairs of the arena.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &GlobalTreeNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::new(i), n))
    }

    /// All node ids reachable from `start` (including `start`).
    pub fn reachable_from(&self, start: NodeId) -> BTreeSet<NodeId> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([start]);
        while let Some(id) = queue.pop_front() {
            if !seen.insert(id) {
                continue;
            }
            if let GlobalTreeNode::Msg { branches, .. } = self.node(id) {
                for b in branches {
                    queue.push_back(b.cont);
                }
            }
        }
        seen
    }

    /// The participants occurring anywhere in the tree reachable from the
    /// root.
    ///
    /// Every node the unraveller allocates is reachable from the root, so
    /// this is exactly the role table.
    pub fn participants(&self) -> BTreeSet<Role> {
        let tables = self.tables();
        tables.participation[self.root.index()]
            .iter()
            .map(|i| tables.roles[i].clone())
            .collect()
    }

    /// The paper's `part_of` predicate (Definition A.18): `role` occurs as a
    /// sender or receiver somewhere reachable from `node`.
    ///
    /// O(1): answered from the precomputed participation table.
    pub fn part_of(&self, role: &Role, node: NodeId) -> bool {
        let tables = self.tables();
        tables
            .roles
            .binary_search(role)
            .is_ok_and(|i| tables.participation[node.index()].contains(i))
    }

    /// Coinductive tree equality (bisimilarity) between a node of `self` and
    /// a node of `other`.
    ///
    /// Two nodes are bisimilar when they are both `end_c`, or both messages
    /// between the same participants offering the same labelled alternatives
    /// (same sorts) with pairwise bisimilar continuations. On the finite
    /// graphs used here this greatest fixed point is computed by assuming
    /// every revisited pair.
    pub fn bisimilar(&self, this: NodeId, other: &GlobalTree, that: NodeId) -> bool {
        let mut assumed: HashSet<(NodeId, NodeId)> = HashSet::new();
        self.bisim_rec(this, other, that, &mut assumed)
    }

    fn bisim_rec(
        &self,
        a: NodeId,
        other: &GlobalTree,
        b: NodeId,
        assumed: &mut HashSet<(NodeId, NodeId)>,
    ) -> bool {
        if !assumed.insert((a, b)) {
            return true;
        }
        match (self.node(a), other.node(b)) {
            (GlobalTreeNode::End, GlobalTreeNode::End) => true,
            (
                GlobalTreeNode::Msg {
                    from: f1,
                    to: t1,
                    branches: bs1,
                },
                GlobalTreeNode::Msg {
                    from: f2,
                    to: t2,
                    branches: bs2,
                },
            ) => {
                if f1 != f2 || t1 != t2 || bs1.len() != bs2.len() {
                    return false;
                }
                bs1.iter().all(|b1| {
                    bs2.iter()
                        .find(|b2| b2.label == b1.label)
                        .is_some_and(|b2| {
                            b1.sort == b2.sort && self.bisim_rec(b1.cont, other, b2.cont, assumed)
                        })
                })
            }
            _ => false,
        }
    }
}

impl fmt::Display for GlobalTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "global tree (root {}):", self.root)?;
        for (id, node) in self.iter() {
            match node {
                GlobalTreeNode::End => writeln!(f, "  {id}: end")?,
                GlobalTreeNode::Msg { from, to, branches } => {
                    write!(f, "  {id}: {from}->{to}:{{")?;
                    for (i, b) in branches.iter().enumerate() {
                        if i > 0 {
                            f.write_str("; ")?;
                        }
                        write!(f, "{}({}) -> {}", b.label, b.sort, b.cont)?;
                    }
                    writeln!(f, "}}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::label::Label;
    use crate::common::sort::Sort;
    use crate::global::syntax::GlobalType;
    use crate::global::unravel::unravel_global;

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    fn loop_tree() -> GlobalTree {
        let g = GlobalType::rec(GlobalType::msg1(
            r("p"),
            r("q"),
            "l",
            Sort::Nat,
            GlobalType::var(0),
        ));
        unravel_global(&g).unwrap()
    }

    #[test]
    fn recursive_type_unravels_to_a_cycle() {
        let t = loop_tree();
        assert_eq!(t.len(), 1);
        match t.node(t.root()) {
            GlobalTreeNode::Msg { branches, .. } => assert_eq!(branches[0].cont, t.root()),
            GlobalTreeNode::End => panic!("expected message node"),
        }
    }

    #[test]
    fn part_of_holds_only_for_participants() {
        let t = loop_tree();
        assert!(t.part_of(&r("p"), t.root()));
        assert!(t.part_of(&r("q"), t.root()));
        assert!(!t.part_of(&r("r"), t.root()));
        assert_eq!(t.participants().len(), 2);
    }

    #[test]
    fn bisimilarity_identifies_unfoldings() {
        // mu X. p->q:l(nat).X  and  p->q:l(nat). mu X. p->q:l(nat).X denote
        // the same tree ([g-unr-rec]); their unravellings must be bisimilar.
        let g1 = GlobalType::rec(GlobalType::msg1(
            r("p"),
            r("q"),
            "l",
            Sort::Nat,
            GlobalType::var(0),
        ));
        let g2 = g1.unfold_once();
        let t1 = unravel_global(&g1).unwrap();
        let t2 = unravel_global(&g2).unwrap();
        assert!(t1.bisimilar(t1.root(), &t2, t2.root()));
        assert!(t2.bisimilar(t2.root(), &t1, t1.root()));
    }

    #[test]
    fn bisimilarity_distinguishes_different_labels() {
        let mk = |label: &str| {
            unravel_global(&GlobalType::msg1(
                r("p"),
                r("q"),
                label,
                Sort::Nat,
                GlobalType::End,
            ))
            .unwrap()
        };
        let t1 = mk("a");
        let t2 = mk("b");
        assert!(!t1.bisimilar(t1.root(), &t2, t2.root()));
    }

    #[test]
    fn bisimilarity_distinguishes_sorts_and_roles() {
        let base = unravel_global(&GlobalType::msg1(
            r("p"),
            r("q"),
            "l",
            Sort::Nat,
            GlobalType::End,
        ))
        .unwrap();
        let other_sort = unravel_global(&GlobalType::msg1(
            r("p"),
            r("q"),
            "l",
            Sort::Bool,
            GlobalType::End,
        ))
        .unwrap();
        let other_role = unravel_global(&GlobalType::msg1(
            r("p"),
            r("x"),
            "l",
            Sort::Nat,
            GlobalType::End,
        ))
        .unwrap();
        assert!(!base.bisimilar(base.root(), &other_sort, other_sort.root()));
        assert!(!base.bisimilar(base.root(), &other_role, other_role.root()));
    }

    #[test]
    fn branching_choices_keep_distinct_continuations() {
        let g = GlobalType::msg(
            r("p"),
            r("q"),
            vec![
                (Label::new("a"), Sort::Nat, GlobalType::End),
                (
                    Label::new("b"),
                    Sort::Nat,
                    GlobalType::msg1(r("q"), r("p"), "c", Sort::Bool, GlobalType::End),
                ),
            ],
        );
        let t = unravel_global(&g).unwrap();
        assert!(t.len() >= 3);
        let reach = t.reachable_from(t.root());
        assert_eq!(reach.len(), t.len());
        assert!(!t.is_empty());
    }

    #[test]
    fn display_lists_all_nodes() {
        let t = loop_tree();
        let s = t.to_string();
        assert!(s.contains("p->q"));
        assert!(s.contains("root"));
    }
}
