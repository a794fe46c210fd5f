//! Semantic local trees (Definition 3.2 / A.12, `Local/Tree.v`).
//!
//! Like [global trees](crate::global::GlobalTree), local trees are the finite
//! graph representation of the regular trees denoted by closed, guarded local
//! types.

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::fmt;


use crate::common::arena::NodeId;
use crate::common::branch::Branch;
use crate::common::role::Role;

/// One node of a semantic local tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalTreeNode {
    /// The terminated protocol `end_c`.
    End,
    /// Internal choice `!c[to] ; { l_i(S_i). L_i }`.
    Send {
        /// The partner the message is sent to.
        to: Role,
        /// The alternatives; continuations are node ids in the same arena.
        branches: Vec<Branch<NodeId>>,
    },
    /// External choice `?c[from] ; { l_i(S_i). L_i }`.
    Recv {
        /// The partner the message is expected from.
        from: Role,
        /// The alternatives; continuations are node ids in the same arena.
        branches: Vec<Branch<NodeId>>,
    },
}

impl LocalTreeNode {
    /// Returns `true` if the node is `end_c`.
    pub fn is_end(&self) -> bool {
        matches!(self, LocalTreeNode::End)
    }
}

/// A semantic local tree: the regular tree denoted by a closed, guarded local
/// type, represented as a finite graph.
///
/// Build one with [`unravel_local`](crate::local::unravel_local) or as the
/// result of [coinductive projection](crate::projection::cproject()).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalTree {
    nodes: Vec<LocalTreeNode>,
    root: NodeId,
}

impl LocalTree {
    pub(crate) fn from_parts(nodes: Vec<LocalTreeNode>, root: NodeId) -> Self {
        LocalTree { nodes, root }
    }

    /// A tree consisting of the single node `end_c`. This is the projection
    /// of any protocol onto a non-participant (`[co-proj-end]`).
    pub fn end() -> Self {
        LocalTree {
            nodes: vec![LocalTreeNode::End],
            root: NodeId::new(0),
        }
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
    pub fn node(&self, id: NodeId) -> &LocalTreeNode {
        &self.nodes[id.index()]
    }

    /// Number of distinct nodes in the arena.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the arena is empty (never the case for trees built
    /// by this crate).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over `(id, node)` pairs of the arena.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &LocalTreeNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::new(i), n))
    }

    /// Returns `true` if the whole behaviour rooted at the tree's root is
    /// `end_c` (i.e. the participant has nothing left to do).
    pub fn is_ended(&self) -> bool {
        self.node(self.root).is_end()
    }

    /// All node ids reachable from `start` (including `start`).
    pub fn reachable_from(&self, start: NodeId) -> BTreeSet<NodeId> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([start]);
        while let Some(id) = queue.pop_front() {
            if !seen.insert(id) {
                continue;
            }
            match self.node(id) {
                LocalTreeNode::End => {}
                LocalTreeNode::Send { branches, .. } | LocalTreeNode::Recv { branches, .. } => {
                    for b in branches {
                        queue.push_back(b.cont);
                    }
                }
            }
        }
        seen
    }

    /// Every partner the behaviour reachable from the root communicates with.
    pub fn partners(&self) -> BTreeSet<Role> {
        let mut out = BTreeSet::new();
        for id in self.reachable_from(self.root) {
            match self.node(id) {
                LocalTreeNode::End => {}
                LocalTreeNode::Send { to, .. } => {
                    out.insert(to.clone());
                }
                LocalTreeNode::Recv { from, .. } => {
                    out.insert(from.clone());
                }
            }
        }
        out
    }

    /// Coinductive tree equality (bisimilarity) between a node of `self` and
    /// a node of `other`; see
    /// [`GlobalTree::bisimilar`](crate::global::GlobalTree::bisimilar).
    pub fn bisimilar(&self, this: NodeId, other: &LocalTree, that: NodeId) -> bool {
        let mut assumed: HashSet<(NodeId, NodeId)> = HashSet::new();
        self.bisim_rec(this, other, that, &mut assumed)
    }

    /// Convenience form of [`LocalTree::bisimilar`] comparing the two roots.
    pub fn equivalent(&self, other: &LocalTree) -> bool {
        self.bisimilar(self.root, other, other.root())
    }

    fn bisim_rec(
        &self,
        a: NodeId,
        other: &LocalTree,
        b: NodeId,
        assumed: &mut HashSet<(NodeId, NodeId)>,
    ) -> bool {
        if !assumed.insert((a, b)) {
            return true;
        }
        match (self.node(a), other.node(b)) {
            (LocalTreeNode::End, LocalTreeNode::End) => true,
            (
                LocalTreeNode::Send {
                    to: r1,
                    branches: bs1,
                },
                LocalTreeNode::Send {
                    to: r2,
                    branches: bs2,
                },
            )
            | (
                LocalTreeNode::Recv {
                    from: r1,
                    branches: bs1,
                },
                LocalTreeNode::Recv {
                    from: r2,
                    branches: bs2,
                },
            ) => {
                if r1 != r2 || bs1.len() != bs2.len() {
                    return false;
                }
                // Both constructors must match; the or-pattern above already
                // guarantees Send is compared with Send and Recv with Recv.
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

impl fmt::Display for LocalTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "local tree (root {}):", self.root)?;
        for (id, node) in self.iter() {
            match node {
                LocalTreeNode::End => writeln!(f, "  {id}: end")?,
                LocalTreeNode::Send { to, branches } => {
                    write!(f, "  {id}: ![{to}];{{")?;
                    for (i, b) in branches.iter().enumerate() {
                        if i > 0 {
                            f.write_str("; ")?;
                        }
                        write!(f, "{}({}) -> {}", b.label, b.sort, b.cont)?;
                    }
                    writeln!(f, "}}")?;
                }
                LocalTreeNode::Recv { from, branches } => {
                    write!(f, "  {id}: ?[{from}];{{")?;
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
    use crate::common::sort::Sort;
    use crate::local::syntax::LocalType;
    use crate::local::unravel::unravel_local;

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    fn loop_tree() -> LocalTree {
        let l = LocalType::rec(LocalType::send1(
            r("q"),
            "l",
            Sort::Nat,
            LocalType::var(0),
        ));
        unravel_local(&l).unwrap()
    }

    #[test]
    fn end_tree_is_ended() {
        assert!(LocalTree::end().is_ended());
        assert!(!loop_tree().is_ended());
    }

    #[test]
    fn recursive_type_unravels_to_a_cycle() {
        let t = loop_tree();
        assert_eq!(t.len(), 1);
        match t.node(t.root()) {
            LocalTreeNode::Send { branches, .. } => assert_eq!(branches[0].cont, t.root()),
            _ => panic!("expected send node"),
        }
    }

    #[test]
    fn partners_are_collected() {
        let l = LocalType::send1(
            r("q"),
            "l",
            Sort::Nat,
            LocalType::recv1(r("s"), "m", Sort::Bool, LocalType::End),
        );
        let t = unravel_local(&l).unwrap();
        let ps = t.partners();
        assert!(ps.contains(&r("q")) && ps.contains(&r("s")));
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn bisimilarity_identifies_unrollings() {
        let l = LocalType::rec(LocalType::send1(r("q"), "l", Sort::Nat, LocalType::var(0)));
        let t1 = unravel_local(&l).unwrap();
        let t2 = unravel_local(&l.unfold_once()).unwrap();
        assert!(t1.equivalent(&t2));
    }

    #[test]
    fn bisimilarity_distinguishes_send_from_recv() {
        let send = unravel_local(&LocalType::send1(r("q"), "l", Sort::Nat, LocalType::End)).unwrap();
        let recv = unravel_local(&LocalType::recv1(r("q"), "l", Sort::Nat, LocalType::End)).unwrap();
        assert!(!send.equivalent(&recv));
    }

    #[test]
    fn bisimilarity_distinguishes_partners() {
        let a = unravel_local(&LocalType::send1(r("q"), "l", Sort::Nat, LocalType::End)).unwrap();
        let b = unravel_local(&LocalType::send1(r("z"), "l", Sort::Nat, LocalType::End)).unwrap();
        assert!(!a.equivalent(&b));
    }

    #[test]
    fn reachability_covers_all_nodes_built() {
        let t = loop_tree();
        assert_eq!(t.reachable_from(t.root()).len(), t.len());
        assert!(!t.is_empty());
    }

    #[test]
    fn display_lists_nodes() {
        let s = loop_tree().to_string();
        assert!(s.contains("![q]"));
    }
}
