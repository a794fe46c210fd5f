//! Execution prefixes of global trees (the paper's `ig_ty`, Definition A.8).
//!
//! During execution a global protocol can be in a state where some messages
//! have been sent but not yet received. The paper represents such states with
//! the inductive prefix datatype `ig_ty` layered on top of the coinductive
//! tree `rg_ty`: only finitely many messages can be in flight at any time, so
//! the "sent" constructor (`p ~l~> q`) only ever appears in this finite
//! prefix. [`GlobalPrefix`] is the same construction: a finite structure whose
//! leaves ([`GlobalPrefix::Inj`]) point into a [`GlobalTree`] arena.

use std::fmt;


use crate::common::arena::NodeId;
use crate::common::branch::Branch;
use crate::common::role::Role;
use crate::global::tree::{GlobalTree, GlobalTreeNode};

/// An execution state of a global protocol (the paper's `ig_ty`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GlobalPrefix {
    /// `inj_p Gc`: the protocol continues as the (unexecuted) tree rooted at
    /// the given node.
    Inj(NodeId),
    /// `p -> q : { l_i(S_i). G_i }`: a message that has not been sent yet,
    /// but whose continuations have already been partially executed (this
    /// arises from steps performed under the prefix, rule `[g-step-str1]`).
    Msg {
        /// The sending participant.
        from: Role,
        /// The receiving participant.
        to: Role,
        /// The alternatives offered by the sender.
        branches: Vec<Branch<GlobalPrefix>>,
    },
    /// `p ~l_j~> q : { l_i(S_i). G_i }`: the sender has committed to label
    /// `l_j` and the message is in flight, not yet received by `q`.
    Sent {
        /// The sending participant.
        from: Role,
        /// The receiving participant.
        to: Role,
        /// Index (into `branches`) of the label the sender selected.
        selected: usize,
        /// The alternatives; only the selected one can still be taken.
        branches: Vec<Branch<GlobalPrefix>>,
    },
}

impl GlobalPrefix {
    /// The initial execution state of a tree: nothing executed yet.
    pub fn initial(tree: &GlobalTree) -> GlobalPrefix {
        GlobalPrefix::Inj(tree.root())
    }

    /// Expands an [`GlobalPrefix::Inj`] leaf one level, turning the tree node
    /// it points to into the corresponding prefix constructor. Other
    /// constructors are returned unchanged.
    ///
    /// This is how the inductive LTS of Definition 3.13 "peels" steps off the
    /// coinductive tree.
    #[must_use]
    pub fn expand(&self, tree: &GlobalTree) -> GlobalPrefix {
        match self {
            GlobalPrefix::Inj(id) => match tree.node(*id) {
                GlobalTreeNode::End => GlobalPrefix::Inj(*id),
                GlobalTreeNode::Msg { from, to, branches } => GlobalPrefix::Msg {
                    from: from.clone(),
                    to: to.clone(),
                    branches: branches
                        .iter()
                        .map(|b| b.map_ref(|id| GlobalPrefix::Inj(*id)))
                        .collect(),
                },
            },
            other => other.clone(),
        }
    }

    /// Returns `true` if the prefix denotes the fully terminated protocol
    /// (an `Inj` leaf pointing at `end_c`).
    pub fn is_terminated(&self, tree: &GlobalTree) -> bool {
        match self {
            GlobalPrefix::Inj(id) => tree.node(*id).is_end(),
            _ => false,
        }
    }

    /// Number of in-flight messages (`Sent` constructors) in the prefix.
    /// This is the total number of enqueued messages of the corresponding
    /// queue environment (Definition 3.8).
    pub fn in_flight(&self) -> usize {
        match self {
            GlobalPrefix::Inj(_) => 0,
            GlobalPrefix::Msg { branches, .. } => {
                branches.iter().map(|b| b.cont.in_flight()).max().unwrap_or(0)
            }
            GlobalPrefix::Sent {
                selected, branches, ..
            } => 1 + branches[*selected].cont.in_flight(),
        }
    }

    /// Structural size of the prefix (number of prefix constructors).
    pub fn size(&self) -> usize {
        match self {
            GlobalPrefix::Inj(_) => 1,
            GlobalPrefix::Msg { branches, .. } | GlobalPrefix::Sent { branches, .. } => {
                1 + branches.iter().map(|b| b.cont.size()).sum::<usize>()
            }
        }
    }
}

impl fmt::Display for GlobalPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlobalPrefix::Inj(id) => write!(f, "inj {id}"),
            GlobalPrefix::Msg { from, to, branches } => {
                write!(f, "{from}->{to}:{{")?;
                for (i, b) in branches.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{}({}).{}", b.label, b.sort, b.cont)?;
                }
                f.write_str("}")
            }
            GlobalPrefix::Sent {
                from,
                to,
                selected,
                branches,
            } => {
                write!(f, "{from}~{}~>{to}:{{", branches[*selected].label)?;
                for (i, b) in branches.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{}({}).{}", b.label, b.sort, b.cont)?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::sort::Sort;
    use crate::global::syntax::GlobalType;
    use crate::global::unravel::unravel_global;
    use crate::Role;

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    fn single_msg_tree() -> GlobalTree {
        unravel_global(&GlobalType::msg1(
            r("p"),
            r("q"),
            "l",
            Sort::Nat,
            GlobalType::End,
        ))
        .unwrap()
    }

    #[test]
    fn initial_prefix_is_an_inj_leaf() {
        let t = single_msg_tree();
        let p = GlobalPrefix::initial(&t);
        assert_eq!(p, GlobalPrefix::Inj(t.root()));
        assert!(!p.is_terminated(&t));
        assert_eq!(p.in_flight(), 0);
    }

    #[test]
    fn expand_turns_inj_into_msg() {
        let t = single_msg_tree();
        let p = GlobalPrefix::initial(&t).expand(&t);
        match &p {
            GlobalPrefix::Msg { from, to, branches } => {
                assert_eq!(from, &r("p"));
                assert_eq!(to, &r("q"));
                assert_eq!(branches.len(), 1);
            }
            _ => panic!("expected Msg prefix"),
        }
        // expanding a non-Inj prefix is the identity
        assert_eq!(p.expand(&t), p);
    }

    #[test]
    fn termination_detects_end_leaf() {
        let t = unravel_global(&GlobalType::End).unwrap();
        assert!(GlobalPrefix::initial(&t).is_terminated(&t));
    }

    #[test]
    fn in_flight_counts_sent_constructors() {
        let t = single_msg_tree();
        let expanded = GlobalPrefix::initial(&t).expand(&t);
        if let GlobalPrefix::Msg { from, to, branches } = expanded {
            let sent = GlobalPrefix::Sent {
                from,
                to,
                selected: 0,
                branches,
            };
            assert_eq!(sent.in_flight(), 1);
            assert!(sent.size() >= 2);
        } else {
            panic!("expected Msg prefix");
        }
    }
}
