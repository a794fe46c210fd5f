//! One communicating finite-state machine per participant, compiled from its
//! local session type.

use std::collections::BTreeSet;
use std::fmt;

use zooid_mpst::local::{unravel_local, LocalType, LocalTreeNode};
use zooid_mpst::{Label, Role, Sort};

use crate::error::{CfsmError, Result};

/// A state of a [`Cfsm`] (an index into the machine's state table).
pub type StateId = usize;

/// Whether a transition sends or receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// The machine emits a message.
    Send,
    /// The machine consumes a message.
    Recv,
}

/// The label of a CFSM transition: direction, partner, message label and
/// payload sort.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CfsmAction {
    /// Send or receive.
    pub direction: Direction,
    /// The other endpoint of the exchange.
    pub partner: Role,
    /// The message label.
    pub label: Label,
    /// The payload sort.
    pub sort: Sort,
}

impl fmt::Display for CfsmAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = match self.direction {
            Direction::Send => "!",
            Direction::Recv => "?",
        };
        write!(f, "{}{}({}, {})", dir, self.partner, self.label, self.sort)
    }
}

/// A communicating finite-state machine: the automaton a participant follows.
///
/// States correspond to the nodes of the participant's (regular) local tree,
/// so recursion in the local type becomes a cycle in the machine.
///
/// # Examples
///
/// ```
/// use zooid_cfsm::Cfsm;
/// use zooid_mpst::local::LocalType;
/// use zooid_mpst::{Role, Sort};
///
/// let l = LocalType::rec(LocalType::send1(Role::new("q"), "ping", Sort::Nat, LocalType::var(0)));
/// let m = Cfsm::from_local_type(Role::new("p"), &l).unwrap();
/// assert_eq!(m.state_count(), 1);       // a single looping state
/// assert_eq!(m.final_states().len(), 0); // the loop never terminates
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfsm {
    role: Role,
    state_count: usize,
    initial: StateId,
    finals: BTreeSet<StateId>,
    transitions: Vec<(StateId, CfsmAction, StateId)>,
}

impl Cfsm {
    /// Compiles a local type into its machine.
    ///
    /// # Errors
    ///
    /// Fails if the local type is ill-formed.
    pub fn from_local_type(role: Role, local: &LocalType) -> Result<Self> {
        let tree = unravel_local(local).map_err(CfsmError::IllFormedLocalType)?;
        let mut finals = BTreeSet::new();
        let mut transitions = Vec::new();
        for (id, node) in tree.iter() {
            match node {
                LocalTreeNode::End => {
                    finals.insert(id.index());
                }
                LocalTreeNode::Send { to, branches } => {
                    for b in branches {
                        transitions.push((
                            id.index(),
                            CfsmAction {
                                direction: Direction::Send,
                                partner: to.clone(),
                                label: b.label.clone(),
                                sort: b.sort.clone(),
                            },
                            b.cont.index(),
                        ));
                    }
                }
                LocalTreeNode::Recv { from, branches } => {
                    for b in branches {
                        transitions.push((
                            id.index(),
                            CfsmAction {
                                direction: Direction::Recv,
                                partner: from.clone(),
                                label: b.label.clone(),
                                sort: b.sort.clone(),
                            },
                            b.cont.index(),
                        ));
                    }
                }
            }
        }
        Ok(Cfsm {
            role,
            state_count: tree.len(),
            initial: tree.root().index(),
            finals,
            transitions,
        })
    }

    /// The role this machine implements.
    pub fn role(&self) -> &Role {
        &self.role
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// The final (terminated) states.
    pub fn final_states(&self) -> &BTreeSet<StateId> {
        &self.finals
    }

    /// Returns `true` if `state` is final.
    pub fn is_final(&self, state: StateId) -> bool {
        self.finals.contains(&state)
    }

    /// All transitions, as `(source, action, target)` triples.
    pub fn transitions(&self) -> &[(StateId, CfsmAction, StateId)] {
        &self.transitions
    }

    /// The transitions leaving `state`, in declaration order.
    ///
    /// Returns an iterator (no per-call allocation): the explicit-state
    /// explorer calls this for every machine of every expanded
    /// configuration.
    pub fn transitions_from(
        &self,
        state: StateId,
    ) -> impl Iterator<Item = &(StateId, CfsmAction, StateId)> + '_ {
        self.transitions.iter().filter(move |(s, _, _)| *s == state)
    }

    /// Returns `true` if `state` only offers receive transitions (it is
    /// waiting for a message) — the states relevant to deadlock detection.
    pub fn is_receiving(&self, state: StateId) -> bool {
        let mut any = false;
        for (_, a, _) in self.transitions_from(state) {
            if a.direction != Direction::Recv {
                return false;
            }
            any = true;
        }
        any
    }
}

impl fmt::Display for Cfsm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cfsm for {} ({} states, initial {}):",
            self.role, self.state_count, self.initial
        )?;
        for (src, action, dst) in &self.transitions {
            writeln!(f, "  {src} --{action}--> {dst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zooid_mpst::common::branch::Branch;

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    #[test]
    fn end_compiles_to_a_single_final_state() {
        let m = Cfsm::from_local_type(r("p"), &LocalType::End).unwrap();
        assert_eq!(m.state_count(), 1);
        assert!(m.is_final(m.initial()));
        assert!(m.transitions().is_empty());
        assert!(!m.is_receiving(m.initial()));
    }

    #[test]
    fn a_choice_compiles_to_one_transition_per_branch() {
        let l = LocalType::Send {
            to: r("q"),
            branches: vec![
                Branch::new("a", Sort::Nat, LocalType::End),
                Branch::new("b", Sort::Bool, LocalType::End),
            ],
        };
        let m = Cfsm::from_local_type(r("p"), &l).unwrap();
        assert_eq!(m.transitions_from(m.initial()).count(), 2);
        assert_eq!(m.state_count(), 2); // choice state + shared end state
        assert!(!m.is_receiving(m.initial()));
    }

    #[test]
    fn recursion_becomes_a_cycle() {
        let l = LocalType::rec(LocalType::recv1(
            r("q"),
            "tick",
            Sort::Unit,
            LocalType::var(0),
        ));
        let m = Cfsm::from_local_type(r("p"), &l).unwrap();
        assert_eq!(m.state_count(), 1);
        let (src, _, dst) = &m.transitions()[0];
        assert_eq!(src, dst);
        assert!(m.final_states().is_empty());
        assert!(m.is_receiving(m.initial()));
    }

    #[test]
    fn ill_formed_types_are_rejected() {
        let bad = LocalType::rec(LocalType::var(0));
        assert!(matches!(
            Cfsm::from_local_type(r("p"), &bad),
            Err(CfsmError::IllFormedLocalType(_))
        ));
    }

    #[test]
    fn display_lists_transitions() {
        let l = LocalType::send1(r("q"), "l", Sort::Nat, LocalType::End);
        let m = Cfsm::from_local_type(r("p"), &l).unwrap();
        let shown = m.to_string();
        assert!(shown.contains("!q(l, nat)"));
    }
}
