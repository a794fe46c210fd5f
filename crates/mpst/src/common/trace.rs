//! Execution traces (Definition 3.18 / `Common/Action.v`).

use std::fmt;
use std::ops::Deref;


use crate::common::actions::Action;
use crate::common::role::Role;

/// A finite execution trace: a sequence of [`Action`]s.
///
/// The paper's traces (Definition 3.18) are *coinductive*, i.e. possibly
/// infinite streams. Every decision procedure in this crate works with finite
/// prefixes of those streams: a [`Trace`] is such a finite prefix. Infinite
/// behaviours (recursive protocols) are handled by bounding the prefix length
/// and, where needed, by lasso detection on the underlying finite-state
/// configuration graphs.
///
/// # Examples
///
/// ```
/// use zooid_mpst::{Action, Label, Role, Sort, Trace};
///
/// let a = Action::send(Role::new("p"), Role::new("q"), Label::new("l"), Sort::Nat);
/// let t = Trace::from(vec![a.clone(), a.dual()]);
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.to_string(), "!pq(l, nat) # ?qp(l, nat) # []");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Trace(Vec<Action>);

impl Trace {
    /// The empty trace `[]`.
    pub fn empty() -> Self {
        Trace(Vec::new())
    }

    /// Creates a trace from a sequence of actions.
    pub fn new(actions: impl IntoIterator<Item = Action>) -> Self {
        Trace(actions.into_iter().collect())
    }

    /// Number of actions in the trace.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if the trace contains no action.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The actions of the trace, in order.
    pub fn actions(&self) -> &[Action] {
        &self.0
    }

    /// Appends an action at the end of the trace.
    pub fn push(&mut self, action: Action) {
        self.0.push(action);
    }

    /// Returns the trace `a # self` (the paper's cons).
    pub fn cons(action: Action, rest: &Trace) -> Trace {
        let mut v = Vec::with_capacity(rest.len() + 1);
        v.push(action);
        v.extend_from_slice(&rest.0);
        Trace(v)
    }

    /// Returns a new trace extended with `action` (builder style).
    #[must_use]
    pub fn snoc(&self, action: Action) -> Trace {
        let mut v = self.0.clone();
        v.push(action);
        Trace(v)
    }

    /// Restriction of the trace to the actions whose subject is `role`
    /// (used by the complete-subtrace relation, Definition 4.6).
    pub fn restrict_to_subject(&self, role: &Role) -> Trace {
        Trace(
            self.0
                .iter()
                .filter(|a| a.subject() == role)
                .cloned()
                .collect(),
        )
    }

    /// Returns `true` if `self` is a prefix of `other`.
    pub fn is_prefix_of(&self, other: &Trace) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// Iterates over the actions of the trace.
    pub fn iter(&self) -> std::slice::Iter<'_, Action> {
        self.0.iter()
    }
}

impl Deref for Trace {
    type Target = [Action];

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl From<Vec<Action>> for Trace {
    fn from(actions: Vec<Action>) -> Self {
        Trace(actions)
    }
}

impl FromIterator<Action> for Trace {
    fn from_iter<I: IntoIterator<Item = Action>>(iter: I) -> Self {
        Trace(iter.into_iter().collect())
    }
}

impl Extend<Action> for Trace {
    fn extend<I: IntoIterator<Item = Action>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl IntoIterator for Trace {
    type Item = Action;
    type IntoIter = std::vec::IntoIter<Action>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Action;
    type IntoIter = std::slice::Iter<'a, Action>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for a in &self.0 {
            write!(f, "{a} # ")?;
        }
        f.write_str("[]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::label::Label;
    use crate::common::sort::Sort;

    fn act(i: usize) -> Action {
        Action::send(
            Role::new("p"),
            Role::new("q"),
            Label::new(format!("l{i}")),
            Sort::Nat,
        )
    }

    #[test]
    fn empty_trace_is_empty() {
        assert!(Trace::empty().is_empty());
        assert_eq!(Trace::empty().len(), 0);
        assert_eq!(Trace::empty().to_string(), "[]");
    }

    #[test]
    fn cons_prepends() {
        let t = Trace::from(vec![act(1)]);
        let t2 = Trace::cons(act(0), &t);
        assert_eq!(t2.actions()[0], act(0));
        assert_eq!(t2.actions()[1], act(1));
    }

    #[test]
    fn snoc_appends() {
        let t = Trace::from(vec![act(0)]).snoc(act(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.actions()[1], act(1));
    }

    #[test]
    fn restriction_keeps_only_subject_actions() {
        let p_sends = act(0);
        let q_recvs = p_sends.dual();
        let t = Trace::from(vec![p_sends.clone(), q_recvs.clone()]);
        assert_eq!(
            t.restrict_to_subject(&Role::new("p")),
            Trace::from(vec![p_sends])
        );
        assert_eq!(
            t.restrict_to_subject(&Role::new("q")),
            Trace::from(vec![q_recvs])
        );
        assert!(t.restrict_to_subject(&Role::new("r")).is_empty());
    }

    #[test]
    fn prefix_check() {
        let t = Trace::from(vec![act(0), act(1), act(2)]);
        assert!(Trace::from(vec![act(0)]).is_prefix_of(&t));
        assert!(Trace::empty().is_prefix_of(&t));
        assert!(!Trace::from(vec![act(1)]).is_prefix_of(&t));
        assert!(!t.is_prefix_of(&Trace::from(vec![act(0)])));
    }

    #[test]
    fn collects_from_iterator() {
        let t: Trace = (0..3).map(act).collect();
        assert_eq!(t.len(), 3);
        let back: Vec<Action> = t.clone().into_iter().collect();
        assert_eq!(back.len(), 3);
        assert_eq!(t.iter().count(), 3);
    }
}
