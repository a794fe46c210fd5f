//! Communication actions (the paper's `act`, §3.4 / `Common/Actions.v`).

use std::fmt;


use crate::common::label::Label;
use crate::common::role::Role;
use crate::common::sort::Sort;

/// Whether an action is the sending or the receiving half of a message
/// exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ActionKind {
    /// `!pq(l, S)`: the sender enqueues the message.
    Send,
    /// `?qp(l, S)`: the receiver dequeues the message.
    Recv,
}

impl fmt::Display for ActionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionKind::Send => f.write_str("!"),
            ActionKind::Recv => f.write_str("?"),
        }
    }
}

/// A basic action of the asynchronous semantics (§3.4).
///
/// An action records the two endpoints of a message exchange, its label and
/// its payload sort, plus whether it is the *send* half (`!pq(l,S)`, performed
/// by the sender `p`) or the *receive* half (`?qp(l,S)`, performed by the
/// receiver `q`).
///
/// The *subject* of an action (Definition in `Common/Actions.v`) is the
/// participant performing it: the sender for a send action, the receiver for
/// a receive action.
///
/// # Examples
///
/// ```
/// use zooid_mpst::{Action, Label, Role, Sort};
///
/// let a = Action::send(Role::new("p"), Role::new("q"), Label::new("l"), Sort::Nat);
/// assert_eq!(a.subject(), &Role::new("p"));
/// assert_eq!(a.to_string(), "!pq(l, nat)");
///
/// let b = Action::recv(Role::new("q"), Role::new("p"), Label::new("l"), Sort::Nat);
/// assert_eq!(b.subject(), &Role::new("q"));
/// assert_eq!(b.to_string(), "?qp(l, nat)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Action {
    kind: ActionKind,
    from: Role,
    to: Role,
    label: Label,
    sort: Sort,
}

impl Action {
    /// The send action `!pq(l, S)`: `from` sends label `label` with payload
    /// sort `sort` to `to`.
    pub fn send(from: Role, to: Role, label: Label, sort: Sort) -> Self {
        Action {
            kind: ActionKind::Send,
            from,
            to,
            label,
            sort,
        }
    }

    /// The receive action `?qp(l, S)`: `at` receives from `from` the label
    /// `label` with payload sort `sort`.
    pub fn recv(at: Role, from: Role, label: Label, sort: Sort) -> Self {
        Action {
            kind: ActionKind::Recv,
            from,
            to: at,
            label,
            sort,
        }
    }

    /// The kind of the action (send or receive).
    pub fn kind(&self) -> ActionKind {
        self.kind
    }

    /// The sending participant of the underlying message.
    pub fn from(&self) -> &Role {
        &self.from
    }

    /// The receiving participant of the underlying message.
    pub fn to(&self) -> &Role {
        &self.to
    }

    /// The message label.
    pub fn label(&self) -> &Label {
        &self.label
    }

    /// The payload sort.
    pub fn sort(&self) -> &Sort {
        &self.sort
    }

    /// The *subject* of the action: the participant that performs it.
    ///
    /// For a send action this is the sender, for a receive action the
    /// receiver (the paper swaps the argument order in receive actions so
    /// that the subject always comes first; we expose it as a method
    /// instead).
    pub fn subject(&self) -> &Role {
        match self.kind {
            ActionKind::Send => &self.from,
            ActionKind::Recv => &self.to,
        }
    }

    /// Returns `true` if the action is a send.
    pub fn is_send(&self) -> bool {
        self.kind == ActionKind::Send
    }

    /// Returns `true` if the action is a receive.
    pub fn is_recv(&self) -> bool {
        self.kind == ActionKind::Recv
    }

    /// The matching dual action: the receive corresponding to a send and
    /// vice versa.
    ///
    /// # Examples
    ///
    /// ```
    /// use zooid_mpst::{Action, Label, Role, Sort};
    /// let snd = Action::send(Role::new("p"), Role::new("q"), Label::new("l"), Sort::Nat);
    /// let rcv = Action::recv(Role::new("q"), Role::new("p"), Label::new("l"), Sort::Nat);
    /// assert_eq!(snd.dual(), rcv);
    /// assert_eq!(rcv.dual(), snd);
    /// ```
    pub fn dual(&self) -> Action {
        Action {
            kind: match self.kind {
                ActionKind::Send => ActionKind::Recv,
                ActionKind::Recv => ActionKind::Send,
            },
            from: self.from.clone(),
            to: self.to.clone(),
            label: self.label.clone(),
            sort: self.sort.clone(),
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ActionKind::Send => write!(f, "!{}{}({}, {})", self.from, self.to, self.label, self.sort),
            ActionKind::Recv => write!(f, "?{}{}({}, {})", self.to, self.from, self.label, self.sort),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Role {
        Role::new("p")
    }
    fn q() -> Role {
        Role::new("q")
    }
    fn l() -> Label {
        Label::new("l")
    }

    #[test]
    fn subject_of_send_is_sender() {
        let a = Action::send(p(), q(), l(), Sort::Nat);
        assert_eq!(a.subject(), &p());
        assert!(a.is_send());
        assert!(!a.is_recv());
    }

    #[test]
    fn subject_of_recv_is_receiver() {
        let a = Action::recv(q(), p(), l(), Sort::Nat);
        assert_eq!(a.subject(), &q());
        assert!(a.is_recv());
    }

    #[test]
    fn dual_is_involutive() {
        let a = Action::send(p(), q(), l(), Sort::Bool);
        assert_eq!(a.dual().dual(), a);
        assert_ne!(a.dual(), a);
    }

    #[test]
    fn accessors_expose_components() {
        let a = Action::recv(q(), p(), l(), Sort::Int);
        assert_eq!(a.from(), &p());
        assert_eq!(a.to(), &q());
        assert_eq!(a.label(), &l());
        assert_eq!(a.sort(), &Sort::Int);
        assert_eq!(a.kind(), ActionKind::Recv);
    }

    #[test]
    fn display_follows_paper_notation() {
        let snd = Action::send(p(), q(), l(), Sort::Nat);
        let rcv = snd.dual();
        assert_eq!(snd.to_string(), "!pq(l, nat)");
        assert_eq!(rcv.to_string(), "?qp(l, nat)");
    }
}
