//! Inductive syntax of local types (Definition 3.1 / A.9, `Local/Syntax.v`).

use std::collections::BTreeSet;
use std::fmt;


use crate::common::branch::{branches_from, check_branches, Branch};
use crate::common::label::Label;
use crate::common::role::Role;
use crate::common::sort::Sort;
use crate::error::{Error, Result};

/// A local session type: the behaviour of a single participant.
///
/// ```text
/// L ::= end | X | mu X. L
///     | ![q] ; { l_i(S_i). L_i }_{i in I}     (send / internal choice)
///     | ?[p] ; { l_i(S_i). L_i }_{i in I}     (receive / external choice)
/// ```
///
/// Recursion binders use de Bruijn indices, as in the Coq development. Local
/// types are normally obtained by [projecting] a global type, but can also be
/// written directly (for example to annotate a process).
///
/// [projecting]: crate::projection::project
///
/// # Examples
///
/// The projection of the two-buyer protocol onto buyer `B` (Figure 10):
///
/// ```
/// use zooid_mpst::local::LocalType;
/// use zooid_mpst::{Label, Role, Sort};
///
/// let blt = LocalType::recv(Role::new("S"), vec![(Label::new("Quote"), Sort::Nat,
///     LocalType::recv(Role::new("A"), vec![(Label::new("Propose"), Sort::Nat,
///         LocalType::send(Role::new("S"), vec![
///             (Label::new("Accept"), Sort::Nat,
///                 LocalType::recv(Role::new("S"), vec![(Label::new("Date"), Sort::Nat, LocalType::End)])),
///             (Label::new("Reject"), Sort::Unit, LocalType::End),
///         ]))]))]);
/// assert!(blt.well_formed().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LocalType {
    /// The terminated protocol `end`.
    End,
    /// A recursion variable, as a de Bruijn index.
    Var(u32),
    /// A recursive local type `mu X. L`.
    Rec(Box<LocalType>),
    /// Internal choice `![to] ; { l_i(S_i). L_i }`: the participant chooses a
    /// label and sends it (with a payload) to `to`.
    Send {
        /// The partner the message is sent to.
        to: Role,
        /// The alternatives the participant may choose from.
        branches: Vec<Branch<LocalType>>,
    },
    /// External choice `?[from] ; { l_i(S_i). L_i }`: the participant waits
    /// for a message from `from` and branches on its label.
    Recv {
        /// The partner the message is expected from.
        from: Role,
        /// The alternatives the partner may choose from.
        branches: Vec<Branch<LocalType>>,
    },
}

impl LocalType {
    /// Builds a send (internal choice) type from `(label, sort, continuation)`
    /// triples.
    pub fn send(
        to: Role,
        branches: impl IntoIterator<Item = (Label, Sort, LocalType)>,
    ) -> Self {
        LocalType::Send {
            to,
            branches: branches_from(branches),
        }
    }

    /// Builds a single-branch send type `![to] ; label(sort). cont`.
    pub fn send1(to: Role, label: impl Into<Label>, sort: Sort, cont: LocalType) -> Self {
        LocalType::send(to, [(label.into(), sort, cont)])
    }

    /// Builds a receive (external choice) type from `(label, sort,
    /// continuation)` triples.
    pub fn recv(
        from: Role,
        branches: impl IntoIterator<Item = (Label, Sort, LocalType)>,
    ) -> Self {
        LocalType::Recv {
            from,
            branches: branches_from(branches),
        }
    }

    /// Builds a single-branch receive type `?[from] ; label(sort). cont`.
    pub fn recv1(from: Role, label: impl Into<Label>, sort: Sort, cont: LocalType) -> Self {
        LocalType::recv(from, [(label.into(), sort, cont)])
    }

    /// Builds the recursive type `mu X. body`.
    pub fn rec(body: LocalType) -> Self {
        LocalType::Rec(Box::new(body))
    }

    /// Builds the recursion variable with de Bruijn index `index`.
    pub fn var(index: u32) -> Self {
        LocalType::Var(index)
    }

    /// Every partner the local type communicates with.
    pub fn partners(&self) -> BTreeSet<Role> {
        let mut out = BTreeSet::new();
        self.collect_partners(&mut out);
        out
    }

    fn collect_partners(&self, out: &mut BTreeSet<Role>) {
        match self {
            LocalType::End | LocalType::Var(_) => {}
            LocalType::Rec(body) => body.collect_partners(out),
            LocalType::Send { to, branches } => {
                out.insert(to.clone());
                for b in branches {
                    b.cont.collect_partners(out);
                }
            }
            LocalType::Recv { from, branches } => {
                out.insert(from.clone());
                for b in branches {
                    b.cont.collect_partners(out);
                }
            }
        }
    }

    /// The set of free recursion variables (`l_fidx`), as de Bruijn indices
    /// relative to the outside of the term.
    pub fn free_vars(&self) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        self.collect_free_vars(0, &mut out);
        out
    }

    fn collect_free_vars(&self, depth: u32, out: &mut BTreeSet<u32>) {
        match self {
            LocalType::End => {}
            LocalType::Var(i) => {
                if *i >= depth {
                    out.insert(*i - depth);
                }
            }
            LocalType::Rec(body) => body.collect_free_vars(depth + 1, out),
            LocalType::Send { branches, .. } | LocalType::Recv { branches, .. } => {
                for b in branches {
                    b.cont.collect_free_vars(depth, out);
                }
            }
        }
    }

    /// Returns `true` if the type has no free recursion variables
    /// (`l_closed`, Definition A.11).
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// Returns `true` if every recursion binder is guarded (`lguarded`,
    /// Definition A.10).
    pub fn is_guarded(&self) -> bool {
        match self {
            LocalType::End | LocalType::Var(_) => true,
            LocalType::Rec(body) => !body.is_pure_rec() && body.is_guarded(),
            LocalType::Send { branches, .. } | LocalType::Recv { branches, .. } => {
                branches.iter().all(|b| b.cont.is_guarded())
            }
        }
    }

    fn is_pure_rec(&self) -> bool {
        match self {
            LocalType::Var(_) => true,
            LocalType::Rec(body) => body.is_pure_rec(),
            _ => false,
        }
    }

    /// Checks the local counterpart of `g_precond`: guarded, closed, and all
    /// choices non-empty with pairwise distinct labels.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition as an [`Error`].
    pub fn well_formed(&self) -> Result<()> {
        if !self.is_guarded() {
            return Err(Error::Unguarded {
                context: self.to_string(),
            });
        }
        if let Some(&i) = self.free_vars().iter().next() {
            return Err(Error::UnboundVariable { index: i });
        }
        self.check_choices()
    }

    fn check_choices(&self) -> Result<()> {
        match self {
            LocalType::End | LocalType::Var(_) => Ok(()),
            LocalType::Rec(body) => body.check_choices(),
            LocalType::Send { branches, .. } | LocalType::Recv { branches, .. } => {
                check_branches(branches)?;
                for b in branches {
                    b.cont.check_choices()?;
                }
                Ok(())
            }
        }
    }

    /// Capture-avoiding substitution of the outermost recursion variable;
    /// see [`GlobalType::subst_top`](crate::global::GlobalType::subst_top)
    /// for the conventions.
    #[must_use]
    pub fn subst_top(&self, repl: &LocalType) -> LocalType {
        self.subst(0, repl)
    }

    fn subst(&self, depth: u32, repl: &LocalType) -> LocalType {
        match self {
            LocalType::End => LocalType::End,
            LocalType::Var(i) => {
                if *i == depth {
                    repl.clone()
                } else if *i > depth {
                    LocalType::Var(*i - 1)
                } else {
                    LocalType::Var(*i)
                }
            }
            LocalType::Rec(body) => LocalType::Rec(Box::new(body.subst(depth + 1, repl))),
            LocalType::Send { to, branches } => LocalType::Send {
                to: to.clone(),
                branches: branches
                    .iter()
                    .map(|b| b.map_ref(|l| l.subst(depth, repl)))
                    .collect(),
            },
            LocalType::Recv { from, branches } => LocalType::Recv {
                from: from.clone(),
                branches: branches
                    .iter()
                    .map(|b| b.map_ref(|l| l.subst(depth, repl)))
                    .collect(),
            },
        }
    }

    /// One step of recursion unfolding: `mu X. L` becomes `L[X := mu X. L]`;
    /// every other constructor is returned unchanged.
    #[must_use]
    pub fn unfold_once(&self) -> LocalType {
        match self {
            LocalType::Rec(body) => body.subst_top(self),
            other => other.clone(),
        }
    }

    /// Unfolds leading recursion binders until the head constructor is
    /// `End`, `Send` or `Recv`.
    ///
    /// # Panics
    ///
    /// Panics if the type is unguarded or not closed; callers are expected to
    /// have checked [`LocalType::well_formed`] first.
    #[must_use]
    pub fn unfold_head(&self) -> LocalType {
        let mut current = self.clone();
        let mut fuel = 1 + self.size();
        while let LocalType::Rec(_) = current {
            assert!(fuel > 0, "unfold_head: unguarded or open recursion");
            fuel -= 1;
            current = current.unfold_once();
        }
        assert!(
            !matches!(current, LocalType::Var(_)),
            "unfold_head reached a free variable; type was not closed"
        );
        current
    }

    /// Structural size (number of constructors).
    pub fn size(&self) -> usize {
        match self {
            LocalType::End | LocalType::Var(_) => 1,
            LocalType::Rec(body) => 1 + body.size(),
            LocalType::Send { branches, .. } | LocalType::Recv { branches, .. } => {
                1 + branches.iter().map(|b| b.cont.size()).sum::<usize>()
            }
        }
    }
}

impl fmt::Display for LocalType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn branches(
            f: &mut fmt::Formatter<'_>,
            branches: &[Branch<LocalType>],
        ) -> fmt::Result {
            f.write_str("{")?;
            for (i, b) in branches.iter().enumerate() {
                if i > 0 {
                    f.write_str("; ")?;
                }
                write!(f, "{}({}).{}", b.label, b.sort, b.cont)?;
            }
            f.write_str("}")
        }
        match self {
            LocalType::End => f.write_str("end"),
            LocalType::Var(i) => write!(f, "X{i}"),
            LocalType::Rec(body) => write!(f, "mu.{body}"),
            LocalType::Send { to, branches: bs } => {
                write!(f, "![{to}];")?;
                branches(f, bs)
            }
            LocalType::Recv { from, branches: bs } => {
                write!(f, "?[{from}];")?;
                branches(f, bs)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    /// `mu X. ![q] ; l(nat). ?[q] ; l2(nat). X` — a recursive request/reply.
    fn request_reply() -> LocalType {
        LocalType::rec(LocalType::send1(
            r("q"),
            "l",
            Sort::Nat,
            LocalType::recv1(r("q"), "l2", Sort::Nat, LocalType::var(0)),
        ))
    }

    #[test]
    fn partners_of_request_reply() {
        assert_eq!(
            request_reply().partners().into_iter().collect::<Vec<_>>(),
            vec![r("q")]
        );
    }

    #[test]
    fn well_formed_accepts_request_reply() {
        assert!(request_reply().well_formed().is_ok());
    }

    #[test]
    fn guardedness_rejects_mu_x_x() {
        let l = LocalType::rec(LocalType::var(0));
        assert!(!l.is_guarded());
        assert!(matches!(l.well_formed(), Err(Error::Unguarded { .. })));
    }

    #[test]
    fn closedness_detects_free_variables() {
        let open = LocalType::send1(r("q"), "l", Sort::Nat, LocalType::var(0));
        assert!(!open.is_closed() || open.free_vars().is_empty());
        assert!(!open.is_closed());
        assert!(request_reply().is_closed());
    }

    #[test]
    fn duplicate_labels_rejected() {
        let l = LocalType::send(
            r("q"),
            vec![
                (Label::new("l"), Sort::Nat, LocalType::End),
                (Label::new("l"), Sort::Nat, LocalType::End),
            ],
        );
        assert!(matches!(l.well_formed(), Err(Error::DuplicateLabel { .. })));
    }

    #[test]
    fn empty_choice_rejected() {
        let l = LocalType::Recv {
            from: r("q"),
            branches: vec![],
        };
        assert_eq!(l.well_formed(), Err(Error::EmptyChoice));
    }

    #[test]
    fn unfold_once_substitutes_whole_mu() {
        let l = request_reply();
        let u = l.unfold_once();
        assert_eq!(
            u,
            LocalType::send1(
                r("q"),
                "l",
                Sort::Nat,
                LocalType::recv1(r("q"), "l2", Sort::Nat, l.clone())
            )
        );
        assert!(u.is_closed());
        assert!(u.is_guarded());
    }

    #[test]
    fn unfold_head_reaches_send() {
        let l = request_reply();
        assert!(matches!(l.unfold_head(), LocalType::Send { .. }));
        // Already-headed types are unchanged.
        assert_eq!(LocalType::End.unfold_head(), LocalType::End);
    }

    #[test]
    fn size_counts_constructors() {
        assert_eq!(LocalType::End.size(), 1);
        assert_eq!(request_reply().size(), 4);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(
            request_reply().to_string(),
            "mu.![q];{l(nat).?[q];{l2(nat).X0}}"
        );
    }
}
