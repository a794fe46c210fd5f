//! Inductive syntax of global types (Definition 3.1 / A.1, `Global/Syntax.v`).

use std::collections::BTreeSet;
use std::fmt;


use crate::common::branch::{branches_from, check_branches, Branch};
use crate::common::label::Label;
use crate::common::role::Role;
use crate::common::sort::Sort;
use crate::error::{Error, Result};

/// A global session type.
///
/// ```text
/// G ::= end | X | mu X. G | p -> q : { l_i(S_i). G_i }_{i in I}
/// ```
///
/// Recursion binders use de Bruijn indices, as in the Coq development
/// (`Var(0)` is bound by the innermost enclosing [`GlobalType::Rec`]). The
/// paper's well-formedness assumptions — guarded recursion, closed types,
/// non-empty choices with distinct labels and no self-communication — are
/// checked by [`GlobalType::well_formed`] (the Coq `g_precond`).
///
/// # Examples
///
/// Building the recursive pipeline of §5.1:
///
/// ```
/// use zooid_mpst::global::GlobalType;
/// use zooid_mpst::{Label, Role, Sort};
///
/// // pipeline = mu X. Alice -> Bob : l(nat). Bob -> Carol : l(nat). X
/// let pipeline = GlobalType::rec(GlobalType::msg(
///     Role::new("Alice"),
///     Role::new("Bob"),
///     vec![(Label::new("l"), Sort::Nat, GlobalType::msg(
///         Role::new("Bob"),
///         Role::new("Carol"),
///         vec![(Label::new("l"), Sort::Nat, GlobalType::var(0))],
///     ))],
/// ));
/// assert!(pipeline.well_formed().is_ok());
/// assert_eq!(pipeline.participants().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GlobalType {
    /// The terminated protocol `end`.
    End,
    /// A recursion variable, as a de Bruijn index.
    Var(u32),
    /// A recursive protocol `mu X. G`.
    Rec(Box<GlobalType>),
    /// A message exchange `p -> q : { l_i(S_i). G_i }`.
    Msg {
        /// The sending participant `p`.
        from: Role,
        /// The receiving participant `q`.
        to: Role,
        /// The alternatives offered by the sender.
        branches: Vec<Branch<GlobalType>>,
    },
}

impl GlobalType {
    /// Builds a message type from `(label, sort, continuation)` triples.
    pub fn msg(
        from: Role,
        to: Role,
        branches: impl IntoIterator<Item = (Label, Sort, GlobalType)>,
    ) -> Self {
        GlobalType::Msg {
            from,
            to,
            branches: branches_from(branches),
        }
    }

    /// Builds a single-branch message type `from -> to : label(sort). cont`.
    pub fn msg1(from: Role, to: Role, label: impl Into<Label>, sort: Sort, cont: GlobalType) -> Self {
        GlobalType::msg(from, to, [(label.into(), sort, cont)])
    }

    /// Builds the recursive type `mu X. body`.
    pub fn rec(body: GlobalType) -> Self {
        GlobalType::Rec(Box::new(body))
    }

    /// Builds the recursion variable with de Bruijn index `index`.
    pub fn var(index: u32) -> Self {
        GlobalType::Var(index)
    }

    /// The participants (`prts`) of the global type, i.e. every role that
    /// occurs as a sender or receiver.
    pub fn participants(&self) -> BTreeSet<Role> {
        let mut out = BTreeSet::new();
        self.collect_participants(&mut out);
        out
    }

    fn collect_participants(&self, out: &mut BTreeSet<Role>) {
        match self {
            GlobalType::End | GlobalType::Var(_) => {}
            GlobalType::Rec(body) => body.collect_participants(out),
            GlobalType::Msg { from, to, branches } => {
                out.insert(from.clone());
                out.insert(to.clone());
                for b in branches {
                    b.cont.collect_participants(out);
                }
            }
        }
    }

    /// The set of free recursion variables (`g_fidx`), as de Bruijn indices
    /// relative to the outside of the term.
    pub fn free_vars(&self) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        self.collect_free_vars(0, &mut out);
        out
    }

    fn collect_free_vars(&self, depth: u32, out: &mut BTreeSet<u32>) {
        match self {
            GlobalType::End => {}
            GlobalType::Var(i) => {
                if *i >= depth {
                    out.insert(*i - depth);
                }
            }
            GlobalType::Rec(body) => body.collect_free_vars(depth + 1, out),
            GlobalType::Msg { branches, .. } => {
                for b in branches {
                    b.cont.collect_free_vars(depth, out);
                }
            }
        }
    }

    /// Returns `true` if the type has no free recursion variables
    /// (`g_closed`, Definition A.3).
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// Returns `true` if every recursion binder is guarded (`guarded`,
    /// Definition A.2): the body of a `mu` is neither a bare variable nor a
    /// chain of `mu`s ending in a bare variable.
    pub fn is_guarded(&self) -> bool {
        match self {
            GlobalType::End | GlobalType::Var(_) => true,
            GlobalType::Rec(body) => !body.is_pure_rec() && body.is_guarded(),
            GlobalType::Msg { branches, .. } => branches.iter().all(|b| b.cont.is_guarded()),
        }
    }

    /// Returns `true` if the type is `mu Y1 ... mu Yn. X` or a bare variable
    /// (the paper's `not_pure_rec` is the negation of this).
    fn is_pure_rec(&self) -> bool {
        match self {
            GlobalType::Var(_) => true,
            GlobalType::Rec(body) => body.is_pure_rec(),
            _ => false,
        }
    }

    /// Checks the `g_precond` of the Coq development: the type is guarded,
    /// closed, and every choice is non-empty with pairwise distinct labels
    /// and distinct sender/receiver.
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
            GlobalType::End | GlobalType::Var(_) => Ok(()),
            GlobalType::Rec(body) => body.check_choices(),
            GlobalType::Msg { from, to, branches } => {
                if from == to {
                    return Err(Error::SelfCommunication { role: from.clone() });
                }
                check_branches(branches)?;
                for b in branches {
                    b.cont.check_choices()?;
                }
                Ok(())
            }
        }
    }

    /// Capture-avoiding substitution of the outermost recursion variable:
    /// `self.subst_top(repl)` is `self[X0 := repl]` where `X0` is de Bruijn
    /// index `0` at the top level of `self`.
    ///
    /// This is only used to unfold *closed* recursive types, so `repl` is
    /// always closed and no shifting of `repl` is required; free variables of
    /// `self` above the substituted index are decremented because one binder
    /// disappears.
    #[must_use]
    pub fn subst_top(&self, repl: &GlobalType) -> GlobalType {
        self.subst(0, repl)
    }

    fn subst(&self, depth: u32, repl: &GlobalType) -> GlobalType {
        match self {
            GlobalType::End => GlobalType::End,
            GlobalType::Var(i) => {
                if *i == depth {
                    repl.clone()
                } else if *i > depth {
                    GlobalType::Var(*i - 1)
                } else {
                    GlobalType::Var(*i)
                }
            }
            GlobalType::Rec(body) => GlobalType::Rec(Box::new(body.subst(depth + 1, repl))),
            GlobalType::Msg { from, to, branches } => GlobalType::Msg {
                from: from.clone(),
                to: to.clone(),
                branches: branches
                    .iter()
                    .map(|b| b.map_ref(|g| g.subst(depth, repl)))
                    .collect(),
            },
        }
    }

    /// One step of recursion unfolding: `mu X. G` becomes `G[X := mu X. G]`;
    /// every other constructor is returned unchanged.
    #[must_use]
    pub fn unfold_once(&self) -> GlobalType {
        match self {
            GlobalType::Rec(body) => body.subst_top(self),
            other => other.clone(),
        }
    }

    /// Unfolds leading recursion binders until the head constructor is
    /// `End` or `Msg` (the equi-recursive head normal form).
    ///
    /// # Panics
    ///
    /// Panics if the type is unguarded or not closed; callers are expected to
    /// have checked [`GlobalType::well_formed`] first.
    #[must_use]
    pub fn unfold_head(&self) -> GlobalType {
        let mut current = self.clone();
        // Each iteration removes one leading `mu`; guardedness rules out the
        // `mu X. X` family, so the number of leading binders strictly
        // decreases and this terminates.
        let mut fuel = 1 + self.size();
        while let GlobalType::Rec(_) = current {
            assert!(fuel > 0, "unfold_head: unguarded or open recursion");
            fuel -= 1;
            current = current.unfold_once();
        }
        assert!(
            !matches!(current, GlobalType::Var(_)),
            "unfold_head reached a free variable; type was not closed"
        );
        current
    }

    /// Structural size (number of constructors); used by generators,
    /// termination fuel and the effort report.
    pub fn size(&self) -> usize {
        match self {
            GlobalType::End | GlobalType::Var(_) => 1,
            GlobalType::Rec(body) => 1 + body.size(),
            GlobalType::Msg { branches, .. } => {
                1 + branches.iter().map(|b| b.cont.size()).sum::<usize>()
            }
        }
    }

    /// Maximum number of alternatives in any choice of the type.
    pub fn max_branching(&self) -> usize {
        match self {
            GlobalType::End | GlobalType::Var(_) => 0,
            GlobalType::Rec(body) => body.max_branching(),
            GlobalType::Msg { branches, .. } => branches
                .len()
                .max(branches.iter().map(|b| b.cont.max_branching()).max().unwrap_or(0)),
        }
    }
}

impl fmt::Display for GlobalType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlobalType::End => f.write_str("end"),
            GlobalType::Var(i) => write!(f, "X{i}"),
            GlobalType::Rec(body) => write!(f, "mu.{body}"),
            GlobalType::Msg { from, to, branches } => {
                write!(f, "{from}->{to}:{{")?;
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

    fn r(name: &str) -> Role {
        Role::new(name)
    }
    fn l(name: &str) -> Label {
        Label::new(name)
    }

    /// `mu X. p -> q : l(nat). X` — the simplest well-formed recursive type.
    fn simple_loop() -> GlobalType {
        GlobalType::rec(GlobalType::msg1(
            r("p"),
            r("q"),
            "l",
            Sort::Nat,
            GlobalType::var(0),
        ))
    }

    #[test]
    fn participants_of_message() {
        let g = GlobalType::msg1(r("p"), r("q"), "l", Sort::Nat, GlobalType::End);
        let ps = g.participants();
        assert_eq!(ps.len(), 2);
        assert!(ps.contains(&r("p")) && ps.contains(&r("q")));
    }

    #[test]
    fn guardedness_accepts_guarded_recursion() {
        assert!(simple_loop().is_guarded());
    }

    #[test]
    fn guardedness_rejects_mu_x_x() {
        let g = GlobalType::rec(GlobalType::var(0));
        assert!(!g.is_guarded());
        assert!(matches!(g.well_formed(), Err(Error::Unguarded { .. })));
    }

    #[test]
    fn guardedness_rejects_nested_pure_recursion() {
        // mu X. mu Y. X is also unguarded (Definition A.2's not_pure_rec).
        let g = GlobalType::rec(GlobalType::rec(GlobalType::var(1)));
        assert!(!g.is_guarded());
    }

    #[test]
    fn closedness() {
        assert!(simple_loop().is_closed());
        let open = GlobalType::msg1(r("p"), r("q"), "l", Sort::Nat, GlobalType::var(3));
        assert!(!open.is_closed());
        assert_eq!(open.free_vars().into_iter().collect::<Vec<_>>(), vec![3]);
        assert!(matches!(
            open.well_formed(),
            Err(Error::UnboundVariable { index: 3 })
        ));
    }

    #[test]
    fn free_vars_are_relative_to_binders() {
        // mu X. p -> q : l(nat). X1  has X1 free (index 0 outside).
        let g = GlobalType::rec(GlobalType::msg1(
            r("p"),
            r("q"),
            "l",
            Sort::Nat,
            GlobalType::var(1),
        ));
        assert_eq!(g.free_vars().into_iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn well_formed_rejects_self_communication() {
        let g = GlobalType::msg1(r("p"), r("p"), "l", Sort::Nat, GlobalType::End);
        assert!(matches!(
            g.well_formed(),
            Err(Error::SelfCommunication { .. })
        ));
    }

    #[test]
    fn well_formed_rejects_duplicate_labels() {
        let g = GlobalType::msg(
            r("p"),
            r("q"),
            vec![
                (l("l"), Sort::Nat, GlobalType::End),
                (l("l"), Sort::Bool, GlobalType::End),
            ],
        );
        assert!(matches!(g.well_formed(), Err(Error::DuplicateLabel { .. })));
    }

    #[test]
    fn well_formed_rejects_empty_choice() {
        let g = GlobalType::Msg {
            from: r("p"),
            to: r("q"),
            branches: vec![],
        };
        assert_eq!(g.well_formed(), Err(Error::EmptyChoice));
    }

    #[test]
    fn unfold_once_substitutes_the_whole_mu() {
        let g = simple_loop();
        let unfolded = g.unfold_once();
        assert_eq!(
            unfolded,
            GlobalType::msg1(r("p"), r("q"), "l", Sort::Nat, g.clone())
        );
        // Unfolding is idempotent on non-recursive heads.
        assert_eq!(unfolded.unfold_once(), unfolded);
    }

    #[test]
    fn unfold_head_strips_all_leading_binders() {
        // mu X. mu Y. p -> q : l(nat). Y
        let g = GlobalType::rec(GlobalType::rec(GlobalType::msg1(
            r("p"),
            r("q"),
            "l",
            Sort::Nat,
            GlobalType::var(0),
        )));
        let h = g.unfold_head();
        assert!(matches!(h, GlobalType::Msg { .. }));
    }

    #[test]
    fn unfolding_preserves_closedness_and_guardedness() {
        let g = simple_loop();
        let u = g.unfold_once();
        assert!(u.is_closed());
        assert!(u.is_guarded());
    }

    #[test]
    fn size_and_branching_metrics() {
        let g = GlobalType::msg(
            r("p"),
            r("q"),
            vec![
                (l("a"), Sort::Nat, GlobalType::End),
                (l("b"), Sort::Nat, GlobalType::End),
            ],
        );
        assert_eq!(g.size(), 3);
        assert_eq!(g.max_branching(), 2);
        assert_eq!(GlobalType::End.max_branching(), 0);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(
            simple_loop().to_string(),
            "mu.p->q:{l(nat).X0}"
        );
        assert_eq!(GlobalType::End.to_string(), "end");
    }
}
