//! The process syntax `Proc` (Definition 4.1, `Proc.v`).

use std::fmt;

use zooid_mpst::{Label, Role, Sort};

use crate::expr::Expr;

/// One alternative of a receiving process: the label it reacts to, the sort
/// of the payload, the variable the payload is bound to and the continuation.
#[derive(Debug, Clone, PartialEq)]
pub struct RecvAlt {
    /// The label this alternative handles.
    pub label: Label,
    /// The sort of the payload.
    pub sort: Sort,
    /// The name the payload is bound to in the continuation.
    pub var: String,
    /// The continuation process.
    pub cont: Proc,
}

impl RecvAlt {
    /// Creates a receive alternative.
    pub fn new(
        label: impl Into<Label>,
        sort: Sort,
        var: impl Into<String>,
        cont: Proc,
    ) -> Self {
        RecvAlt {
            label: label.into(),
            sort,
            var: var.into(),
            cont,
        }
    }
}

/// A (core) Zooid process: the behaviour of a single participant.
///
/// ```text
/// proc ::= finish | jump X | loop X { e }
///        | recv p { l_i . e_i }_{i in I} | send p (l, e) . e
///        | read act_r (x. e) | write act_w e_v e | interact act_i e_v (x. e)
///        | if e then e else e
/// ```
///
/// The paper embeds processes in Gallina, so arbitrary host-language
/// expressions can appear between actions. Here the "ambient calculus" is the
/// deeply-embedded [`Expr`] language: conditionals are a process constructor
/// ([`Proc::Cond`], as in the Zooid surface syntax of Definition 4.3) and
/// payloads/conditions are [`Expr`]s. Recursion uses de Bruijn indices, like
/// local types, so that a well-typed process lines up binder-by-binder with
/// its local type.
///
/// # Examples
///
/// The §2.3 process for `Alice`:
/// `send Bob (l, x:nat)! recv Carol (l, y:nat)? finish`
///
/// ```
/// use zooid_proc::{Expr, Proc, RecvAlt};
/// use zooid_mpst::{Role, Sort};
///
/// let alice = Proc::send(
///     Role::new("Bob"), "l", Expr::lit(7u64),
///     Proc::recv(Role::new("Carol"), vec![RecvAlt::new("l", Sort::Nat, "y", Proc::Finish)]),
/// );
/// assert_eq!(alice.size(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Proc {
    /// The terminated process.
    Finish,
    /// A jump to the recursion binder with the given de Bruijn index.
    Jump(u32),
    /// A recursive process `loop X { body }`.
    Loop(Box<Proc>),
    /// `send p (l, e). cont`: send label `label` with payload `payload` to
    /// `to`, then continue.
    Send {
        /// The partner the message is sent to.
        to: Role,
        /// The label selecting the branch.
        label: Label,
        /// The payload expression.
        payload: Expr,
        /// The continuation.
        cont: Box<Proc>,
    },
    /// `recv p { l_i . e_i }`: wait for a message from `from` and branch on
    /// its label, binding the payload.
    Recv {
        /// The partner the message is expected from.
        from: Role,
        /// The handled alternatives.
        alts: Vec<RecvAlt>,
    },
    /// `if cond then then_branch else else_branch` — both branches must have
    /// the same local type.
    Cond {
        /// The boolean condition.
        cond: Expr,
        /// Taken when the condition evaluates to `true`.
        then_branch: Box<Proc>,
        /// Taken when the condition evaluates to `false`.
        else_branch: Box<Proc>,
    },
    /// `read act (x. cont)`: obtain a value from the environment and bind it.
    Read {
        /// Name of the registered external action.
        action: String,
        /// The variable the result is bound to.
        var: String,
        /// The continuation.
        cont: Box<Proc>,
    },
    /// `write act e cont`: hand a value to the environment.
    Write {
        /// Name of the registered external action.
        action: String,
        /// The argument expression.
        arg: Expr,
        /// The continuation.
        cont: Box<Proc>,
    },
    /// `interact act e (x. cont)`: hand a value to the environment and bind
    /// the response.
    Interact {
        /// Name of the registered external action.
        action: String,
        /// The argument expression.
        arg: Expr,
        /// The variable the response is bound to.
        var: String,
        /// The continuation.
        cont: Box<Proc>,
    },
}

impl Proc {
    /// Builds a `send` process.
    pub fn send(to: Role, label: impl Into<Label>, payload: Expr, cont: Proc) -> Proc {
        Proc::Send {
            to,
            label: label.into(),
            payload,
            cont: Box::new(cont),
        }
    }

    /// Builds a `recv` process from its alternatives.
    pub fn recv(from: Role, alts: Vec<RecvAlt>) -> Proc {
        Proc::Recv { from, alts }
    }

    /// Builds a single-alternative `recv` process.
    pub fn recv1(
        from: Role,
        label: impl Into<Label>,
        sort: Sort,
        var: impl Into<String>,
        cont: Proc,
    ) -> Proc {
        Proc::recv(from, vec![RecvAlt::new(label, sort, var, cont)])
    }

    /// Builds a `loop` process.
    pub fn loop_(body: Proc) -> Proc {
        Proc::Loop(Box::new(body))
    }

    /// Builds an `if` process.
    pub fn cond(cond: Expr, then_branch: Proc, else_branch: Proc) -> Proc {
        Proc::Cond {
            cond,
            then_branch: Box::new(then_branch),
            else_branch: Box::new(else_branch),
        }
    }

    /// Builds a `read` process.
    pub fn read(action: impl Into<String>, var: impl Into<String>, cont: Proc) -> Proc {
        Proc::Read {
            action: action.into(),
            var: var.into(),
            cont: Box::new(cont),
        }
    }

    /// Builds a `write` process.
    pub fn write(action: impl Into<String>, arg: Expr, cont: Proc) -> Proc {
        Proc::Write {
            action: action.into(),
            arg,
            cont: Box::new(cont),
        }
    }

    /// Builds an `interact` process.
    pub fn interact(
        action: impl Into<String>,
        arg: Expr,
        var: impl Into<String>,
        cont: Proc,
    ) -> Proc {
        Proc::Interact {
            action: action.into(),
            arg,
            var: var.into(),
            cont: Box::new(cont),
        }
    }

    /// Structural size of the process (number of process constructors).
    pub fn size(&self) -> usize {
        match self {
            Proc::Finish | Proc::Jump(_) => 1,
            Proc::Loop(body) => 1 + body.size(),
            Proc::Send { cont, .. }
            | Proc::Read { cont, .. }
            | Proc::Write { cont, .. }
            | Proc::Interact { cont, .. } => 1 + cont.size(),
            Proc::Recv { alts, .. } => 1 + alts.iter().map(|a| a.cont.size()).sum::<usize>(),
            Proc::Cond {
                then_branch,
                else_branch,
                ..
            } => 1 + then_branch.size() + else_branch.size(),
        }
    }

    /// Every communication partner mentioned by the process.
    pub fn partners(&self) -> Vec<Role> {
        let mut out = Vec::new();
        self.collect_partners(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_partners(&self, out: &mut Vec<Role>) {
        match self {
            Proc::Finish | Proc::Jump(_) => {}
            Proc::Loop(body) => body.collect_partners(out),
            Proc::Send { to, cont, .. } => {
                out.push(to.clone());
                cont.collect_partners(out);
            }
            Proc::Recv { from, alts } => {
                out.push(from.clone());
                for a in alts {
                    a.cont.collect_partners(out);
                }
            }
            Proc::Cond {
                then_branch,
                else_branch,
                ..
            } => {
                then_branch.collect_partners(out);
                else_branch.collect_partners(out);
            }
            Proc::Read { cont, .. } | Proc::Write { cont, .. } | Proc::Interact { cont, .. } => {
                cont.collect_partners(out);
            }
        }
    }

    /// Substitutes a value for a free expression variable throughout the
    /// process (used when a receive, `read` or `interact` binds a value).
    #[must_use]
    pub fn subst_value(&self, name: &str, value: &crate::value::Value) -> Proc {
        match self {
            Proc::Finish => Proc::Finish,
            Proc::Jump(i) => Proc::Jump(*i),
            Proc::Loop(body) => Proc::loop_(body.subst_value(name, value)),
            Proc::Send {
                to,
                label,
                payload,
                cont,
            } => Proc::Send {
                to: to.clone(),
                label: label.clone(),
                payload: payload.subst(name, value),
                cont: Box::new(cont.subst_value(name, value)),
            },
            Proc::Recv { from, alts } => Proc::Recv {
                from: from.clone(),
                alts: alts
                    .iter()
                    .map(|a| {
                        // The alternative's binder shadows the substituted
                        // variable in its continuation.
                        let cont = if a.var == name {
                            a.cont.clone()
                        } else {
                            a.cont.subst_value(name, value)
                        };
                        RecvAlt {
                            label: a.label.clone(),
                            sort: a.sort.clone(),
                            var: a.var.clone(),
                            cont,
                        }
                    })
                    .collect(),
            },
            Proc::Cond {
                cond,
                then_branch,
                else_branch,
            } => Proc::Cond {
                cond: cond.subst(name, value),
                then_branch: Box::new(then_branch.subst_value(name, value)),
                else_branch: Box::new(else_branch.subst_value(name, value)),
            },
            Proc::Read { action, var, cont } => Proc::Read {
                action: action.clone(),
                var: var.clone(),
                cont: Box::new(if var == name {
                    (**cont).clone()
                } else {
                    cont.subst_value(name, value)
                }),
            },
            Proc::Write { action, arg, cont } => Proc::Write {
                action: action.clone(),
                arg: arg.subst(name, value),
                cont: Box::new(cont.subst_value(name, value)),
            },
            Proc::Interact {
                action,
                arg,
                var,
                cont,
            } => Proc::Interact {
                action: action.clone(),
                arg: arg.subst(name, value),
                var: var.clone(),
                cont: Box::new(if var == name {
                    (**cont).clone()
                } else {
                    cont.subst_value(name, value)
                }),
            },
        }
    }

    /// Substitutes a process for jumps to the given de Bruijn index (used to
    /// unfold `loop`, rule `[p-step-loop]`).
    #[must_use]
    pub fn subst_jump(&self, depth: u32, repl: &Proc) -> Proc {
        match self {
            Proc::Finish => Proc::Finish,
            Proc::Jump(i) => {
                if *i == depth {
                    repl.clone()
                } else if *i > depth {
                    Proc::Jump(*i - 1)
                } else {
                    Proc::Jump(*i)
                }
            }
            Proc::Loop(body) => Proc::loop_(body.subst_jump(depth + 1, repl)),
            Proc::Send {
                to,
                label,
                payload,
                cont,
            } => Proc::Send {
                to: to.clone(),
                label: label.clone(),
                payload: payload.clone(),
                cont: Box::new(cont.subst_jump(depth, repl)),
            },
            Proc::Recv { from, alts } => Proc::Recv {
                from: from.clone(),
                alts: alts
                    .iter()
                    .map(|a| RecvAlt {
                        label: a.label.clone(),
                        sort: a.sort.clone(),
                        var: a.var.clone(),
                        cont: a.cont.subst_jump(depth, repl),
                    })
                    .collect(),
            },
            Proc::Cond {
                cond,
                then_branch,
                else_branch,
            } => Proc::Cond {
                cond: cond.clone(),
                then_branch: Box::new(then_branch.subst_jump(depth, repl)),
                else_branch: Box::new(else_branch.subst_jump(depth, repl)),
            },
            Proc::Read { action, var, cont } => Proc::Read {
                action: action.clone(),
                var: var.clone(),
                cont: Box::new(cont.subst_jump(depth, repl)),
            },
            Proc::Write { action, arg, cont } => Proc::Write {
                action: action.clone(),
                arg: arg.clone(),
                cont: Box::new(cont.subst_jump(depth, repl)),
            },
            Proc::Interact {
                action,
                arg,
                var,
                cont,
            } => Proc::Interact {
                action: action.clone(),
                arg: arg.clone(),
                var: var.clone(),
                cont: Box::new(cont.subst_jump(depth, repl)),
            },
        }
    }

    /// One unfolding of a `loop`: `loop { body }` becomes
    /// `body[jump 0 := loop { body }]`; other processes are unchanged.
    #[must_use]
    pub fn unfold_once(&self) -> Proc {
        match self {
            Proc::Loop(body) => body.subst_jump(0, self),
            other => other.clone(),
        }
    }
}

impl fmt::Display for Proc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Proc::Finish => f.write_str("finish"),
            Proc::Jump(i) => write!(f, "jump X{i}"),
            Proc::Loop(body) => write!(f, "loop {{ {body} }}"),
            Proc::Send {
                to,
                label,
                payload,
                cont,
            } => write!(f, "send {to}({label}, {payload})! {cont}"),
            Proc::Recv { from, alts } => {
                write!(f, "recv {from}{{")?;
                for (i, a) in alts.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{}({}: {}) ? {}", a.label, a.var, a.sort, a.cont)?;
                }
                f.write_str("}")
            }
            Proc::Cond {
                cond,
                then_branch,
                else_branch,
            } => write!(f, "if {cond} then {then_branch} else {else_branch}"),
            Proc::Read { action, var, cont } => write!(f, "read {action}({var}. {cont})"),
            Proc::Write { action, arg, cont } => write!(f, "write {action} {arg} {cont}"),
            Proc::Interact {
                action,
                arg,
                var,
                cont,
            } => write!(f, "interact {action} {arg} ({var}. {cont})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    /// The `procq` example of §4.1: a server that keeps adding `m` to the
    /// received number until the client quits.
    fn server(m: u64) -> Proc {
        Proc::loop_(Proc::recv(
            r("p"),
            vec![
                RecvAlt::new(
                    "l1",
                    Sort::Nat,
                    "x",
                    Proc::send(
                        r("p"),
                        "l1",
                        Expr::add(Expr::var("x"), Expr::lit(m)),
                        Proc::Jump(0),
                    ),
                ),
                RecvAlt::new("l2", Sort::Unit, "x", Proc::Finish),
            ],
        ))
    }

    #[test]
    fn size_and_partners() {
        let s = server(3);
        assert_eq!(s.size(), 5);
        assert_eq!(s.partners(), vec![r("p")]);
    }

    #[test]
    fn unfolding_a_loop_substitutes_jumps() {
        let s = server(3);
        let unfolded = s.unfold_once();
        // The unfolded process starts with the receive and the jump has been
        // replaced by the whole loop.
        match &unfolded {
            Proc::Recv { alts, .. } => match &alts[0].cont {
                Proc::Send { cont, .. } => assert_eq!(**cont, s),
                other => panic!("expected send, got {other}"),
            },
            other => panic!("expected recv, got {other}"),
        }
        // Non-loops unfold to themselves.
        assert_eq!(Proc::Finish.unfold_once(), Proc::Finish);
    }

    #[test]
    fn value_substitution_respects_binders() {
        // send q (l, x)! recv q { l(x: nat) ? send q (l, x)! finish }
        let p = Proc::send(
            r("q"),
            "l",
            Expr::var("x"),
            Proc::recv1(
                r("q"),
                "l",
                Sort::Nat,
                "x",
                Proc::send(r("q"), "l", Expr::var("x"), Proc::Finish),
            ),
        );
        let substituted = p.subst_value("x", &Value::Nat(1));
        match &substituted {
            Proc::Send { payload, cont, .. } => {
                assert_eq!(payload, &Expr::lit(1u64));
                // The inner x is re-bound by the receive, so it must *not*
                // have been substituted.
                match &**cont {
                    Proc::Recv { alts, .. } => match &alts[0].cont {
                        Proc::Send { payload, .. } => assert_eq!(payload, &Expr::var("x")),
                        other => panic!("unexpected {other}"),
                    },
                    other => panic!("unexpected {other}"),
                }
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn jump_substitution_adjusts_outer_indices() {
        // loop { if c then jump 0 else jump 1 }: unfolding replaces jump 0
        // and decrements jump 1 (it now refers to the next enclosing loop).
        let body = Proc::cond(Expr::lit(true), Proc::Jump(0), Proc::Jump(1));
        let looped = Proc::loop_(body);
        let unfolded = looped.unfold_once();
        match unfolded {
            Proc::Cond {
                then_branch,
                else_branch,
                ..
            } => {
                assert_eq!(*then_branch, looped);
                assert_eq!(*else_branch, Proc::Jump(0));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn display_is_readable() {
        let p = Proc::send(r("q"), "l", Expr::lit(1u64), Proc::Finish);
        assert_eq!(p.to_string(), "send q(l, 1)! finish");
    }

    #[test]
    fn external_constructors_build_the_expected_shape() {
        let p = Proc::read(
            "query",
            "x",
            Proc::write(
                "log",
                Expr::var("x"),
                Proc::interact("compute", Expr::var("x"), "y", Proc::Finish),
            ),
        );
        assert_eq!(p.size(), 4);
        assert!(p.partners().is_empty());
    }
}
