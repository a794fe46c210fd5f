//! The process typing system `Γ ⊢lt e : L` (Definition 4.2, Figure 5,
//! `of_lt` in `Proc.v`).
//!
//! Typing is syntax-directed and decidable: [`type_check`] verifies that a
//! process implements a given local type, and [`infer_local_type`] computes
//! the *natural* local type of a process (the one in which every send is a
//! singleton internal choice). The Zooid DSL layer
//! ([`zooid-dsl`](https://docs.rs/zooid-dsl)) is responsible for aligning the
//! inferred type with a projection, using `skip` annotations and equality up
//! to unravelling, exactly as described in §4.2–§5.1 of the paper.

use zooid_mpst::common::branch::Branch;
use zooid_mpst::local::LocalType;

use crate::error::{ProcError, Result};
use crate::expr::SortEnv;
use crate::external::{ExternalKind, Externals};
use crate::proc::Proc;

/// The context of the typing judgement: the sorts of the free expression
/// variables (`Γ`) and the signatures of the external actions.
#[derive(Debug, Clone)]
struct TypingCtx<'a> {
    /// Sorts of the expression variables currently in scope.
    gamma: SortEnv,
    /// Declared external actions.
    externals: &'a Externals,
}

impl<'a> TypingCtx<'a> {
    /// An empty context over the given external declarations.
    fn new(externals: &'a Externals) -> Self {
        TypingCtx {
            gamma: SortEnv::new(),
            externals,
        }
    }

    fn bind(&self, var: &str, sort: zooid_mpst::Sort) -> TypingCtx<'a> {
        let mut gamma = self.gamma.clone();
        gamma.insert(var.to_owned(), sort);
        TypingCtx {
            gamma,
            externals: self.externals,
        }
    }
}

/// Checks `Γ ⊢lt proc : local` with an empty variable context.
///
/// # Errors
///
/// Returns a [`ProcError`] describing the first typing rule that fails.
///
/// # Examples
///
/// ```
/// use zooid_proc::{type_check, Expr, Externals, Proc, RecvAlt};
/// use zooid_mpst::local::LocalType;
/// use zooid_mpst::{Role, Sort};
///
/// // send Bob (l, 7)! finish  :  ![Bob]; l(nat). end
/// let p = Proc::send(Role::new("Bob"), "l", Expr::lit(7u64), Proc::Finish);
/// let l = LocalType::send1(Role::new("Bob"), "l", Sort::Nat, LocalType::End);
/// assert!(type_check(&p, &l, &Externals::new()).is_ok());
/// ```
pub fn type_check(proc: &Proc, local: &LocalType, externals: &Externals) -> Result<()> {
    check(proc, local, &TypingCtx::new(externals))
}

fn check(proc: &Proc, local: &LocalType, ctx: &TypingCtx<'_>) -> Result<()> {
    match proc {
        // [p-ty-end]
        Proc::Finish => match local {
            LocalType::End => Ok(()),
            other => Err(ProcError::TypeError {
                reason: format!("finish cannot implement the local type {other}"),
            }),
        },
        // [p-ty-jump]
        Proc::Jump(i) => match local {
            LocalType::Var(j) if i == j => Ok(()),
            other => Err(ProcError::TypeError {
                reason: format!("jump X{i} cannot implement the local type {other}"),
            }),
        },
        // [p-ty-loop]
        Proc::Loop(body) => match local {
            LocalType::Rec(lbody) => check(body, lbody, ctx),
            other => Err(ProcError::TypeError {
                reason: format!("loop cannot implement the non-recursive local type {other}"),
            }),
        },
        // [p-ty-send]
        Proc::Send {
            to,
            label,
            payload,
            cont,
        } => match local {
            LocalType::Send {
                to: lto,
                branches,
            } if lto == to => {
                let branch = find_branch(branches, label).ok_or_else(|| ProcError::UnknownLabel {
                    label: label.clone(),
                    partner: to.clone(),
                })?;
                let payload_sort = payload.infer_sort(&ctx.gamma)?;
                if payload_sort != branch.sort {
                    return Err(ProcError::SortMismatch {
                        expected: branch.sort.clone(),
                        found: payload_sort,
                        context: format!("payload of send {to}({label}, ...)"),
                    });
                }
                check(cont, &branch.cont, ctx)
            }
            other => Err(ProcError::TypeError {
                reason: format!("send to {to} cannot implement the local type {other}"),
            }),
        },
        // [p-ty-recv]: every alternative of the type must be implemented.
        Proc::Recv { from, alts } => match local {
            LocalType::Recv {
                from: lfrom,
                branches,
            } if lfrom == from => {
                if alts.len() != branches.len() {
                    return Err(ProcError::TypeError {
                        reason: format!(
                            "receive from {from} implements {} alternatives but its local type \
                             offers {}",
                            alts.len(),
                            branches.len()
                        ),
                    });
                }
                for branch in branches {
                    let alt = alts
                        .iter()
                        .find(|a| a.label == branch.label)
                        .ok_or_else(|| ProcError::MissingAlternative {
                            label: branch.label.clone(),
                        })?;
                    if alt.sort != branch.sort {
                        return Err(ProcError::SortMismatch {
                            expected: branch.sort.clone(),
                            found: alt.sort.clone(),
                            context: format!("payload of alternative {} of recv {from}", alt.label),
                        });
                    }
                    check(&alt.cont, &branch.cont, &ctx.bind(&alt.var, alt.sort.clone()))?;
                }
                Ok(())
            }
            other => Err(ProcError::TypeError {
                reason: format!("receive from {from} cannot implement the local type {other}"),
            }),
        },
        // if-then-else: both branches implement the same type (the paper
        // proves this admissible by case analysis on the Gallina term).
        Proc::Cond {
            cond,
            then_branch,
            else_branch,
        } => {
            let cond_sort = cond.infer_sort(&ctx.gamma)?;
            if cond_sort != zooid_mpst::Sort::Bool {
                return Err(ProcError::SortMismatch {
                    expected: zooid_mpst::Sort::Bool,
                    found: cond_sort,
                    context: "condition of an if-process".to_owned(),
                });
            }
            check(then_branch, local, ctx)?;
            check(else_branch, local, ctx)
        }
        // [p-ty-read]
        Proc::Read { action, var, cont } => {
            let sig = lookup_external(ctx, action, ExternalKind::Read)?;
            check(cont, local, &ctx.bind(var, sig.output.clone()))
        }
        // [p-ty-write]
        Proc::Write { action, arg, cont } => {
            let sig = lookup_external(ctx, action, ExternalKind::Write)?;
            let arg_sort = arg.infer_sort(&ctx.gamma)?;
            if arg_sort != sig.input {
                return Err(ProcError::SortMismatch {
                    expected: sig.input.clone(),
                    found: arg_sort,
                    context: format!("argument of write action `{action}`"),
                });
            }
            check(cont, local, ctx)
        }
        // [p-ty-interact]
        Proc::Interact {
            action,
            arg,
            var,
            cont,
        } => {
            let sig = lookup_external(ctx, action, ExternalKind::Interact)?;
            let arg_sort = arg.infer_sort(&ctx.gamma)?;
            if arg_sort != sig.input {
                return Err(ProcError::SortMismatch {
                    expected: sig.input.clone(),
                    found: arg_sort,
                    context: format!("argument of interact action `{action}`"),
                });
            }
            check(cont, local, &ctx.bind(var, sig.output.clone()))
        }
    }
}

fn lookup_external<'a>(
    ctx: &'a TypingCtx<'_>,
    name: &str,
    expected_kind: ExternalKind,
) -> Result<&'a crate::external::ExternalSig> {
    let sig = ctx
        .externals
        .signature(name)
        .ok_or_else(|| ProcError::UnknownExternal { name: name.into() })?;
    if sig.kind != expected_kind {
        return Err(ProcError::TypeError {
            reason: format!(
                "external action `{name}` is declared as {} but used as {expected_kind}",
                sig.kind
            ),
        });
    }
    Ok(sig)
}

fn find_branch<'a>(
    branches: &'a [Branch<LocalType>],
    label: &zooid_mpst::Label,
) -> Option<&'a Branch<LocalType>> {
    branches.iter().find(|b| &b.label == label)
}

/// Infers the *natural* local type of a process: the type whose internal
/// choices contain exactly the labels the process can actually send.
///
/// Because the paper's typing has no subtyping, this inferred type only
/// coincides with a projection when the process implements every alternative;
/// the DSL's `skip` construct exists precisely to extend the inferred type
/// with unimplemented alternatives (§4.2).
///
/// # Errors
///
/// Fails if the process is ill-sorted (e.g. the two branches of an `if`
/// would get different types).
pub fn infer_local_type(proc: &Proc, externals: &Externals) -> Result<LocalType> {
    infer(proc, &TypingCtx::new(externals))
}

fn infer(proc: &Proc, ctx: &TypingCtx<'_>) -> Result<LocalType> {
    match proc {
        Proc::Finish => Ok(LocalType::End),
        Proc::Jump(i) => Ok(LocalType::Var(*i)),
        Proc::Loop(body) => Ok(LocalType::rec(infer(body, ctx)?)),
        Proc::Send {
            to,
            label,
            payload,
            cont,
        } => {
            let sort = payload.infer_sort(&ctx.gamma)?;
            let cont_ty = infer(cont, ctx)?;
            Ok(LocalType::send1(to.clone(), label.clone(), sort, cont_ty))
        }
        Proc::Recv { from, alts } => {
            let mut branches = Vec::with_capacity(alts.len());
            for a in alts {
                let cont_ty = infer(&a.cont, &ctx.bind(&a.var, a.sort.clone()))?;
                branches.push((a.label.clone(), a.sort.clone(), cont_ty));
            }
            Ok(LocalType::recv(from.clone(), branches))
        }
        Proc::Cond {
            then_branch,
            else_branch,
            ..
        } => {
            let t = infer(then_branch, ctx)?;
            let e = infer(else_branch, ctx)?;
            if t == e {
                Ok(t)
            } else {
                Err(ProcError::TypeError {
                    reason: format!(
                        "the branches of an if-process have different local types: {t} and {e}"
                    ),
                })
            }
        }
        Proc::Read { action, var, cont } => {
            let sig = lookup_external(ctx, action, ExternalKind::Read)?;
            infer(cont, &ctx.bind(var, sig.output.clone()))
        }
        Proc::Write { action, cont, .. } => {
            lookup_external(ctx, action, ExternalKind::Write)?;
            infer(cont, ctx)
        }
        Proc::Interact {
            action, var, cont, ..
        } => {
            let sig = lookup_external(ctx, action, ExternalKind::Interact)?;
            infer(cont, &ctx.bind(var, sig.output.clone()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::proc::RecvAlt;
    use zooid_mpst::{Role, Sort};

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    /// The §4.1 server: loop { recv p { l1(x). send p (l1, x + m). jump
    /// ; l2(_). finish } }.
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
                RecvAlt::new("l2", Sort::Unit, "_x", Proc::Finish),
            ],
        ))
    }

    /// The local type of the server:
    /// mu X. ?[p];{ l1(nat). ![p];l1(nat). X ; l2(unit). end }.
    fn server_type() -> LocalType {
        LocalType::rec(LocalType::recv(
            r("p"),
            vec![
                (
                    zooid_mpst::Label::new("l1"),
                    Sort::Nat,
                    LocalType::send1(r("p"), "l1", Sort::Nat, LocalType::var(0)),
                ),
                (zooid_mpst::Label::new("l2"), Sort::Unit, LocalType::End),
            ],
        ))
    }

    #[test]
    fn the_section_4_1_server_is_well_typed() {
        assert!(type_check(&server(5), &server_type(), &Externals::new()).is_ok());
    }

    #[test]
    fn inference_reconstructs_the_server_type() {
        let inferred = infer_local_type(&server(5), &Externals::new()).unwrap();
        assert_eq!(inferred, server_type());
    }

    #[test]
    fn p_ty_end_rejects_pending_communication() {
        let l = LocalType::send1(r("q"), "l", Sort::Nat, LocalType::End);
        assert!(matches!(
            type_check(&Proc::Finish, &l, &Externals::new()),
            Err(ProcError::TypeError { .. })
        ));
    }

    #[test]
    fn p_ty_send_checks_partner_label_and_sort() {
        let l = LocalType::send1(r("q"), "l", Sort::Nat, LocalType::End);
        let ok = Proc::send(r("q"), "l", Expr::lit(1u64), Proc::Finish);
        assert!(type_check(&ok, &l, &Externals::new()).is_ok());

        let wrong_partner = Proc::send(r("z"), "l", Expr::lit(1u64), Proc::Finish);
        assert!(type_check(&wrong_partner, &l, &Externals::new()).is_err());

        let wrong_label = Proc::send(r("q"), "m", Expr::lit(1u64), Proc::Finish);
        assert!(matches!(
            type_check(&wrong_label, &l, &Externals::new()),
            Err(ProcError::UnknownLabel { .. })
        ));

        let wrong_sort = Proc::send(r("q"), "l", Expr::lit(true), Proc::Finish);
        assert!(matches!(
            type_check(&wrong_sort, &l, &Externals::new()),
            Err(ProcError::SortMismatch { .. })
        ));
    }

    #[test]
    fn p_ty_recv_requires_every_alternative() {
        let l = LocalType::recv(
            r("p"),
            vec![
                (zooid_mpst::Label::new("a"), Sort::Nat, LocalType::End),
                (zooid_mpst::Label::new("b"), Sort::Unit, LocalType::End),
            ],
        );
        let full = Proc::recv(
            r("p"),
            vec![
                RecvAlt::new("a", Sort::Nat, "x", Proc::Finish),
                RecvAlt::new("b", Sort::Unit, "y", Proc::Finish),
            ],
        );
        assert!(type_check(&full, &l, &Externals::new()).is_ok());

        let partial = Proc::recv(r("p"), vec![RecvAlt::new("a", Sort::Nat, "x", Proc::Finish)]);
        assert!(type_check(&partial, &l, &Externals::new()).is_err());
    }

    #[test]
    fn received_variables_are_usable_in_continuations() {
        // recv p (l, x:nat) ? send p (l2, x*2)! finish
        let p = Proc::recv1(
            r("p"),
            "l",
            Sort::Nat,
            "x",
            Proc::send(
                r("p"),
                "l2",
                Expr::mul(Expr::var("x"), Expr::lit(2u64)),
                Proc::Finish,
            ),
        );
        let l = LocalType::recv1(
            r("p"),
            "l",
            Sort::Nat,
            LocalType::send1(r("p"), "l2", Sort::Nat, LocalType::End),
        );
        assert!(type_check(&p, &l, &Externals::new()).is_ok());
    }

    #[test]
    fn unbound_variables_are_rejected() {
        let p = Proc::send(r("q"), "l", Expr::var("ghost"), Proc::Finish);
        let l = LocalType::send1(r("q"), "l", Sort::Nat, LocalType::End);
        assert!(matches!(
            type_check(&p, &l, &Externals::new()),
            Err(ProcError::UnboundVariable { .. })
        ));
    }

    #[test]
    fn if_processes_require_both_branches_to_match_the_type() {
        let l = LocalType::send1(r("q"), "l", Sort::Nat, LocalType::End);
        let good = Proc::cond(
            Expr::lit(true),
            Proc::send(r("q"), "l", Expr::lit(1u64), Proc::Finish),
            Proc::send(r("q"), "l", Expr::lit(2u64), Proc::Finish),
        );
        assert!(type_check(&good, &l, &Externals::new()).is_ok());

        let bad = Proc::cond(
            Expr::lit(true),
            Proc::send(r("q"), "l", Expr::lit(1u64), Proc::Finish),
            Proc::Finish,
        );
        assert!(type_check(&bad, &l, &Externals::new()).is_err());

        let bad_cond = Proc::cond(
            Expr::lit(3u64),
            Proc::send(r("q"), "l", Expr::lit(1u64), Proc::Finish),
            Proc::send(r("q"), "l", Expr::lit(2u64), Proc::Finish),
        );
        assert!(type_check(&bad_cond, &l, &Externals::new()).is_err());
    }

    #[test]
    fn external_actions_do_not_change_the_local_type() {
        let mut ext = Externals::new();
        ext.register_read("ask", Sort::Nat, || crate::value::Value::Nat(1));
        ext.register_write("log", Sort::Nat, |_| ());
        ext.register_interact("compute", Sort::Nat, Sort::Nat, |v| v);

        // read ask (x. write log x (interact compute x (y. send q (l, y)! finish)))
        let p = Proc::read(
            "ask",
            "x",
            Proc::write(
                "log",
                Expr::var("x"),
                Proc::interact(
                    "compute",
                    Expr::var("x"),
                    "y",
                    Proc::send(r("q"), "l", Expr::var("y"), Proc::Finish),
                ),
            ),
        );
        let l = LocalType::send1(r("q"), "l", Sort::Nat, LocalType::End);
        assert!(type_check(&p, &l, &ext).is_ok());
        assert_eq!(infer_local_type(&p, &ext).unwrap(), l);
    }

    #[test]
    fn misused_external_kinds_are_rejected() {
        let mut ext = Externals::new();
        ext.register_read("ask", Sort::Nat, || crate::value::Value::Nat(1));
        // `ask` is a read action, not a write action.
        let p = Proc::write("ask", Expr::lit(1u64), Proc::Finish);
        assert!(type_check(&p, &LocalType::End, &ext).is_err());
        // Unknown actions are also rejected.
        let q = Proc::read("nope", "x", Proc::Finish);
        assert!(matches!(
            type_check(&q, &LocalType::End, &ext),
            Err(ProcError::UnknownExternal { .. })
        ));
    }

    #[test]
    fn loops_must_match_recursive_types() {
        let p = Proc::loop_(Proc::send(r("q"), "l", Expr::lit(1u64), Proc::Jump(0)));
        let l = LocalType::rec(LocalType::send1(r("q"), "l", Sort::Nat, LocalType::var(0)));
        assert!(type_check(&p, &l, &Externals::new()).is_ok());
        // Jump indices must line up.
        let bad = Proc::loop_(Proc::send(r("q"), "l", Expr::lit(1u64), Proc::Jump(1)));
        assert!(type_check(&bad, &l, &Externals::new()).is_err());
        // A loop against a non-recursive type fails.
        assert!(type_check(&p, &l.unfold_once(), &Externals::new()).is_err());
    }

    #[test]
    fn inference_fails_on_mismatched_if_branches() {
        let p = Proc::cond(
            Expr::lit(true),
            Proc::send(r("q"), "a", Expr::lit(1u64), Proc::Finish),
            Proc::send(r("q"), "b", Expr::lit(1u64), Proc::Finish),
        );
        assert!(infer_local_type(&p, &Externals::new()).is_err());
    }
}
