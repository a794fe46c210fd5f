//! Smart constructors for well-typed-by-construction processes
//! (Definition 4.3 and the `Zooid.v` notations).
//!
//! Every constructor in this module builds a [`WtProc`]: a process *paired
//! with* the local type it implements — the Rust counterpart of the Coq
//! dependent pair `wt_proc L = { P : Proc | of_lt P L }`. The local type of
//! every constructor is fully determined by its inputs, which is what lets a
//! user write a process and obtain its type "for free", exactly as Coq infers
//! it for the paper's smart constructors.
//!
//! Two constructors deserve attention (§4.2):
//!
//! * [`select`] — an internal choice given as a list of alternatives: any
//!   number of guarded [`SelectAlt::case`]s, exactly one
//!   [`SelectAlt::otherwise`] (the default, which must come after every
//!   case), and any number of [`SelectAlt::skip`]s declaring alternatives
//!   that exist in the protocol but that this process never takes. `skip` is
//!   what makes the inferred local type match the projection even though the
//!   process implements only part of the choice — the typing system has no
//!   subtyping, so unimplemented alternatives must still be declared.
//! * [`branch`] — an external choice; here *every* alternative of the type
//!   must be implemented (rule `[p-ty-recv]`).

use zooid_mpst::common::branch::Branch;
use zooid_mpst::local::LocalType;
use zooid_mpst::{Label, Role, Sort};
use zooid_proc::{type_check, Expr, Externals, Proc, RecvAlt};

use crate::error::{DslError, Result};

/// A well-typed process: a [`Proc`] together with the [`LocalType`] it
/// implements, obtainable only through the smart constructors of this module
/// (or, for interoperability, through the explicitly-unchecked escape hatch).
#[derive(Debug, Clone, PartialEq)]
pub struct WtProc {
    proc: Proc,
    local: LocalType,
}

impl WtProc {
    /// The underlying process (the first projection of the dependent pair).
    pub fn proc(&self) -> &Proc {
        &self.proc
    }

    /// The local type the process implements (the `projT1` of §5.1).
    pub fn local_type(&self) -> &LocalType {
        &self.local
    }

    /// Splits the pair into its components.
    pub fn into_parts(self) -> (Proc, LocalType) {
        (self.proc, self.local)
    }

    /// Re-checks the typing derivation (`Γ ⊢lt proc : local`) with the given
    /// external-action signatures.
    ///
    /// The smart constructors guarantee the *structure* of the derivation;
    /// payload expressions that mention variables bound by enclosing
    /// receives, and external-action signatures, can only be checked once
    /// the whole term is assembled — which is what this method (and
    /// [`Protocol::implement`](crate::Protocol::implement), which calls it)
    /// does.
    ///
    /// # Errors
    ///
    /// Returns the typing error, if any.
    pub fn validate(&self, externals: &Externals) -> Result<()> {
        type_check(&self.proc, &self.local, externals).map_err(DslError::from)
    }

    /// Assembles a `WtProc` from parts without re-deriving the typing.
    ///
    /// This is an escape hatch for interoperating with processes produced
    /// outside the smart constructors; [`WtProc::validate`] (or
    /// [`Protocol::implement`](crate::Protocol::implement)) will still check
    /// the pair before it can be executed.
    pub fn from_parts_unchecked(proc: Proc, local: LocalType) -> Self {
        WtProc { proc, local }
    }
}

/// `finish`: the terminated process, of type `end` (the paper's `wt_end`).
pub fn finish() -> WtProc {
    WtProc {
        proc: Proc::Finish,
        local: LocalType::End,
    }
}

/// `jump X`: a jump to the `index`-th enclosing [`loop_`], of type `X`.
pub fn jump(index: u32) -> WtProc {
    WtProc {
        proc: Proc::Jump(index),
        local: LocalType::Var(index),
    }
}

/// `loop X { body }`: a recursive process of type `mu X. L` where `L` is the
/// body's type.
///
/// # Errors
///
/// Fails if wrapping the body's type in `mu` would produce an unguarded
/// recursive type (the body is just a `jump`).
pub fn loop_(body: WtProc) -> Result<WtProc> {
    let local = LocalType::rec(body.local);
    if !local.is_guarded() {
        return Err(DslError::MalformedConstructor {
            reason: "the body of a loop must perform a communication before jumping".to_owned(),
        });
    }
    Ok(WtProc {
        proc: Proc::loop_(body.proc),
        local,
    })
}

/// `send p (l, e : S)! cont`: send one message and continue; the local type
/// is the singleton internal choice `![p]; l(S). L` (the paper's `wt_send`).
///
/// # Errors
///
/// Fails if the payload is a closed expression whose sort differs from `sort`
/// (open payloads — mentioning variables bound by an enclosing receive — are
/// checked later by [`WtProc::validate`]).
pub fn send(
    to: Role,
    label: impl Into<Label>,
    sort: Sort,
    payload: Expr,
    cont: WtProc,
) -> Result<WtProc> {
    let label = label.into();
    check_closed_payload(&payload, &sort, &label)?;
    let local = LocalType::send1(to.clone(), label.clone(), sort, cont.local);
    Ok(WtProc {
        proc: Proc::send(to, label, payload, cont.proc),
        local,
    })
}

/// `recv p (l, x : S)? cont`: receive one message, bind it to `var` and
/// continue; the local type is the singleton external choice `?[p]; l(S). L`.
///
/// # Errors
///
/// Currently infallible (kept fallible for uniformity with [`branch`]).
pub fn recv1(
    from: Role,
    label: impl Into<Label>,
    sort: Sort,
    var: impl Into<String>,
    cont: WtProc,
) -> Result<WtProc> {
    branch(from, vec![BranchAlt::new(label, sort, var, cont)])
}

/// One alternative of a [`branch`] (external choice): label, payload sort,
/// the variable the payload is bound to, and the continuation.
#[derive(Debug, Clone)]
pub struct BranchAlt {
    label: Label,
    sort: Sort,
    var: String,
    cont: WtProc,
}

impl BranchAlt {
    /// Creates an alternative `l, x : S ? cont`.
    pub fn new(
        label: impl Into<Label>,
        sort: Sort,
        var: impl Into<String>,
        cont: WtProc,
    ) -> Self {
        BranchAlt {
            label: label.into(),
            sort,
            var: var.into(),
            cont,
        }
    }
}

/// `branch p [alt_1 | ... | alt_n]`: an external choice; every alternative
/// the partner may choose must be handled (rule `[p-ty-recv]`). The local
/// type is `?[p]; { l_i(S_i). L_i }`.
///
/// # Errors
///
/// Fails on an empty list of alternatives or duplicate labels.
pub fn branch(from: Role, alts: Vec<BranchAlt>) -> Result<WtProc> {
    if alts.is_empty() {
        return Err(DslError::MalformedConstructor {
            reason: "a branch needs at least one alternative".to_owned(),
        });
    }
    check_distinct_labels(alts.iter().map(|a| &a.label))?;
    let mut branches = Vec::with_capacity(alts.len());
    let mut recv_alts = Vec::with_capacity(alts.len());
    for a in alts {
        branches.push(Branch::new(a.label.clone(), a.sort.clone(), a.cont.local));
        recv_alts.push(RecvAlt::new(a.label, a.sort, a.var, a.cont.proc));
    }
    Ok(WtProc {
        proc: Proc::Recv {
            from: from.clone(),
            alts: recv_alts,
        },
        local: LocalType::Recv { from, branches },
    })
}

/// One alternative of a [`select`] (internal choice).
#[derive(Debug, Clone)]
pub struct SelectAlt {
    kind: SelectKind,
    label: Label,
    sort: Sort,
}

#[derive(Debug, Clone)]
enum SelectKind {
    Case {
        guard: Expr,
        payload: Expr,
        cont: WtProc,
    },
    Otherwise {
        payload: Expr,
        cont: WtProc,
    },
    Skip {
        cont_type: LocalType,
    },
}

impl SelectAlt {
    /// `case e => l, e' : S ! cont`: if the guard evaluates to `true`, send
    /// `l` with payload `e'` and continue as `cont`.
    pub fn case(
        guard: Expr,
        label: impl Into<Label>,
        sort: Sort,
        payload: Expr,
        cont: WtProc,
    ) -> Self {
        SelectAlt {
            kind: SelectKind::Case {
                guard,
                payload,
                cont,
            },
            label: label.into(),
            sort,
        }
    }

    /// `otherwise => l, e : S ! cont`: the default alternative, taken when no
    /// preceding `case` guard holds. A `select` must contain exactly one.
    pub fn otherwise(
        label: impl Into<Label>,
        sort: Sort,
        payload: Expr,
        cont: WtProc,
    ) -> Self {
        SelectAlt {
            kind: SelectKind::Otherwise { payload, cont },
            label: label.into(),
            sort,
        }
    }

    /// `skip => l, S ! L`: an alternative the protocol offers but this
    /// process never takes; only its local type is recorded, so that the
    /// inferred type still matches the projection.
    pub fn skip(label: impl Into<Label>, sort: Sort, cont_type: LocalType) -> Self {
        SelectAlt {
            kind: SelectKind::Skip { cont_type },
            label: label.into(),
            sort,
        }
    }
}

/// `select p [alt_1 | ... | alt_n]`: an internal choice among labelled
/// alternatives, with exactly one default (`otherwise`) and optional
/// unimplemented alternatives (`skip`). The local type is
/// `![p]; { l_i(S_i). L_i }` over *all* the alternatives, implemented or not.
///
/// # Errors
///
/// Fails on an empty list, duplicate labels, a missing or repeated
/// `otherwise`, or an `otherwise` that precedes a `case`.
pub fn select(to: Role, alts: Vec<SelectAlt>) -> Result<WtProc> {
    if alts.is_empty() {
        return Err(DslError::MalformedConstructor {
            reason: "a select needs at least one alternative".to_owned(),
        });
    }
    check_distinct_labels(alts.iter().map(|a| &a.label))?;

    // Exactly one `otherwise`, occurring after the last `case`.
    let otherwise_positions: Vec<usize> = alts
        .iter()
        .enumerate()
        .filter(|(_, a)| matches!(a.kind, SelectKind::Otherwise { .. }))
        .map(|(i, _)| i)
        .collect();
    let last_case = alts
        .iter()
        .rposition(|a| matches!(a.kind, SelectKind::Case { .. }));
    match otherwise_positions.as_slice() {
        [] => {
            return Err(DslError::SelectShape {
                reason: "a select must contain exactly one otherwise alternative".to_owned(),
            })
        }
        [pos] => {
            if let Some(case_pos) = last_case {
                if case_pos > *pos {
                    return Err(DslError::SelectShape {
                        reason: "the otherwise alternative must come after the last case"
                            .to_owned(),
                    });
                }
            }
        }
        _ => {
            return Err(DslError::SelectShape {
                reason: "a select must contain exactly one otherwise alternative".to_owned(),
            })
        }
    }

    // The local type records every alternative, in the given order; the
    // process evaluates the guards in order and falls through to the
    // default. Closed payloads are sort-checked eagerly.
    let mut branches = Vec::with_capacity(alts.len());
    let mut cases = Vec::new();
    let mut default = None;
    for alt in alts {
        let cont_type = match alt.kind {
            SelectKind::Case { guard, payload, cont } => {
                check_closed_payload(&payload, &alt.sort, &alt.label)?;
                cases.push((guard, alt.label.clone(), payload, cont.proc));
                cont.local
            }
            SelectKind::Otherwise { payload, cont } => {
                check_closed_payload(&payload, &alt.sort, &alt.label)?;
                default = Some((alt.label.clone(), payload, cont.proc));
                cont.local
            }
            SelectKind::Skip { cont_type } => cont_type,
        };
        branches.push(Branch::new(alt.label, alt.sort, cont_type));
    }
    // Build from the default outwards: ... if g1 then send l1 else (if g2
    // then send l2 else (send l_default)).
    let (label, payload, cont) =
        default.expect("the shape check guarantees an otherwise alternative");
    let mut proc = Proc::send(to.clone(), label, payload, cont);
    for (guard, label, payload, cont) in cases.into_iter().rev() {
        proc = Proc::cond(guard, Proc::send(to.clone(), label, payload, cont), proc);
    }
    Ok(WtProc {
        proc,
        local: LocalType::Send { to, branches },
    })
}

/// `if e then Z1 else Z2`: both alternatives must implement the *same* local
/// type (the DSL carries the proof, so unlike plain processes the equality is
/// required syntactically here, as in the Coq `wt_proc` version).
///
/// # Errors
///
/// Fails if the two branches have different local types.
pub fn if_else(cond: Expr, then_branch: WtProc, else_branch: WtProc) -> Result<WtProc> {
    if then_branch.local != else_branch.local {
        return Err(DslError::BranchTypeMismatch {
            then_type: then_branch.local,
            else_type: else_branch.local,
        });
    }
    Ok(WtProc {
        local: then_branch.local,
        proc: Proc::cond(cond, then_branch.proc, else_branch.proc),
    })
}

/// `read act (x. cont)`: obtain a value from the environment; the local type
/// is the continuation's (external actions are invisible to the protocol).
pub fn read(action: impl Into<String>, var: impl Into<String>, cont: WtProc) -> WtProc {
    WtProc {
        local: cont.local,
        proc: Proc::read(action, var, cont.proc),
    }
}

/// `write act e cont`: hand a value to the environment; the local type is
/// the continuation's.
pub fn write(action: impl Into<String>, arg: Expr, cont: WtProc) -> WtProc {
    WtProc {
        local: cont.local,
        proc: Proc::write(action, arg, cont.proc),
    }
}

/// `interact act e (x. cont)`: exchange a value with the environment; the
/// local type is the continuation's.
pub fn interact(
    action: impl Into<String>,
    arg: Expr,
    var: impl Into<String>,
    cont: WtProc,
) -> WtProc {
    WtProc {
        local: cont.local,
        proc: Proc::interact(action, arg, var, cont.proc),
    }
}

fn check_distinct_labels<'a>(labels: impl Iterator<Item = &'a Label>) -> Result<()> {
    let mut seen: Vec<&Label> = Vec::new();
    for l in labels {
        if seen.contains(&l) {
            return Err(DslError::DuplicateLabel { label: l.clone() });
        }
        seen.push(l);
    }
    Ok(())
}

/// Eagerly checks the sort of payloads that do not mention variables; open
/// payloads are deferred to [`WtProc::validate`].
fn check_closed_payload(payload: &Expr, sort: &Sort, label: &Label) -> Result<()> {
    if !payload.free_vars().is_empty() {
        return Ok(());
    }
    match payload.infer_sort(&Default::default()) {
        Ok(found) if &found == sort => Ok(()),
        Ok(found) => Err(DslError::MalformedConstructor {
            reason: format!(
                "the payload of alternative `{label}` has sort {found} but the alternative \
                 declares {sort}"
            ),
        }),
        // Sort inference of exotic closed literals can fail (e.g. empty
        // sequences); defer to the final validation.
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zooid_proc::Value;

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    /// The ping-pong local type for Alice (§5.1):
    /// `mu X. ![Bob]; { l1(unit). end ; l2(nat). ?[Bob]; l3(nat). X }`.
    fn alice_lt() -> LocalType {
        LocalType::rec(LocalType::Send {
            to: r("Bob"),
            branches: vec![
                Branch::new("l1", Sort::Unit, LocalType::End),
                Branch::new(
                    "l2",
                    Sort::Nat,
                    LocalType::recv1(r("Bob"), "l3", Sort::Nat, LocalType::var(0)),
                ),
            ],
        })
    }

    #[test]
    fn finish_has_type_end() {
        assert_eq!(finish().local_type(), &LocalType::End);
        assert_eq!(finish().proc(), &Proc::Finish);
    }

    #[test]
    fn send_builds_a_singleton_choice() {
        let z = send(r("q"), "l", Sort::Nat, Expr::lit(1u64), finish()).unwrap();
        assert_eq!(
            z.local_type(),
            &LocalType::send1(r("q"), "l", Sort::Nat, LocalType::End)
        );
        assert!(z.validate(&Externals::new()).is_ok());
    }

    #[test]
    fn send_rejects_closed_payloads_of_the_wrong_sort() {
        assert!(send(r("q"), "l", Sort::Nat, Expr::lit(true), finish()).is_err());
    }

    #[test]
    fn alice0_quits_immediately_with_a_skip_for_the_ping_branch() {
        // alice0 (§B.1): loop { select Bob [ otherwise => l1, () : unit ! finish
        //                                  | skip => l2, nat ! ?[Bob];l3(nat).X ] }
        let alice0 = loop_(
            select(
                r("Bob"),
                vec![
                    SelectAlt::otherwise("l1", Sort::Unit, Expr::unit(), finish()),
                    SelectAlt::skip(
                        "l2",
                        Sort::Nat,
                        LocalType::recv1(r("Bob"), "l3", Sort::Nat, LocalType::var(0)),
                    ),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(alice0.local_type(), &alice_lt());
        assert!(alice0.validate(&Externals::new()).is_ok());
    }

    #[test]
    fn alice1_pings_forever() {
        // alice1 (§B.1): loop { select Bob [ skip => l1 | otherwise => l2, 0 !
        //                recv Bob (l3, x) ? jump ] }
        let alice1 = loop_(
            select(
                r("Bob"),
                vec![
                    SelectAlt::skip("l1", Sort::Unit, LocalType::End),
                    SelectAlt::otherwise(
                        "l2",
                        Sort::Nat,
                        Expr::lit(0u64),
                        recv1(r("Bob"), "l3", Sort::Nat, "x", jump(0)).unwrap(),
                    ),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(alice1.local_type(), &alice_lt());
        assert!(alice1.validate(&Externals::new()).is_ok());
    }

    #[test]
    fn alice4_stops_when_the_reply_is_large() {
        // alice4 (§5.1): select Bob [ skip => l1 | otherwise => l2, 0 !
        //   loop { recv Bob (l3, x) ? select Bob [ case x >= k => l1, () ! finish
        //                                        | otherwise => l2, x ! jump ] } ]
        let k = 10u64;
        let inner_select = select(
            r("Bob"),
            vec![
                SelectAlt::case(
                    Expr::ge(Expr::var("x"), Expr::lit(k)),
                    "l1",
                    Sort::Unit,
                    Expr::unit(),
                    finish(),
                ),
                SelectAlt::otherwise("l2", Sort::Nat, Expr::var("x"), jump(0)),
            ],
        )
        .unwrap();
        let looping = loop_(recv1(r("Bob"), "l3", Sort::Nat, "x", inner_select).unwrap()).unwrap();
        let alice4 = select(
            r("Bob"),
            vec![
                SelectAlt::skip("l1", Sort::Unit, LocalType::End),
                SelectAlt::otherwise("l2", Sort::Nat, Expr::lit(0u64), looping),
            ],
        )
        .unwrap();

        // The inferred type is the once-unrolled alice_lt (as printed in
        // §5.1), not alice_lt itself...
        assert_ne!(alice4.local_type(), &alice_lt());
        // ...but it is equal to it up to unravelling.
        assert!(crate::unravel_eq(alice4.local_type(), &alice_lt()));
        assert!(alice4.validate(&Externals::new()).is_ok());
    }

    #[test]
    fn branch_requires_distinct_labels_and_nonempty_alternatives() {
        assert!(branch(r("p"), vec![]).is_err());
        let dup = branch(
            r("p"),
            vec![
                BranchAlt::new("l", Sort::Nat, "x", finish()),
                BranchAlt::new("l", Sort::Bool, "y", finish()),
            ],
        );
        assert!(matches!(dup, Err(DslError::DuplicateLabel { .. })));
    }

    #[test]
    fn select_shape_is_enforced() {
        // No otherwise.
        let no_default = select(
            r("p"),
            vec![SelectAlt::case(
                Expr::lit(true),
                "l",
                Sort::Nat,
                Expr::lit(1u64),
                finish(),
            )],
        );
        assert!(matches!(no_default, Err(DslError::SelectShape { .. })));

        // Two otherwise.
        let two_defaults = select(
            r("p"),
            vec![
                SelectAlt::otherwise("a", Sort::Nat, Expr::lit(1u64), finish()),
                SelectAlt::otherwise("b", Sort::Nat, Expr::lit(2u64), finish()),
            ],
        );
        assert!(matches!(two_defaults, Err(DslError::SelectShape { .. })));

        // A case after the otherwise.
        let late_case = select(
            r("p"),
            vec![
                SelectAlt::otherwise("a", Sort::Nat, Expr::lit(1u64), finish()),
                SelectAlt::case(Expr::lit(true), "b", Sort::Nat, Expr::lit(2u64), finish()),
            ],
        );
        assert!(matches!(late_case, Err(DslError::SelectShape { .. })));

        // Empty select.
        assert!(select(r("p"), vec![]).is_err());
    }

    #[test]
    fn select_evaluates_cases_in_order() {
        // select q [ case false => a ! ... | otherwise => b ! ... ]
        let z = select(
            r("q"),
            vec![
                SelectAlt::case(Expr::lit(false), "a", Sort::Nat, Expr::lit(1u64), finish()),
                SelectAlt::otherwise("b", Sort::Unit, Expr::unit(), finish()),
            ],
        )
        .unwrap();
        // The process is an if; with a false guard it falls through to b.
        let ext = Externals::new();
        let normalized = zooid_proc::semantics::admin_normalize(z.proc(), &ext).unwrap();
        match normalized {
            Proc::Send { label, .. } => assert_eq!(label, Label::new("b")),
            other => panic!("unexpected {other}"),
        }
        // The type still offers both alternatives.
        match z.local_type() {
            LocalType::Send { branches, .. } => assert_eq!(branches.len(), 2),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn loop_requires_a_guarded_body() {
        assert!(loop_(jump(0)).is_err());
        assert!(loop_(send(r("q"), "l", Sort::Nat, Expr::lit(0u64), jump(0)).unwrap()).is_ok());
    }

    #[test]
    fn if_else_requires_equal_types() {
        let a = send(r("q"), "l", Sort::Nat, Expr::lit(1u64), finish()).unwrap();
        let b = send(r("q"), "l", Sort::Nat, Expr::lit(2u64), finish()).unwrap();
        assert!(if_else(Expr::lit(true), a.clone(), b).is_ok());
        let c = finish();
        assert!(matches!(
            if_else(Expr::lit(true), a, c),
            Err(DslError::BranchTypeMismatch { .. })
        ));
    }

    #[test]
    fn external_constructors_do_not_change_the_type() {
        let inner = send(r("q"), "l", Sort::Nat, Expr::var("x"), finish()).unwrap();
        let ty = inner.local_type().clone();
        let z = read("ask", "x", write("log", Expr::var("x"), interact("f", Expr::var("x"), "y", inner)));
        assert_eq!(z.local_type(), &ty);
    }

    #[test]
    fn validate_catches_open_payload_sort_errors() {
        // The payload `x` is bound by no receive: validation must fail.
        let z = send(r("q"), "l", Sort::Nat, Expr::var("x"), finish()).unwrap();
        assert!(z.validate(&Externals::new()).is_err());
        // from_parts_unchecked really is unchecked until validated.
        let bogus = WtProc::from_parts_unchecked(Proc::Finish, alice_lt());
        assert!(bogus.validate(&Externals::new()).is_err());
    }

    #[test]
    fn recv_binds_values_for_later_payloads() {
        let mut ext = Externals::new();
        ext.register_write("log", Sort::Nat, |_| ());
        let z = recv1(
            r("p"),
            "l",
            Sort::Nat,
            "x",
            write(
                "log",
                Expr::var("x"),
                send(
                    r("p"),
                    "l2",
                    Sort::Nat,
                    Expr::add(Expr::var("x"), Expr::lit(1u64)),
                    finish(),
                )
                .unwrap(),
            ),
        )
        .unwrap();
        assert!(z.validate(&ext).is_ok());
        let _ = Value::Unit; // silence unused import in some cfgs
    }
}
