//! Inductive projection of global types onto participants
//! (Definition 3.4 / A.15, Figure 3a, `Projection/IProject.v`).

use crate::common::intern::{GTerm, IBranch, Interner, LTerm, LTypeId, LeafKind, RoleId, TypeId};
use crate::common::role::Role;
use crate::error::{Error, Result};
use crate::global::syntax::GlobalType;
use crate::local::syntax::LocalType;

/// Projects a global type onto a participant, following Figure 3a.
///
/// Projection is a *partial* function: it fails (with
/// [`Error::NotProjectable`]) when the behaviour of `role` cannot be read off
/// the global type — most importantly when, in a choice `role` is not part
/// of, the branches prescribe different behaviours for `role` (rule
/// `[proj-cont]` requires all branch projections to be equal; this is the
/// "plain merge" of the MPST literature).
///
/// One deviation from the paper's Figure 3a is made for recursion, following
/// common practice in the MPST literature: when the body of a `mu` projects
/// to a type in which the bound variable can only occur unguarded (i.e. the
/// participant takes no part in the loop), the projection is `end` rather
/// than an unguarded — hence ill-formed — recursive type. This agrees with
/// the coinductive projection, which maps non-participants to `end_c`
/// (`[co-proj-end]`).
///
/// # Errors
///
/// * [`Error::NotProjectable`] if one of the projection rules fails;
/// * any well-formedness error of the input type.
///
/// # Examples
///
/// Example 3.5 of the paper: the second global type projects onto `Carol`,
/// the first does not.
///
/// ```
/// use zooid_mpst::global::GlobalType;
/// use zooid_mpst::projection::project;
/// use zooid_mpst::{Label, Role, Sort};
///
/// let alice = Role::new("Alice");
/// let bob = Role::new("Bob");
/// let carol = Role::new("Carol");
/// let to_carol = || GlobalType::msg1(bob.clone(), carol.clone(), "l", Sort::Nat, GlobalType::End);
///
/// // G: both branches give Carol the same behaviour — projectable.
/// let g = GlobalType::msg(alice.clone(), bob.clone(), vec![
///     (Label::new("l1"), Sort::Nat, to_carol()),
///     (Label::new("l2"), Sort::Bool, to_carol()),
/// ]);
/// assert!(project(&g, &carol).is_ok());
///
/// // G': the branches disagree on who contacts Carol — not projectable.
/// let g_prime = GlobalType::msg(alice.clone(), bob.clone(), vec![
///     (Label::new("l1"), Sort::Nat, to_carol()),
///     (Label::new("l2"), Sort::Nat,
///      GlobalType::msg1(alice.clone(), carol.clone(), "l", Sort::Nat, GlobalType::End)),
/// ]);
/// assert!(project(&g_prime, &carol).is_err());
/// ```
pub fn project(global: &GlobalType, role: &Role) -> Result<LocalType> {
    let mut interner = Interner::new();
    let root = interner.intern_global(global);
    interner.well_formed_global(root)?;
    let role_id = interner.role_id(role);
    let mut memo = ProjectMemo::for_interner(&interner);
    let projected = project_interned(&mut interner, &mut memo, root, role_id)?;
    Ok(interner.resolve_local(projected))
}

/// Per-role memo table for the inductive projection: each distinct subterm is
/// projected once per role, however many times it occurs.
///
/// Dense (indexed by [`TypeId`]) rather than a hash map: the global-term
/// arena does not grow during projection, so a slot per term makes the memo
/// hit path an array index instead of a hash of the id pair. Failures are not
/// memoised — the memo is per role and a failure aborts the whole projection.
pub(crate) struct ProjectMemo {
    slots: Vec<Option<LTypeId>>,
}

impl ProjectMemo {
    /// An empty memo covering every global term currently interned.
    pub(crate) fn for_interner(interner: &Interner) -> Self {
        ProjectMemo {
            slots: vec![None; interner.global_len()],
        }
    }
}

/// The inductive projection over interned terms (Figure 3a on ids).
///
/// Hash-consing makes the `[proj-cont]` merge an id comparison, and the memo
/// turns the traversal output-linear: a subterm shared by many branches (or
/// revisited through the memoised unfoldings) is projected once.
pub(crate) fn project_interned(
    interner: &mut Interner,
    memo: &mut ProjectMemo,
    t: TypeId,
    role: RoleId,
) -> Result<LTypeId> {
    if let Some(result) = memo.slots[t.index()] {
        return Ok(result);
    }
    let result = project_uncached(interner, memo, t, role)?;
    memo.slots[t.index()] = Some(result);
    Ok(result)
}

fn project_uncached(
    interner: &mut Interner,
    memo: &mut ProjectMemo,
    t: TypeId,
    role: RoleId,
) -> Result<LTypeId> {
    // Pruning: a binder-free subterm that never mentions the role and whose
    // leaves all agree projects to that leaf directly — every merge along the
    // way is between equal leaves. Subterms with binders, or with both `end`
    // and `Var` leaves, are not pruned: their projections are `Var`/`Rec`
    // skeletons on which the plain merge legitimately fails, and pruning
    // would mask that.
    if !interner.global_parts(t).contains(role.index()) && !interner.global_has_rec(t) {
        match interner.global_leaf_kind(t) {
            LeafKind::AllEnd => return Ok(interner.mk_local(LTerm::End)),
            LeafKind::AllVar(i) => return Ok(interner.mk_local(LTerm::Var(i))),
            LeafKind::Mixed => {}
        }
    }
    // Read the node header without cloning; the branch list is only cloned
    // (one `Arc` bump) on the involved send/recv paths that materialise it.
    let (from, to, n_branches) = match interner.global(t) {
        GTerm::End => return Ok(interner.mk_local(LTerm::End)), // [proj-end]
        GTerm::Var(i) => {
            // [proj-var]
            let i = *i;
            return Ok(interner.mk_local(LTerm::Var(i)));
        }
        GTerm::Rec(body) => {
            // [proj-rec]
            let body = *body;
            let projected = project_interned(interner, memo, body, role)?;
            return if mu_would_be_unguarded(interner, projected) {
                // The participant plays no part in the loop body: its view of
                // the protocol is the terminated one.
                Ok(interner.mk_local(LTerm::End))
            } else if interner.local_free_mask(projected) & 1 == 0 {
                // The bound variable never occurs (the participant leaves the
                // loop on every path), so the binder is dropped; outer
                // indices are re-aligned by the substitution.
                let end = interner.mk_local(LTerm::End);
                Ok(interner.subst_local(projected, 0, end))
            } else {
                Ok(interner.mk_local(LTerm::Rec(projected)))
            };
        }
        GTerm::Msg { from, to, branches } => (*from, *to, branches.len()),
    };
    if role == from || role == to {
        // [proj-send] / [proj-recv]
        let GTerm::Msg { branches, .. } = interner.global(t).clone() else {
            unreachable!("header said Msg");
        };
        let bs = project_branches(interner, memo, &branches, role)?;
        return Ok(interner.mk_local(if role == from {
            LTerm::Send { to, branches: bs }
        } else {
            LTerm::Recv { from, branches: bs }
        }));
    }
    // [proj-cont]: all branches must prescribe the same behaviour for `role`
    // (plain merge) — an id comparison on interned projections.
    let branch_cont = |interner: &Interner, i: usize| -> TypeId {
        let GTerm::Msg { branches, .. } = interner.global(t) else {
            unreachable!("header said Msg");
        };
        branches[i].cont
    };
    let c0 = branch_cont(interner, 0);
    let first = project_interned(interner, memo, c0, role)?;
    for i in 1..n_branches {
        let ci = branch_cont(interner, i);
        let other = project_interned(interner, memo, ci, role)?;
        if other != first {
            let from = interner.role(from).clone();
            let to = interner.role(to).clone();
            let first = interner.resolve_local(first);
            let other = interner.resolve_local(other);
            return Err(Error::NotProjectable {
                role: interner.role(role).clone(),
                reason: format!(
                    "branches of {from}->{to} prescribe different behaviours \
                     for a participant not involved in the choice: `{first}` \
                     versus `{other}`"
                ),
            });
        }
    }
    Ok(first)
}

fn project_branches(
    interner: &mut Interner,
    memo: &mut ProjectMemo,
    branches: &[IBranch<TypeId>],
    role: RoleId,
) -> Result<std::sync::Arc<[IBranch<LTypeId>]>> {
    branches
        .iter()
        .map(|b| {
            Ok(IBranch {
                label: b.label,
                sort: b.sort,
                cont: project_interned(interner, memo, b.cont, role)?,
            })
        })
        .collect::<Result<Vec<_>>>()
        .map(Into::into)
}

/// Would `mu X. body` be unguarded? True when `body` is a (possibly
/// `mu`-wrapped) bare variable, which happens exactly when the participant
/// does not occur in the loop.
fn mu_would_be_unguarded(interner: &Interner, body: LTypeId) -> bool {
    match interner.local(body) {
        LTerm::Var(_) => true,
        LTerm::Rec(inner) => mu_would_be_unguarded(interner, *inner),
        _ => false,
    }
}

/// Projects a global type onto every one of its participants, returning the
/// pairs in the participants' natural order.
///
/// This is the underlying operation of the DSL's `\project` notation (§5.1):
/// it fails if the protocol is not projectable onto *some* participant.
///
/// The protocol is validated and interned once; each role then projects with
/// its own dense memo table (the memo is keyed per subterm, so it is valid
/// for exactly one role), making the cost one traversal per role over
/// *distinct* subterms rather than one traversal per role per occurrence.
///
/// # Errors
///
/// See [`project`].
pub fn project_all(global: &GlobalType) -> Result<Vec<(Role, LocalType)>> {
    let mut interner = Interner::new();
    let root = interner.intern_global(global);
    interner.well_formed_global(root)?;
    // The participants are the interned participant set of the root, read
    // back in the customary sorted order.
    let mut participants: Vec<(Role, RoleId)> = interner
        .global_parts(root)
        .iter()
        .map(|i| (interner.roles()[i].clone(), RoleId(i as u32)))
        .collect();
    participants.sort_by(|(a, _), (b, _)| a.cmp(b));
    let mut out = Vec::new();
    for (role, role_id) in participants {
        let mut memo = ProjectMemo::for_interner(&interner);
        let projected = project_interned(&mut interner, &mut memo, root, role_id)?;
        let local = interner.resolve_local(projected);
        out.push((role, local));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::branch::Branch;
    use crate::common::label::Label;
    use crate::common::sort::Sort;

    fn r(name: &str) -> Role {
        Role::new(name)
    }
    fn l(name: &str) -> Label {
        Label::new(name)
    }

    /// The ring protocol of §2.3.
    fn ring() -> GlobalType {
        GlobalType::msg1(
            r("Alice"),
            r("Bob"),
            "l",
            Sort::Nat,
            GlobalType::msg1(
                r("Bob"),
                r("Carol"),
                "l",
                Sort::Nat,
                GlobalType::msg1(r("Carol"), r("Alice"), "l", Sort::Nat, GlobalType::End),
            ),
        )
    }

    #[test]
    fn ring_projects_onto_alice_as_in_section_2_3() {
        // L = ![Bob];l(nat). ?[Carol];l(nat). end
        let expected = LocalType::send1(
            r("Bob"),
            "l",
            Sort::Nat,
            LocalType::recv1(r("Carol"), "l", Sort::Nat, LocalType::End),
        );
        assert_eq!(project(&ring(), &r("Alice")).unwrap(), expected);
    }

    #[test]
    fn ring_projects_onto_bob_and_carol() {
        let bob = project(&ring(), &r("Bob")).unwrap();
        assert_eq!(
            bob,
            LocalType::recv1(
                r("Alice"),
                "l",
                Sort::Nat,
                LocalType::send1(r("Carol"), "l", Sort::Nat, LocalType::End)
            )
        );
        let carol = project(&ring(), &r("Carol")).unwrap();
        assert_eq!(
            carol,
            LocalType::recv1(
                r("Bob"),
                "l",
                Sort::Nat,
                LocalType::send1(r("Alice"), "l", Sort::Nat, LocalType::End)
            )
        );
    }

    #[test]
    fn projection_onto_non_participant_is_end() {
        assert_eq!(project(&ring(), &r("Nobody")).unwrap(), LocalType::End);
    }

    #[test]
    fn example_3_5_projectable_variant() {
        // Both branches give Carol the same behaviour (receive a nat from
        // Bob), so projection succeeds and equals ?[Bob];l(nat).end.
        let to_carol = GlobalType::msg1(r("Bob"), r("Carol"), "l", Sort::Nat, GlobalType::End);
        let g = GlobalType::msg(
            r("Alice"),
            r("Bob"),
            vec![
                (l("l1"), Sort::Nat, to_carol.clone()),
                (l("l2"), Sort::Bool, to_carol),
            ],
        );
        assert_eq!(
            project(&g, &r("Carol")).unwrap(),
            LocalType::recv1(r("Bob"), "l", Sort::Nat, LocalType::End)
        );
    }

    #[test]
    fn example_3_5_unprojectable_variant() {
        // In one branch Carol hears from Bob, in the other from Alice: the
        // merge fails ([proj-cont]).
        let g_prime = GlobalType::msg(
            r("Alice"),
            r("Bob"),
            vec![
                (
                    l("l1"),
                    Sort::Nat,
                    GlobalType::msg1(r("Bob"), r("Carol"), "l", Sort::Nat, GlobalType::End),
                ),
                (
                    l("l2"),
                    Sort::Nat,
                    GlobalType::msg1(r("Alice"), r("Carol"), "l", Sort::Nat, GlobalType::End),
                ),
            ],
        );
        assert!(matches!(
            project(&g_prime, &r("Carol")),
            Err(Error::NotProjectable { .. })
        ));
        // It still projects fine onto the roles involved in the choice.
        assert!(project(&g_prime, &r("Alice")).is_ok());
        assert!(project(&g_prime, &r("Bob")).is_ok());
    }

    #[test]
    fn example_a_19_is_not_inductively_projectable() {
        // G = p -> q : { l0(nat). G0, l1(nat). G1 } with
        // G0 = mu X. p -> r : l(nat). X and G1 = p -> r : l(nat). G0:
        // the branches project onto r to syntactically different (although
        // unravelling-equivalent) local types, so inductive projection fails.
        let g0 = GlobalType::rec(GlobalType::msg1(
            r("p"),
            r("r"),
            "l",
            Sort::Nat,
            GlobalType::var(0),
        ));
        let g1 = GlobalType::msg1(r("p"), r("r"), "l", Sort::Nat, g0.clone());
        let g = GlobalType::msg(
            r("p"),
            r("q"),
            vec![(l("l0"), Sort::Nat, g0), (l("l1"), Sort::Nat, g1)],
        );
        assert!(matches!(
            project(&g, &r("r")),
            Err(Error::NotProjectable { .. })
        ));
    }

    #[test]
    fn recursive_pipeline_projects_onto_all_roles() {
        // pipeline = mu X. Alice -> Bob : l(nat). Bob -> Carol : l(nat). X (§5.1)
        let pipeline = GlobalType::rec(GlobalType::msg1(
            r("Alice"),
            r("Bob"),
            "l",
            Sort::Nat,
            GlobalType::msg1(r("Bob"), r("Carol"), "l", Sort::Nat, GlobalType::var(0)),
        ));
        let alice = project(&pipeline, &r("Alice")).unwrap();
        let bob = project(&pipeline, &r("Bob")).unwrap();
        let carol = project(&pipeline, &r("Carol")).unwrap();
        assert_eq!(
            alice,
            LocalType::rec(LocalType::send1(r("Bob"), "l", Sort::Nat, LocalType::var(0)))
        );
        assert_eq!(
            bob,
            LocalType::rec(LocalType::recv1(
                r("Alice"),
                "l",
                Sort::Nat,
                LocalType::send1(r("Carol"), "l", Sort::Nat, LocalType::var(0))
            ))
        );
        assert_eq!(
            carol,
            LocalType::rec(LocalType::recv1(r("Bob"), "l", Sort::Nat, LocalType::var(0)))
        );
    }

    #[test]
    fn participant_outside_a_loop_projects_to_end() {
        // mu X. p -> q : l(nat). X projected onto r is end (r is not part of
        // the protocol at all).
        let g = GlobalType::rec(GlobalType::msg1(
            r("p"),
            r("q"),
            "l",
            Sort::Nat,
            GlobalType::var(0),
        ));
        assert_eq!(project(&g, &r("r")).unwrap(), LocalType::End);
    }

    #[test]
    fn projections_of_well_formed_types_are_well_formed() {
        for role in ["Alice", "Bob", "Carol"] {
            let p = project(&ring(), &r(role)).unwrap();
            assert!(p.well_formed().is_ok(), "projection onto {role}");
        }
    }

    #[test]
    fn project_all_lists_every_participant() {
        let all = project_all(&ring()).unwrap();
        let roles: Vec<_> = all.iter().map(|(role, _)| role.name().to_owned()).collect();
        assert_eq!(roles, ["Alice", "Bob", "Carol"]);
    }

    #[test]
    fn ill_formed_inputs_are_rejected() {
        let bad = GlobalType::rec(GlobalType::var(0));
        assert!(project(&bad, &r("p")).is_err());
    }

    /// Figure 3a transcribed directly onto the boxed syntax: the reference
    /// `boxed_and_interned_projections_agree` holds the interned projection to.
    fn project_boxed(global: &GlobalType, role: &Role) -> Result<LocalType> {
        match global {
            // [proj-end]
            GlobalType::End => Ok(LocalType::End),
            // [proj-var]
            GlobalType::Var(i) => Ok(LocalType::Var(*i)),
            // [proj-rec]
            GlobalType::Rec(body) => {
                let projected = project_boxed(body, role)?;
                if mu_would_be_unguarded_boxed(&projected) {
                    Ok(LocalType::End)
                } else if !projected.free_vars().contains(&0) {
                    Ok(projected.subst_top(&LocalType::End))
                } else {
                    Ok(LocalType::rec(projected))
                }
            }
            GlobalType::Msg { from, to, branches } => {
                if role == from {
                    // [proj-send]
                    let bs = project_branches_boxed(branches, role)?;
                    Ok(LocalType::Send {
                        to: to.clone(),
                        branches: bs,
                    })
                } else if role == to {
                    // [proj-recv]
                    let bs = project_branches_boxed(branches, role)?;
                    Ok(LocalType::Recv {
                        from: from.clone(),
                        branches: bs,
                    })
                } else {
                    // [proj-cont]
                    let mut projections = branches
                        .iter()
                        .map(|b| project_boxed(&b.cont, role))
                        .collect::<Result<Vec<_>>>()?;
                    let first = projections.swap_remove(0);
                    for other in &projections {
                        if other != &first {
                            return Err(Error::NotProjectable {
                                role: role.clone(),
                                reason: format!(
                                    "branches of {from}->{to} prescribe different behaviours \
                                     for a participant not involved in the choice: `{first}` \
                                     versus `{other}`"
                                ),
                            });
                        }
                    }
                    Ok(first)
                }
            }
        }
    }

    fn project_branches_boxed(
        branches: &[Branch<GlobalType>],
        role: &Role,
    ) -> Result<Vec<Branch<LocalType>>> {
        branches
            .iter()
            .map(|b| {
                Ok(Branch {
                    label: b.label.clone(),
                    sort: b.sort.clone(),
                    cont: project_boxed(&b.cont, role)?,
                })
            })
            .collect()
    }

    fn mu_would_be_unguarded_boxed(body: &LocalType) -> bool {
        match body {
            LocalType::Var(_) => true,
            LocalType::Rec(inner) => mu_would_be_unguarded_boxed(inner),
            _ => false,
        }
    }

    /// The boxed transcription and the interned projection are the same
    /// function: compare them on the named protocols, the scaling families
    /// and random protocols.
    #[test]
    fn boxed_and_interned_projections_agree() {
        let mut protocols = vec![
            ring(),
            crate::generators::pipeline(),
            crate::generators::ping_pong(),
            crate::generators::two_buyer(),
            crate::generators::ring_n(16),
            crate::generators::chain_n(16),
            crate::generators::fanout_n(16),
            crate::generators::branching(4),
        ];
        for seed in 0..64 {
            protocols.push(crate::generators::random_global(
                seed,
                &crate::generators::RandomProtocol::default(),
            ));
        }
        for g in protocols {
            let mut interner = Interner::new();
            let root = interner.intern_global(&g);
            interner.well_formed_global(root).unwrap();
            for role in g.participants() {
                let role_id = interner.role_id(&role);
                let mut memo = ProjectMemo::for_interner(&interner);
                let interned = project_interned(&mut interner, &mut memo, root, role_id)
                    .map(|id| interner.resolve_local(id));
                let boxed = project_boxed(&g, &role);
                assert_eq!(
                    interned.is_ok(),
                    boxed.is_ok(),
                    "projectability of {g} onto {role} differs between paths"
                );
                if let (Ok(a), Ok(b)) = (interned, boxed) {
                    assert_eq!(a, b, "projection of {g} onto {role} differs between paths");
                }
            }
        }
    }

    #[test]
    fn two_buyer_projects_onto_b_as_in_figure_10() {
        // two_buyer = A -> S : ItemId(nat). S -> A : Quote(nat).
        //             S -> B : Quote(nat). A -> B : Propose(nat).
        //             B -> S : { Accept(nat). S -> B : Date(nat). end
        //                      ; Reject(unit). end }
        let b_chooses = GlobalType::msg(
            r("B"),
            r("S"),
            vec![
                (
                    l("Accept"),
                    Sort::Nat,
                    GlobalType::msg1(r("S"), r("B"), "Date", Sort::Nat, GlobalType::End),
                ),
                (l("Reject"), Sort::Unit, GlobalType::End),
            ],
        );
        let two_buyer = GlobalType::msg1(
            r("A"),
            r("S"),
            "ItemId",
            Sort::Nat,
            GlobalType::msg1(
                r("S"),
                r("A"),
                "Quote",
                Sort::Nat,
                GlobalType::msg1(
                    r("S"),
                    r("B"),
                    "Quote",
                    Sort::Nat,
                    GlobalType::msg1(r("A"), r("B"), "Propose", Sort::Nat, b_chooses),
                ),
            ),
        );
        let blt = project(&two_buyer, &r("B")).unwrap();
        let expected = LocalType::recv1(
            r("S"),
            "Quote",
            Sort::Nat,
            LocalType::recv1(
                r("A"),
                "Propose",
                Sort::Nat,
                LocalType::Send {
                    to: r("S"),
                    branches: vec![
                        Branch::new(
                            "Accept",
                            Sort::Nat,
                            LocalType::recv1(r("S"), "Date", Sort::Nat, LocalType::End),
                        ),
                        Branch::new("Reject", Sort::Unit, LocalType::End),
                    ],
                },
            ),
        );
        assert_eq!(blt, expected);
    }
}
