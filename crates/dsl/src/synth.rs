//! Endpoint implementations synthesised from projections: step 3 of the
//! workflow, done automatically.
//!
//! Load generation and differential testing need *some* certified
//! implementation for every role of arbitrary (randomised) protocols. The
//! skeletons built here follow the projected local type literally: an
//! internal choice always selects its **first** branch and sends the
//! canonical default value of the payload sort, an external choice
//! implements every alternative, recursion becomes a process loop. The
//! walker builds through the smart constructors of [`builder`], so a
//! skeleton is a [`WtProc`] whose inferred type is the projection itself,
//! and [`Protocol::implement`] certifies it exactly as it certifies a
//! hand-written endpoint. Every endpoint is deterministic, so the
//! per-endpoint traces of a skeleton session do not depend on the schedule
//! (which is what the differential suites rely on).
//!
//! The byzantine drivers mutate the protocol instead of the process: one
//! role is certified against a minimally wrong *decoy* of the global type
//! and runs the decoy's skeleton, so only a monitor can tell.

use zooid_mpst::global::GlobalType;
use zooid_mpst::local::LocalType;
use zooid_mpst::projection::project_all;
use zooid_mpst::{Label, Role, Sort};
use zooid_proc::{Expr, Externals, Proc};

use crate::builder::{self, BranchAlt, SelectAlt, WtProc};
use crate::error::{DslError, Result};
use crate::protocol::{CertifiedProcess, Protocol};

/// The canonical default expression of a payload sort (`0`, `false`, `""`,
/// pairs of defaults, ...), or `None` for sorts with no closed constructor
/// in the expression language (sums and sequences).
pub fn default_expr(sort: &Sort) -> Option<Expr> {
    match sort {
        Sort::Unit => Some(Expr::unit()),
        Sort::Nat => Some(Expr::lit(0u64)),
        Sort::Int => Some(Expr::lit(0i64)),
        Sort::Bool => Some(Expr::lit(false)),
        Sort::Str => Some(Expr::lit("")),
        Sort::Prod(a, b) => Some(Expr::pair(default_expr(a)?, default_expr(b)?)),
        Sort::Sum(..) | Sort::Seq(_) => None,
    }
}

/// The skeleton of a local type: first-branch sends with default payloads
/// (every other branch a `skip`), exhaustive receives binding `_x`, loops
/// for recursion. Its [`WtProc::local_type`] is `local` itself.
///
/// Returns `None` if some send position carries a sort without a
/// [`default_expr`], or if a smart constructor refuses the type (an
/// unguarded loop, a repeated label): no projection is either.
pub fn skeleton(local: &LocalType) -> Option<WtProc> {
    match local {
        LocalType::End => Some(builder::finish()),
        LocalType::Var(i) => Some(builder::jump(*i)),
        LocalType::Rec(body) => builder::loop_(skeleton(body)?).ok(),
        LocalType::Send { to, branches } => {
            let (first, others) = branches.split_first()?;
            let mut alts = vec![SelectAlt::otherwise(
                first.label.clone(),
                first.sort.clone(),
                default_expr(&first.sort)?,
                skeleton(&first.cont)?,
            )];
            alts.extend(
                others
                    .iter()
                    .map(|b| SelectAlt::skip(b.label.clone(), b.sort.clone(), b.cont.clone())),
            );
            builder::select(to.clone(), alts).ok()
        }
        LocalType::Recv { from, branches } => {
            let alts = branches
                .iter()
                .map(|b| {
                    let cont = skeleton(&b.cont)?;
                    Some(BranchAlt::new(b.label.clone(), b.sort.clone(), "_x", cont))
                })
                .collect::<Option<Vec<_>>>()?;
            builder::branch(from.clone(), alts).ok()
        }
    }
}

/// The bare skeleton process of every role of `g`, in projection order,
/// for executors that take processes rather than certificates; `None` when
/// `g` does not project or some send needs a sort without a default.
pub fn skeleton_procs(g: &GlobalType) -> Option<Vec<(Role, Proc)>> {
    project_all(g)
        .ok()?
        .into_iter()
        .map(|(role, local)| Some((role, skeleton(&local)?.into_parts().0)))
        .collect()
}

/// Certifies the skeleton of `local`, the projection of `protocol` onto
/// `role`.
fn certify(
    protocol: &Protocol,
    role: &Role,
    local: &LocalType,
    externals: &Externals,
) -> Result<CertifiedProcess> {
    let process = skeleton(local).ok_or_else(|| DslError::NoSkeleton { role: role.clone() })?;
    protocol.implement(role, process, externals)
}

/// Certifies a skeleton implementation for every participant of a
/// protocol, in role order.
///
/// # Errors
///
/// Fails if the protocol is not projectable ([`DslError::Projection`]) or
/// some projection needs a payload sort without a default value
/// ([`DslError::NoSkeleton`]).
pub fn skeleton_endpoints(protocol: &Protocol) -> Result<Vec<(CertifiedProcess, Externals)>> {
    let externals = Externals::new();
    protocol
        .project_all()?
        .into_iter()
        .map(|(role, local)| {
            let cert = certify(protocol, &role, &local, &externals)?;
            Ok((cert, externals.clone()))
        })
        .collect()
}

/// The minimal protocol mutations a byzantine driver can embody — **one
/// mutation per driver**, so every hostile-campaign case has a known
/// expected outcome class.
///
/// Each mutation rewrites the protocol's global type at exactly one site
/// (the first message, whose sender becomes the byzantine actor); the
/// mutated actor is then *certified against the mutated decoy* — same name,
/// same participants, so it passes submission validation — while every
/// other role stays honest. The compiled monitor is the only line of
/// defence that can notice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ByzantineMutation {
    /// The actor sends a label the protocol does not allow at that point.
    WrongLabel,
    /// The actor sends the right label with a payload of the wrong sort.
    WrongSort,
    /// The actor sends one extra message after the protocol has terminated.
    AfterTermination,
    /// The actor stops participating after its first send: the session goes
    /// silent instead of misbehaving observably.
    PrematureSilence,
}

/// The outcome class a byzantine mutation is expected to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExpectedClass {
    /// The monitor records a violation and the session is quarantined.
    Violation,
    /// No observable protocol violation: the session ends compliant but
    /// incomplete (silence is indistinguishable from slowness).
    Silence,
}

impl ByzantineMutation {
    /// Every mutation, for campaign matrices.
    pub fn all() -> [ByzantineMutation; 4] {
        [
            ByzantineMutation::WrongLabel,
            ByzantineMutation::WrongSort,
            ByzantineMutation::AfterTermination,
            ByzantineMutation::PrematureSilence,
        ]
    }

    /// The expected outcome class when one actor carries this mutation and
    /// every other role is honest.
    pub fn expected(self) -> ExpectedClass {
        match self {
            ByzantineMutation::WrongLabel
            | ByzantineMutation::WrongSort
            | ByzantineMutation::AfterTermination => ExpectedClass::Violation,
            ByzantineMutation::PrematureSilence => ExpectedClass::Silence,
        }
    }
}

impl std::fmt::Display for ByzantineMutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ByzantineMutation::WrongLabel => "wrong-label",
            ByzantineMutation::WrongSort => "wrong-sort",
            ByzantineMutation::AfterTermination => "after-termination",
            ByzantineMutation::PrematureSilence => "premature-silence",
        };
        f.write_str(s)
    }
}

/// One synthesised byzantine driver: the full endpoint cast for a session
/// in which exactly one role misbehaves in exactly one way.
#[derive(Debug, Clone)]
pub struct ByzantineDriver {
    /// The mutation this driver embodies.
    pub mutation: ByzantineMutation,
    /// The misbehaving participant (the sender of the protocol's first
    /// message).
    pub actor: Role,
    /// Endpoints for every participant, in role order: the actor certified
    /// against the mutated decoy, everyone else honest.
    pub endpoints: Vec<(CertifiedProcess, Externals)>,
}

/// The sender and receiver of the first message of a global type.
fn first_message(g: &GlobalType) -> Option<(Role, Role)> {
    match g {
        GlobalType::End | GlobalType::Var(_) => None,
        GlobalType::Rec(body) => first_message(body),
        GlobalType::Msg { from, to, .. } => Some((from.clone(), to.clone())),
    }
}

/// A sort with a default value that differs from `sort`.
fn flipped_sort(sort: &Sort) -> Sort {
    if matches!(sort, Sort::Bool) {
        Sort::Nat
    } else {
        Sort::Bool
    }
}

/// Rewrites the global type at the mutation site. Returns `None` when the
/// mutation does not apply to this protocol's shape (e.g. no reachable
/// `end` for [`ByzantineMutation::AfterTermination`]).
fn mutate_global(
    g: &GlobalType,
    mutation: ByzantineMutation,
    actor: &Role,
    peer: &Role,
) -> Option<GlobalType> {
    match g {
        GlobalType::End => match mutation {
            ByzantineMutation::AfterTermination => Some(GlobalType::msg1(
                actor.clone(),
                peer.clone(),
                "byz_extra",
                Sort::Unit,
                GlobalType::End,
            )),
            _ => None,
        },
        GlobalType::Var(_) => None,
        GlobalType::Rec(body) => Some(GlobalType::rec(mutate_global(body, mutation, actor, peer)?)),
        GlobalType::Msg { from, to, branches } => match mutation {
            ByzantineMutation::WrongLabel => {
                let mut branches = branches.clone();
                let first = branches.first_mut()?;
                first.label = Label::new(format!("byz_{}", first.label));
                Some(GlobalType::msg(
                    from.clone(),
                    to.clone(),
                    branches.into_iter().map(|b| (b.label, b.sort, b.cont)),
                ))
            }
            ByzantineMutation::WrongSort => {
                let mut branches = branches.clone();
                let first = branches.first_mut()?;
                first.sort = flipped_sort(&first.sort);
                Some(GlobalType::msg(
                    from.clone(),
                    to.clone(),
                    branches.into_iter().map(|b| (b.label, b.sort, b.cont)),
                ))
            }
            ByzantineMutation::PrematureSilence => {
                // The actor completes its first send and then goes silent.
                // Every branch continues as `end` so the decoy still merges
                // and projects for every role.
                if branches.iter().all(|b| b.cont == GlobalType::End) {
                    return None; // the protocol is already one message long
                }
                Some(GlobalType::msg(
                    from.clone(),
                    to.clone(),
                    branches
                        .iter()
                        .map(|b| (b.label.clone(), b.sort.clone(), GlobalType::End)),
                ))
            }
            ByzantineMutation::AfterTermination => {
                // Recurse: replace every reachable `end` with one extra
                // actor-sent message. All terminating paths must gain the
                // same epilogue, or the decoy's branches stop merging for
                // roles not involved in the choice.
                let mut branches = branches.clone();
                let mut rewritten = false;
                for b in &mut branches {
                    if let Some(cont) = mutate_global(&b.cont, mutation, actor, peer) {
                        b.cont = cont;
                        rewritten = true;
                    }
                }
                if !rewritten {
                    return None;
                }
                Some(GlobalType::msg(
                    from.clone(),
                    to.clone(),
                    branches.into_iter().map(|b| (b.label, b.sort, b.cont)),
                ))
            }
        },
    }
}

/// Synthesises a byzantine driver for a protocol: the sender of the first
/// message misbehaves per `mutation`, everyone else runs the honest
/// skeleton.
///
/// Returns `Ok(None)` when the mutation does not apply to the protocol's
/// shape (no terminating path for an after-termination message, a protocol
/// already one message long for premature silence, ...).
///
/// # Errors
///
/// Fails if the protocol or the mutated decoy does not project, or a
/// skeleton cannot be certified — both indicate a generator bug rather
/// than a hostile input.
pub fn byzantine_driver(
    protocol: &Protocol,
    mutation: ByzantineMutation,
) -> Result<Option<ByzantineDriver>> {
    let Some((actor, peer)) = first_message(protocol.global()) else {
        return Ok(None);
    };
    let Some(mutated) = mutate_global(protocol.global(), mutation, &actor, &peer) else {
        return Ok(None);
    };
    // Same name, same participants: the decoy passes submission validation;
    // only the monitor can tell the difference.
    let decoy = Protocol::new(protocol.name(), mutated)?;
    if decoy.roles() != protocol.roles() {
        return Ok(None); // the mutation changed the cast; not minimal
    }
    let honest = protocol.project_all()?;
    let decoys = decoy.project_all()?;
    let externals = Externals::new();
    // Both lists hold the same participants in role order.
    let endpoints = honest
        .iter()
        .zip(&decoys)
        .map(|((role, local), (_, decoy_local))| {
            let cert = if *role == actor {
                certify(&decoy, role, decoy_local, &externals)?
            } else {
                certify(protocol, role, local, &externals)?
            };
            Ok((cert, externals.clone()))
        })
        .collect::<Result<_>>()?;
    Ok(Some(ByzantineDriver {
        mutation,
        actor,
        endpoints,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zooid_mpst::generators::{self, RandomProtocol};
    use zooid_proc::type_check;

    #[test]
    fn default_expressions_cover_the_base_sorts() {
        for sort in [Sort::Unit, Sort::Nat, Sort::Int, Sort::Bool, Sort::Str] {
            assert!(default_expr(&sort).is_some(), "{sort:?}");
        }
        assert!(default_expr(&Sort::prod(Sort::Nat, Sort::Bool)).is_some());
        // Sums and sequences have no default, so no skeleton sends one, and
        // a protocol that needs one names the role left without it.
        let (a, b) = (Role::new("a"), Role::new("b"));
        for sort in [Sort::sum(Sort::Nat, Sort::Bool), Sort::seq(Sort::Nat)] {
            assert!(default_expr(&sort).is_none(), "{sort:?}");
            let local = LocalType::send1(b.clone(), "l", sort.clone(), LocalType::End);
            assert!(skeleton(&local).is_none(), "{local}");
            let g = GlobalType::msg1(a.clone(), b.clone(), "l", sort, GlobalType::End);
            let protocol = Protocol::new("no_default", g).unwrap();
            let err = skeleton_endpoints(&protocol).unwrap_err();
            assert_eq!(err, DslError::NoSkeleton { role: a.clone() });
        }
    }

    #[test]
    fn skeletons_are_typed_by_construction() {
        // Every projectable endpoint of the named generators and of
        // random protocols at two sizes: the walker's inferred type is the
        // projection, `Protocol::implement` certifies it, and the typing
        // judgement agrees on the bare process.
        let mut globals = vec![
            generators::ring3(),
            generators::ring_n(6),
            generators::pipeline(),
            generators::chain_n(5),
            generators::ping_pong(),
            generators::two_buyer(),
            generators::fanout_n(4),
            generators::branching(3),
        ];
        let wide = RandomProtocol {
            roles: 5,
            depth: 6,
            max_branches: 3,
            loop_back_percent: 40,
        };
        for params in [RandomProtocol::default(), wide] {
            globals.extend((0..300).map(|seed| generators::random_global(seed, &params)));
        }
        let externals = Externals::new();
        let mut endpoints = 0;
        for (i, g) in globals.into_iter().enumerate() {
            let protocol = Protocol::new(format!("g{i}"), g).unwrap();
            let Ok(locals) = protocol.project_all() else {
                continue;
            };
            for (role, local) in locals {
                let wt = skeleton(&local).unwrap_or_else(|| panic!("g{i}/{role}: {local}"));
                assert_eq!(wt.local_type(), &local, "g{i}/{role}");
                assert!(type_check(wt.proc(), &local, &externals).is_ok(), "g{i}/{role}");
                let cert = protocol.implement(&role, wt, &externals).unwrap();
                assert_eq!(cert.local_type(), &local, "g{i}/{role}");
                endpoints += 1;
            }
        }
        assert!(endpoints >= 200, "corpus too small: {endpoints}");
    }

    #[test]
    fn byzantine_mutations_that_do_not_apply_return_none() {
        // A single-message protocol has no continuation to silence.
        let one_shot = Protocol::new(
            "one_shot",
            GlobalType::msg1(
                Role::new("a"),
                Role::new("b"),
                "m",
                Sort::Nat,
                GlobalType::End,
            ),
        )
        .unwrap();
        assert!(
            byzantine_driver(&one_shot, ByzantineMutation::PrematureSilence)
                .unwrap()
                .is_none()
        );
        // An infinite loop has no reachable `end` to speak after.
        let pipeline = Protocol::new("pipeline", generators::pipeline()).unwrap();
        assert!(
            byzantine_driver(&pipeline, ByzantineMutation::AfterTermination)
                .unwrap()
                .is_none()
        );
    }
}
