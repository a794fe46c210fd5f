//! Executable counterparts of type preservation (Theorem 4.5) and of
//! *process traces are global traces* (Theorem 4.7,
//! `process_traces_are_global_types` in `Proc.v`).

use std::borrow::Cow;
use std::collections::BTreeSet;

use zooid_mpst::global::{global_traces_up_to, unravel_global, GlobalType};
use zooid_mpst::local::LocalType;
use zooid_mpst::{Action, Role, Trace};

use crate::error::{ProcError, Result};
use crate::external::Externals;
use crate::proc::Proc;
use crate::semantics::{erase, send_action, step_communication, to_communication, ValueAction};
use crate::subtrace::is_complete_subtrace;
use crate::typing::type_check;
use crate::value::Value;

/// One step of the LTS of a *single* local type, as used in the statement of
/// Theorem 4.5 (`L --|a|--> L'`): the participant's own view of performing an
/// action, with recursion unfolded on demand.
///
/// Returns `None` when the action is not enabled by the type.
pub fn local_type_step(local: &LocalType, action: &Action) -> Option<LocalType> {
    let head = local.unfold_head();
    match &head {
        LocalType::Send { to, branches } if action.is_send() && action.to() == to => branches
            .iter()
            .find(|b| &b.label == action.label() && &b.sort == action.sort())
            .map(|b| b.cont.clone()),
        LocalType::Recv { from, branches } if action.is_recv() && action.from() == from => branches
            .iter()
            .find(|b| &b.label == action.label() && &b.sort == action.sort())
            .map(|b| b.cont.clone()),
        _ => None,
    }
}

/// The outcome of one of the bounded checkers in this module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreservationReport {
    /// Whether the property held on everything explored.
    pub holds: bool,
    /// Number of `(process, local type)` states explored.
    pub states_explored: usize,
    /// Description of the first violation, if any.
    pub counterexample: Option<String>,
}

/// Checks Theorem 4.5 (type preservation) for a process against its local
/// type: starting from `(proc, local)`, every visible step of the process is
/// matched by a step of the type, and the residual process is again
/// well-typed against the residual type. Exploration is bounded by `depth`
/// visible steps; receive branches are explored with a canonical value of
/// the expected sort.
///
/// # Errors
///
/// Fails if the initial process is not well-typed against `local`, or if a
/// runtime error (unregistered external, ill-typed expression) occurs during
/// exploration.
pub fn check_type_preservation(
    proc: &Proc,
    local: &LocalType,
    externals: &Externals,
    self_role: &Role,
    depth: usize,
) -> Result<PreservationReport> {
    type_check(proc, local, externals)?;
    let mut frontier = vec![(proc.clone(), local.clone())];
    let mut explored = 0usize;
    for _ in 0..depth {
        let mut next = Vec::new();
        for (p, l) in &frontier {
            explored += 1;
            for (action, p2, l2) in successors(p, l, self_role, externals)? {
                let Some(l2) = l2 else {
                    let erased = erase(&action);
                    return Ok(PreservationReport {
                        holds: false,
                        states_explored: explored,
                        counterexample: Some(format!(
                            "the process performs {action} but its local type {l} cannot \
                             perform {erased}"
                        )),
                    });
                };
                if let Err(err) = type_check(&p2, &l2, externals) {
                    return Ok(PreservationReport {
                        holds: false,
                        states_explored: explored,
                        counterexample: Some(format!(
                            "after {action} the residual process is not typed by {l2}: {err}"
                        )),
                    });
                }
                next.push((p2, l2));
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    Ok(PreservationReport {
        holds: true,
        states_explored: explored,
        counterexample: None,
    })
}

/// The steps `(p, L) --a--> (p', L')` the checkers explore from one state:
/// the head's [`send_action`], or one receive per alternative with a
/// canonical payload. The process is reduced to its next communication
/// once, and each offered action is performed from that head by
/// [`step_communication`], so every external runs once per state. `L'` is
/// `None` when the type cannot follow.
fn successors(
    proc: &Proc,
    local: &LocalType,
    self_role: &Role,
    externals: &Externals,
) -> Result<Vec<(ValueAction, Proc, Option<LocalType>)>> {
    let head = to_communication(proc.clone(), externals)?;
    let offered: Vec<ValueAction> = match &head {
        Proc::Recv { from, alts } => alts
            .iter()
            .map(|alt| {
                let value = Value::default_of(&alt.sort);
                let (label, sort) = (alt.label.clone(), alt.sort.clone());
                ValueAction::recv(self_role.clone(), from.clone(), label, sort, value)
            })
            .collect(),
        _ => send_action(&head, self_role, Some(local))?.into_iter().collect(),
    };
    let mut out = Vec::new();
    for action in offered {
        if let Some(p2) = step_communication(Cow::Borrowed(&head), &action)? {
            let l2 = local_type_step(local, &erase(&action));
            out.push((action, p2, l2));
        }
    }
    Ok(out)
}

/// Enumerates the erased traces a process can exhibit, up to `depth` visible
/// actions, exploring every declared receive alternative with a canonical
/// payload. This is the bounded counterpart of the paper's `trp` relation,
/// read through the erasure.
///
/// # Errors
///
/// Fails on runtime errors during the exploration (see
/// [`to_communication`]).
pub fn proc_traces_up_to(
    proc: &Proc,
    local: &LocalType,
    self_role: &Role,
    externals: &Externals,
    depth: usize,
) -> Result<BTreeSet<Trace>> {
    let mut out = BTreeSet::new();
    let mut frontier = vec![(proc.clone(), local.clone(), Trace::empty())];
    while let Some((p, l, trace)) = frontier.pop() {
        out.insert(trace.clone());
        if trace.len() >= depth {
            continue;
        }
        for (action, p2, l2) in successors(&p, &l, self_role, externals)? {
            frontier.push((p2, l2.unwrap_or_else(|| l.clone()), trace.snoc(erase(&action))));
        }
    }
    Ok(out)
}

/// Checks the bounded version of Theorem 4.7: every (erased, bounded) trace
/// of the process is a complete subtrace — for the role the process plays —
/// of some admissible trace of the global protocol.
///
/// `proc_depth` bounds the process traces; the global traces are explored up
/// to `proc_depth * participants` actions so the other roles have room to
/// interleave.
///
/// # Errors
///
/// Fails if the protocol is ill-formed, the process is not well-typed
/// against the projection of `global` onto `role`, or exploration hits a
/// runtime error.
pub fn check_process_traces_are_global(
    proc: &Proc,
    local: &LocalType,
    role: &Role,
    global: &GlobalType,
    externals: &Externals,
    proc_depth: usize,
) -> Result<PreservationReport> {
    type_check(proc, local, externals)?;
    let tree = unravel_global(global)?;
    let n_roles = global.participants().len().max(1);
    let global_depth = proc_depth * n_roles;
    let global_traces = global_traces_up_to(&tree, global_depth);
    let proc_traces = proc_traces_up_to(proc, local, role, externals, proc_depth)?;

    let mut explored = 0usize;
    for tp in &proc_traces {
        explored += 1;
        let contained = global_traces
            .iter()
            .any(|tg| is_complete_subtrace(tp, tg, role));
        if !contained {
            return Ok(PreservationReport {
                holds: false,
                states_explored: explored,
                counterexample: Some(format!(
                    "the process trace {tp} is not a complete subtrace of any global trace"
                )),
            });
        }
    }
    Ok(PreservationReport {
        holds: true,
        states_explored: explored,
        counterexample: None,
    })
}

/// Convenience wrapper: project the global type onto `role` and run
/// [`check_process_traces_are_global`] against that projection.
///
/// # Errors
///
/// See [`check_process_traces_are_global`]; additionally fails if the
/// projection onto `role` is undefined.
pub fn check_against_projection(
    proc: &Proc,
    role: &Role,
    global: &GlobalType,
    externals: &Externals,
    proc_depth: usize,
) -> Result<PreservationReport> {
    let local = zooid_mpst::projection::project(global, role).map_err(|e| ProcError::TypeError {
        reason: format!("the protocol is not projectable onto {role}: {e}"),
    })?;
    check_process_traces_are_global(proc, &local, role, global, externals, proc_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::proc::RecvAlt;
    use zooid_mpst::{Label, Sort};

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    /// The ping-pong protocol of §5.1.
    fn ping_pong() -> GlobalType {
        GlobalType::rec(GlobalType::msg(
            r("Alice"),
            r("Bob"),
            vec![
                (Label::new("l1"), Sort::Unit, GlobalType::End),
                (
                    Label::new("l2"),
                    Sort::Nat,
                    GlobalType::msg1(r("Bob"), r("Alice"), "l3", Sort::Nat, GlobalType::var(0)),
                ),
            ],
        ))
    }

    /// Bob, the ping-pong server: replies to every ping with the same number.
    fn bob() -> Proc {
        Proc::loop_(Proc::recv(
            r("Alice"),
            vec![
                RecvAlt::new("l1", Sort::Unit, "_x", Proc::Finish),
                RecvAlt::new(
                    "l2",
                    Sort::Nat,
                    "x",
                    Proc::send(r("Alice"), "l3", Expr::var("x"), Proc::Jump(0)),
                ),
            ],
        ))
    }

    fn bob_type() -> LocalType {
        zooid_mpst::projection::project(&ping_pong(), &r("Bob")).unwrap()
    }

    #[test]
    fn local_type_step_follows_the_type() {
        let l = bob_type();
        let recv_ping = Action::recv(r("Bob"), r("Alice"), Label::new("l2"), Sort::Nat);
        let after = local_type_step(&l, &recv_ping).expect("receive enabled");
        let send_pong = Action::send(r("Bob"), r("Alice"), Label::new("l3"), Sort::Nat);
        let after2 = local_type_step(&after, &send_pong).expect("send enabled");
        // Back at the top of the loop: receiving a quit is now possible.
        let recv_quit = Action::recv(r("Bob"), r("Alice"), Label::new("l1"), Sort::Unit);
        assert!(local_type_step(&after2, &recv_quit).is_some());
        // Actions not offered by the type are rejected.
        assert!(local_type_step(&l, &send_pong).is_none());
    }

    #[test]
    fn theorem_4_5_holds_for_the_ping_pong_server() {
        let report =
            check_type_preservation(&bob(), &bob_type(), &Externals::new(), &r("Bob"), 6).unwrap();
        assert!(report.holds, "{:?}", report.counterexample);
        assert!(report.states_explored > 1);
    }

    #[test]
    fn theorem_4_7_holds_for_the_ping_pong_server() {
        let report = check_against_projection(&bob(), &r("Bob"), &ping_pong(), &Externals::new(), 3)
            .unwrap();
        assert!(report.holds, "{:?}", report.counterexample);
    }

    #[test]
    fn ill_typed_processes_are_rejected_up_front() {
        // Bob answers with a boolean instead of a nat.
        let bad = Proc::loop_(Proc::recv(
            r("Alice"),
            vec![
                RecvAlt::new("l1", Sort::Unit, "_x", Proc::Finish),
                RecvAlt::new(
                    "l2",
                    Sort::Nat,
                    "x",
                    Proc::send(r("Alice"), "l3", Expr::lit(true), Proc::Jump(0)),
                ),
            ],
        ));
        assert!(check_type_preservation(&bad, &bob_type(), &Externals::new(), &r("Bob"), 3).is_err());
        assert!(
            check_against_projection(&bad, &r("Bob"), &ping_pong(), &Externals::new(), 3).is_err()
        );
    }

    #[test]
    fn proc_traces_contain_the_expected_prefixes() {
        let traces =
            proc_traces_up_to(&bob(), &bob_type(), &r("Bob"), &Externals::new(), 2).unwrap();
        // Bob's first action is a receive of either l1 or l2.
        let recv_quit = Action::recv(r("Bob"), r("Alice"), Label::new("l1"), Sort::Unit);
        let recv_ping = Action::recv(r("Bob"), r("Alice"), Label::new("l2"), Sort::Nat);
        assert!(traces.contains(&Trace::from(vec![recv_quit])));
        assert!(traces
            .iter()
            .any(|t| t.len() == 2 && t.actions()[0] == recv_ping));
    }

    #[test]
    fn a_process_for_one_role_does_not_check_against_another() {
        // Bob's implementation is not a complete implementation of Alice.
        let report = check_against_projection(&bob(), &r("Alice"), &ping_pong(), &Externals::new(), 3);
        assert!(report.is_err());
    }

    #[test]
    fn the_checkers_follow_a_send_under_65_nested_loops() {
        // `loop^65 { send q (l, 1); jump 0 }`, typed by `rec^65 q!l(nat). X0`:
        // more nested loops than the checkers once unfolded by themselves.
        let mut proc = Proc::send(r("q"), "l", Expr::lit(1u64), Proc::Jump(0));
        let mut local = LocalType::send1(r("q"), "l", Sort::Nat, LocalType::var(0));
        for _ in 0..65 {
            proc = Proc::loop_(proc);
            local = LocalType::rec(local);
        }
        let ext = Externals::new();
        let report = check_type_preservation(&proc, &local, &ext, &r("p"), 3).unwrap();
        assert!(report.holds, "{:?}", report.counterexample);
        let traces = proc_traces_up_to(&proc, &local, &r("p"), &ext, 3).unwrap();
        let send = Action::send(r("p"), r("q"), Label::new("l"), Sort::Nat);
        let three = Trace::from(vec![send.clone(), send.clone(), send]);
        assert!(traces.contains(&three));
    }

    #[test]
    fn the_checkers_reduce_each_state_once() {
        // `read next (n. send q (l, n). finish)`, typed by `q!l(nat). end`,
        // with a `next` that counts its calls: reducing the head a second
        // time reads another value than the offered send carries, and
        // loses the step.
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let calls = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&calls);
        let mut ext = Externals::new();
        ext.register_read("next", Sort::Nat, move || {
            Value::Nat(counter.fetch_add(1, Ordering::SeqCst))
        });
        let proc = Proc::read("next", "n", Proc::send(r("q"), "l", Expr::var("n"), Proc::Finish));
        let local = LocalType::send1(r("q"), "l", Sort::Nat, LocalType::End);
        let report = check_type_preservation(&proc, &local, &ext, &r("p"), 3).unwrap();
        assert!(report.holds, "{:?}", report.counterexample);
        assert_eq!(report.states_explored, 2, "the send and what follows it");
        assert_eq!(calls.load(Ordering::SeqCst), 1, "one reduction per state");
        let traces = proc_traces_up_to(&proc, &local, &r("p"), &ext, 3).unwrap();
        let send = Action::send(r("p"), r("q"), Label::new("l"), Sort::Nat);
        assert_eq!(traces, BTreeSet::from([Trace::empty(), Trace::from(vec![send])]));
    }
}
