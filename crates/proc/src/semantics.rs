//! The labelled transition system for processes (Definition 4.4,
//! `do_step_proc` in `Proc.v`) and the erasure of value-carrying actions to
//! type-level actions.
//!
//! # The reduction to the next communication
//!
//! Before its next visible step a process is reduced, by
//! [`to_communication`], until its head is `finish`, `send` or `recv`:
//! the internal actions at the head (`if`, `read`, `write`, `interact`) run
//! in place, since they do not appear in traces (§4.1), and loops unfold
//! (`[p-step-loop]`). Loops unfold through an environment of the loops the
//! reduction is inside, not by substitution: a `jump` at the head goes back
//! to its loop's body, and only the communication the reduction stops at is
//! closed by substituting those loops for its jumps. A free `jump` is an
//! error. The LTS ([`do_step`]), the Theorem 4.5/4.7 checkers and the
//! tree-walking executor all step through this one function.
//!
//! A reduced send offers one action, built by [`send_action`] at the sort
//! its local type declares; a reduced receive accepts any message one of
//! its alternatives does. [`step_communication`] is the one rule that
//! performs an action (`[p-step-send]`, `[p-step-recv]`).
//!
//! # The fuel rule
//!
//! Typing guarantees that a certified process reaches a communication in
//! finitely many reductions; the fuel turns an uncertified one that does not
//! into [`ProcError::Stuck`] instead of a hang. A `jump` at the head is a
//! *back-edge*; a loop entered forward (at the head of the step, after an
//! internal action, or at the head of a loop body) is not. The internal
//! actions from one back-edge to the next are a *stretch*, and the action
//! that reaches a `jump` is the first of the stretch it opens. One step may
//! take at most [`ADMIN_FUEL`] back-edges ([`no_communication`]), and a
//! stretch holds fewer than [`ADMIN_FUEL`] internal actions
//! ([`fuel_exhausted`]). The fuel is charged before the action runs, so an
//! action the fuel refuses is not performed. A loop whose body is a bare
//! `jump` (`loop { jump 0 }`) never reaches a communication: it is refused
//! with [`no_communication`] on entry, as lowering refuses to compile it.
//!
//! A compiled program obeys the same rule
//! (`zooid_engine::program::admin_tick`): its jumps are the steps to an
//! earlier instruction, so every executor gives up on the same action with
//! the same error.

use std::borrow::Cow;
use std::fmt;

use zooid_mpst::local::LocalType;
use zooid_mpst::{Action, Label, Role, Sort};

use crate::error::{ProcError, Result};
use crate::expr::sort_of_value;
use crate::external::Externals;
use crate::proc::Proc;
use crate::value::Value;

/// A process-level action: like a type-level [`Action`] but carrying the
/// exchanged [`Value`] as well as its sort.
///
/// The paper's process LTS uses actions "with values instead of sorts"; the
/// *erasure* `|a|` forgets the value and keeps the sort, producing the
/// type-level action used by type preservation (Theorem 4.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueAction {
    /// `true` for the sending half, `false` for the receiving half.
    pub is_send: bool,
    /// The sender of the underlying message.
    pub from: Role,
    /// The receiver of the underlying message.
    pub to: Role,
    /// The message label.
    pub label: Label,
    /// The sort of the payload.
    pub sort: Sort,
    /// The payload value.
    pub value: Value,
}

impl ValueAction {
    /// The send action `!pq(l, v)`.
    pub fn send(from: Role, to: Role, label: Label, sort: Sort, value: Value) -> Self {
        ValueAction {
            is_send: true,
            from,
            to,
            label,
            sort,
            value,
        }
    }

    /// The receive action `?qp(l, v)`.
    pub fn recv(at: Role, from: Role, label: Label, sort: Sort, value: Value) -> Self {
        ValueAction {
            is_send: false,
            from,
            to: at,
            label,
            sort,
            value,
        }
    }

    /// The participant performing the action (sender of a send, receiver of
    /// a receive).
    pub fn subject(&self) -> &Role {
        if self.is_send {
            &self.from
        } else {
            &self.to
        }
    }
}

impl fmt::Display for ValueAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_send {
            write!(f, "!{}{}({}, {})", self.from, self.to, self.label, self.value)
        } else {
            write!(f, "?{}{}({}, {})", self.to, self.from, self.label, self.value)
        }
    }
}

/// The erasure `|a|` of a process action: forget the value, keep the sort
/// (§4.3).
pub fn erase(action: &ValueAction) -> Action {
    if action.is_send {
        Action::send(
            action.from.clone(),
            action.to.clone(),
            action.label.clone(),
            action.sort.clone(),
        )
    } else {
        Action::recv(
            action.to.clone(),
            action.from.clone(),
            action.label.clone(),
            action.sort.clone(),
        )
    }
}

/// The fuel of [`to_communication`]: a step takes at most `ADMIN_FUEL`
/// back-edges and performs fewer than `ADMIN_FUEL` internal actions in a
/// stretch.
pub const ADMIN_FUEL: usize = 10_000;

/// The error of a recursion that never reaches a communication: a step
/// took more than [`ADMIN_FUEL`] back-edges.
pub fn no_communication() -> ProcError {
    ProcError::Stuck {
        context: "recursion does not reach a communication".to_owned(),
    }
}

/// The error of a stretch of [`ADMIN_FUEL`] internal actions.
pub fn fuel_exhausted() -> ProcError {
    ProcError::Stuck {
        context: "internal actions did not terminate within the fuel bound".to_owned(),
    }
}

/// Reduces a process to its next communication: runs the internal actions
/// at its head and unfolds its loops, under the fuel rule of the
/// [module documentation](self), until the head is `finish`, `send` or
/// `recv`. A head that is already a communication (the steady state of the
/// executors) is returned as it is; otherwise what is copied is a loop's
/// body on each entry, and the communication it stops at inside a loop.
///
/// # Errors
///
/// [`ProcError::UnboundJump`] for a free `jump`; [`no_communication`] or
/// [`fuel_exhausted`] when the fuel runs out; and the failures of the
/// internal actions (an ill-typed expression, an unregistered external).
pub fn to_communication(mut current: Proc, externals: &Externals) -> Result<Proc> {
    // The bodies of the loops the head is inside, innermost last: each is
    // open under the ones before it, and `jump i` goes back to the body
    // `i` places from the end.
    let mut loops: Vec<Proc> = Vec::new();
    let (mut stretch, mut back_edges) = (0usize, 0usize);
    // Charges an internal action whose continuation is `next`, before it
    // runs.
    let mut charge = |next: &Proc| {
        if matches!(next, Proc::Jump(_)) {
            (stretch, back_edges) = (0, back_edges + 1);
            if back_edges > ADMIN_FUEL {
                return Err(no_communication());
            }
        }
        stretch += 1;
        if stretch >= ADMIN_FUEL {
            return Err(fuel_exhausted());
        }
        Ok(())
    };
    loop {
        current = match current {
            Proc::Finish | Proc::Send { .. } | Proc::Recv { .. } => {
                return Ok(close(current, loops));
            }
            // Only an internal action reaches a `jump`, and it has charged
            // the back-edge.
            Proc::Jump(index) => {
                let Some(target) = loops.len().checked_sub(index as usize + 1) else {
                    return Err(ProcError::UnboundJump { index });
                };
                loops.truncate(target + 1);
                loops[target].clone()
            }
            Proc::Loop(body) if matches!(*body, Proc::Jump(_)) => {
                return Err(no_communication());
            }
            Proc::Loop(body) => {
                loops.push((*body).clone());
                *body
            }
            Proc::Cond {
                cond,
                then_branch,
                else_branch,
            } => {
                let next = if cond.eval_closed()?.as_bool()? {
                    *then_branch
                } else {
                    *else_branch
                };
                charge(&next)?;
                next
            }
            Proc::Read { action, var, cont } => {
                charge(&cont)?;
                let result = externals.call(&action, Value::Unit)?;
                cont.subst_value(&var, &result)
            }
            Proc::Write { action, arg, cont } => {
                charge(&cont)?;
                externals.call(&action, arg.eval_closed()?)?;
                *cont
            }
            Proc::Interact {
                action,
                arg,
                var,
                cont,
            } => {
                charge(&cont)?;
                let result = externals.call(&action, arg.eval_closed()?)?;
                cont.subst_value(&var, &result)
            }
        };
    }
}

/// Closes `head`, open under the loop bodies `loops` (innermost last), by
/// substituting each loop for its jumps. Each loop is closed by the ones
/// before it, so every substituted process is closed, as
/// [`Proc::subst_jump`] requires.
fn close(head: Proc, loops: Vec<Proc>) -> Proc {
    let substitute =
        |term: Proc, closed: &[Proc]| closed.iter().rev().fold(term, |t, l| t.subst_jump(0, l));
    let mut closed = Vec::with_capacity(loops.len());
    for body in loops {
        closed.push(substitute(Proc::loop_(body), &closed));
    }
    substitute(head, &closed)
}

/// The action the send at `head`, a process [reduced to its next
/// communication](to_communication) that `role` plays, offers; `None` when
/// `head` is a receive or `finish`. The action carries the sort `local`
/// (the type the process is typed against in this state) declares for its
/// label; without a type, or when the type offers no such label, it carries
/// the payload's [`sort_of_value`].
///
/// # Errors
///
/// An ill-typed payload expression.
pub fn send_action(
    head: &Proc,
    role: &Role,
    local: Option<&LocalType>,
) -> Result<Option<ValueAction>> {
    let Proc::Send {
        to, label, payload, ..
    } = head
    else {
        return Ok(None);
    };
    let value = payload.eval_closed()?;
    let declared = local.and_then(|local| match local.unfold_head() {
        LocalType::Send { branches, .. } => {
            branches.into_iter().find(|b| b.label == *label).map(|b| b.sort)
        }
        _ => None,
    });
    let sort = declared.unwrap_or_else(|| sort_of_value(&value));
    Ok(Some(ValueAction::send(role.clone(), to.clone(), label.clone(), sort, value)))
}

/// One step of the process LTS (Definition 4.4): attempts to perform the
/// visible action `action` from `proc`, after [reducing it to its next
/// communication](to_communication). The step itself is
/// [`step_communication`].
///
/// Returns `Ok(None)` when the action is not enabled.
///
/// # Errors
///
/// Those of [`to_communication`], and an ill-typed payload expression.
pub fn do_step(proc: &Proc, action: &ValueAction, externals: &Externals) -> Result<Option<Proc>> {
    step_communication(Cow::Owned(to_communication(proc.clone(), externals)?), action)
}

/// Performs the visible action `action` from `head`, a process already
/// [reduced to its next communication](to_communication), so that no
/// internal action runs again, and returns the continuation:
///
/// * `[p-step-send]` — a send process emits its message (the payload
///   expression is evaluated and must equal the action's value, and inhabit
///   its sort);
/// * `[p-step-recv]` — a receive process consumes a message of a label it
///   accepts, at that alternative's sort, and binds its payload.
///
/// Returns `Ok(None)` when the action is not enabled, and for any head that
/// is not a send or a receive. An owned head gives up its send's
/// continuation without a copy (the executor's case); a borrowed one (the
/// checkers', which try every alternative of one head) copies only the
/// continuation it returns.
///
/// # Errors
///
/// An ill-typed payload expression.
pub fn step_communication(head: Cow<'_, Proc>, action: &ValueAction) -> Result<Option<Proc>> {
    match &*head {
        Proc::Send {
            to,
            label,
            payload,
            ..
        } => {
            if !action.is_send || action.to != *to || action.label != *label {
                return Ok(None);
            }
            let value = payload.eval_closed()?;
            if value != action.value || !value.has_sort(&action.sort) {
                return Ok(None);
            }
        }
        Proc::Recv { from, alts } => {
            if action.is_send || action.from != *from {
                return Ok(None);
            }
            let Some(alt) = alts.iter().find(|a| a.label == action.label) else {
                return Ok(None);
            };
            if alt.sort != action.sort || !action.value.has_sort(&alt.sort) {
                return Ok(None);
            }
            return Ok(Some(alt.cont.subst_value(&alt.var, &action.value)));
        }
        // `finish` performs nothing.
        _ => return Ok(None),
    }
    // The send is enabled: its continuation, moved out of an owned head.
    match head.into_owned() {
        Proc::Send { cont, .. } => Ok(Some(*cont)),
        _ => unreachable!("the head is the send matched above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::proc::RecvAlt;

    fn r(name: &str) -> Role {
        Role::new(name)
    }
    fn l(name: &str) -> Label {
        Label::new(name)
    }

    #[test]
    fn erasure_forgets_values_and_keeps_sorts() {
        let va = ValueAction::send(r("p"), r("q"), l("l"), Sort::Nat, Value::Nat(7));
        assert_eq!(erase(&va), Action::send(r("p"), r("q"), l("l"), Sort::Nat));
        let vr = ValueAction::recv(r("q"), r("p"), l("l"), Sort::Nat, Value::Nat(7));
        assert_eq!(erase(&vr), Action::recv(r("q"), r("p"), l("l"), Sort::Nat));
        assert_eq!(va.subject(), &r("p"));
        assert_eq!(vr.subject(), &r("q"));
    }

    #[test]
    fn p_step_send_emits_the_evaluated_payload() {
        let p = Proc::send(r("q"), "l", Expr::add(Expr::lit(1u64), Expr::lit(2u64)), Proc::Finish);
        let good = ValueAction::send(r("p"), r("q"), l("l"), Sort::Nat, Value::Nat(3));
        let wrong_value = ValueAction::send(r("p"), r("q"), l("l"), Sort::Nat, Value::Nat(4));
        let ext = Externals::new();
        assert_eq!(do_step(&p, &good, &ext).unwrap(), Some(Proc::Finish));
        assert_eq!(do_step(&p, &wrong_value, &ext).unwrap(), None);
    }

    #[test]
    fn p_step_recv_binds_the_received_value() {
        // recv p { l(x:nat) ? send p (l2, x+1)! finish }
        let p = Proc::recv1(
            r("p"),
            "l",
            Sort::Nat,
            "x",
            Proc::send(r("p"), "l2", Expr::add(Expr::var("x"), Expr::lit(1u64)), Proc::Finish),
        );
        let ext = Externals::new();
        let recv = ValueAction::recv(r("q"), r("p"), l("l"), Sort::Nat, Value::Nat(9));
        let stepped = do_step(&p, &recv, &ext).unwrap().expect("recv enabled");
        // The continuation now sends 10.
        let send = ValueAction::send(r("q"), r("p"), l("l2"), Sort::Nat, Value::Nat(10));
        assert_eq!(do_step(&stepped, &send, &ext).unwrap(), Some(Proc::Finish));
        // A receive with an unknown label is not enabled.
        let unknown = ValueAction::recv(r("q"), r("p"), l("zzz"), Sort::Nat, Value::Nat(1));
        assert_eq!(do_step(&p, &unknown, &ext).unwrap(), None);
    }

    #[test]
    fn p_step_loop_unfolds_recursion() {
        // loop { send q (ping, 0)! jump 0 } can keep sending forever.
        let p = Proc::loop_(Proc::send(r("q"), "ping", Expr::lit(0u64), Proc::Jump(0)));
        let ext = Externals::new();
        let act = ValueAction::send(r("p"), r("q"), l("ping"), Sort::Nat, Value::Nat(0));
        let mut current = p.clone();
        for _ in 0..3 {
            current = do_step(&current, &act, &ext).unwrap().expect("send enabled");
        }
    }

    #[test]
    fn internal_actions_are_transparent_to_the_lts() {
        let mut ext = Externals::new();
        ext.register_interact("double", Sort::Nat, Sort::Nat, |v| {
            Value::Nat(v.as_nat().unwrap() * 2)
        });
        // if true then (interact double 21 (y. send q (l, y)! finish)) else finish
        let p = Proc::cond(
            Expr::lit(true),
            Proc::interact(
                "double",
                Expr::lit(21u64),
                "y",
                Proc::send(r("q"), "l", Expr::var("y"), Proc::Finish),
            ),
            Proc::Finish,
        );
        let act = ValueAction::send(r("p"), r("q"), l("l"), Sort::Nat, Value::Nat(42));
        assert_eq!(do_step(&p, &act, &ext).unwrap(), Some(Proc::Finish));
    }

    #[test]
    fn unregistered_externals_make_execution_fail() {
        let p = Proc::read("nope", "x", Proc::Finish);
        let ext = Externals::new();
        assert!(to_communication(p, &ext).is_err());
    }

    #[test]
    fn finished_processes_perform_no_action() {
        let ext = Externals::new();
        let act = ValueAction::send(r("p"), r("q"), l("l"), Sort::Nat, Value::Nat(0));
        assert_eq!(do_step(&Proc::Finish, &act, &ext).unwrap(), None);
    }

    /// `send q (l, inl 3)! finish`, whose payload's own sort is `nat + unit`.
    fn send_inl() -> Proc {
        Proc::send(r("q"), "l", Expr::lit(Value::inl(Value::Nat(3))), Proc::Finish)
    }

    #[test]
    fn a_typed_send_offers_the_declared_sort() {
        let declared = Sort::sum(Sort::Nat, Sort::Bool);
        let local = LocalType::send1(r("q"), "l", declared.clone(), LocalType::End);
        let head = send_inl();
        let inl = Value::inl(Value::Nat(3));
        let expected = ValueAction::send(r("p"), r("q"), l("l"), declared, inl);
        let action = send_action(&head, &r("p"), Some(&local)).unwrap();
        assert_eq!(action.as_ref(), Some(&expected));
        let next = step_communication(Cow::Owned(head), &expected).unwrap();
        assert_eq!(next, Some(Proc::Finish));
    }

    #[test]
    fn an_untyped_send_offers_the_payloads_own_sort() {
        let guessed = Sort::sum(Sort::Nat, Sort::Unit);
        let inl = Value::inl(Value::Nat(3));
        let expected = ValueAction::send(r("p"), r("q"), l("l"), guessed, inl);
        assert_eq!(send_action(&send_inl(), &r("p"), None).unwrap(), Some(expected.clone()));
        // A type that offers no such label leaves the payload's own sort.
        let other = LocalType::send1(r("q"), "m", Sort::Bool, LocalType::End);
        let action = send_action(&send_inl(), &r("p"), Some(&other)).unwrap();
        assert_eq!(action, Some(expected));
    }

    #[test]
    fn a_receive_and_finish_offer_no_send() {
        let alts = vec![
            RecvAlt::new("a", Sort::Nat, "x", Proc::Finish),
            RecvAlt::new("b", Sort::Bool, "y", Proc::Finish),
        ];
        let head = Proc::recv(r("q"), alts);
        assert_eq!(send_action(&head, &r("p"), None).unwrap(), None);
        let local = LocalType::End;
        assert_eq!(send_action(&Proc::Finish, &r("p"), Some(&local)).unwrap(), None);
        // A borrowed receive steps on each of its alternatives in turn.
        let messages = [("a", Sort::Nat, Value::Nat(1)), ("b", Sort::Bool, Value::Bool(true))];
        for (label, sort, value) in messages {
            let action = ValueAction::recv(r("p"), r("q"), l(label), sort, value);
            let next = step_communication(Cow::Borrowed(&head), &action).unwrap();
            assert_eq!(next, Some(Proc::Finish));
        }
    }

    #[test]
    fn a_loop_whose_body_is_a_bare_jump_is_refused_on_entry() {
        let ext = Externals::new();
        for bare in [Proc::loop_(Proc::Jump(0)), Proc::loop_(Proc::loop_(Proc::Jump(1)))] {
            assert_eq!(to_communication(bare, &ext), Err(no_communication()));
        }
    }

    #[test]
    fn the_reduction_closes_the_communication_it_stops_at() {
        // loop { if true then send q (l, 0)! jump 0 else finish } stops at
        // the send, whose continuation is the whole loop again.
        let looped = Proc::loop_(Proc::cond(
            Expr::lit(true),
            Proc::send(r("q"), "l", Expr::lit(0u64), Proc::Jump(0)),
            Proc::Finish,
        ));
        let head = to_communication(looped.clone(), &Externals::new()).unwrap();
        assert_eq!(head, Proc::send(r("q"), "l", Expr::lit(0u64), looped));
    }
}
