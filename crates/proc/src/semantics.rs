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
//! (`[p-step-loop]`). A free `jump` is an error. The LTS ([`do_step`]), the
//! Theorem 4.5/4.7 checkers and the tree-walking executor all step through
//! this one function.
//!
//! Typing guarantees that a certified process reaches a communication in
//! finitely many reductions; the fuel turns an uncertified one that does not
//! into [`ProcError::Stuck`] instead of a hang. A loop reached through an
//! internal action is a *back-edge*, and the internal actions between two
//! back-edges are a *stretch* (the action that took the back-edge opens the
//! next one). A loop at the head of the step, or at the head of a loop body,
//! is entered without a back-edge. One step may take at most
//! [`ADMIN_FUEL`] back-edges and enter at most [`ADMIN_FUEL`] loops in a row
//! ([`no_communication`]), and a stretch holds fewer than [`ADMIN_FUEL`]
//! internal actions ([`fuel_exhausted`]). An action the fuel refuses is not
//! performed.
//!
//! A compiled program spends the same fuel by its own rule
//! (`zooid_engine::program::admin_tick`), where a back-edge is a jump to an
//! earlier instruction, so the executors give up on the same action with the
//! same error. The one place they differ is a loop entered forward after an
//! internal action (`if c then loop { … } else …`): a compiled program does
//! not count it as a back-edge, and the reduction here does.

use std::fmt;

use zooid_mpst::{Action, Label, Role, Sort};

use crate::error::{ProcError, Result};
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

/// The fuel of [`to_communication`]: a step performs fewer than
/// `ADMIN_FUEL` internal actions in a stretch, takes at most `ADMIN_FUEL`
/// back-edges and enters at most `ADMIN_FUEL` loops in a row.
pub const ADMIN_FUEL: usize = 10_000;

/// The error of a recursion that never reaches a communication: a step
/// took more than [`ADMIN_FUEL`] back-edges or loop entries.
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
/// executors) is returned as it is, and each reduction moves its
/// continuation out of its `Box`, so nothing is cloned but a loop's body.
///
/// # Errors
///
/// [`ProcError::UnboundJump`] for a free `jump`; [`no_communication`] or
/// [`fuel_exhausted`] when the fuel runs out; and the failures of the
/// internal actions (an ill-typed expression, an unregistered external).
pub fn to_communication(mut current: Proc, externals: &Externals) -> Result<Proc> {
    // Internal actions in this stretch, back-edges, and loops entered
    // since the last internal action.
    let (mut internal, mut back_edges, mut entries) = (0usize, 0usize, 0usize);
    loop {
        let next = match current {
            Proc::Finish | Proc::Send { .. } | Proc::Recv { .. } => return Ok(current),
            Proc::Jump(index) => return Err(ProcError::UnboundJump { index }),
            Proc::Loop(_) => {
                if entries == 0 && internal > 0 {
                    // The last reduction was an internal action: a
                    // back-edge, and the action that took it opens the
                    // next stretch.
                    back_edges += 1;
                    internal = 1;
                }
                entries += 1;
                if back_edges > ADMIN_FUEL || entries > ADMIN_FUEL {
                    return Err(no_communication());
                }
                current = current.unfold_once();
                continue;
            }
            _ if internal + 1 >= ADMIN_FUEL => return Err(fuel_exhausted()),
            Proc::Cond {
                cond,
                then_branch,
                else_branch,
            } => {
                if cond.eval_closed()?.as_bool()? {
                    *then_branch
                } else {
                    *else_branch
                }
            }
            Proc::Read { action, var, cont } => {
                let result = externals.call(&action, Value::Unit)?;
                cont.subst_value(&var, &result)
            }
            Proc::Write { action, arg, cont } => {
                let value = arg.eval_closed()?;
                externals.call(&action, value)?;
                *cont
            }
            Proc::Interact {
                action,
                arg,
                var,
                cont,
            } => {
                let value = arg.eval_closed()?;
                let result = externals.call(&action, value)?;
                cont.subst_value(&var, &result)
            }
        };
        internal += 1;
        entries = 0;
        current = next;
    }
}

/// One step of the process LTS (Definition 4.4): attempts to perform the
/// visible action `action` from `proc`, after [reducing it to its next
/// communication](to_communication).
///
/// * `[p-step-send]` — a send process emits its message (the payload
///   expression is evaluated and must equal the action's value);
/// * `[p-step-recv]` — a receive process consumes a matching message and
///   binds its payload.
///
/// Returns `Ok(None)` when the action is not enabled.
///
/// # Errors
///
/// Those of [`to_communication`], and an ill-typed payload expression.
pub fn do_step(proc: &Proc, action: &ValueAction, externals: &Externals) -> Result<Option<Proc>> {
    match to_communication(proc.clone(), externals)? {
        Proc::Send {
            to,
            label,
            payload,
            cont,
        } => {
            if !action.is_send || action.to != to || action.label != label {
                return Ok(None);
            }
            let value = payload.eval_closed()?;
            if value != action.value || !value.has_sort(&action.sort) {
                return Ok(None);
            }
            Ok(Some(*cont))
        }
        Proc::Recv { from, alts } => {
            if action.is_send || action.from != from {
                return Ok(None);
            }
            let Some(alt) = alts.iter().find(|a| a.label == action.label) else {
                return Ok(None);
            };
            if alt.sort != action.sort || !action.value.has_sort(&alt.sort) {
                return Ok(None);
            }
            Ok(Some(alt.cont.subst_value(&alt.var, &action.value)))
        }
        // `finish` performs nothing.
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

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
}
