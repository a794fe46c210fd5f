//! The labelled transition system for processes (Definition 4.4,
//! `do_step_proc` in `Proc.v`) and the erasure of value-carrying actions to
//! type-level actions.

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

/// Maximum number of administrative reductions (`if`, `read`, `write`,
/// `interact`, `loop` unfoldings) performed while looking for the next
/// communication. A well-typed process can only perform finitely many of
/// them between communications; the bound protects against accidental
/// non-termination of user-supplied processes.
const ADMIN_FUEL: usize = 10_000;

/// Reduces the internal (non-communicating) actions at the head of a process
/// until it starts with `finish`, `send`, `recv`, `loop` or `jump`.
///
/// Internal actions are the conditionals and the external interactions; they
/// do not appear in traces (§4.1) and therefore commute with the visible LTS.
///
/// # Errors
///
/// Fails if an expression is ill-typed at runtime, an external action is not
/// registered, or the internal reduction does not terminate within a fixed
/// fuel bound.
pub fn admin_normalize(proc: &Proc, externals: &Externals) -> Result<Proc> {
    admin_normalize_owned(proc.clone(), externals)
}

/// Like [`admin_normalize`], but takes the process by value: when the head is
/// already a communication (the steady state of the executors) nothing is
/// cloned at all, and each internal reduction moves its continuation out of
/// its `Box` instead of deep-cloning it.
///
/// # Errors
///
/// Same as [`admin_normalize`].
pub fn admin_normalize_owned(mut current: Proc, externals: &Externals) -> Result<Proc> {
    for _ in 0..ADMIN_FUEL {
        match current {
            Proc::Cond {
                cond,
                then_branch,
                else_branch,
            } => {
                current = if cond.eval_closed()?.as_bool()? {
                    *then_branch
                } else {
                    *else_branch
                };
            }
            Proc::Read { action, var, cont } => {
                let result = externals.call(&action, Value::Unit)?;
                current = cont.subst_value(&var, &result);
            }
            Proc::Write { action, arg, cont } => {
                let value = arg.eval_closed()?;
                externals.call(&action, value)?;
                current = *cont;
            }
            Proc::Interact {
                action,
                arg,
                var,
                cont,
            } => {
                let value = arg.eval_closed()?;
                let result = externals.call(&action, value)?;
                current = cont.subst_value(&var, &result);
            }
            other => return Ok(other),
        }
    }
    Err(ProcError::Stuck {
        context: "internal actions did not terminate within the fuel bound".to_owned(),
    })
}

/// One step of the process LTS (Definition 4.4): attempts to perform the
/// visible action `action` from `proc`.
///
/// * `[p-step-send]` — a send process emits its message (the payload
///   expression is evaluated and must equal the action's value);
/// * `[p-step-recv]` — a receive process consumes a matching message and
///   binds its payload;
/// * `[p-step-loop]` — recursion is unfolded as needed.
///
/// Internal actions at the head are reduced first (they are invisible).
/// Returns `Ok(None)` when the action is not enabled.
///
/// # Errors
///
/// Fails on runtime errors of the internal reductions (see
/// [`admin_normalize`]).
pub fn do_step(proc: &Proc, action: &ValueAction, externals: &Externals) -> Result<Option<Proc>> {
    let mut current = admin_normalize(proc, externals)?;
    // [p-step-loop]: unfold recursion until a communication appears. Typing
    // guarantees loops are guarded, so this terminates for well-typed
    // processes; the fuel protects against ill-typed ones.
    for _ in 0..ADMIN_FUEL {
        match current {
            Proc::Loop(_) => {
                current = admin_normalize(&current.unfold_once(), externals)?;
            }
            _ => break,
        }
    }
    match &current {
        Proc::Finish | Proc::Jump(_) => Ok(None),
        Proc::Loop(_) => Err(ProcError::Stuck {
            context: "recursion does not reach a communication".to_owned(),
        }),
        Proc::Send {
            to,
            label,
            payload,
            cont,
        } => {
            if !action.is_send || &action.to != to || &action.label != label {
                return Ok(None);
            }
            let value = payload.eval_closed()?;
            if value != action.value || !value.has_sort(&action.sort) {
                return Ok(None);
            }
            Ok(Some((**cont).clone()))
        }
        Proc::Recv { from, alts } => {
            if action.is_send || &action.from != from {
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
        Proc::Cond { .. } | Proc::Read { .. } | Proc::Write { .. } | Proc::Interact { .. } => {
            unreachable!("admin_normalize removed internal actions")
        }
    }
}

/// What the process offers next, after reducing internal actions: either it
/// has terminated, or it wants to send one specific message, or it is ready
/// to receive one of several labels from a partner.
#[derive(Debug, Clone, PartialEq)]
pub enum NextCommunication {
    /// The process has terminated.
    Done,
    /// The process wants to emit exactly this action.
    Send(ValueAction),
    /// The process waits for a message from `from` with one of the listed
    /// `(label, sort)` alternatives.
    Receive {
        /// The expected sender.
        from: Role,
        /// The alternatives the process can handle.
        alternatives: Vec<(Label, Sort)>,
    },
}

/// Computes the next communication offered by a process, given the role that
/// executes it (needed to fill in the sender of emitted messages).
///
/// # Errors
///
/// Fails on runtime errors of the internal reductions and when a recursion
/// never reaches a communication.
pub fn next_communication(
    proc: &Proc,
    self_role: &Role,
    externals: &Externals,
) -> Result<NextCommunication> {
    let mut current = admin_normalize(proc, externals)?;
    for _ in 0..ADMIN_FUEL {
        match current {
            Proc::Loop(_) => current = admin_normalize(&current.unfold_once(), externals)?,
            _ => break,
        }
    }
    match &current {
        Proc::Finish => Ok(NextCommunication::Done),
        Proc::Jump(i) => Err(ProcError::UnboundJump { index: *i }),
        Proc::Loop(_) => Err(ProcError::Stuck {
            context: "recursion does not reach a communication".to_owned(),
        }),
        Proc::Send {
            to,
            label,
            payload,
            ..
        } => {
            let value = payload.eval_closed()?;
            let sort = payload.infer_sort(&Default::default())?;
            Ok(NextCommunication::Send(ValueAction::send(
                self_role.clone(),
                to.clone(),
                label.clone(),
                sort,
                value,
            )))
        }
        Proc::Recv { from, alts } => Ok(NextCommunication::Receive {
            from: from.clone(),
            alternatives: alts.iter().map(|a| (a.label.clone(), a.sort.clone())).collect(),
        }),
        _ => unreachable!("admin_normalize removed internal actions"),
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
    fn next_communication_reports_the_offer() {
        let ext = Externals::new();
        let send = Proc::send(r("q"), "l", Expr::lit(5u64), Proc::Finish);
        match next_communication(&send, &r("me"), &ext).unwrap() {
            NextCommunication::Send(a) => {
                assert_eq!(a.from, r("me"));
                assert_eq!(a.value, Value::Nat(5));
            }
            other => panic!("unexpected {other:?}"),
        }

        let recv = Proc::recv(
            r("p"),
            vec![
                RecvAlt::new("a", Sort::Nat, "x", Proc::Finish),
                RecvAlt::new("b", Sort::Unit, "y", Proc::Finish),
            ],
        );
        match next_communication(&recv, &r("me"), &ext).unwrap() {
            NextCommunication::Receive { from, alternatives } => {
                assert_eq!(from, r("p"));
                assert_eq!(alternatives.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }

        assert_eq!(
            next_communication(&Proc::Finish, &r("me"), &ext).unwrap(),
            NextCommunication::Done
        );
    }

    #[test]
    fn unregistered_externals_make_execution_fail() {
        let p = Proc::read("nope", "x", Proc::Finish);
        let ext = Externals::new();
        assert!(admin_normalize(&p, &ext).is_err());
    }

    #[test]
    fn finished_processes_perform_no_action() {
        let ext = Externals::new();
        let act = ValueAction::send(r("p"), r("q"), l("l"), Sort::Nat, Value::Nat(0));
        assert_eq!(do_step(&Proc::Finish, &act, &ext).unwrap(), None);
    }
}
