//! Projection of execution prefixes onto queue environments
//! (Definition 3.8 / A.23, `Projection/QProject.v`).

use crate::error::{Error, Result};
use crate::global::prefix::GlobalPrefix;
use crate::local::semantics::QueueEnv;

/// Computes the queue environment associated with an execution prefix: one
/// entry per in-flight message, oldest first.
///
/// The rules are:
///
/// * `[q-proj-end]` — a finished protocol has empty queues;
/// * `[q-proj-send]` — a pending (unsent) message adds nothing, and its
///   branches must all agree on the queue contents;
/// * `[q-proj-recv]` — an in-flight message `p ~l~> q` is the *oldest*
///   undelivered message from `p` to `q`; the rest of the queue comes from
///   the selected continuation.
///
/// Unexecuted parts of the protocol ([`GlobalPrefix::Inj`] leaves) contribute
/// nothing, mirroring the Coq development where queue projection is defined
/// inductively on the prefix (Remark A.24).
///
/// # Errors
///
/// [`Error::IllFormed`] if different branches of a pending message would
/// require different queue contents — this never happens for prefixes reached
/// by executing a projectable protocol.
pub fn qproject(prefix: &GlobalPrefix) -> Result<QueueEnv> {
    match prefix {
        GlobalPrefix::Inj(_) => Ok(QueueEnv::empty()),
        GlobalPrefix::Msg { from, to, branches } => {
            let mut result: Option<QueueEnv> = None;
            for b in branches {
                let q = qproject(&b.cont)?;
                match &result {
                    None => result = Some(q),
                    Some(prev) if prev == &q => {}
                    Some(_) => {
                        return Err(Error::IllFormed {
                            reason: format!(
                                "branches of the pending message {from}->{to} disagree on the \
                                 in-flight messages"
                            ),
                        })
                    }
                }
            }
            let q = result.unwrap_or_else(QueueEnv::empty);
            if q.peek(from, to).is_some() {
                return Err(Error::IllFormed {
                    reason: format!(
                        "a message from {from} to {to} is in flight although the exchange has \
                         not started"
                    ),
                });
            }
            Ok(q)
        }
        GlobalPrefix::Sent {
            from,
            to,
            selected,
            branches,
        } => {
            let chosen = &branches[*selected];
            let rest = qproject(&chosen.cont)?;
            // The outer message was sent first, so it sits at the head of the
            // queue: rebuild the (from, to) queue with it prepended.
            let mut q = QueueEnv::empty();
            q.enq(from, to, chosen.label.clone(), chosen.sort.clone());
            for ((f, t), msgs) in rest.iter() {
                for (label, sort) in msgs {
                    q.enq(f, t, label.clone(), sort.clone());
                }
            }
            Ok(q)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::actions::Action;
    use crate::common::label::Label;
    use crate::common::sort::Sort;
    use crate::global::semantics::global_step;
    use crate::global::syntax::GlobalType;
    use crate::global::unravel::unravel_global;
    use crate::Role;

    fn r(name: &str) -> Role {
        Role::new(name)
    }
    fn l(name: &str) -> Label {
        Label::new(name)
    }

    #[test]
    fn initial_prefix_has_empty_queues() {
        let g = GlobalType::msg1(r("p"), r("q"), "l", Sort::Nat, GlobalType::End);
        let t = unravel_global(&g).unwrap();
        let q = qproject(&GlobalPrefix::initial(&t)).unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn sending_enqueues_exactly_one_message() {
        let g = GlobalType::msg1(r("p"), r("q"), "l", Sort::Nat, GlobalType::End);
        let t = unravel_global(&g).unwrap();
        let send = Action::send(r("p"), r("q"), l("l"), Sort::Nat);
        let after_send = global_step(&t, &GlobalPrefix::initial(&t), &send).unwrap();
        let q = qproject(&after_send).unwrap();
        assert_eq!(q.total_messages(), 1);
        assert_eq!(q.peek(&r("p"), &r("q")).unwrap().0, l("l"));

        let after_recv = global_step(&t, &after_send, &send.dual()).unwrap();
        assert!(qproject(&after_recv).unwrap().is_empty());
    }

    #[test]
    fn nested_in_flight_messages_keep_fifo_order() {
        // p -> q : a(nat). p -> q : b(nat). end, with both messages sent and
        // none received: the queue (p, q) must be [a, b] in that order.
        let g = GlobalType::msg1(
            r("p"),
            r("q"),
            "a",
            Sort::Nat,
            GlobalType::msg1(r("p"), r("q"), "b", Sort::Nat, GlobalType::End),
        );
        let t = unravel_global(&g).unwrap();
        let send_a = Action::send(r("p"), r("q"), l("a"), Sort::Nat);
        let send_b = Action::send(r("p"), r("q"), l("b"), Sort::Nat);
        let s1 = global_step(&t, &GlobalPrefix::initial(&t), &send_a).unwrap();
        let s2 = global_step(&t, &s1, &send_b).unwrap();
        let q = qproject(&s2).unwrap();
        assert_eq!(
            q.queue(&r("p"), &r("q"))
                .into_iter()
                .map(|(label, _)| label)
                .collect::<Vec<_>>(),
            vec![l("a"), l("b")]
        );
    }

    #[test]
    fn example_3_12_queue_projection() {
        // Gc = p ~l~> q : l(S). (mu. q -> p : l(S)): Q(p,q) = [(l, S)].
        let g = GlobalType::msg1(
            r("p"),
            r("q"),
            "l",
            Sort::Nat,
            GlobalType::rec(GlobalType::msg1(
                r("q"),
                r("p"),
                "l",
                Sort::Nat,
                GlobalType::var(0),
            )),
        );
        let t = unravel_global(&g).unwrap();
        let send = Action::send(r("p"), r("q"), l("l"), Sort::Nat);
        let after = global_step(&t, &GlobalPrefix::initial(&t), &send).unwrap();
        let q = qproject(&after).unwrap();
        assert_eq!(q.queue(&r("p"), &r("q")).len(), 1);
        assert!(q.queue(&r("q"), &r("p")).is_empty());
    }
}
