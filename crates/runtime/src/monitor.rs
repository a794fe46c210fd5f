//! Online protocol-compliance monitoring.
//!
//! The paper motivates type-level transition systems with, among other
//! things, "dynamic monitoring of components in distributed systems" (§1).
//! There are two interchangeable monitors:
//!
//! * a [`TraceMonitor`] holds the global type's semantic tree and an
//!   execution prefix, and replays every observed action through the global
//!   LTS (Definition 3.13) — the direct transcription of the paper, and the
//!   reference implementation;
//! * a [`CompiledMonitor`] checks the same actions against the dense
//!   per-role transition tables of a [`zooid_cfsm::CompiledSystem`] in O(1)
//!   per action. It is what the server runs, so it lives in the serving
//!   engine (`zooid-engine`) and is re-exported here with its
//!   [`MonitorViolation`].
//!
//! Both monitors record disallowed actions as structured
//! [`MonitorViolation`]s and leave their state unchanged on a violation, so
//! subsequent compliant actions are still recognised; the differential
//! test-suite checks they accept/reject identically on every observed
//! action.

use zooid_mpst::global::{global_step, unravel_global, GlobalPrefix, GlobalTree, GlobalType};
use zooid_mpst::{Action, Trace};

use crate::error::Result;

pub use zooid_engine::monitor::{CompiledMonitor, MonitorViolation};

/// An online monitor replaying observed actions against a global protocol.
#[derive(Debug, Clone)]
pub struct TraceMonitor {
    tree: GlobalTree,
    prefix: GlobalPrefix,
    trace: Trace,
    violations: Vec<MonitorViolation>,
    observed: usize,
}

impl TraceMonitor {
    /// Creates a monitor for the given protocol.
    ///
    /// # Errors
    ///
    /// Fails if the protocol is ill-formed.
    pub fn new(global: &GlobalType) -> Result<Self> {
        let tree = unravel_global(global).map_err(zooid_proc::ProcError::from)?;
        let prefix = GlobalPrefix::initial(&tree);
        Ok(TraceMonitor {
            tree,
            prefix,
            trace: Trace::empty(),
            violations: Vec::new(),
            observed: 0,
        })
    }

    /// Feeds one observed action to the monitor.
    ///
    /// Returns `true` if the protocol allows the action in the current
    /// state; otherwise the action is recorded as a violation (and the
    /// monitor's state is left unchanged, so subsequent compliant actions
    /// are still recognised).
    pub fn observe(&mut self, action: &Action) -> bool {
        let position = self.observed;
        self.observed += 1;
        match global_step(&self.tree, &self.prefix, action) {
            Some(next) => {
                self.prefix = next;
                self.trace.push(action.clone());
                true
            }
            None => {
                self.violations.push(MonitorViolation {
                    action: action.clone(),
                    position,
                    trace_len: self.trace.len(),
                });
                false
            }
        }
    }

    /// The compliant part of the observed trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The violations observed so far.
    pub fn violations(&self) -> &[MonitorViolation] {
        &self.violations
    }

    /// Returns `true` if no violation has been observed.
    pub fn is_compliant(&self) -> bool {
        self.violations.is_empty()
    }

    /// Returns `true` if the protocol has run to completion (every exchange
    /// performed and delivered).
    pub fn is_complete(&self) -> bool {
        self.prefix.is_terminated(&self.tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zooid_mpst::{Label, Role, Sort};

    fn r(name: &str) -> Role {
        Role::new(name)
    }

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
    fn a_compliant_run_is_accepted_and_completes() {
        let mut monitor = TraceMonitor::new(&ring()).unwrap();
        for (from, to) in [("Alice", "Bob"), ("Bob", "Carol"), ("Carol", "Alice")] {
            let send = Action::send(r(from), r(to), Label::new("l"), Sort::Nat);
            assert!(monitor.observe(&send));
            assert!(monitor.observe(&send.dual()));
        }
        assert!(monitor.is_compliant());
        assert!(monitor.is_complete());
        assert_eq!(monitor.trace().len(), 6);
        assert!(monitor.violations().is_empty());
    }

    #[test]
    fn out_of_order_actions_are_violations() {
        let mut monitor = TraceMonitor::new(&ring()).unwrap();
        // Bob tries to forward before receiving from Alice.
        let premature = Action::send(r("Bob"), r("Carol"), Label::new("l"), Sort::Nat);
        assert!(!monitor.observe(&premature));
        assert!(!monitor.is_compliant());
        assert_eq!(monitor.violations().len(), 1);
        assert_eq!(monitor.violations()[0].action, premature);
        assert_eq!(monitor.violations()[0].position, 0);
        assert_eq!(monitor.violations()[0].trace_len, 0);
        // The monitor keeps working for the legitimate continuation.
        let first = Action::send(r("Alice"), r("Bob"), Label::new("l"), Sort::Nat);
        assert!(monitor.observe(&first));
    }

    #[test]
    fn wrong_labels_and_sorts_are_violations() {
        let mut monitor = TraceMonitor::new(&ring()).unwrap();
        let wrong_label = Action::send(r("Alice"), r("Bob"), Label::new("zzz"), Sort::Nat);
        let wrong_sort = Action::send(r("Alice"), r("Bob"), Label::new("l"), Sort::Bool);
        assert!(!monitor.observe(&wrong_label));
        assert!(!monitor.observe(&wrong_sort));
        assert_eq!(monitor.violations().len(), 2);
        // Positions advance with every observation, compliant or not.
        assert_eq!(monitor.violations()[1].position, 1);
        assert!(!monitor.is_complete());
    }

    #[test]
    fn ill_formed_protocols_are_rejected() {
        let bad = GlobalType::rec(GlobalType::var(0));
        assert!(TraceMonitor::new(&bad).is_err());
    }

    #[test]
    fn the_compiled_monitor_mirrors_the_trace_monitor_verdicts() {
        let g = ring();
        let mut reference = TraceMonitor::new(&g).unwrap();
        let mut compiled = CompiledMonitor::for_global(&g).unwrap();
        let stream = [
            // A violation, then the full compliant run, then a trailing
            // violation once the protocol is over.
            Action::send(r("Bob"), r("Carol"), Label::new("l"), Sort::Nat),
            Action::send(r("Alice"), r("Bob"), Label::new("l"), Sort::Nat),
            Action::recv(r("Bob"), r("Alice"), Label::new("l"), Sort::Nat),
            Action::send(r("Bob"), r("Carol"), Label::new("l"), Sort::Nat),
            Action::recv(r("Carol"), r("Bob"), Label::new("l"), Sort::Nat),
            Action::send(r("Carol"), r("Alice"), Label::new("l"), Sort::Nat),
            Action::recv(r("Alice"), r("Carol"), Label::new("l"), Sort::Nat),
            Action::send(r("Alice"), r("Bob"), Label::new("l"), Sort::Nat),
        ];
        for action in &stream {
            assert_eq!(
                reference.observe(action),
                compiled.observe(action),
                "monitors disagree on {action}"
            );
        }
        assert_eq!(reference.trace(), compiled.trace());
        assert_eq!(reference.violations(), compiled.violations());
        assert_eq!(reference.is_complete(), compiled.is_complete());
        assert!(compiled.is_complete());
    }
}
