//! The session harness: run every certified endpoint of a protocol together,
//! over an in-memory network, with live compliance monitoring.
//!
//! This plays the role of the paper's `execute_extracted_process` (§4.5.1)
//! for whole sessions: where the paper's runtime launches one OCaml process
//! per participant and connects them over TCP, the harness steps every
//! participant's [`EndpointTask`] on the [`Lockstep`] runner over the
//! in-memory network — which is what the examples, the integration tests
//! and the benchmarks use. Each task is [typed](EndpointTask::typed) by its
//! certificate's local type, so its sends carry the sorts it declares. A
//! run is deterministic: the tasks are drained round-robin in role order,
//! and an endpoint that can never progress is
//! [`Stalled`](crate::exec::EndpointStatus::Stalled). Individual endpoints
//! can still be run by hand over TCP with [`crate::tcp::TcpTransport`] and
//! [`crate::exec::execute`].

use std::collections::BTreeMap;
use std::time::Duration;

use zooid_dsl::{CertifiedProcess, Protocol};
use zooid_mpst::{Role, Trace};
use zooid_proc::{Externals, ProcError};

use crate::error::{Result, RuntimeError};
use crate::exec::{EndpointReport, EndpointTask, ExecOptions};
use crate::lockstep::Lockstep;
use crate::monitor::{CompiledMonitor, MonitorViolation, TraceMonitor};
use crate::transport::InMemoryNetwork;

/// A session harness: a protocol plus one certified endpoint implementation
/// per participant.
#[derive(Debug)]
pub struct SessionHarness {
    protocol: Protocol,
    endpoints: BTreeMap<Role, (CertifiedProcess, Externals)>,
    options: ExecOptions,
}

impl SessionHarness {
    /// Creates a harness for the given protocol.
    pub fn new(protocol: Protocol) -> Self {
        SessionHarness {
            protocol,
            endpoints: BTreeMap::new(),
            options: ExecOptions::default(),
        }
    }

    /// Registers a certified endpoint together with its external actions.
    ///
    /// # Errors
    ///
    /// Fails if the process was certified for a different protocol or if the
    /// role already has an implementation.
    pub fn add_endpoint(
        &mut self,
        process: CertifiedProcess,
        externals: Externals,
    ) -> Result<&mut Self> {
        if process.protocol_name() != self.protocol.name() {
            return Err(RuntimeError::Process(zooid_proc::ProcError::Stuck {
                context: format!(
                    "process certified for protocol `{}` added to a session of `{}`",
                    process.protocol_name(),
                    self.protocol.name()
                ),
            }));
        }
        let role = process.role().clone();
        if self.endpoints.contains_key(&role) {
            return Err(RuntimeError::Process(zooid_proc::ProcError::Stuck {
                context: format!("role `{role}` already has an implementation"),
            }));
        }
        self.endpoints.insert(role, (process, externals));
        Ok(self)
    }

    /// Limits every endpoint to at most `max_steps` visible communications
    /// (useful for protocols that loop forever).
    pub fn with_max_steps(&mut self, max_steps: usize) -> &mut Self {
        self.options = ExecOptions::with_max_steps(max_steps);
        self
    }

    /// Has no effect: nothing in memory waits, so an endpoint that cannot
    /// progress is stalled at once. The method stays because
    /// `zooid_benchmark` calls it; ROADMAP item 1 is where it goes.
    pub fn with_recv_timeout(&mut self, _timeout: Duration) -> &mut Self {
        self
    }

    /// Runs the session: every endpoint stepped in lockstep, in role order,
    /// over an in-memory channel per ordered pair of roles, with the
    /// compiled monitor and the reference [`TraceMonitor`] both observing
    /// every communication.
    ///
    /// # Errors
    ///
    /// Fails if some participant of the protocol has no registered
    /// implementation, or if the protocol has no compiled monitor (one
    /// without participants has none).
    ///
    /// # Panics
    ///
    /// Panics if an external action panics, or if the two monitors disagree.
    pub fn run(&self) -> Result<SessionReport> {
        let roles = self.protocol.roles();
        if let Some(role) = roles.iter().find(|role| !self.endpoints.contains_key(role)) {
            return Err(RuntimeError::UnknownPeer { role: role.clone() });
        }
        let global = self.protocol.global();
        let monitor = CompiledMonitor::for_global(global).map_err(|e| {
            RuntimeError::Process(ProcError::Stuck {
                context: format!("protocol `{}` has no monitor: {e}", self.protocol.name()),
            })
        })?;
        let mut network = InMemoryNetwork::new(roles);
        let tasks = self
            .endpoints
            .iter()
            .map(|(role, (process, externals))| {
                let transport = network
                    .take_endpoint(role)
                    .ok_or_else(|| RuntimeError::UnknownPeer { role: role.clone() })?;
                // A decoy's certificate types it, not the projection.
                let task = EndpointTask::new(
                    process.proc().clone(),
                    role.clone(),
                    externals.clone(),
                    self.options.clone(),
                )
                .typed(process.local_type().clone());
                Ok((task, transport))
            })
            .collect::<Result<_>>()?;
        let (report, _) = Lockstep::new(monitor)
            .shadow(TraceMonitor::new(global)?)
            .run(tasks);
        Ok(report)
    }
}

/// The outcome of a session run.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Per-endpoint reports (trace with values, final status).
    pub endpoints: BTreeMap<Role, EndpointReport>,
    /// The global interleaving observed by the monitor (erased actions).
    pub global_trace: Trace,
    /// Whether every observed action was allowed by the protocol.
    pub compliant: bool,
    /// Whether the protocol ran to completion.
    pub complete: bool,
    /// Every observed violation, with its position in the observation
    /// stream.
    pub violations: Vec<MonitorViolation>,
}

impl SessionReport {
    /// Returns `true` if every endpoint finished and the observed trace is
    /// compliant and complete.
    pub fn all_finished_and_compliant(&self) -> bool {
        self.compliant
            && self.complete
            && self.endpoints.values().all(|r| r.status.is_finished())
    }

    /// Total number of messages exchanged (sends observed by the monitor).
    pub fn messages_exchanged(&self) -> usize {
        self.global_trace.iter().filter(|a| a.is_send()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zooid_dsl::builder::{self, BranchAlt};
    use zooid_mpst::global::GlobalType;
    use zooid_mpst::Sort;
    use zooid_proc::Expr;

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    fn ring_protocol() -> Protocol {
        let g = GlobalType::msg1(
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
        );
        Protocol::new("ring", g).unwrap()
    }

    fn forwarder(from: &str, to: &str) -> zooid_dsl::WtProc {
        builder::branch(
            r(from),
            vec![BranchAlt::new(
                "l",
                Sort::Nat,
                "x",
                builder::send(r(to), "l", Sort::Nat, Expr::add(Expr::var("x"), Expr::lit(1u64)), builder::finish())
                    .unwrap(),
            )],
        )
        .unwrap()
    }

    #[test]
    fn the_ring_session_runs_compliantly_end_to_end() {
        let protocol = ring_protocol();
        let alice = builder::send(
            r("Bob"),
            "l",
            Sort::Nat,
            Expr::lit(1u64),
            builder::recv1(r("Carol"), "l", Sort::Nat, "y", builder::finish()).unwrap(),
        )
        .unwrap();
        let bob = forwarder("Alice", "Carol");
        let carol = forwarder("Bob", "Alice");

        let ext = Externals::new();
        let mut harness = SessionHarness::new(protocol.clone());
        harness
            .add_endpoint(protocol.implement(&r("Alice"), alice, &ext).unwrap(), ext.clone())
            .unwrap();
        harness
            .add_endpoint(protocol.implement(&r("Bob"), bob, &ext).unwrap(), ext.clone())
            .unwrap();
        harness
            .add_endpoint(protocol.implement(&r("Carol"), carol, &ext).unwrap(), ext.clone())
            .unwrap();

        let report = harness.run().unwrap();
        assert!(report.all_finished_and_compliant(), "{:?}", report.violations);
        assert_eq!(report.messages_exchanged(), 3);
        assert_eq!(report.global_trace.len(), 6);
        // Alice eventually receives 1 + 1 + 1 = 3.
        let alice_report = &report.endpoints[&r("Alice")];
        assert_eq!(
            alice_report.actions.last().unwrap().value,
            zooid_proc::Value::Nat(3)
        );
    }

    #[test]
    fn missing_endpoints_are_reported() {
        let protocol = ring_protocol();
        let harness = SessionHarness::new(protocol);
        assert!(matches!(
            harness.run(),
            Err(RuntimeError::UnknownPeer { .. })
        ));
    }

    #[test]
    fn duplicate_roles_and_foreign_processes_are_rejected() {
        let protocol = ring_protocol();
        let other = Protocol::new(
            "other",
            GlobalType::msg1(r("Alice"), r("Bob"), "l", Sort::Nat, GlobalType::End),
        )
        .unwrap();
        let ext = Externals::new();
        let alice = builder::send(
            r("Bob"),
            "l",
            Sort::Nat,
            Expr::lit(1u64),
            builder::recv1(r("Carol"), "l", Sort::Nat, "y", builder::finish()).unwrap(),
        )
        .unwrap();
        let certified = protocol.implement(&r("Alice"), alice, &ext).unwrap();

        let mut harness = SessionHarness::new(protocol);
        harness.add_endpoint(certified.clone(), ext.clone()).unwrap();
        assert!(harness.add_endpoint(certified.clone(), ext.clone()).is_err());

        let mut foreign_harness = SessionHarness::new(other);
        assert!(foreign_harness.add_endpoint(certified, ext).is_err());
    }
}
