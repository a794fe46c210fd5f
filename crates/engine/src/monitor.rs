//! Online protocol-compliance monitoring against compiled transition
//! tables.
//!
//! A [`CompiledMonitor`] checks observed actions against the dense per-role
//! transition tables of a [`CompiledSystem`] ([`zooid_cfsm::MonitorCursor`]):
//! each observation resolves its roles, label and sort to interned ids once
//! and then compares only `u32`s — O(1) per action, no boxed-tree replay.
//! Compiling the system is amortised across every session of a protocol,
//! and the columnar batch feeds it actions its programs pre-interned, so
//! serving never hashes a name. A disallowed action is recorded as a
//! structured [`MonitorViolation`] and leaves the monitor's state unchanged.
//!
//! The reference monitor, which replays the global type's LTS directly
//! (Definition 3.13), is `zooid-runtime`'s `TraceMonitor`; the differential
//! suites check the two accept and reject identically.

use std::fmt;
use std::sync::Arc;

use zooid_cfsm::{CompiledSystem, InternedAction, MonitorCursor};
use zooid_mpst::global::GlobalType;
use zooid_mpst::{Action, Trace};

/// One observed action that the protocol does not allow, as recorded by a
/// monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorViolation {
    /// The offending action.
    pub action: Action,
    /// Zero-based index of the action in the full observation stream
    /// (compliant and violating actions both advance the position).
    pub position: usize,
    /// Length of the compliant trace accepted so far when the violation was
    /// observed.
    pub trace_len: usize,
}

impl fmt::Display for MonitorViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "action {} is not allowed by the protocol at observation {} (after {} compliant actions)",
            self.action, self.position, self.trace_len
        )
    }
}

/// An online monitor checking observed actions against the compiled per-role
/// transition tables of a [`CompiledSystem`].
///
/// Behaviourally identical to the runtime's reference `TraceMonitor` on
/// projectable protocols (checked by the differential suites), but each
/// observation costs one
/// interned-id lookup per component plus a scan of the subject's (tiny)
/// out-transition list — instead of replaying the boxed global LTS. The
/// compiled system is shared (`Arc`), so a server hosting thousands of
/// sessions of one protocol compiles it exactly once.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use zooid_cfsm::System;
/// use zooid_mpst::{generators, Action, Label, Role, Sort};
/// use zooid_engine::monitor::CompiledMonitor;
///
/// let g = generators::ring_n(3);
/// let compiled = Arc::new(System::from_global(&g).unwrap().compile());
/// let mut monitor = CompiledMonitor::new(compiled);
/// let send = Action::send(Role::new("w0"), Role::new("w1"), Label::new("l"), Sort::Nat);
/// assert!(monitor.observe(&send));
/// assert!(monitor.is_compliant());
/// ```
#[derive(Debug, Clone)]
pub struct CompiledMonitor {
    system: Arc<CompiledSystem>,
    cursor: MonitorCursor,
    trace: Trace,
    /// Number of compliant actions accepted so far. Tracked separately from
    /// `trace` so switching trace recording off does not change the
    /// `trace_len` recorded in violations.
    accepted: usize,
    record_trace: bool,
    violations: Vec<MonitorViolation>,
    observed: usize,
}

impl CompiledMonitor {
    /// Creates a monitor over an already-compiled system.
    pub fn new(system: Arc<CompiledSystem>) -> Self {
        let cursor = system.monitor_cursor();
        CompiledMonitor {
            system,
            cursor,
            trace: Trace::empty(),
            accepted: 0,
            record_trace: true,
            violations: Vec::new(),
            observed: 0,
        }
    }

    /// Rebuilds a monitor from previously extracted state: the cursor, the
    /// compliant trace, the accepted/observed counters and the violations
    /// recorded so far. This is how a session demoted out of the columnar
    /// batch executor hands its monitoring state to a per-session monitor
    /// without losing a single observation.
    pub fn resume(
        system: Arc<CompiledSystem>,
        cursor: MonitorCursor,
        trace: Trace,
        accepted: usize,
        violations: Vec<MonitorViolation>,
        observed: usize,
        record_trace: bool,
    ) -> Self {
        CompiledMonitor {
            system,
            cursor,
            trace,
            accepted,
            record_trace,
            violations,
            observed,
        }
    }

    /// Switches recording of the compliant trace on or off (default: on).
    ///
    /// Fire-and-forget workloads that only need the compliance verdict turn
    /// it off: acceptance checking, violation recording and
    /// [`CompiledMonitor::is_complete`] are unaffected — only
    /// [`CompiledMonitor::trace`] stays empty.
    pub fn set_record_trace(&mut self, record: bool) {
        self.record_trace = record;
    }

    /// Convenience constructor for one-off use: projects the global type,
    /// compiles the system of its machines, and monitors against it.
    ///
    /// # Errors
    ///
    /// Fails if the protocol is ill-formed or not projectable.
    pub fn for_global(global: &GlobalType) -> std::result::Result<Self, zooid_cfsm::CfsmError> {
        let system = zooid_cfsm::System::from_global(global)?;
        Ok(CompiledMonitor::new(Arc::new(system.compile())))
    }

    /// Feeds one observed action to the monitor: returns `true` if the
    /// protocol allows it in the current state; otherwise the action is
    /// recorded as a violation and the state is left unchanged, so later
    /// compliant actions are still recognised (the reference
    /// `TraceMonitor::observe`'s contract).
    pub fn observe(&mut self, action: &Action) -> bool {
        let accepted = self.system.observe(&mut self.cursor, action);
        self.record(|| action.clone(), accepted);
        accepted
    }

    /// Feeds one action that was pre-resolved against this monitor's
    /// [`CompiledSystem`] (see [`zooid_cfsm::CompiledSystem::intern_action`]).
    ///
    /// Behaviourally identical to [`CompiledMonitor::observe`] on the same
    /// action, but the per-observation role/label/sort hash lookups are
    /// gone: the compiled endpoint executor resolves each send/receive site
    /// once and replays the interned form on every visit — this is what
    /// makes the serving data plane's monitoring string-free.
    ///
    /// `action` must build the [`Action`] `interned` denotes; it is only
    /// called when something records it (the compliant trace when trace
    /// recording is on, or a violation), so the fire-and-forget path never
    /// materialises it at all.
    pub fn observe_interned(
        &mut self,
        interned: &InternedAction,
        action: impl FnOnce() -> Action,
    ) -> bool {
        let accepted = self.system.observe_interned(&mut self.cursor, interned);
        self.record(action, accepted);
        accepted
    }

    fn record(&mut self, action: impl FnOnce() -> Action, accepted: bool) {
        let position = self.observed;
        self.observed += 1;
        if accepted {
            self.accepted += 1;
            if self.record_trace {
                self.trace.push(action());
            }
        } else {
            self.violations.push(MonitorViolation {
                action: action(),
                position,
                trace_len: self.accepted,
            });
        }
    }

    /// Moves the recorded compliant trace out of the monitor (used when the
    /// monitor is being torn down into a report — no clone).
    pub fn take_trace(&mut self) -> Trace {
        std::mem::replace(&mut self.trace, Trace::empty())
    }

    /// Moves the recorded violations out of the monitor.
    pub fn take_violations(&mut self) -> Vec<MonitorViolation> {
        std::mem::take(&mut self.violations)
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

    /// Returns `true` if the protocol has run to completion (every machine
    /// in a final state and every channel drained).
    pub fn is_complete(&self) -> bool {
        self.system.is_terminated(&self.cursor)
    }

    /// The monitor's current cursor (the exact product state + channel
    /// contents reached by the compliant observations so far). Incident
    /// capture snapshots this next to the violating action so the
    /// counterexample is replayable offline.
    pub fn cursor(&self) -> &MonitorCursor {
        &self.cursor
    }

    /// How many observed actions the monitor has accepted so far. Together
    /// with [`CompiledMonitor::observed`] this is the resumable position a
    /// checkpoint must carry for [`CompiledMonitor::resume`].
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// How many actions the monitor has observed in total (accepted plus
    /// rejected).
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Whether the compliant trace is being recorded (see
    /// [`CompiledMonitor::set_record_trace`]).
    pub fn records_trace(&self) -> bool {
        self.record_trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zooid_mpst::{Label, Role, Sort};

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    #[test]
    fn compiled_monitor_allows_asynchronous_interleavings() {
        // Both sends may race ahead of the matching receives.
        let g = GlobalType::msg1(
            r("p"),
            r("q"),
            "a",
            Sort::Nat,
            GlobalType::msg1(r("q"), r("p"), "b", Sort::Nat, GlobalType::End),
        );
        let mut monitor = CompiledMonitor::for_global(&g).unwrap();
        let a = Action::send(r("p"), r("q"), Label::new("a"), Sort::Nat);
        let b = Action::send(r("q"), r("p"), Label::new("b"), Sort::Nat);
        assert!(monitor.observe(&a));
        assert!(monitor.observe(&a.dual()));
        assert!(monitor.observe(&b));
        // The receive of `b` is still pending: complete only after it lands.
        assert!(!monitor.is_complete());
        assert!(monitor.observe(&b.dual()));
        assert!(monitor.is_complete());
        assert!(monitor.is_compliant());
    }

    #[test]
    fn violations_render_with_position_information() {
        let v = MonitorViolation {
            action: Action::send(r("p"), r("q"), Label::new("l"), Sort::Nat),
            position: 4,
            trace_len: 3,
        };
        let msg = v.to_string();
        assert!(msg.contains("!pq(l, nat)"), "{msg}");
        assert!(msg.contains("observation 4"), "{msg}");
        assert!(msg.contains("3 compliant actions"), "{msg}");
    }
}
