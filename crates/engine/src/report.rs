//! What an endpoint execution is configured with and what it reports:
//! [`ExecOptions`] in, an [`EndpointStatus`] and an [`EndpointReport`] out.
//!
//! Every executor shares these types — the columnar batch that serves, and
//! the per-session and tree-walking oracles in `zooid-runtime` — so a
//! differential suite compares their reports field by field.

use zooid_mpst::{Role, Trace};
use zooid_proc::{erase, ValueAction};

/// Options controlling one endpoint execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOptions {
    /// Stop (with [`EndpointStatus::StepLimitReached`]) after this many
    /// visible communications. `None` runs until the process finishes or
    /// fails — which never happens for protocols that loop forever, so
    /// benchmarks and examples of recursive protocols set a limit.
    pub max_steps: Option<usize>,
    /// Whether to record every visible communication in the endpoint's
    /// [`EndpointReport::actions`] (default: `true`). Fire-and-forget server
    /// sessions that only need the monitor verdict turn this off: the
    /// per-action `Vec` push (and the payload clone it keeps alive) is pure
    /// overhead for them. Observers (and therefore monitors) still see every
    /// action either way, and [`EndpointReport::steps`] counts them. The
    /// server's TCP front door runs every catalog session with this off,
    /// whatever its service asks: its `Done` frame carries counts, never a
    /// trace, and a certified session needs none to be trusted.
    pub record_actions: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            max_steps: None,
            record_actions: true,
        }
    }
}

impl ExecOptions {
    /// Options with a step limit.
    pub fn with_max_steps(max_steps: usize) -> Self {
        ExecOptions {
            max_steps: Some(max_steps),
            ..ExecOptions::default()
        }
    }

    /// Same options with trace recording switched on or off.
    #[must_use]
    pub fn record_actions(mut self, record: bool) -> Self {
        self.record_actions = record;
        self
    }
}

/// How an endpoint execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndpointStatus {
    /// The process reached `finish`.
    Finished,
    /// The configured step limit was reached before the process finished.
    StepLimitReached,
    /// The scheduler gave up on the endpoint: it was still waiting for a
    /// message, but no peer of its session could make progress either (only
    /// produced by schedulers that step without blocking, such as the
    /// columnar batch; the runtime's blocking `execute` loop reports a
    /// timeout failure instead).
    Stalled,
    /// The execution failed (transport error, unexpected message, runtime
    /// error in an expression or external action, ...).
    Failed {
        /// Human-readable description of the failure.
        error: String,
    },
}

impl EndpointStatus {
    /// Returns `true` if the endpoint finished its protocol normally.
    pub fn is_finished(&self) -> bool {
        matches!(self, EndpointStatus::Finished)
    }
}

/// What happened during one endpoint execution.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointReport {
    /// The role the endpoint played.
    pub role: Role,
    /// Every visible communication the endpoint performed, with values
    /// (empty when [`ExecOptions::record_actions`] is off).
    pub actions: Vec<ValueAction>,
    /// How many visible communications the endpoint performed, counted
    /// whether or not they were recorded.
    pub steps: usize,
    /// How the execution ended.
    pub status: EndpointStatus,
}

impl EndpointReport {
    /// The endpoint's trace with payload values erased (the trace that the
    /// metatheory — Theorem 4.7 — talks about).
    pub fn erased_trace(&self) -> Trace {
        self.actions.iter().map(erase).collect()
    }

    /// Number of visible communications performed, recorded or not.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Every visible communication the endpoint performed, with values, in
    /// order (empty when [`ExecOptions::record_actions`] is off). Read the
    /// trace through this rather than the field: the representation under
    /// it may change, the accessor stays.
    ///
    /// # Examples
    ///
    /// ```
    /// use zooid_engine::report::{EndpointReport, EndpointStatus};
    /// use zooid_mpst::{Role, Sort};
    /// use zooid_proc::{Value, ValueAction};
    ///
    /// let (alice, bob) = (Role::new("Alice"), Role::new("Bob"));
    /// let hi = ValueAction::send(alice.clone(), bob, "hi".into(), Sort::Nat, Value::Nat(1));
    /// let report = EndpointReport {
    ///     role: alice,
    ///     actions: vec![hi.clone()],
    ///     steps: 1,
    ///     status: EndpointStatus::Finished,
    /// };
    /// assert_eq!(report.actions(), [hi]);
    /// assert_eq!(report.steps(), 1);
    /// ```
    pub fn actions(&self) -> &[ValueAction] {
        &self.actions
    }
}
