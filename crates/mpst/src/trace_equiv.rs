//! Executable counterparts of the step-correspondence and trace-equivalence
//! theorems (Theorems 3.16, 3.17 and 3.21, `TraceEquiv.v`).
//!
//! The paper proves, for every global tree `Gc` with one-shot projection
//! `(E, Q)`:
//!
//! * **step soundness** (Theorem 3.16) — every step of the global tree can be
//!   matched by the environment, preserving the projection;
//! * **step completeness** (Theorem 3.17) — every step of the environment can
//!   be matched by the global tree, preserving the projection;
//! * **trace equivalence** (Theorem 3.21) — the two transition systems admit
//!   exactly the same traces.
//!
//! In a proof assistant these are once-and-for-all theorems; here they become
//! decision procedures that *verify each instance*: given a protocol, the
//! checkers explore every configuration reachable within a bound and verify
//! the matching-step conditions, and the trace-equivalence checker compares
//! the bounded trace sets of the two semantics. The property-based tests and
//! the benchmark harness run these checkers over both the paper's protocols
//! and randomly generated ones.

use std::collections::{BTreeSet, VecDeque};

use crate::common::arena::NodeId;
use crate::common::intern::FxHashMap;
use crate::common::label::Label;
use crate::common::role::Role;
use crate::common::sort::Sort;
use crate::common::trace::Trace;
use crate::error::Result;
use crate::global::prefix::GlobalPrefix;
use crate::global::semantics::{enabled_global_actions, global_step, global_traces_up_to};
use crate::global::syntax::GlobalType;
use crate::global::tree::GlobalTree;
use crate::global::unravel::unravel_global;
use crate::local::semantics::{
    enabled_local_actions, local_step, local_traces_up_to, Configuration,
};
use crate::projection::eproject::{one_shot_projection, one_shot_projection_holds};

/// The outcome of one of the bounded theorem checkers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Whether the property held on every configuration explored.
    pub holds: bool,
    /// Number of `(global state, local configuration)` pairs explored.
    pub states_explored: usize,
    /// Human-readable description of the first violation found, if any.
    pub counterexample: Option<String>,
}

impl CheckReport {
    fn success(states_explored: usize) -> Self {
        CheckReport {
            holds: true,
            states_explored,
            counterexample: None,
        }
    }

    fn failure(states_explored: usize, counterexample: String) -> Self {
        CheckReport {
            holds: false,
            states_explored,
            counterexample: Some(counterexample),
        }
    }
}

/// Which of the two step-correspondence directions to check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Theorem 3.16: global steps are matched by the environment.
    Soundness,
    /// Theorem 3.17: environment steps are matched by the global tree.
    Completeness,
}

/// Checks Theorem 3.16 (step soundness) for the protocol `global`, exploring
/// every configuration reachable in at most `depth` steps.
///
/// # Errors
///
/// Fails if the protocol is ill-formed or not projectable (the theorem's
/// hypotheses).
pub fn check_step_soundness(global: &GlobalType, depth: usize) -> Result<CheckReport> {
    check_direction(global, depth, Direction::Soundness)
}

/// Checks Theorem 3.17 (step completeness) for the protocol `global`,
/// exploring every configuration reachable in at most `depth` steps.
///
/// # Errors
///
/// Fails if the protocol is ill-formed or not projectable.
pub fn check_step_completeness(global: &GlobalType, depth: usize) -> Result<CheckReport> {
    check_direction(global, depth, Direction::Completeness)
}

/// The identity of a product state `(global prefix, configuration)`, used to
/// key visited-state maps.
///
/// The environment's trees are fixed for the whole run (only the cursor of
/// each endpoint moves), so a configuration is identified by its per-role
/// cursor positions plus the queue contents. The prefix is shared with the
/// worklist through an `Arc` (hashed and compared by content) so keying a
/// state never deep-clones it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ProductKey {
    prefix: std::sync::Arc<GlobalPrefix>,
    cursors: Vec<NodeId>,
    queues: Vec<ChannelKey>,
}

/// One channel of a configuration: sender, receiver, queued messages.
type ChannelKey = (Role, Role, Vec<(Label, Sort)>);

fn product_key(prefix: &std::sync::Arc<GlobalPrefix>, config: &Configuration) -> ProductKey {
    ProductKey {
        prefix: std::sync::Arc::clone(prefix),
        cursors: config.env.iter().map(|(_, ep)| ep.current()).collect(),
        queues: config
            .queues
            .iter()
            .map(|((from, to), msgs)| {
                (from.clone(), to.clone(), msgs.iter().cloned().collect())
            })
            .collect(),
    }
}

/// Visited map for bounded product explorations: state → largest number of
/// remaining steps it has been expanded with. A state is re-expanded only
/// when reached again with *more* remaining depth, which keeps the bounded
/// exploration exhaustive while collapsing the exponentially many
/// interleavings that reach the same state.
struct Visited {
    best: FxHashMap<ProductKey, usize>,
}

impl Visited {
    fn new() -> Self {
        Visited {
            best: FxHashMap::default(),
        }
    }

    /// Records reaching `key` with `remaining` steps left; returns `true` if
    /// the state must be expanded (first visit, or deeper than before).
    fn admit(&mut self, key: ProductKey, remaining: usize) -> bool {
        match self.best.get_mut(&key) {
            Some(prev) if *prev >= remaining => false,
            Some(prev) => {
                *prev = remaining;
                true
            }
            None => {
                self.best.insert(key, remaining);
                true
            }
        }
    }
}

fn check_direction(global: &GlobalType, depth: usize, dir: Direction) -> Result<CheckReport> {
    let tree = unravel_global(global)?;
    let initial_config = one_shot_projection(&tree)?;
    let initial_prefix = std::sync::Arc::new(GlobalPrefix::initial(&tree));
    let mut visited = Visited::new();
    visited.admit(product_key(&initial_prefix, &initial_config), depth);
    let mut queue: VecDeque<(std::sync::Arc<GlobalPrefix>, Configuration, usize)> =
        VecDeque::new();
    queue.push_back((initial_prefix, initial_config, depth));
    let mut explored = 0usize;

    while let Some((prefix, config, remaining)) = queue.pop_front() {
        explored += 1;
        let actions = match dir {
            Direction::Soundness => enabled_global_actions(&tree, &prefix),
            Direction::Completeness => enabled_local_actions(&config),
        };
        for action in actions {
            let gnext = global_step(&tree, &prefix, &action);
            let lnext = local_step(&config, &action);
            match (gnext, lnext) {
                (Some(gp), Some(lc)) => {
                    if !one_shot_projection_holds(&tree, &gp, &lc) {
                        return Ok(CheckReport::failure(
                            explored,
                            format!(
                                "after action {action} the successor states are no longer \
                                 related by the one-shot projection"
                            ),
                        ));
                    }
                    if remaining > 0 {
                        let gp = std::sync::Arc::new(gp);
                        if visited.admit(product_key(&gp, &lc), remaining - 1) {
                            queue.push_back((gp, lc, remaining - 1));
                        }
                    }
                }
                (Some(_), None) => {
                    return Ok(CheckReport::failure(
                        explored,
                        format!(
                            "global action {action} is enabled but the environment cannot \
                             match it"
                        ),
                    ));
                }
                (None, Some(_)) => {
                    return Ok(CheckReport::failure(
                        explored,
                        format!(
                            "environment action {action} is enabled but the global tree \
                             cannot match it"
                        ),
                    ));
                }
                (None, None) => {
                    // The action was enabled on the side we enumerated
                    // from, so at least one of the two must step.
                    return Ok(CheckReport::failure(
                        explored,
                        format!("action {action} was reported enabled but neither side steps"),
                    ));
                }
            }
        }
    }
    Ok(CheckReport::success(explored))
}

/// Checks the bounded version of Theorem 3.21 (trace equivalence): the sets
/// of admissible trace prefixes of length at most `depth` of the global tree
/// and of its one-shot projection coincide.
///
/// Decided *on the fly* by a product construction over the two transition
/// systems instead of materialising the (exponentially large) trace sets:
/// both LTSs are deterministic per action, so the bounded trace sets coincide
/// iff at every product state jointly reachable in fewer than `depth` steps
/// the two sides enable exactly the same actions. The exploration is a
/// worklist search over product states with a visited map, which collapses
/// the interleavings that the trace-set enumeration would enumerate
/// separately — a polynomial graph search in the number of distinct reachable
/// states, with verdicts identical to the set-based checker (kept as
/// [`check_trace_equivalence_exhaustive`] and compared against it by the
/// property tests).
///
/// # Errors
///
/// Fails if the protocol is ill-formed or not projectable.
pub fn check_trace_equivalence(global: &GlobalType, depth: usize) -> Result<CheckReport> {
    let tree = unravel_global(global)?;
    let initial_config = one_shot_projection(&tree)?;
    Ok(product_trace_equivalence(&tree, initial_config, depth))
}

/// The product exploration behind [`check_trace_equivalence`], factored out
/// so the failure branch can be exercised directly (a *correct* projection
/// can never trigger it — that is Theorem 3.21).
fn product_trace_equivalence(
    tree: &GlobalTree,
    initial_config: Configuration,
    depth: usize,
) -> CheckReport {
    let initial_prefix = std::sync::Arc::new(GlobalPrefix::initial(tree));
    let mut visited = Visited::new();
    visited.admit(product_key(&initial_prefix, &initial_config), depth);
    let mut queue: VecDeque<(std::sync::Arc<GlobalPrefix>, Configuration, usize)> =
        VecDeque::new();
    queue.push_back((initial_prefix, initial_config, depth));
    let mut explored = 0usize;

    while let Some((prefix, config, remaining)) = queue.pop_front() {
        explored += 1;
        if remaining == 0 {
            // Actions from this state would extend traces beyond the bound.
            continue;
        }
        let mut global_actions = enabled_global_actions(tree, &prefix);
        let mut local_actions = enabled_local_actions(&config);
        global_actions.sort();
        local_actions.sort();
        if global_actions != local_actions {
            let only_global = global_actions
                .iter()
                .find(|a| !local_actions.contains(a));
            let only_local = local_actions
                .iter()
                .find(|a| !global_actions.contains(a));
            return CheckReport::failure(
                explored,
                format!(
                    "enabled actions differ at a jointly reachable state \
                     ({} steps from the start): only-global {only_global:?}, \
                     only-local {only_local:?}",
                    depth - remaining
                ),
            );
        }
        for action in global_actions {
            let gp = std::sync::Arc::new(
                global_step(tree, &prefix, &action)
                    .expect("action reported enabled by the global LTS"),
            );
            let lc = local_step(&config, &action)
                .expect("action reported enabled by the environment LTS");
            if visited.admit(product_key(&gp, &lc), remaining - 1) {
                queue.push_back((gp, lc, remaining - 1));
            }
        }
    }
    CheckReport::success(explored)
}

/// The seed's set-based trace-equivalence checker: materialises both bounded
/// trace-prefix sets and compares them.
///
/// Exponential in `depth`; kept as the reference implementation that the
/// property tests and the benchmark report compare the on-the-fly
/// [`check_trace_equivalence`] against.
///
/// # Errors
///
/// Fails if the protocol is ill-formed or not projectable.
pub fn check_trace_equivalence_exhaustive(
    global: &GlobalType,
    depth: usize,
) -> Result<CheckReport> {
    let (global_traces, local_traces) = bounded_trace_sets(global, depth)?;
    if global_traces == local_traces {
        Ok(CheckReport::success(global_traces.len()))
    } else {
        let only_global: Vec<_> = global_traces.difference(&local_traces).take(1).collect();
        let only_local: Vec<_> = local_traces.difference(&global_traces).take(1).collect();
        Ok(CheckReport::failure(
            global_traces.len() + local_traces.len(),
            format!(
                "trace sets differ: only-global {only_global:?}, only-local {only_local:?}"
            ),
        ))
    }
}

/// The bounded trace sets of the two semantics: every admissible trace prefix
/// of length at most `depth` of the global tree, and of the initial
/// configuration of its one-shot projection.
///
/// # Errors
///
/// Fails if the protocol is ill-formed or not projectable.
pub fn bounded_trace_sets(
    global: &GlobalType,
    depth: usize,
) -> Result<(BTreeSet<Trace>, BTreeSet<Trace>)> {
    let tree = unravel_global(global)?;
    let config = one_shot_projection(&tree)?;
    Ok((
        global_traces_up_to(&tree, depth),
        local_traces_up_to(&config, depth),
    ))
}

/// Convenience bundle: unravels a protocol and returns the pieces needed to
/// run its two semantics side by side (the global tree, the initial prefix
/// and the initial configuration).
///
/// # Errors
///
/// Fails if the protocol is ill-formed or not projectable.
pub fn protocol_semantics(
    global: &GlobalType,
) -> Result<(GlobalTree, GlobalPrefix, Configuration)> {
    let tree = unravel_global(global)?;
    let config = one_shot_projection(&tree)?;
    let prefix = GlobalPrefix::initial(&tree);
    Ok((tree, prefix, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::label::Label;
    use crate::common::role::Role;
    use crate::common::sort::Sort;

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

    fn two_buyer() -> GlobalType {
        let b_chooses = GlobalType::msg(
            r("B"),
            r("S"),
            vec![
                (
                    Label::new("Accept"),
                    Sort::Nat,
                    GlobalType::msg1(r("S"), r("B"), "Date", Sort::Nat, GlobalType::End),
                ),
                (Label::new("Reject"), Sort::Unit, GlobalType::End),
            ],
        );
        GlobalType::msg1(
            r("A"),
            r("S"),
            "ItemId",
            Sort::Nat,
            GlobalType::msg1(
                r("S"),
                r("A"),
                "Quote",
                Sort::Nat,
                GlobalType::msg1(
                    r("S"),
                    r("B"),
                    "Quote",
                    Sort::Nat,
                    GlobalType::msg1(r("A"), r("B"), "Propose", Sort::Nat, b_chooses),
                ),
            ),
        )
    }

    #[test]
    fn step_soundness_holds_for_the_ring() {
        let report = check_step_soundness(&ring(), 6).unwrap();
        assert!(report.holds, "{:?}", report.counterexample);
        assert!(report.states_explored > 1);
    }

    #[test]
    fn step_completeness_holds_for_the_ring() {
        let report = check_step_completeness(&ring(), 6).unwrap();
        assert!(report.holds, "{:?}", report.counterexample);
    }

    #[test]
    fn trace_equivalence_holds_for_the_ring() {
        let report = check_trace_equivalence(&ring(), 6).unwrap();
        assert!(report.holds, "{:?}", report.counterexample);
    }

    #[test]
    fn theorems_hold_for_the_recursive_ping_pong() {
        for depth in [1, 3, 5] {
            assert!(check_step_soundness(&ping_pong(), depth).unwrap().holds);
            assert!(check_step_completeness(&ping_pong(), depth).unwrap().holds);
            assert!(check_trace_equivalence(&ping_pong(), depth).unwrap().holds);
        }
    }

    #[test]
    fn theorems_hold_for_the_two_buyer_protocol() {
        assert!(check_step_soundness(&two_buyer(), 5).unwrap().holds);
        assert!(check_step_completeness(&two_buyer(), 5).unwrap().holds);
        assert!(check_trace_equivalence(&two_buyer(), 5).unwrap().holds);
    }

    #[test]
    fn trace_sets_grow_with_depth() {
        let (g1, l1) = bounded_trace_sets(&ring(), 2).unwrap();
        let (g2, l2) = bounded_trace_sets(&ring(), 4).unwrap();
        assert!(g1.len() < g2.len());
        assert_eq!(g1, l1);
        assert_eq!(g2, l2);
        assert!(g1.is_subset(&g2));
    }

    #[test]
    fn on_the_fly_checker_agrees_with_the_exhaustive_one() {
        for g in [ring(), ping_pong(), two_buyer()] {
            for depth in [0, 1, 3, 5] {
                let fast = check_trace_equivalence(&g, depth).unwrap();
                let slow = check_trace_equivalence_exhaustive(&g, depth).unwrap();
                assert_eq!(fast.holds, slow.holds, "depth {depth}");
            }
        }
    }

    #[test]
    fn product_exploration_detects_a_wrong_environment() {
        // Theorem 3.21 guarantees the failure branch is unreachable for a
        // *correct* projection, so exercise it directly: pair the ring's
        // global tree with the ping-pong protocol's environment. The enabled
        // sets differ at the very first state, and the report must name a
        // differing action.
        let ring_tree = unravel_global(&ring()).unwrap();
        let pong_tree = unravel_global(&ping_pong()).unwrap();
        let wrong_config = one_shot_projection(&pong_tree).unwrap();
        let report = product_trace_equivalence(&ring_tree, wrong_config, 4);
        assert!(!report.holds);
        let reason = report.counterexample.expect("mismatch must be reported");
        assert!(
            reason.contains("enabled actions differ"),
            "unexpected counterexample: {reason}"
        );

        // And the same exploration with the *right* environment succeeds.
        let right_config = one_shot_projection(&ring_tree).unwrap();
        let report = product_trace_equivalence(&ring_tree, right_config, 6);
        assert!(report.holds, "{:?}", report.counterexample);
        assert!(report.states_explored >= 1);
    }

    #[test]
    fn unprojectable_protocols_are_rejected_by_the_checkers() {
        let g_prime = GlobalType::msg(
            r("Alice"),
            r("Bob"),
            vec![
                (
                    Label::new("l1"),
                    Sort::Nat,
                    GlobalType::msg1(r("Bob"), r("Carol"), "l", Sort::Nat, GlobalType::End),
                ),
                (
                    Label::new("l2"),
                    Sort::Nat,
                    GlobalType::msg1(r("Alice"), r("Carol"), "l", Sort::Nat, GlobalType::End),
                ),
            ],
        );
        assert!(check_step_soundness(&g_prime, 3).is_err());
        assert!(check_trace_equivalence(&g_prime, 3).is_err());
    }

    #[test]
    fn protocol_semantics_bundles_consistent_pieces() {
        let (tree, prefix, config) = protocol_semantics(&ring()).unwrap();
        assert!(one_shot_projection_holds(&tree, &prefix, &config));
    }
}
