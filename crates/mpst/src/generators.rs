//! Protocol generators: the paper's named case-study protocols and scalable
//! families used by the test-suite and the benchmark harness (the case
//! studies are the paper's §5.2; the families scale them up by role count).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::label::Label;
use crate::common::role::Role;
use crate::common::sort::Sort;
use crate::global::syntax::GlobalType;

/// The ring protocol of §2.3: `Alice -> Bob -> Carol -> Alice`, one `nat`
/// message each, then `end`.
pub fn ring3() -> GlobalType {
    ring(&["Alice", "Bob", "Carol"])
}

/// A single-round ring over the given roles: each role forwards one `nat`
/// message to the next, and the last one closes the ring back to the first.
///
/// # Panics
///
/// Panics if fewer than two roles are given.
pub fn ring(names: &[&str]) -> GlobalType {
    assert!(names.len() >= 2, "a ring needs at least two roles");
    let roles: Vec<Role> = names.iter().map(Role::new).collect();
    let mut g = GlobalType::msg1(
        roles[roles.len() - 1].clone(),
        roles[0].clone(),
        "l",
        Sort::Nat,
        GlobalType::End,
    );
    for i in (0..roles.len() - 1).rev() {
        g = GlobalType::msg1(roles[i].clone(), roles[i + 1].clone(), "l", Sort::Nat, g);
    }
    g
}

/// A single-round ring over `n` generated roles `w0 ... w{n-1}`.
pub fn ring_n(n: usize) -> GlobalType {
    let names: Vec<String> = (0..n).map(|i| format!("w{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    ring(&refs)
}

/// The recursive pipeline of §5.1:
/// `mu X. Alice -> Bob : l(nat). Bob -> Carol : l(nat). X`.
pub fn pipeline() -> GlobalType {
    pipeline_named(&["Alice", "Bob", "Carol"])
}

/// A recursive pipeline over the given roles: each round, every role forwards
/// one `nat` message to the next one, forever.
///
/// # Panics
///
/// Panics if fewer than two roles are given.
pub fn pipeline_named(names: &[&str]) -> GlobalType {
    assert!(names.len() >= 2, "a pipeline needs at least two roles");
    let roles: Vec<Role> = names.iter().map(Role::new).collect();
    let mut g = GlobalType::var(0);
    for i in (0..roles.len() - 1).rev() {
        g = GlobalType::msg1(roles[i].clone(), roles[i + 1].clone(), "l", Sort::Nat, g);
    }
    GlobalType::rec(g)
}

/// A recursive pipeline over `n` generated roles `w0 ... w{n-1}` (experiment
/// family `chain(n)`).
pub fn chain_n(n: usize) -> GlobalType {
    let names: Vec<String> = (0..n).map(|i| format!("w{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    pipeline_named(&refs)
}

/// The ping-pong protocol of §5.1:
/// `mu X. Alice -> Bob : { l1(unit). end ; l2(nat). Bob -> Alice : l3(nat). X }`.
pub fn ping_pong() -> GlobalType {
    GlobalType::rec(GlobalType::msg(
        Role::new("Alice"),
        Role::new("Bob"),
        vec![
            (Label::new("l1"), Sort::Unit, GlobalType::End),
            (
                Label::new("l2"),
                Sort::Nat,
                GlobalType::msg1(
                    Role::new("Bob"),
                    Role::new("Alice"),
                    "l3",
                    Sort::Nat,
                    GlobalType::var(0),
                ),
            ),
        ],
    ))
}

/// The two-buyer protocol of §5.2 / Figure 10.
pub fn two_buyer() -> GlobalType {
    let a = Role::new("A");
    let b = Role::new("B");
    let s = Role::new("S");
    let b_chooses = GlobalType::msg(
        b.clone(),
        s.clone(),
        vec![
            (
                Label::new("Accept"),
                Sort::Nat,
                GlobalType::msg1(s.clone(), b.clone(), "Date", Sort::Nat, GlobalType::End),
            ),
            (Label::new("Reject"), Sort::Unit, GlobalType::End),
        ],
    );
    GlobalType::msg1(
        a.clone(),
        s.clone(),
        "ItemId",
        Sort::Nat,
        GlobalType::msg1(
            s.clone(),
            a.clone(),
            "Quote",
            Sort::Nat,
            GlobalType::msg1(
                s,
                b.clone(),
                "Quote",
                Sort::Nat,
                GlobalType::msg1(a, b, "Propose", Sort::Nat, b_chooses),
            ),
        ),
    )
}

/// A fan-out protocol: a hub sends one `nat` message to each of `n` workers
/// in turn, then every worker acknowledges back in the same order.
pub fn fanout_n(n: usize) -> GlobalType {
    assert!(n >= 1, "fan-out needs at least one worker");
    let hub = Role::new("hub");
    let workers: Vec<Role> = (0..n).map(|i| Role::new(format!("w{i}"))).collect();
    let mut g = GlobalType::End;
    for w in workers.iter().rev() {
        g = GlobalType::msg1(w.clone(), hub.clone(), "ack", Sort::Unit, g);
    }
    for w in workers.iter().rev() {
        g = GlobalType::msg1(hub.clone(), w.clone(), "task", Sort::Nat, g);
    }
    g
}

/// A two-party protocol with nested binary choices of the given depth: at
/// each level `p` chooses between `left` and `right` before continuing. The
/// resulting type has `2^depth` leaves, which stresses projection and the
/// trace-set enumeration.
pub fn branching(depth: usize) -> GlobalType {
    fn go(depth: usize) -> GlobalType {
        if depth == 0 {
            return GlobalType::msg1(Role::new("q"), Role::new("p"), "done", Sort::Unit, GlobalType::End);
        }
        GlobalType::msg(
            Role::new("p"),
            Role::new("q"),
            vec![
                (Label::new("left"), Sort::Nat, go(depth - 1)),
                (Label::new("right"), Sort::Bool, go(depth - 1)),
            ],
        )
    }
    go(depth)
}

/// Parameters for the random protocol generator.
#[derive(Debug, Clone)]
pub struct RandomProtocol {
    /// Number of distinct roles to draw senders/receivers from.
    pub roles: usize,
    /// Maximum nesting depth of messages.
    pub depth: usize,
    /// Maximum number of branches of a choice.
    pub max_branches: usize,
    /// Probability (0..=100) that a subterm at non-zero depth recurses back
    /// to an enclosing binder rather than terminating.
    pub loop_back_percent: u32,
}

impl Default for RandomProtocol {
    fn default() -> Self {
        RandomProtocol {
            roles: 3,
            depth: 4,
            max_branches: 2,
            loop_back_percent: 25,
        }
    }
}

/// Generates a pseudo-random well-formed global type from a seed.
///
/// The generated types are always guarded and closed, use distinct labels
/// inside every choice and never make a role talk to itself; they are *not*
/// guaranteed to be projectable, which is exactly what the property-based
/// tests need (projectability is the hypothesis they filter on).
pub fn random_global(seed: u64, params: &RandomProtocol) -> GlobalType {
    let mut rng = StdRng::seed_from_u64(seed);
    let roles: Vec<Role> = (0..params.roles.max(2))
        .map(|i| Role::new(format!("r{i}")))
        .collect();
    let g = gen_rec(&mut rng, params, &roles, params.depth, 0);
    // The outermost generated binder may be useless (no loop back); wrapping
    // happens inside gen_rec, so the result is closed by construction.
    debug_assert!(g.well_formed().is_ok(), "generator produced {g}");
    g
}

fn gen_rec(
    rng: &mut StdRng,
    params: &RandomProtocol,
    roles: &[Role],
    depth: usize,
    binders: u32,
) -> GlobalType {
    // Decide whether to introduce a recursion binder at this level.
    if depth > 0 && depth == params.depth && rng.gen_bool(0.5) {
        let body = gen_msg(rng, params, roles, depth, binders + 1);
        // Guardedness holds because gen_msg always produces a message.
        return GlobalType::rec(body);
    }
    gen_msg(rng, params, roles, depth, binders)
}

fn gen_msg(
    rng: &mut StdRng,
    params: &RandomProtocol,
    roles: &[Role],
    depth: usize,
    binders: u32,
) -> GlobalType {
    if depth == 0 {
        return GlobalType::End;
    }
    let from_idx = rng.gen_range(0..roles.len());
    let mut to_idx = rng.gen_range(0..roles.len());
    if to_idx == from_idx {
        to_idx = (to_idx + 1) % roles.len();
    }
    let n_branches = rng.gen_range(1..=params.max_branches.max(1));
    let sorts = [Sort::Nat, Sort::Int, Sort::Bool, Sort::Unit];
    let branches = (0..n_branches)
        .map(|i| {
            let cont = if binders > 0
                && depth > 1
                && rng.gen_range(0..100) < params.loop_back_percent
            {
                GlobalType::var(rng.gen_range(0..binders))
            } else {
                gen_msg(rng, params, roles, depth - 1, binders)
            };
            (
                Label::new(format!("l{i}")),
                sorts[rng.gen_range(0..sorts.len())].clone(),
                cont,
            )
        })
        .collect::<Vec<_>>();
    GlobalType::msg(roles[from_idx].clone(), roles[to_idx].clone(), branches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::iproject::project_all;

    #[test]
    fn named_protocols_are_well_formed() {
        for (name, g) in [
            ("ring3", ring3()),
            ("pipeline", pipeline()),
            ("ping_pong", ping_pong()),
            ("two_buyer", two_buyer()),
        ] {
            assert!(g.well_formed().is_ok(), "{name} ill-formed");
        }
    }

    #[test]
    fn named_protocols_are_projectable() {
        for (name, g) in [
            ("ring3", ring3()),
            ("pipeline", pipeline()),
            ("ping_pong", ping_pong()),
            ("two_buyer", two_buyer()),
        ] {
            assert!(project_all(&g).is_ok(), "{name} not projectable");
        }
    }

    #[test]
    fn ring_has_one_exchange_per_role() {
        let g = ring_n(5);
        assert_eq!(g.participants().len(), 5);
        assert_eq!(g.size(), 6); // five messages plus end
    }

    #[test]
    fn chain_is_recursive_and_scales() {
        let g = chain_n(4);
        assert_eq!(g.participants().len(), 4);
        assert!(matches!(g, GlobalType::Rec(_)));
        assert!(project_all(&g).is_ok());
    }

    #[test]
    fn fanout_involves_hub_and_workers() {
        let g = fanout_n(3);
        assert_eq!(g.participants().len(), 4);
        assert!(project_all(&g).is_ok());
    }

    #[test]
    fn branching_grows_exponentially() {
        assert!(branching(3).size() > branching(2).size() * 2 - 2);
        assert!(project_all(&branching(3)).is_ok());
    }

    #[test]
    fn ring_rejects_degenerate_sizes() {
        let result = std::panic::catch_unwind(|| ring_n(1));
        assert!(result.is_err());
    }

    #[test]
    fn random_protocols_are_well_formed_and_deterministic() {
        let params = RandomProtocol::default();
        for seed in 0..50 {
            let g1 = random_global(seed, &params);
            let g2 = random_global(seed, &params);
            assert_eq!(g1, g2, "generator must be deterministic per seed");
            assert!(g1.well_formed().is_ok(), "seed {seed} produced {g1}");
        }
    }

    #[test]
    fn random_protocols_exercise_recursion() {
        let params = RandomProtocol {
            roles: 3,
            depth: 5,
            max_branches: 2,
            loop_back_percent: 60,
        };
        let any_recursive = (0..50).any(|seed| {
            matches!(random_global(seed, &params), GlobalType::Rec(_))
        });
        assert!(any_recursive, "expected at least one recursive protocol");
    }
}
