//! Environment projection and one-shot projection
//! (Definitions 3.10 and 3.11, `Projection/CProject.v` and `Projection.v`).

use crate::error::Result;
use crate::global::prefix::GlobalPrefix;
use crate::global::tree::GlobalTree;
use crate::local::semantics::{Configuration, LocalEnv};
use crate::projection::cproject::{cproject, is_prefix_cprojection};
use crate::projection::qproject::qproject;

/// Computes the environment projection of a global tree: the local
/// environment mapping every participant of the protocol to its coinductive
/// projection (Definition 3.10).
///
/// # Errors
///
/// Fails if the tree is not projectable onto one of its participants.
pub fn eproject(tree: &GlobalTree) -> Result<LocalEnv> {
    let mut env = LocalEnv::new();
    for role in tree.participants() {
        let local = cproject(tree, &role)?;
        env.insert(role, local);
    }
    Ok(env)
}

/// Computes the one-shot projection of a global tree: the initial
/// configuration `(E, ε)` whose environment is the environment projection and
/// whose queues are empty (Definition 3.11 applied to the initial state).
///
/// # Errors
///
/// Fails if the tree is not projectable onto one of its participants.
pub fn one_shot_projection(tree: &GlobalTree) -> Result<Configuration> {
    Ok(Configuration::initial(eproject(tree)?))
}

/// Checks the one-shot projection relation `Gc ↾↾ (E, Q)` between an
/// execution prefix of `tree` and a configuration:
///
/// * every participant's current behaviour in `config.env` is a coinductive
///   projection of the prefix (Definition 3.10 lifted to prefixes), and
/// * the queue contents of `config.queues` are exactly the in-flight messages
///   of the prefix (Definition 3.8).
///
/// This is the relation preserved by the step soundness and completeness
/// theorems (Theorems 3.16 and 3.17); the checkers in
/// [`trace_equiv`](crate::trace_equiv) use it after every step.
pub fn one_shot_projection_holds(
    tree: &GlobalTree,
    prefix: &GlobalPrefix,
    config: &Configuration,
) -> bool {
    let queues_match = match qproject(prefix) {
        Ok(q) => q == config.queues,
        Err(_) => false,
    };
    if !queues_match {
        return false;
    }
    config.env.iter().all(|(role, endpoint)| {
        is_prefix_cprojection(tree, prefix, role, endpoint.tree(), endpoint.current())
    })
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
    use crate::local::semantics::local_step;
    use crate::Role;

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
    fn eproject_covers_every_participant() {
        let t = unravel_global(&ring()).unwrap();
        let env = eproject(&t).unwrap();
        assert_eq!(env.roles().len(), 3);
        assert!(env.get(&r("Alice")).is_some());
    }

    #[test]
    fn initial_one_shot_projection_holds() {
        let t = unravel_global(&ring()).unwrap();
        let config = one_shot_projection(&t).unwrap();
        assert!(one_shot_projection_holds(
            &t,
            &GlobalPrefix::initial(&t),
            &config
        ));
    }

    #[test]
    fn projection_is_preserved_along_matching_steps() {
        // Example 3.12 -style check: after Alice's send happens on both
        // sides, the one-shot projection still holds; after mismatched steps
        // it does not.
        let t = unravel_global(&ring()).unwrap();
        let config = one_shot_projection(&t).unwrap();
        let prefix = GlobalPrefix::initial(&t);
        let send = Action::send(r("Alice"), r("Bob"), Label::new("l"), Sort::Nat);

        let prefix2 = global_step(&t, &prefix, &send).unwrap();
        let config2 = local_step(&config, &send).unwrap();
        assert!(one_shot_projection_holds(&t, &prefix2, &config2));

        // The new global state no longer corresponds to the *initial*
        // environment (queues differ), nor the old global state to the new
        // environment.
        assert!(!one_shot_projection_holds(&t, &prefix2, &config));
        assert!(!one_shot_projection_holds(&t, &prefix, &config2));
    }

    #[test]
    fn unprojectable_tree_has_no_environment_projection() {
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
        let t = unravel_global(&g_prime).unwrap();
        assert!(eproject(&t).is_err());
        assert!(one_shot_projection(&t).is_err());
    }
}
