//! Executable checks of the paper's theorems (§3 for the metatheory of
//! projection and traces, §4 for processes), over the named case-study
//! protocols and a randomised family of well-formed global types.
//!
//! * Theorem 3.6 — unravelling preserves projections;
//! * Theorems 3.16 / 3.17 — step soundness / completeness;
//! * Theorem 3.21 — trace equivalence (bounded);
//! * Theorem 4.5 — type preservation for processes;
//! * Theorem 4.7 — process traces are global traces.

use proptest::prelude::*;

use zooid::mpst::generators::{self, RandomProtocol};
use zooid::mpst::global::GlobalType;
use zooid::mpst::projection::{project_all, unravelling_preserves_all_projections};
use zooid::mpst::trace_equiv::{
    check_step_completeness, check_step_soundness, check_trace_equivalence,
};
use zooid::mpst::{Role, Sort};
use zooid::proc::preservation::{check_against_projection, check_type_preservation};
use zooid::proc::{Expr, Externals, Proc, RecvAlt};

fn named_protocols() -> Vec<(&'static str, GlobalType)> {
    vec![
        ("ring3", generators::ring3()),
        ("pipeline", generators::pipeline()),
        ("ping_pong", generators::ping_pong()),
        ("two_buyer", generators::two_buyer()),
        ("fanout4", generators::fanout_n(4)),
        ("branching3", generators::branching(3)),
        ("chain4", generators::chain_n(4)),
    ]
}

#[test]
fn theorem_3_6_holds_for_every_named_protocol() {
    for (name, g) in named_protocols() {
        assert!(
            unravelling_preserves_all_projections(&g).unwrap(),
            "theorem 3.6 failed for {name}"
        );
    }
}

#[test]
fn theorems_3_16_and_3_17_hold_for_every_named_protocol() {
    for (name, g) in named_protocols() {
        let soundness = check_step_soundness(&g, 5).unwrap();
        assert!(soundness.holds, "soundness failed for {name}: {:?}", soundness.counterexample);
        let completeness = check_step_completeness(&g, 5).unwrap();
        assert!(
            completeness.holds,
            "completeness failed for {name}: {:?}",
            completeness.counterexample
        );
    }
}

#[test]
fn theorem_3_21_holds_for_every_named_protocol() {
    for (name, g) in named_protocols() {
        let depth = if name == "branching3" || name == "fanout4" { 4 } else { 6 };
        let report = check_trace_equivalence(&g, depth).unwrap();
        assert!(
            report.holds,
            "trace equivalence failed for {name}: {:?}",
            report.counterexample
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 3.6 on randomly generated protocols (whenever the inductive
    /// projection is defined, which is the theorem's hypothesis).
    #[test]
    fn theorem_3_6_holds_for_random_protocols(seed in any::<u64>()) {
        let g = generators::random_global(seed, &RandomProtocol::default());
        if project_all(&g).is_ok() {
            prop_assert!(unravelling_preserves_all_projections(&g).unwrap());
        }
    }

    /// Step soundness, completeness and bounded trace equivalence on random
    /// projectable protocols.
    #[test]
    fn step_correspondence_holds_for_random_protocols(seed in any::<u64>()) {
        let params = RandomProtocol { roles: 3, depth: 3, max_branches: 2, loop_back_percent: 20 };
        let g = generators::random_global(seed, &params);
        if project_all(&g).is_ok() {
            let s = check_step_soundness(&g, 4).unwrap();
            prop_assert!(s.holds, "soundness: {:?}", s.counterexample);
            let c = check_step_completeness(&g, 4).unwrap();
            prop_assert!(c.holds, "completeness: {:?}", c.counterexample);
            let t = check_trace_equivalence(&g, 4).unwrap();
            prop_assert!(t.holds, "trace equivalence: {:?}", t.counterexample);
        }
    }
}

/// Bob, the ping-pong server (the §5.1 case study used for the process-layer
/// theorems).
fn ping_pong_bob() -> Proc {
    Proc::loop_(Proc::recv(
        Role::new("Alice"),
        vec![
            RecvAlt::new("l1", Sort::Unit, "_x", Proc::Finish),
            RecvAlt::new(
                "l2",
                Sort::Nat,
                "x",
                Proc::send(
                    Role::new("Alice"),
                    "l3",
                    Expr::add(Expr::var("x"), Expr::lit(1u64)),
                    Proc::Jump(0),
                ),
            ),
        ],
    ))
}

/// The two-buyer seller written directly as a process.
fn two_buyer_seller() -> Proc {
    Proc::recv1(
        Role::new("A"),
        "ItemId",
        Sort::Nat,
        "item",
        Proc::send(
            Role::new("A"),
            "Quote",
            Expr::lit(300u64),
            Proc::send(
                Role::new("B"),
                "Quote",
                Expr::lit(300u64),
                Proc::recv(
                    Role::new("B"),
                    vec![
                        RecvAlt::new(
                            "Accept",
                            Sort::Nat,
                            "share",
                            Proc::send(Role::new("B"), "Date", Expr::lit(7u64), Proc::Finish),
                        ),
                        RecvAlt::new("Reject", Sort::Unit, "_u", Proc::Finish),
                    ],
                ),
            ),
        ),
    )
}

#[test]
fn theorem_4_5_type_preservation_for_case_study_processes() {
    let ext = Externals::new();
    let bob_lt =
        zooid::mpst::projection::project(&generators::ping_pong(), &Role::new("Bob")).unwrap();
    let report = check_type_preservation(&ping_pong_bob(), &bob_lt, &ext, &Role::new("Bob"), 8)
        .unwrap();
    assert!(report.holds, "{:?}", report.counterexample);

    let seller_lt =
        zooid::mpst::projection::project(&generators::two_buyer(), &Role::new("S")).unwrap();
    let report =
        check_type_preservation(&two_buyer_seller(), &seller_lt, &ext, &Role::new("S"), 8).unwrap();
    assert!(report.holds, "{:?}", report.counterexample);
}

#[test]
fn theorem_4_7_process_traces_are_global_traces() {
    let ext = Externals::new();
    let report = check_against_projection(
        &ping_pong_bob(),
        &Role::new("Bob"),
        &generators::ping_pong(),
        &ext,
        3,
    )
    .unwrap();
    assert!(report.holds, "{:?}", report.counterexample);

    let report = check_against_projection(
        &two_buyer_seller(),
        &Role::new("S"),
        &generators::two_buyer(),
        &ext,
        4,
    )
    .unwrap();
    assert!(report.holds, "{:?}", report.counterexample);
}

#[test]
fn the_theorem_checkers_reject_broken_implementations() {
    // A "Bob" that replies with a boolean: the hypotheses of Theorems 4.5 and
    // 4.7 (well-typedness) fail, so the checkers report an error up front.
    let bad_bob = Proc::loop_(Proc::recv(
        Role::new("Alice"),
        vec![
            RecvAlt::new("l1", Sort::Unit, "_x", Proc::Finish),
            RecvAlt::new(
                "l2",
                Sort::Nat,
                "x",
                Proc::send(Role::new("Alice"), "l3", Expr::lit(false), Proc::Jump(0)),
            ),
        ],
    ));
    let ext = Externals::new();
    assert!(check_against_projection(
        &bad_bob,
        &Role::new("Bob"),
        &generators::ping_pong(),
        &ext,
        3
    )
    .is_err());
}
