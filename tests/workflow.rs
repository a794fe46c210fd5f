//! End-to-end runs of the paper's §5.1 workflow on the §5.2 case studies:
//! specify the global type, project it, implement every participant in the
//! DSL, certify, execute on the session harness with a live monitor, and
//! cross-check deadlock freedom and liveness with the CFSM explorer.

use zooid::cfsm::check_protocol;
use zooid::dsl::builder::{self, BranchAlt, SelectAlt};
use zooid::dsl::{DslError, Protocol, WtProc};
use zooid::mpst::generators;
use zooid::mpst::local::LocalType;
use zooid::mpst::{Role, Sort};
use zooid::proc::{Expr, Externals, Value};
use zooid::runtime::SessionHarness;

fn r(name: &str) -> Role {
    Role::new(name)
}

/// Builds the §2.3 ring endpoints.
fn ring_endpoints(protocol: &Protocol) -> Vec<(Role, WtProc)> {
    let forward = |from: &str, to: &str| {
        builder::branch(
            r(from),
            vec![BranchAlt::new(
                "l",
                Sort::Nat,
                "x",
                builder::send(r(to), "l", Sort::Nat, Expr::var("x"), builder::finish()).unwrap(),
            )],
        )
        .unwrap()
    };
    let alice = builder::send(
        r("Bob"),
        "l",
        Sort::Nat,
        Expr::lit(5u64),
        builder::recv1(r("Carol"), "l", Sort::Nat, "y", builder::finish()).unwrap(),
    )
    .unwrap();
    assert_eq!(protocol.roles().len(), 3);
    vec![
        (r("Alice"), alice),
        (r("Bob"), forward("Alice", "Carol")),
        (r("Carol"), forward("Bob", "Alice")),
    ]
}

#[test]
fn e5_ring_workflow_end_to_end() {
    let protocol = Protocol::new("ring", generators::ring3()).unwrap();
    let projections = protocol.project_all().unwrap();
    assert_eq!(projections.len(), 3);

    let ext = Externals::new();
    let mut harness = SessionHarness::new(protocol.clone());
    for (role, wt) in ring_endpoints(&protocol) {
        let cert = protocol.implement(&role, wt, &ext).unwrap();
        harness.add_endpoint(cert, ext.clone()).unwrap();
    }
    let report = harness.run().unwrap();
    assert!(report.all_finished_and_compliant(), "{:?}", report.violations);
    assert_eq!(report.messages_exchanged(), 3);

    let safety = check_protocol(protocol.global(), 2, 10_000).unwrap();
    assert!(safety.is_safe() && safety.is_live());
    assert_eq!(safety.verdict(), zooid::cfsm::system::Verdict::Safe);
    assert!(safety.first_violation().is_none());
}

#[test]
fn e3_ping_pong_workflow_with_all_client_variants() {
    let protocol = Protocol::new("ping-pong", generators::ping_pong()).unwrap();
    let alice_lt = protocol.get(&r("Alice")).unwrap();
    let ext = Externals::new();

    // Bob, the server.
    let bob = builder::loop_(
        builder::branch(
            r("Alice"),
            vec![
                BranchAlt::new("l1", Sort::Unit, "_q", builder::finish()),
                BranchAlt::new(
                    "l2",
                    Sort::Nat,
                    "x",
                    builder::send(
                        r("Alice"),
                        "l3",
                        Sort::Nat,
                        Expr::add(Expr::var("x"), Expr::lit(2u64)),
                        builder::jump(0),
                    )
                    .unwrap(),
                ),
            ],
        )
        .unwrap(),
    )
    .unwrap();

    // alice0: quit immediately (skip the ping branch).
    let alice0 = builder::loop_(
        builder::select(
            r("Bob"),
            vec![
                SelectAlt::otherwise("l1", Sort::Unit, Expr::unit(), builder::finish()),
                SelectAlt::skip(
                    "l2",
                    Sort::Nat,
                    LocalType::recv1(r("Bob"), "l3", Sort::Nat, LocalType::var(0)),
                ),
            ],
        )
        .unwrap(),
    )
    .unwrap();

    // alice4: ping until the reply reaches 6.
    let inner = builder::select(
        r("Bob"),
        vec![
            SelectAlt::case(
                Expr::ge(Expr::var("x"), Expr::lit(6u64)),
                "l1",
                Sort::Unit,
                Expr::unit(),
                builder::finish(),
            ),
            SelectAlt::otherwise("l2", Sort::Nat, Expr::var("x"), builder::jump(0)),
        ],
    )
    .unwrap();
    let alice4 = builder::select(
        r("Bob"),
        vec![
            SelectAlt::skip("l1", Sort::Unit, LocalType::End),
            SelectAlt::otherwise(
                "l2",
                Sort::Nat,
                Expr::lit(0u64),
                builder::loop_(builder::recv1(r("Bob"), "l3", Sort::Nat, "x", inner).unwrap())
                    .unwrap(),
            ),
        ],
    )
    .unwrap();

    // Both clients certify against the same projection: alice0 syntactically,
    // alice4 up to unravelling.
    assert_eq!(alice0.local_type(), &alice_lt);
    assert_ne!(alice4.local_type(), &alice_lt);
    assert!(zooid::dsl::unravel_eq(alice4.local_type(), &alice_lt));

    for (client_name, client) in [("alice0", alice0), ("alice4", alice4)] {
        let mut harness = SessionHarness::new(protocol.clone());
        harness
            .add_endpoint(protocol.implement(&r("Alice"), client, &ext).unwrap(), ext.clone())
            .unwrap();
        harness
            .add_endpoint(protocol.implement(&r("Bob"), bob.clone(), &ext).unwrap(), ext.clone())
            .unwrap();
        let report = harness.run().unwrap();
        assert!(
            report.all_finished_and_compliant(),
            "{client_name}: {:?}",
            report.violations
        );
    }
}

#[test]
fn e4_two_buyer_workflow_accept_and_reject_paths() {
    let protocol = Protocol::new("two-buyer", generators::two_buyer()).unwrap();
    let ext = Externals::new();

    let buyer_a = |contribution: u64| {
        builder::send(
            r("S"),
            "ItemId",
            Sort::Nat,
            Expr::lit(1u64),
            builder::recv1(
                r("S"),
                "Quote",
                Sort::Nat,
                "quote",
                builder::send(
                    r("B"),
                    "Propose",
                    Sort::Nat,
                    Expr::sub(Expr::var("quote"), Expr::lit(contribution)),
                    builder::finish(),
                )
                .unwrap(),
            )
            .unwrap(),
        )
        .unwrap()
    };
    let buyer_b = builder::recv1(
        r("S"),
        "Quote",
        Sort::Nat,
        "x",
        builder::recv1(
            r("A"),
            "Propose",
            Sort::Nat,
            "y",
            builder::select(
                r("S"),
                vec![
                    SelectAlt::case(
                        Expr::le(Expr::var("y"), Expr::div(Expr::var("x"), Expr::lit(3u64))),
                        "Accept",
                        Sort::Nat,
                        Expr::var("y"),
                        builder::recv1(r("S"), "Date", Sort::Nat, "d", builder::finish()).unwrap(),
                    ),
                    SelectAlt::otherwise("Reject", Sort::Unit, Expr::unit(), builder::finish()),
                ],
            )
            .unwrap(),
        )
        .unwrap(),
    )
    .unwrap();
    let seller = builder::recv1(
        r("A"),
        "ItemId",
        Sort::Nat,
        "item",
        builder::send(
            r("A"),
            "Quote",
            Sort::Nat,
            Expr::lit(300u64),
            builder::send(
                r("B"),
                "Quote",
                Sort::Nat,
                Expr::lit(300u64),
                builder::branch(
                    r("B"),
                    vec![
                        BranchAlt::new(
                            "Accept",
                            Sort::Nat,
                            "share",
                            builder::send(r("B"), "Date", Sort::Nat, Expr::lit(99u64), builder::finish())
                                .unwrap(),
                        ),
                        BranchAlt::new("Reject", Sort::Unit, "_u", builder::finish()),
                    ],
                )
                .unwrap(),
            )
            .unwrap(),
        )
        .unwrap(),
    )
    .unwrap();

    // contribution 250 -> share 50 <= 100: B accepts;
    // contribution 100 -> share 200 > 100: B rejects.
    for (contribution, expected_label) in [(250u64, "Accept"), (100u64, "Reject")] {
        let mut harness = SessionHarness::new(protocol.clone());
        harness
            .add_endpoint(
                protocol.implement(&r("A"), buyer_a(contribution), &ext).unwrap(),
                ext.clone(),
            )
            .unwrap();
        harness
            .add_endpoint(protocol.implement(&r("B"), buyer_b.clone(), &ext).unwrap(), ext.clone())
            .unwrap();
        harness
            .add_endpoint(protocol.implement(&r("S"), seller.clone(), &ext).unwrap(), ext.clone())
            .unwrap();
        let report = harness.run().unwrap();
        assert!(report.compliant && report.complete, "{:?}", report.violations);
        let decision = &report.endpoints[&r("B")].actions[2];
        assert_eq!(decision.label.name(), expected_label, "contribution {contribution}");
    }
}

#[test]
fn e2_pipeline_workflow_with_external_compute() {
    let protocol = Protocol::new("pipeline", generators::pipeline()).unwrap();

    let alice = builder::loop_(
        builder::send(r("Bob"), "l", Sort::Nat, Expr::lit(3u64), builder::jump(0)).unwrap(),
    )
    .unwrap();
    let mut bob_ext = Externals::new();
    bob_ext.register_interact("compute", Sort::Nat, Sort::Nat, |v| {
        Value::Nat(v.as_nat().unwrap() + 100)
    });
    let bob = builder::loop_(
        builder::recv1(
            r("Alice"),
            "l",
            Sort::Nat,
            "x",
            builder::interact(
                "compute",
                Expr::var("x"),
                "res",
                builder::send(r("Carol"), "l", Sort::Nat, Expr::var("res"), builder::jump(0)).unwrap(),
            ),
        )
        .unwrap(),
    )
    .unwrap();
    let carol = builder::loop_(
        builder::recv1(r("Bob"), "l", Sort::Nat, "y", builder::jump(0)).unwrap(),
    )
    .unwrap();

    let ext = Externals::new();
    let mut harness = SessionHarness::new(protocol.clone());
    harness
        .add_endpoint(protocol.implement(&r("Alice"), alice, &ext).unwrap(), ext.clone())
        .unwrap();
    harness
        .add_endpoint(protocol.implement(&r("Bob"), bob, &bob_ext).unwrap(), bob_ext)
        .unwrap();
    harness
        .add_endpoint(protocol.implement(&r("Carol"), carol, &ext).unwrap(), ext.clone())
        .unwrap();
    harness.with_max_steps(20);
    let report = harness.run().unwrap();
    assert!(report.compliant, "{:?}", report.violations);
    // Carol observes Bob's computed values.
    let carol_report = &report.endpoints[&r("Carol")];
    assert!(carol_report
        .actions
        .iter()
        .all(|a| a.value == Value::Nat(103)));
}

#[test]
fn certification_failures_are_precise() {
    let protocol = Protocol::new("ring", generators::ring3()).unwrap();
    let ext = Externals::new();

    // Wrong role: Alice's implementation offered as Bob.
    let alice = builder::send(
        r("Bob"),
        "l",
        Sort::Nat,
        Expr::lit(1u64),
        builder::recv1(r("Carol"), "l", Sort::Nat, "y", builder::finish()).unwrap(),
    )
    .unwrap();
    assert!(matches!(
        protocol.implement(&r("Bob"), alice.clone(), &ext),
        Err(DslError::TypeDoesNotMatchProjection { .. })
    ));

    // Unknown role.
    assert!(matches!(
        protocol.implement(&r("Zoe"), alice, &ext),
        Err(DslError::UnknownRole { .. })
    ));

    // A process using an undeclared external action fails validation.
    let reader = builder::read(
        "oracle",
        "x",
        builder::send(r("Bob"), "l", Sort::Nat, Expr::var("x"), builder::recv1(
            r("Carol"), "l", Sort::Nat, "y", builder::finish()).unwrap()).unwrap(),
    );
    assert!(matches!(
        protocol.implement(&r("Alice"), reader, &ext),
        Err(DslError::Typing(_))
    ));
}
