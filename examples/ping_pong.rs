//! The ping-pong protocol of §5.1 and Appendix B.1, with the `alice4`
//! client: Alice keeps pinging Bob until the reply exceeds a threshold.
//!
//! The client's inferred local type is an *unrolling* of the projection; the
//! certification step accepts it through equality up to unravelling — the
//! same flexibility the paper obtains with a small coinductive proof.
//!
//! Run with `cargo run --example ping_pong`.

use zooid::dsl::builder::{self, BranchAlt, SelectAlt};
use zooid::dsl::{unravel_eq, Protocol};
use zooid::mpst::generators;
use zooid::mpst::local::LocalType;
use zooid::mpst::{Role, Sort};
use zooid::proc::{Expr, Externals};
use zooid::runtime::SessionHarness;

/// Alice stops as soon as Bob replies with a number >= K.
const K: u64 = 10;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let alice = Role::new("Alice");
    let bob = Role::new("Bob");

    let protocol = Protocol::new("ping-pong", generators::ping_pong())?;
    println!("protocol: {protocol}");
    let alice_lt = protocol.get(&alice)?;
    println!("  Alice: {alice_lt}");
    println!("  Bob:   {}", protocol.get(&bob)?);

    // alice4 (§5.1): select Bob [ skip => l1 | otherwise => l2, 0 !
    //   loop { recv Bob (l3, x)? select Bob [ case x >= K => l1, ()! finish
    //                                       | otherwise  => l2, x ! jump ] } ]
    let inner = builder::select(
        bob.clone(),
        vec![
            SelectAlt::case(
                Expr::ge(Expr::var("x"), Expr::lit(K)),
                "l1",
                Sort::Unit,
                Expr::unit(),
                builder::finish(),
            ),
            SelectAlt::otherwise("l2", Sort::Nat, Expr::var("x"), builder::jump(0)),
        ],
    )?;
    let alice_impl = builder::select(
        bob.clone(),
        vec![
            SelectAlt::skip("l1", Sort::Unit, LocalType::End),
            SelectAlt::otherwise(
                "l2",
                Sort::Nat,
                Expr::lit(0u64),
                builder::loop_(builder::recv1(bob.clone(), "l3", Sort::Nat, "x", inner)?)?,
            ),
        ],
    )?;

    // The inferred type is an unrolling of the projection.
    println!("\ninferred type for alice4: {}", alice_impl.local_type());
    assert_ne!(alice_impl.local_type(), &alice_lt);
    assert!(unravel_eq(alice_impl.local_type(), &alice_lt));

    // Bob, the ping-pong server: replies x + 3 to every ping.
    let bob_impl = builder::loop_(builder::branch(
        alice.clone(),
        vec![
            BranchAlt::new("l1", Sort::Unit, "_quit", builder::finish()),
            BranchAlt::new(
                "l2",
                Sort::Nat,
                "x",
                builder::send(
                    alice.clone(),
                    "l3",
                    Sort::Nat,
                    Expr::add(Expr::var("x"), Expr::lit(3u64)),
                    builder::jump(0),
                )?,
            ),
        ],
    )?)?;

    let ext = Externals::new();
    let alice_cert = protocol.implement(&alice, alice_impl, &ext)?;
    let bob_cert = protocol.implement(&bob, bob_impl, &ext)?;
    println!("both endpoints certified");

    let mut harness = SessionHarness::new(protocol);
    harness.add_endpoint(alice_cert, ext.clone())?;
    harness.add_endpoint(bob_cert, ext)?;
    let report = harness.run()?;

    println!("\nsession finished:");
    println!("  compliant: {}", report.compliant);
    println!("  complete:  {}", report.complete);
    println!("  messages:  {}", report.messages_exchanged());
    let alice_report = &report.endpoints[&alice];
    println!("  Alice performed {} actions", alice_report.steps());
    // Alice pings with 0, 3, 6, 9 and stops once the reply reaches 12 >= K.
    assert!(report.all_finished_and_compliant(), "{:?}", report.violations);
    // Four pings, four pongs and the quit.
    assert_eq!(report.messages_exchanged(), 9);
    Ok(())
}
