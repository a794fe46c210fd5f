//! Quickstart: the ring protocol of §2.3, end to end.
//!
//! A certified process for `Alice` that sends a number to `Bob` and then
//! receives one from `Carol`, but only after `Bob` and `Carol` have exchanged
//! a message themselves. The example walks through the whole Zooid workflow:
//!
//! 1. write the global type;
//! 2. project it onto every participant (`\project`);
//! 3. implement each participant with the well-typed-by-construction
//!    builders;
//! 4. certify the implementations against the protocol;
//! 5. run the session on the in-memory runtime with a live compliance
//!    monitor;
//! 6. double-check deadlock freedom and liveness with the CFSM explorer.
//!
//! Run with `cargo run --example quickstart`.

use zooid::cfsm::check_protocol;
use zooid::dsl::builder::{self, BranchAlt};
use zooid::dsl::Protocol;
use zooid::mpst::global::GlobalType;
use zooid::mpst::{Role, Sort};
use zooid::proc::{Expr, Externals};
use zooid::runtime::SessionHarness;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let alice = Role::new("Alice");
    let bob = Role::new("Bob");
    let carol = Role::new("Carol");

    // G = Alice -> Bob : l(nat). Bob -> Carol : l(nat). Carol -> Alice : l(nat). end
    let g = GlobalType::msg1(
        alice.clone(),
        bob.clone(),
        "l",
        Sort::Nat,
        GlobalType::msg1(
            bob.clone(),
            carol.clone(),
            "l",
            Sort::Nat,
            GlobalType::msg1(carol.clone(), alice.clone(), "l", Sort::Nat, GlobalType::End),
        ),
    );
    let protocol = Protocol::new("ring", g)?;
    println!("protocol: {protocol}");

    // Step 2: \project — the local types of every participant.
    println!("\nprojections:");
    for (role, local) in protocol.project_all()? {
        println!("  {role}: {local}");
    }

    // Step 3: implement the three endpoints.
    // Alice: send Bob (l, 7)! recv Carol (l, y)? finish
    let alice_impl = builder::send(
        bob.clone(),
        "l",
        Sort::Nat,
        Expr::lit(7u64),
        builder::recv1(carol.clone(), "l", Sort::Nat, "y", builder::finish())?,
    )?;
    // Bob and Carol: forward the received number, incremented.
    let forward = |from: &Role, to: &Role| -> zooid::dsl::Result<zooid::dsl::WtProc> {
        builder::branch(
            from.clone(),
            vec![BranchAlt::new(
                "l",
                Sort::Nat,
                "x",
                builder::send(
                    to.clone(),
                    "l",
                    Sort::Nat,
                    Expr::add(Expr::var("x"), Expr::lit(1u64)),
                    builder::finish(),
                )?,
            )],
        )
    };
    let bob_impl = forward(&alice, &carol)?;
    let carol_impl = forward(&bob, &alice)?;

    // Step 4: certification (typing + equality up to unravelling with the
    // projections).
    let ext = Externals::new();
    let alice_cert = protocol.implement(&alice, alice_impl, &ext)?;
    let bob_cert = protocol.implement(&bob, bob_impl, &ext)?;
    let carol_cert = protocol.implement(&carol, carol_impl, &ext)?;
    println!("\nall three endpoints certified");

    // Step 5: run the session with a live compliance monitor.
    let mut harness = SessionHarness::new(protocol.clone());
    harness.add_endpoint(alice_cert, ext.clone())?;
    harness.add_endpoint(bob_cert, ext.clone())?;
    harness.add_endpoint(carol_cert, ext.clone())?;
    let report = harness.run()?;

    println!("\nsession finished:");
    println!("  compliant: {}", report.compliant);
    println!("  complete:  {}", report.complete);
    println!("  messages:  {}", report.messages_exchanged());
    println!("  trace:     {}", report.global_trace);
    let alice_report = &report.endpoints[&alice];
    println!(
        "  Alice received back: {}",
        alice_report.actions.last().expect("alice acted").value
    );

    // Step 6: deadlock freedom / liveness via the communicating-automata
    // substrate.
    let safety = check_protocol(protocol.global(), 2, 100_000)?;
    println!("\ncfsm exploration:");
    println!("  configurations: {}", safety.outcome.configurations);
    println!("  deadlock-free:  {}", safety.is_safe());
    println!("  live:           {}", safety.is_live());

    assert!(report.all_finished_and_compliant());
    assert_eq!(report.messages_exchanged(), 3);
    assert!(safety.is_safe() && safety.is_live());
    Ok(())
}
