//! The recursive pipeline of §5.1: `mu X. Alice -> Bob : l(nat).
//! Bob -> Carol : l(nat). X`.
//!
//! Bob is implemented exactly as in the paper: he receives a number from
//! Alice, calls an external `compute` function (the OCaml function of the
//! paper, here a registered Rust closure) and forwards the result to Carol,
//! forever. Because the protocol never terminates, the session is run with a
//! per-endpoint step limit.
//!
//! Run with `cargo run --example pipeline`.

use zooid::cfsm::check_protocol;
use zooid::dsl::builder::{self};
use zooid::dsl::Protocol;
use zooid::mpst::generators;
use zooid::mpst::{Role, Sort};
use zooid::proc::{Expr, Externals, Value};
use zooid::runtime::SessionHarness;

const ROUNDS: usize = 50;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let alice = Role::new("Alice");
    let bob = Role::new("Bob");
    let carol = Role::new("Carol");

    let protocol = Protocol::new("pipeline", generators::pipeline())?;
    println!("protocol: {protocol}");
    for (role, local) in protocol.project_all()? {
        println!("  {role}: {local}");
    }

    // Alice: loop { send Bob (l, 1)! jump }
    let alice_impl = builder::loop_(builder::send(
        bob.clone(),
        "l",
        Sort::Nat,
        Expr::lit(1u64),
        builder::jump(0),
    )?)?;

    // Bob (§5.1): loop { recv Alice (l, x)? interact compute x (res.
    //             send Carol (l, res)! jump) }
    let mut bob_ext = Externals::new();
    bob_ext.register_interact("compute", Sort::Nat, Sort::Nat, |v| {
        Value::Nat(v.as_nat().unwrap_or(0) * 2 + 1)
    });
    let bob_impl = builder::loop_(builder::recv1(
        alice.clone(),
        "l",
        Sort::Nat,
        "x",
        builder::interact(
            "compute",
            Expr::var("x"),
            "res",
            builder::send(carol.clone(), "l", Sort::Nat, Expr::var("res"), builder::jump(0))?,
        ),
    )?)?;

    // Carol: loop { recv Bob (l, y)? write log y. jump }
    let mut carol_ext = Externals::new();
    carol_ext.register_write("log", Sort::Nat, |_| {});
    let carol_impl = builder::loop_(builder::recv1(
        bob.clone(),
        "l",
        Sort::Nat,
        "y",
        builder::write("log", Expr::var("y"), builder::jump(0)),
    )?)?;

    let alice_cert = protocol.implement(&alice, alice_impl, &Externals::new())?;
    let bob_cert = protocol.implement(&bob, bob_impl, &bob_ext)?;
    let carol_cert = protocol.implement(&carol, carol_impl, &carol_ext)?;
    println!("\nall three endpoints certified");

    let mut harness = SessionHarness::new(protocol.clone());
    harness.add_endpoint(alice_cert, Externals::new())?;
    harness.add_endpoint(bob_cert, bob_ext)?;
    harness.add_endpoint(carol_cert, carol_ext)?;
    // The pipeline is infinite: stop every endpoint after 2 * ROUNDS
    // communications.
    harness.with_max_steps(2 * ROUNDS);
    let report = harness.run()?;

    println!("\nran {ROUNDS} pipeline rounds:");
    println!("  compliant:          {}", report.compliant);
    println!("  messages exchanged: {}", report.messages_exchanged());
    let carol_report = &report.endpoints[&carol];
    println!(
        "  last value logged by Carol: {}",
        carol_report.actions.last().expect("carol received").value
    );
    assert!(report.compliant, "violations: {:?}", report.violations);
    // Alice stops after 2 * ROUNDS sends, Bob after ROUNDS receives and
    // ROUNDS sends: the harness runs in lockstep, so this count is exact.
    assert_eq!(report.messages_exchanged(), 3 * ROUNDS);
    assert_eq!(carol_report.actions.last().map(|a| &a.value), Some(&Value::Nat(3)));

    let safety = check_protocol(protocol.global(), 2, 100_000)?;
    println!(
        "\ncfsm: {} configurations, safe = {}, live = {}",
        safety.outcome.configurations,
        safety.is_safe(),
        safety.is_live()
    );
    Ok(())
}
