//! Runtime integration tests (the paper's §4.5 runtime; see the
//! `zooid-runtime` crate docs for the correspondence): end-to-end
//! execution over the in-memory and TCP transports, live monitoring, and
//! failure injection (uncertified processes misbehaving at run time).

use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr, TcpListener, TcpStream};

use zooid::dsl::builder::{self, BranchAlt};
use zooid::dsl::Protocol;
use zooid::mpst::generators;
use zooid::mpst::{Role, Sort};
use zooid::proc::{Expr, Externals, Proc, Value};
use zooid::runtime::exec::{execute, EndpointStatus, ExecOptions};
use zooid::runtime::tcp::TcpTransport;
use zooid::runtime::transport::{InMemoryNetwork, Transport};
use zooid::runtime::{SessionHarness, TraceMonitor};

fn r(name: &str) -> Role {
    Role::new(name)
}

#[test]
fn a_certified_request_reply_session_runs_over_tcp() {
    // A two-role `greeting` request/reply, certified and run over a real TCP
    // connection (as the calculator example runs its client/server pair).
    // Multiparty sessions over TCP run in the runtime crate's
    // `tcp_differential` suite.
    let protocol = Protocol::new(
        "greeting",
        zooid::mpst::global::GlobalType::msg1(
            r("client"),
            r("server"),
            "hello",
            Sort::Str,
            zooid::mpst::global::GlobalType::msg1(
                r("server"),
                r("client"),
                "reply",
                Sort::Str,
                zooid::mpst::global::GlobalType::End,
            ),
        ),
    )
    .unwrap();
    let ext = Externals::new();
    let client = protocol
        .implement(
            &r("client"),
            builder::send(
                r("server"),
                "hello",
                Sort::Str,
                Expr::lit("hi there"),
                builder::recv1(r("server"), "reply", Sort::Str, "x", builder::finish()).unwrap(),
            )
            .unwrap(),
            &ext,
        )
        .unwrap();
    let server = protocol
        .implement(
            &r("server"),
            builder::recv1(
                r("client"),
                "hello",
                Sort::Str,
                "greeting",
                builder::send(
                    r("client"),
                    "reply",
                    Sort::Str,
                    Expr::lit("hello to you"),
                    builder::finish(),
                )
                .unwrap(),
            )
            .unwrap(),
            &ext,
        )
        .unwrap();

    let listener = TcpListener::bind((IpAddr::V4(Ipv4Addr::LOCALHOST), 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let server_proc = server.proc().clone();
    let server_handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut streams = BTreeMap::new();
        streams.insert(r("client"), stream);
        let mut transport = TcpTransport::from_streams(r("server"), streams);
        execute(
            &server_proc,
            &r("server"),
            &mut transport,
            &Externals::new(),
            &ExecOptions::default(),
        )
    });
    let stream = TcpStream::connect(addr).unwrap();
    let mut streams = BTreeMap::new();
    streams.insert(r("server"), stream);
    let mut transport = TcpTransport::from_streams(r("client"), streams);
    let client_report = execute(
        client.proc(),
        &r("client"),
        &mut transport,
        &Externals::new(),
        &ExecOptions::default(),
    );
    let server_report = server_handle.join().unwrap();

    assert!(client_report.status.is_finished());
    assert!(server_report.status.is_finished());
    assert_eq!(
        client_report.actions[1].value,
        Value::Str("hello to you".into())
    );
}

#[test]
fn an_uncertified_misbehaving_endpoint_is_caught_by_the_monitor() {
    // Bob is supposed to forward to Carol, but this rogue implementation
    // sends back to Alice instead. It cannot be certified — so we inject it
    // directly into an executor and let the monitor judge the trace.
    let protocol = Protocol::new("ring", generators::ring3()).unwrap();
    let rogue_bob = Proc::recv1(
        r("Alice"),
        "l",
        Sort::Nat,
        "x",
        Proc::send(r("Alice"), "l", Expr::var("x"), Proc::Finish),
    );

    let mut network = InMemoryNetwork::new([r("Alice"), r("Bob"), r("Carol")]);
    let mut alice_t = network.take_endpoint(&r("Alice")).unwrap();
    let mut bob_t = network.take_endpoint(&r("Bob")).unwrap();
    let mut monitor = TraceMonitor::new(protocol.global()).unwrap();

    // Alice sends her number; rogue Bob answers her directly.
    alice_t
        .send(&r("Bob"), &zooid::mpst::Label::new("l"), &Value::Nat(1))
        .unwrap();
    let bob_report = execute(
        &rogue_bob,
        &r("Bob"),
        &mut bob_t,
        &Externals::new(),
        &ExecOptions::default(),
    );
    assert!(bob_report.status.is_finished());

    // Feed the observed actions to the monitor: Alice's send is fine, Bob's
    // receive is fine, but Bob's reply to Alice violates the protocol.
    monitor.observe(&zooid::mpst::Action::send(
        r("Alice"),
        r("Bob"),
        zooid::mpst::Label::new("l"),
        Sort::Nat,
    ));
    for action in &bob_report.actions {
        monitor.observe(&zooid::proc::erase(action));
    }
    assert!(!monitor.is_compliant());
    assert_eq!(monitor.violations().len(), 1);
}

#[test]
fn a_crashed_peer_surfaces_as_a_failed_endpoint_not_a_hang() {
    // Alice sends and then waits for Carol — but Carol's endpoint is dropped
    // without running, so Alice times out and reports a failure.
    let protocol = Protocol::new("ring", generators::ring3()).unwrap();
    let ext = Externals::new();
    let alice = protocol
        .implement(
            &r("Alice"),
            builder::send(
                r("Bob"),
                "l",
                Sort::Nat,
                Expr::lit(1u64),
                builder::recv1(r("Carol"), "l", Sort::Nat, "y", builder::finish()).unwrap(),
            )
            .unwrap(),
            &ext,
        )
        .unwrap();

    let mut network = InMemoryNetwork::new([r("Alice"), r("Bob"), r("Carol")]);
    let mut alice_t = network.take_endpoint(&r("Alice")).unwrap();
    // Bob and Carol are never started; their endpoints are dropped.
    drop(network);

    let report = execute(
        alice.proc(),
        &r("Alice"),
        &mut alice_t,
        &ext,
        &ExecOptions::default(),
    );
    match report.status {
        EndpointStatus::Failed { error } => {
            assert!(error.contains("disconnected") || error.contains("timed out"), "{error}");
        }
        other => panic!("expected a failure, got {other:?}"),
    }
    // The very first send already fails (Bob's endpoint is gone), so no
    // visible action completed.
    assert!(report.actions.is_empty());
}

#[test]
fn harness_reports_per_endpoint_step_limits() {
    // Run the recursive pipeline for a fixed number of steps and check that
    // the harness reports the step-limit status rather than hanging.
    let protocol = Protocol::new("pipeline", generators::pipeline()).unwrap();
    let ext = Externals::new();
    let alice = builder::loop_(
        builder::send(r("Bob"), "l", Sort::Nat, Expr::lit(1u64), builder::jump(0)).unwrap(),
    )
    .unwrap();
    let bob = builder::loop_(
        builder::recv1(
            r("Alice"),
            "l",
            Sort::Nat,
            "x",
            builder::send(r("Carol"), "l", Sort::Nat, Expr::var("x"), builder::jump(0)).unwrap(),
        )
        .unwrap(),
    )
    .unwrap();
    let carol = builder::loop_(
        builder::branch(
            r("Bob"),
            vec![BranchAlt::new("l", Sort::Nat, "y", builder::jump(0))],
        )
        .unwrap(),
    )
    .unwrap();

    let mut harness = SessionHarness::new(protocol.clone());
    harness
        .add_endpoint(protocol.implement(&r("Alice"), alice, &ext).unwrap(), ext.clone())
        .unwrap();
    harness
        .add_endpoint(protocol.implement(&r("Bob"), bob, &ext).unwrap(), ext.clone())
        .unwrap();
    harness
        .add_endpoint(protocol.implement(&r("Carol"), carol, &ext).unwrap(), ext.clone())
        .unwrap();
    harness.with_max_steps(10);
    let report = harness.run().unwrap();

    assert!(report.compliant, "{:?}", report.violations);
    assert!(!report.complete);
    assert!(report
        .endpoints
        .values()
        .any(|e| e.status == EndpointStatus::StepLimitReached));
}
