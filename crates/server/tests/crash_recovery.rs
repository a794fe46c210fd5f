//! Crash recovery on the serving plane: shard evacuation, re-certified
//! migration, quarantine that closes a violator where it stands, adaptive
//! violation thresholds, and the wire-level reject-then-ban escalation.
//!
//! The durable-session covenant is tested at the server boundary here (the
//! runtime-level kill-at-every-quantum differential lives in the runtime
//! crate's `durability` suite):
//!
//! * [`SessionServer::drain_shard`] checkpoints every session queued on a
//!   shard and hands the encoded blobs to the caller; the sessions go
//!   silent — no outcomes — until re-admitted.
//! * [`SessionServer::migrate_session`] decodes and **re-certifies** a
//!   blob against the protocol's compiled tables before any shard hosts
//!   it: tampered bytes are refused with the runtime's structured errors
//!   and never become sessions.
//! * [`QuarantinePolicy::Halt`] closes a violating session from the state
//!   its executor already holds — a batch-demoted violator is never rebuilt
//!   on the slab — while [`QuarantinePolicy::Observe`] resumes it there.
//! * [`ServerConfig::with_violation_threshold`] tolerates a per-protocol
//!   number of monitor rejections before quarantining.
//! * [`NetServerConfig::ban_after_quarantines`] rejects further `Open`s
//!   from a connection that keeps submitting quarantined sessions, without
//!   tearing the connection down.

use std::time::{Duration, Instant};

use zooid_dsl::Protocol;
use zooid_mpst::generators;
use zooid_runtime::{MuxFrame, RuntimeError};
use zooid_server::synth::{byzantine_driver, skeleton_endpoints};
use zooid_server::{
    ByzantineMutation, ExpectedClass, FlightEvent, NetClient, NetServer, NetServerConfig,
    ProtocolRegistry, QuarantinePolicy, ServerConfig, ServerError, Service, SessionServer,
    SessionSpec,
};

const EVENT_TIMEOUT: Duration = Duration::from_secs(10);

/// `mu X. A -> B : tick(nat). B -> A : tock(nat). X` — no choice, so the
/// skeleton cast loops forever. Sessions of this protocol are caught
/// mid-flight by a drain deterministically (they can never finish first).
fn metronome() -> zooid_mpst::global::GlobalType {
    use zooid_mpst::global::GlobalType;
    use zooid_mpst::{Role, Sort};
    GlobalType::rec(GlobalType::msg1(
        Role::new("A"),
        Role::new("B"),
        "tick",
        Sort::Nat,
        GlobalType::msg1(
            Role::new("B"),
            Role::new("A"),
            "tock",
            Sort::Nat,
            GlobalType::var(0),
        ),
    ))
}

/// A registry with one protocol, plus its skeleton cast.
fn registry_with(
    name: &str,
    g: zooid_mpst::global::GlobalType,
) -> (
    ProtocolRegistry,
    zooid_server::ProtocolId,
    Vec<(zooid_dsl::CertifiedProcess, zooid_proc::Externals)>,
) {
    let mut registry = ProtocolRegistry::new();
    let protocol = Protocol::new(name, g).expect("well-formed");
    let endpoints = skeleton_endpoints(&protocol).expect("synthesizes");
    let id = registry.register(protocol).expect("registers");
    (registry, id, endpoints)
}

// ---------------------------------------------------------------------
// Evacuation and re-admission
// ---------------------------------------------------------------------

#[test]
fn drained_sessions_go_silent_and_migrate_to_another_shard() {
    // Unbounded ping-pong sessions loop forever, so the evacuation count
    // is deterministic: every submitted session is still mid-flight when
    // the drain request reaches its shard (FIFO per shard mailbox).
    let (registry, id, endpoints) = registry_with("metronome", metronome());
    let mut server = SessionServer::start(registry, ServerConfig::with_shards(2));
    let mut submitted = Vec::new();
    for _ in 0..8 {
        submitted.push(
            server
                .submit(SessionSpec::new(id, endpoints.clone()))
                .unwrap(),
        );
    }
    let mut migrated = server.drain_shard(0).unwrap();
    migrated.extend(server.drain_shard(1).unwrap());
    assert_eq!(
        migrated.len(),
        8,
        "every unbounded session is caught mid-flight"
    );
    let mut ids: Vec<_> = migrated.iter().map(|m| m.id).collect();
    ids.sort();
    assert_eq!(ids, submitted, "identity survives evacuation");
    for m in &migrated {
        assert_eq!(m.protocol, id);
        assert!(!m.bytes.is_empty(), "the checkpoint blob is the session");
    }

    // Re-admit everything on shard 0, then evacuate shard 0 again: the
    // same eight sessions come back — they were live on the new shard.
    for m in migrated {
        let sid = m.id;
        assert_eq!(server.migrate_session(m, 0).unwrap(), sid);
    }
    let again = server.drain_shard(0).unwrap();
    assert_eq!(again.len(), 8, "migrated sessions run on their new shard");
    let mut ids: Vec<_> = again.iter().map(|m| m.id).collect();
    ids.sort();
    assert_eq!(ids, submitted);
    server.shutdown();
}

#[test]
fn migration_preserves_every_outcome_of_bounded_sessions() {
    // Bounded sessions race the drain: however many are caught and moved,
    // exactly one compliant outcome per submission must still arrive —
    // migration neither loses nor duplicates sessions.
    let (registry, id, endpoints) = registry_with("metronome", metronome());
    let config = ServerConfig {
        shards: 2,
        quantum: 1,
        ..ServerConfig::default()
    };
    let mut server = SessionServer::start(registry, config);
    let mut submitted = Vec::new();
    for _ in 0..12 {
        submitted.push(
            server
                .submit(SessionSpec::new(id, endpoints.clone()).with_max_steps(40))
                .unwrap(),
        );
    }
    let mut migrated = server.drain_shard(0).unwrap();
    migrated.extend(server.drain_shard(1).unwrap());
    for m in migrated {
        server.migrate_session(m, 0).unwrap();
    }
    let outcomes = server.drain();
    assert_eq!(outcomes.len(), 12, "one outcome per submission");
    let mut ids: Vec<_> = outcomes.iter().map(|o| o.id).collect();
    ids.sort();
    assert_eq!(ids, submitted, "no session lost or duplicated");
    for outcome in &outcomes {
        assert!(outcome.compliant, "migration must not corrupt a session");
        assert!(!outcome.quarantined);
    }
    server.shutdown();
}

// ---------------------------------------------------------------------
// The migration trust boundary
// ---------------------------------------------------------------------

#[test]
fn tampered_checkpoints_are_refused_with_structured_errors() {
    let (registry, id, endpoints) = registry_with("metronome", metronome());
    let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
    for _ in 0..3 {
        server
            .submit(SessionSpec::new(id, endpoints.clone()))
            .unwrap();
    }
    let migrated = server.drain_shard(0).unwrap();
    assert_eq!(migrated.len(), 3);
    let mut migrated = migrated.into_iter();

    // Garbage bytes: the codec refuses before anything is re-certified.
    let mut garbage = migrated.next().unwrap();
    garbage.bytes = vec![0; 4];
    match server.migrate_session(garbage, 0) {
        Err(ServerError::Runtime(RuntimeError::Codec { .. })) => {}
        other => panic!("garbage must be a structured codec error, got {other:?}"),
    }

    // A truncated blob: same refusal, never a panic.
    let mut truncated = migrated.next().unwrap();
    truncated.bytes.truncate(truncated.bytes.len() / 2);
    match server.migrate_session(truncated, 0) {
        Err(ServerError::Runtime(RuntimeError::Codec { .. })) => {}
        other => panic!("truncation must be a structured codec error, got {other:?}"),
    }

    // A decodable checkpoint whose token does not match the claimed
    // session id: refused by the identity check (byte 5 is inside the
    // big-endian token that follows the 4-byte magic and 1-byte version).
    let mut forged = migrated.next().unwrap();
    forged.bytes[5] ^= 0x01;
    match server.migrate_session(forged, 0) {
        Err(ServerError::Runtime(RuntimeError::Recovery { reason })) => {
            assert!(reason.contains("does not match"), "{reason}");
        }
        other => panic!("token forgery must be a recovery refusal, got {other:?}"),
    }

    // Out-of-range shard indexes are structured errors on both calls.
    match server.drain_shard(99) {
        Err(ServerError::Unsupported { reason }) => {
            assert!(reason.contains("out of range"), "{reason}")
        }
        other => panic!("want Unsupported, got {other:?}"),
    }
    server.shutdown();
}

// ---------------------------------------------------------------------
// Quarantine: a violator ends where it stands
// ---------------------------------------------------------------------

/// Runs one session of the registered 3-ring with `decoy`'s skeleton cast
/// on one shard, and returns its outcome with the (still live) server.
fn run_ring_decoy(
    decoy: zooid_mpst::global::GlobalType,
    quarantine: QuarantinePolicy,
) -> (zooid_server::SessionOutcome, SessionServer) {
    let mut registry = ProtocolRegistry::new();
    let id = registry
        .register(Protocol::new("ring", generators::ring_n(3)).unwrap())
        .unwrap();
    let decoy = Protocol::new("ring", decoy).unwrap();
    let config = ServerConfig {
        shards: 1,
        quarantine,
        ..ServerConfig::default()
    };
    let mut server = SessionServer::start(registry, config);
    let sid = server
        .submit(SessionSpec::new(id, skeleton_endpoints(&decoy).unwrap()))
        .unwrap();
    let mut outcomes = server.drain();
    assert_eq!(outcomes.len(), 1, "the session reports exactly once");
    assert_eq!(outcomes[0].id, sid);
    (outcomes.pop().unwrap(), server)
}

/// What a halted first-action violator must look like on either path: one
/// violation at position 0, that one action and no other, nobody finished.
fn assert_halted_at_the_first_action(outcome: &zooid_server::SessionOutcome, server: &SessionServer) {
    assert!(outcome.quarantined && !outcome.compliant && !outcome.stalled);
    assert_eq!(outcome.violations.len(), 1);
    assert_eq!(outcome.violations[0].position, 0);
    let recorded: usize = outcome.endpoints.values().map(|r| r.actions.len()).sum();
    assert_eq!(recorded, 1, "the violating send and not one action after it");
    for report in outcome.endpoints.values() {
        assert_eq!(report.status, zooid_runtime::EndpointStatus::Stalled);
    }
    let report = server.report();
    assert_eq!(report.actions_executed(), 1, "{report}");
    assert_eq!(report.sessions_quarantined(), 1, "{report}");
    let quarantined = server
        .flight_events()
        .iter()
        .filter(|e| matches!(e, FlightEvent::Quarantined { .. }))
        .count();
    assert_eq!(quarantined, 1);
    let system = std::sync::Arc::clone(server.registry().get(outcome.protocol).unwrap().compiled());
    let incidents = server.incidents();
    assert_eq!(incidents.len(), 1);
    assert!(incidents[0].replays_violation(&system), "{:?}", incidents[0]);
}

#[test]
fn a_batched_violator_closes_from_its_demoted_state_and_resumes_only_under_observe() {
    // The rotated-ring cast pre-interns against the registered tables, so
    // it batches, and violates deterministically on its first send. Under
    // the default policy the batch's demotion is the end of it: the outcome
    // is read off the extracted state and no slab session is built.
    let rotated = || generators::ring(&["w2", "w0", "w1"]);
    let (outcome, server) = run_ring_decoy(rotated(), QuarantinePolicy::Halt);
    assert_halted_at_the_first_action(&outcome, &server);
    let demotions = server
        .flight_events()
        .iter()
        .filter(|e| matches!(e, FlightEvent::BatchDemoted { .. }))
        .count();
    assert_eq!(demotions, 1);
    let report = server.shutdown();
    assert_eq!(report.sessions_batched(), 1, "{report}");
    assert_eq!(report.sessions_demoted(), 1, "{report}");
    assert_eq!(report.sessions_slab(), 0, "{report}");

    // Under `Observe` the same demotion is a change of executor: the
    // session resumes on the slab and runs to its natural end.
    let (outcome, server) = run_ring_decoy(rotated(), QuarantinePolicy::Observe);
    assert!(!outcome.compliant && !outcome.quarantined && !outcome.stalled);
    assert!(outcome.endpoints.values().all(|r| r.status.is_finished()));
    assert_eq!(outcome.global_trace.len() + outcome.violations.len(), 6);
    let report = server.shutdown();
    assert_eq!(report.sessions_demoted(), 1, "{report}");
    assert_eq!(report.actions_executed(), 6, "{report}");
    assert_eq!(report.sessions_quarantined(), 0, "{report}");
}

#[test]
fn a_slab_admitted_violator_closes_at_its_first_rejection() {
    // The slab twin: the `bad` label is not in the registered ring's
    // tables, so the cast cannot pre-intern, is admitted to the slab, and
    // violates in its first quantum — which is also its last.
    use zooid_mpst::global::GlobalType;
    use zooid_mpst::{Role, Sort};
    let w = |i: usize| Role::new(format!("w{i}"));
    let hop = |from, to, cont| GlobalType::msg1(w(from), w(to), "bad", Sort::Nat, cont);
    let bad_label_ring = hop(0, 1, hop(1, 2, hop(2, 0, GlobalType::End)));
    let (outcome, server) = run_ring_decoy(bad_label_ring, QuarantinePolicy::Halt);
    assert_halted_at_the_first_action(&outcome, &server);
    let report = server.shutdown();
    assert_eq!(report.sessions_slab(), 1, "{report}");
    assert_eq!(report.sessions_batched(), 0, "{report}");
    assert_eq!(report.sessions_demoted(), 0, "{report}");
}

#[test]
fn sessions_that_call_externals_are_never_checkpointed() {
    // Role A reads every tick's payload from the environment. The closure
    // behind `src` lives in the submitted `Externals`; a checkpoint cannot
    // carry it, and a session resumed from one would run with none. So the
    // drain must not evacuate this session (it closes as stalled through the
    // outcome stream).
    use zooid_mpst::{Role, Sort};
    use zooid_proc::{Expr, Externals, Proc, Value};
    let (a, b) = (Role::new("A"), Role::new("B"));
    let (registry, id, skeleton) = registry_with("metronome", metronome());
    let protocol = Protocol::new("metronome", metronome()).unwrap();
    let mut externals = Externals::new();
    externals.register_read("src", Sort::Nat, || Value::Nat(7));
    let reader = Proc::loop_(Proc::read(
        "src",
        "x",
        Proc::send(
            b.clone(),
            "tick",
            Expr::var("x"),
            Proc::recv1(b.clone(), "tock", Sort::Nat, "y", Proc::Jump(0)),
        ),
    ));
    let cert = protocol
        .implement_against_projection(&a, reader, &externals)
        .expect("the reader implements A");
    let mut endpoints = vec![(cert, externals)];
    endpoints.extend(skeleton.into_iter().filter(|(c, _)| *c.role() == b));

    let config = ServerConfig {
        shards: 1,
        quantum: 1,
        ..ServerConfig::default()
    };
    let mut server = SessionServer::start(registry, config);
    let sid = server.submit(SessionSpec::new(id, endpoints)).unwrap();
    let migrated = server.drain_shard(0).unwrap();
    assert!(
        migrated.is_empty(),
        "a checkpoint cannot carry external closures"
    );
    let outcomes = server.drain();
    assert_eq!(outcomes.len(), 1, "the refused session still reports");
    let outcome = &outcomes[0];
    assert_eq!(outcome.id, sid);
    assert!(outcome.stalled && outcome.compliant && !outcome.quarantined);
    for report in outcome.endpoints.values() {
        assert_eq!(report.status, zooid_runtime::EndpointStatus::Stalled);
    }
    server.shutdown();
}

// ---------------------------------------------------------------------
// Adaptive per-protocol violation thresholds
// ---------------------------------------------------------------------

#[test]
fn lenient_protocols_tolerate_violations_and_strict_ones_do_not() {
    // Two registrations of structurally identical rings; only "lenient"
    // gets a threshold. The same rotated decoy cast violates both; the
    // lenient session runs to its natural conclusion un-quarantined, the
    // strict one is quarantined at the first rejection.
    let mut registry = ProtocolRegistry::new();
    let lenient = registry
        .register(Protocol::new("lenient", generators::ring_n(3)).unwrap())
        .unwrap();
    let strict = registry
        .register(Protocol::new("strict", generators::ring_n(3)).unwrap())
        .unwrap();
    let lenient_decoy = Protocol::new("lenient", generators::ring(&["w2", "w0", "w1"])).unwrap();
    let strict_decoy = Protocol::new("strict", generators::ring(&["w2", "w0", "w1"])).unwrap();
    let config =
        ServerConfig::with_shards(1).with_violation_threshold(lenient, 100);
    let mut server = SessionServer::start(registry, config);
    let lenient_sid = server
        .submit(SessionSpec::new(
            lenient,
            skeleton_endpoints(&lenient_decoy).unwrap(),
        ))
        .unwrap();
    let strict_sid = server
        .submit(SessionSpec::new(
            strict,
            skeleton_endpoints(&strict_decoy).unwrap(),
        ))
        .unwrap();
    let outcomes = server.drain();
    assert_eq!(outcomes.len(), 2);

    let lenient_out = outcomes.iter().find(|o| o.id == lenient_sid).unwrap();
    assert!(!lenient_out.compliant, "the cast still violates");
    assert!(
        !lenient_out.quarantined,
        "under its threshold the session keeps running"
    );
    assert!(
        !lenient_out.violations.is_empty(),
        "the violations are still recorded"
    );

    let strict_out = outcomes.iter().find(|o| o.id == strict_sid).unwrap();
    assert!(strict_out.quarantined, "no threshold means quarantine at 1");
    assert_eq!(strict_out.violations.len(), 1);

    let report = server.report();
    assert_eq!(report.sessions_quarantined(), 1, "{report}");
    server.shutdown();
}

#[test]
fn observe_policy_ignores_thresholds_entirely() {
    let mut registry = ProtocolRegistry::new();
    let id = registry
        .register(Protocol::new("ring", generators::ring_n(3)).unwrap())
        .unwrap();
    let decoy = Protocol::new("ring", generators::ring(&["w2", "w0", "w1"])).unwrap();
    let endpoints = skeleton_endpoints(&decoy).unwrap();
    let config = ServerConfig {
        shards: 1,
        quarantine: QuarantinePolicy::Observe,
        ..ServerConfig::default()
    }
    .with_violation_threshold(id, 1);
    let mut server = SessionServer::start(registry, config);
    server
        .submit(SessionSpec::new(id, endpoints.clone()))
        .unwrap();
    let outcomes = server.drain();
    assert_eq!(outcomes.len(), 1);
    assert!(!outcomes[0].compliant);
    assert!(!outcomes[0].quarantined, "Observe never quarantines");
    server.shutdown();
}

// ---------------------------------------------------------------------
// The wire: reject-then-ban
// ---------------------------------------------------------------------

fn wait_for_done(client: &mut NetClient, session: u64) -> bool {
    let deadline = Instant::now() + EVENT_TIMEOUT;
    loop {
        match client.poll_event(Duration::from_millis(100)).unwrap() {
            Some(MuxFrame::Done {
                session: s,
                compliant,
                ..
            }) if s == session => return compliant,
            Some(_) => {}
            None => assert!(Instant::now() < deadline, "no Done within {EVENT_TIMEOUT:?}"),
        }
    }
}

#[test]
fn connections_that_keep_getting_quarantined_are_banned_but_not_torn_down() {
    let mut registry = ProtocolRegistry::new();
    let byz_id = registry
        .register(Protocol::new("byz_ring", generators::ring_n(3)).unwrap())
        .unwrap();
    let ok_id = registry
        .register(Protocol::new("ok_ring", generators::ring_n(3)).unwrap())
        .unwrap();
    let byz_protocol = Protocol::new("byz_ring", generators::ring_n(3)).unwrap();
    let driver = byzantine_driver(&byz_protocol, ByzantineMutation::WrongLabel)
        .unwrap()
        .expect("wrong-label applies to the ring");
    assert_eq!(driver.mutation.expected(), ExpectedClass::Violation);
    let byz_service = Service {
        protocol: byz_id,
        endpoints: driver.endpoints.into(),
        options: zooid_runtime::ExecOptions::default(),
    };
    let ok_service = Service::skeleton(&registry, ok_id).unwrap();
    let config = NetServerConfig {
        ban_after_quarantines: 1,
        ..NetServerConfig::default()
    };
    let server = NetServer::start(registry, [byz_service, ok_service], config).unwrap();

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let session = client.open_with("byz_ring", EVENT_TIMEOUT).unwrap();
    let compliant = wait_for_done(&mut client, session);
    assert!(!compliant, "the byzantine session must violate");

    // The strike is recorded with the outcome, so the next open on this
    // connection is refused — the connection itself stays up (no
    // close_on_quarantine teardown).
    match client.open_with("ok_ring", EVENT_TIMEOUT) {
        Err(RuntimeError::Codec { reason }) => {
            assert!(reason.contains("open rejected"), "{reason}");
            assert!(reason.contains("banned"), "{reason}");
        }
        other => panic!("want a structured ban rejection, got {other:?}"),
    }
    // Still refused — the ban is sticky for the connection's lifetime.
    match client.open_with("byz_ring", EVENT_TIMEOUT) {
        Err(RuntimeError::Codec { reason }) => {
            assert!(reason.contains("banned"), "{reason}")
        }
        other => panic!("the ban must be sticky, got {other:?}"),
    }

    // The ban is per-connection, not per-peer: a fresh connection serves.
    let mut fresh = NetClient::connect(server.local_addr()).unwrap();
    let ok_session = fresh.open_with("ok_ring", EVENT_TIMEOUT).unwrap();
    assert!(
        wait_for_done(&mut fresh, ok_session),
        "a fresh connection is unaffected"
    );

    let report = server.shutdown();
    assert_eq!(report.net.rejects.banned, 2, "both refusals are counted");
    assert_eq!(report.shards.sessions_quarantined(), 1);
}
