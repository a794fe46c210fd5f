//! Crash recovery on the serving plane: shard evacuation, re-certified
//! migration, and quarantine that closes a violator where it stands.
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
//! * A violation ends the session: the first action its monitor rejects
//!   closes it from the state its batch extracted, whether or not the
//!   cast's sites were pre-interned.

use std::sync::Arc;

use zooid_cfsm::CompiledSystem;
use zooid_dsl::Protocol;
use zooid_mpst::{generators, Action, Label, Role, Sort, Trace};
use zooid_runtime::checkpoint::SessionCheckpoint;
use zooid_runtime::{CompiledMonitor, MonitorViolation, RuntimeError};
use zooid_server::synth::skeleton_endpoints;
use zooid_server::{
    FlightEvent, MigratedSession, ProtocolRegistry, ServerConfig, ServerError, SessionServer,
    SessionSpec,
};

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

/// Drains one metronome session off its shard and re-encodes its checkpoint
/// with the monitor `edit` makes of the one it carries, everything else as
/// drained.
fn drained_metronome_with(
    max_steps: Option<usize>,
    edit: impl FnOnce(&Arc<CompiledSystem>, &CompiledMonitor) -> CompiledMonitor,
) -> (SessionServer, MigratedSession) {
    let (registry, id, mut endpoints) = registry_with("metronome", metronome());
    let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
    let mut spec = SessionSpec::new(id, endpoints.clone());
    if let Some(limit) = max_steps {
        spec = spec.with_max_steps(limit);
    }
    server.submit(spec).unwrap();
    let mut migrated = server.drain_shard(0).unwrap();
    assert_eq!(migrated.len(), 1, "the session is caught mid-flight");
    let mut session = migrated.pop().unwrap();
    let artifacts = server.registry().get(id).unwrap();
    endpoints.sort_by(|(a, _), (b, _)| a.role().cmp(b.role()));
    let programs: Vec<_> = endpoints
        .iter()
        .map(|(cert, ext)| {
            artifacts
                .endpoint_program(cert.role(), cert.proc(), ext)
                .unwrap()
        })
        .collect();
    let system = artifacts.compiled();
    let mut demoted = SessionCheckpoint::decode(&session.bytes)
        .unwrap()
        .into_demoted(&programs, system)
        .unwrap();
    demoted.monitor = edit(system, &demoted.monitor);
    session.bytes = SessionCheckpoint::from_demoted(&demoted).encode();
    (server, session)
}

/// `!BA(tock, nat)`: B's answer, which the metronome never allows first.
fn tock() -> Action {
    Action::send(
        Role::new("B"),
        Role::new("A"),
        Label::new("tock"),
        Sort::Nat,
    )
}

#[test]
fn a_checkpoint_whose_compliant_trace_does_not_replay_is_refused() {
    // The cursor and the counters are consistent with a one-action trace,
    // but that action cannot come first: the trace is forged, and restore
    // replays it instead of trusting it.
    let (mut server, forged) = drained_metronome_with(None, |system, monitor| {
        let trace = Trace::new(vec![tock()]);
        CompiledMonitor::resume(
            Arc::clone(system),
            monitor.cursor().clone(),
            trace,
            1,
            Vec::new(),
            1,
            true,
        )
    });
    match server.migrate_session(forged, 0) {
        Err(ServerError::Runtime(RuntimeError::Recovery { reason })) => {
            assert!(reason.contains("compliant trace action 0"), "{reason}");
        }
        other => panic!("a forged trace must be a recovery refusal, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn a_checkpoint_that_carries_a_violation_is_refused() {
    // A live session never carries a violation (its batch closes it at the
    // pass that saw one), so a checkpoint that does is not one the server
    // took, and restoring it would run a violator on.
    let (mut server, tainted) = drained_metronome_with(Some(200_000), |system, monitor| {
        let violation = MonitorViolation {
            action: tock(),
            position: monitor.observed(),
            trace_len: monitor.accepted(),
        };
        CompiledMonitor::resume(
            Arc::clone(system),
            monitor.cursor().clone(),
            monitor.trace().clone(),
            monitor.accepted(),
            vec![violation],
            monitor.observed() + 1,
            monitor.records_trace(),
        )
    });
    match server.migrate_session(tainted, 0) {
        Err(ServerError::Runtime(RuntimeError::Recovery { reason })) => {
            assert!(reason.contains("violation"), "{reason}");
        }
        other => panic!("a carried violation must be a recovery refusal, got {other:?}"),
    }
    assert!(server.drain().is_empty(), "nothing was restored");
    let report = server.shutdown();
    assert_eq!(report.sessions_violated(), 0, "{report}");
}

// ---------------------------------------------------------------------
// Quarantine: a violator ends where it stands
// ---------------------------------------------------------------------

/// Runs one session of the registered 3-ring with `decoy`'s skeleton cast
/// on one shard, and returns its outcome with the (still live) server.
fn run_ring_decoy(
    decoy: zooid_mpst::global::GlobalType,
) -> (zooid_server::SessionOutcome, SessionServer) {
    let mut registry = ProtocolRegistry::new();
    let id = registry
        .register(Protocol::new("ring", generators::ring_n(3)).unwrap())
        .unwrap();
    let decoy = Protocol::new("ring", decoy).unwrap();
    let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
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
    let violations = server
        .flight_events()
        .iter()
        .filter(|e| matches!(e, FlightEvent::Violation { .. }))
        .count();
    assert_eq!(violations, 1);
    let system = std::sync::Arc::clone(server.registry().get(outcome.protocol).unwrap().compiled());
    let incidents = server.incidents();
    assert_eq!(incidents.len(), 1);
    assert!(incidents[0].replays_violation(&system), "{:?}", incidents[0]);
}

#[test]
fn a_batched_violator_closes_from_its_demoted_state() {
    // The rotated-ring cast pre-interns against the registered tables, and
    // violates deterministically on its first send. The batch's demotion is
    // the end of it: the outcome is read off the extracted state.
    let (outcome, server) = run_ring_decoy(generators::ring(&["w2", "w0", "w1"]));
    assert_halted_at_the_first_action(&outcome, &server);
    let report = server.shutdown();
    assert_eq!(report.sessions_batched(), 1, "{report}");
    assert_eq!(report.sessions_demoted(), 1, "{report}");
    assert_eq!(report.sessions_slab(), 0, "{report}");
}

#[test]
fn an_uninternable_violator_closes_at_its_first_rejection() {
    // The twin whose sites do not pre-intern: the `bad` label is not in the
    // registered ring's tables, so the batch interns the first send when it
    // happens, finds no such action, and rejects it — in the session's
    // first quantum, which is also its last.
    use zooid_mpst::global::GlobalType;
    use zooid_mpst::{Role, Sort};
    let w = |i: usize| Role::new(format!("w{i}"));
    let hop = |from, to, cont| GlobalType::msg1(w(from), w(to), "bad", Sort::Nat, cont);
    let bad_label_ring = hop(0, 1, hop(1, 2, hop(2, 0, GlobalType::End)));
    let (outcome, server) = run_ring_decoy(bad_label_ring);
    assert_halted_at_the_first_action(&outcome, &server);
    let report = server.shutdown();
    assert_eq!(report.sessions_batched(), 1, "{report}");
    assert_eq!(report.sessions_demoted(), 1, "{report}");
    assert_eq!(report.sessions_slab(), 0, "{report}");
}

#[test]
fn a_rejected_send_that_fails_to_leave_still_ends_the_session() {
    // w0's process comes from a same-named protocol whose only message goes
    // to `w3`, a role the registered ring does not have: the monitor rejects
    // the send, and the send then fails, since the session has no such
    // peer. The rejection ends the session there and then, quarantined —
    // not stalled later, once its honest endpoints are found blocked.
    use zooid_mpst::global::GlobalType;
    use zooid_mpst::{Role, Sort};
    let w = |i: usize| Role::new(format!("w{i}"));
    let stray = GlobalType::msg1(w(0), w(3), "l", Sort::Nat, GlobalType::End);
    let mut endpoints = skeleton_endpoints(&Protocol::new("ring", stray).unwrap()).unwrap();
    endpoints.retain(|(cert, _)| *cert.role() == w(0));
    let (registry, id, honest) = registry_with("ring", generators::ring_n(3));
    endpoints.extend(honest.into_iter().filter(|(cert, _)| *cert.role() != w(0)));
    let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
    server.submit(SessionSpec::new(id, endpoints)).unwrap();
    let outcomes = server.drain();
    assert_eq!(outcomes.len(), 1);
    let outcome = &outcomes[0];
    assert!(outcome.quarantined && !outcome.compliant && !outcome.stalled, "{outcome:?}");
    assert_eq!(outcome.violations.len(), 1);
    let report = server.shutdown();
    assert_eq!(report.sessions_quarantined(), report.sessions_violated(), "{report}");
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
