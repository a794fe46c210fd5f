//! Quarantine on the serving plane: a violator closes where it stands.
//!
//! A violation ends the session: the first action its monitor rejects
//! closes it from the state its batch extracted, whether or not the cast's
//! sites were pre-interned. Nothing else interrupts a live session — the
//! server never moves one between shards — so this is the only way a
//! session leaves its batch before it is over. The checkpoint codec's trust
//! boundary is tested where the codec lives, in the runtime crate's
//! `durability` suite.

use zooid_dsl::Protocol;
use zooid_mpst::generators;
use zooid_server::synth::skeleton_endpoints;
use zooid_server::{FlightEvent, ProtocolRegistry, ServerConfig, SessionServer, SessionSpec};

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
