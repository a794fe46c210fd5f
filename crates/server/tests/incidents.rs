//! Incident capture across every execution path: a monitor violation —
//! whether it happens on the per-session slab, inside a columnar batch
//! (demoting the session mid-flight), or on a session opened over the TCP
//! mux — must leave behind an [`zooid_server::Incident`] whose bounded
//! trace prefix *replays* to the very same violation against the compiled
//! system, and the record must be fetchable from a live server over the
//! wire.
//!
//! The violating sessions are honest counterexamples: the endpoints are
//! certified against a *decoy* protocol that shares the registered
//! protocol's name and participants (all submission-time validation
//! checks) but disagrees on the conversation itself, so the monitor is the
//! first — and only — line that can catch the divergence.

use std::time::Duration;

use zooid_dsl::Protocol;
use zooid_mpst::generators;
use zooid_mpst::global::GlobalType;
use zooid_mpst::{Role, Sort};
use zooid_runtime::exec::ExecOptions;
use zooid_runtime::MuxFrame;
use zooid_server::synth::skeleton_endpoints;
use zooid_server::{
    FlightEvent, NetClient, NetServer, NetServerConfig, ProtocolRegistry, ServerConfig, Service,
    SessionServer, SessionSpec,
};

const EVENT_TIMEOUT: Duration = Duration::from_secs(10);

/// A ring over `w0 w1 w2` whose label is not part of the registered ring
/// protocol: the endpoint programs cannot pre-intern their actions against
/// the registered tables, so the sessions run on the slab (compiled tasks,
/// monitored by lookup) and every communication is a monitor violation.
fn bad_label_ring() -> GlobalType {
    let w = |i: usize| Role::new(format!("w{i}"));
    GlobalType::msg1(
        w(0),
        w(1),
        "bad",
        Sort::Nat,
        GlobalType::msg1(
            w(1),
            w(2),
            "bad",
            Sort::Nat,
            GlobalType::msg1(w(2), w(0), "bad", Sort::Nat, GlobalType::End),
        ),
    )
}

/// The same three exchanges as `ring_n(3)` in a rotated global order
/// (`w2 -> w0` first). Every per-role communication site exists in the
/// registered protocol's tables, so the endpoints lower, pre-intern and
/// coalesce into a columnar batch — and the first send is a monitor
/// violation that demotes the session to the slab mid-flight.
fn rotated_ring() -> GlobalType {
    generators::ring(&["w2", "w0", "w1"])
}

fn registry_with_ring() -> (ProtocolRegistry, zooid_server::ProtocolId) {
    let mut registry = ProtocolRegistry::new();
    let id = registry
        .register(Protocol::new("ring", generators::ring_n(3)).unwrap())
        .unwrap();
    (registry, id)
}

#[test]
fn slab_violations_capture_replayable_incidents() {
    let (registry, id) = registry_with_ring();
    let decoy = Protocol::new("ring", bad_label_ring()).unwrap();
    let endpoints = skeleton_endpoints(&decoy).unwrap();
    let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
    for _ in 0..4 {
        server
            .submit(SessionSpec::new(id, endpoints.clone()))
            .unwrap();
    }
    let outcomes = server.drain();
    assert_eq!(outcomes.len(), 4);
    let total_violations: usize = outcomes.iter().map(|o| o.violations.len()).sum();
    for outcome in &outcomes {
        assert!(!outcome.compliant, "the decoy label must violate");
        assert!(!outcome.violations.is_empty());
    }

    let report = server.report();
    // The uninternable label keeps the sessions off the batch path.
    assert_eq!(report.sessions_slab(), 4, "{report}");
    assert_eq!(report.sessions_batched(), 0, "{report}");
    assert_eq!(
        report.obs.incidents_recorded,
        total_violations as u64,
        "one incident per violation"
    );

    let incidents = server.incidents();
    assert!(!incidents.is_empty());
    let system = std::sync::Arc::clone(server.registry().get(id).unwrap().compiled());
    for incident in &incidents {
        assert_eq!(incident.protocol, id);
        assert!(
            incident.replays_violation(&system),
            "incident must re-certify: {incident:?}"
        );
    }

    let events = server.flight_events();
    assert!(events
        .iter()
        .any(|e| matches!(e, FlightEvent::Admitted { batched: false, .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, FlightEvent::Violation { .. })));
    server.shutdown();
}

#[test]
fn batch_demotions_capture_replayable_incidents() {
    let (registry, id) = registry_with_ring();
    let decoy = Protocol::new("ring", rotated_ring()).unwrap();
    let endpoints = skeleton_endpoints(&decoy).unwrap();
    let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
    for _ in 0..8 {
        server
            .submit(SessionSpec::new(id, endpoints.clone()))
            .unwrap();
    }
    let outcomes = server.drain();
    assert_eq!(outcomes.len(), 8);
    for outcome in &outcomes {
        assert!(!outcome.compliant, "the rotated order must violate");
        assert!(!outcome.violations.is_empty());
    }

    let report = server.report();
    // The rotated endpoints pre-intern against the registered tables, so
    // they batch — and the out-of-order send demotes them mid-flight.
    assert_eq!(report.sessions_batched(), 8, "{report}");
    assert!(report.sessions_demoted() >= 1, "{report}");

    let system = std::sync::Arc::clone(server.registry().get(id).unwrap().compiled());
    let incidents = server.incidents();
    assert!(!incidents.is_empty());
    for incident in &incidents {
        assert!(
            incident.replays_violation(&system),
            "incident must re-certify: {incident:?}"
        );
    }

    let events = server.flight_events();
    assert!(events
        .iter()
        .any(|e| matches!(e, FlightEvent::Admitted { batched: true, .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, FlightEvent::BatchDemoted { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, FlightEvent::Violation { .. })));
    server.shutdown();
}

#[test]
fn mux_violations_surface_as_wire_queryable_incidents() {
    let (registry, id) = registry_with_ring();
    let decoy = Protocol::new("ring", bad_label_ring()).unwrap();
    let service = Service {
        protocol: id,
        endpoints: skeleton_endpoints(&decoy).unwrap().into(),
        options: ExecOptions::default(),
    };
    let server = NetServer::start(registry, [service], NetServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    let session = client.open("ring").unwrap();
    let deadline = std::time::Instant::now() + EVENT_TIMEOUT;
    let reported_violations = loop {
        match client.poll_event(Duration::from_millis(100)).unwrap() {
            Some(MuxFrame::Accepted { session: s }) => assert_eq!(s, session),
            Some(MuxFrame::Done {
                session: s,
                compliant,
                violations,
                ..
            }) => {
                assert_eq!(s, session);
                assert!(!compliant);
                assert!(violations > 0);
                break violations;
            }
            Some(other) => panic!("unexpected frame {other:?}"),
            None => assert!(
                std::time::Instant::now() < deadline,
                "no outcome within {EVENT_TIMEOUT:?}"
            ),
        }
    };

    // The incident record is queryable from the live server over the wire.
    let stats = client
        .fetch_stats(EVENT_TIMEOUT)
        .unwrap()
        .expect("stats reply within the timeout");
    assert_eq!(stats.net.sessions_done, 1);
    assert!(stats.shards.obs.incidents_recorded >= u64::from(reported_violations));
    assert!(stats.shards.obs.incidents_held >= 1);
    assert_eq!(
        stats.incidents.len() as u64,
        stats.shards.obs.incidents_held
    );
    for incident in &stats.incidents {
        assert_eq!(incident.protocol, id.index() as u32);
        assert!(!incident.role.is_empty());
        assert!(incident.action.contains("bad"), "{}", incident.action);
        assert!(
            !incident.truncated,
            "short traces must retain a full prefix"
        );
    }
    server.shutdown();
}
