//! Incident capture on every path a violation takes: a monitor violation —
//! whether the cast's sites were pre-interned against the registered
//! tables or are interned when they happen, and whether the session was
//! submitted in process or opened over the TCP mux — must leave behind an
//! [`zooid_server::Incident`] whose bounded trace prefix *replays* to the
//! very same violation against the compiled system, and the record must be
//! fetchable from a live server over the wire.
//!
//! The violating sessions are honest counterexamples: the endpoints are
//! certified against a *decoy* protocol that shares the registered
//! protocol's name and participants (all submission-time validation
//! checks) but disagrees on the conversation itself, so the monitor is the
//! first — and only — line that can catch the divergence.

use std::sync::Arc;
use std::time::Duration;

use zooid_dsl::Protocol;
use zooid_mpst::generators;
use zooid_mpst::global::GlobalType;
use zooid_mpst::{Role, Sort};
use zooid_proc::{Expr, Externals, Proc, Value};
use zooid_runtime::exec::ExecOptions;
use zooid_server::synth::{byzantine_driver, skeleton_endpoints};
use zooid_server::{
    ByzantineMutation, ExpectedClass, FlightEvent, NetClient, NetServer, NetServerConfig,
    ProtocolRegistry, ServerConfig, Service, SessionServer, SessionSpec,
};

const EVENT_TIMEOUT: Duration = Duration::from_secs(10);

/// A ring over `w0 w1 w2` whose label is not part of the registered ring
/// protocol: the endpoint programs cannot pre-intern their actions against
/// the registered tables, so the batch interns each action when it happens,
/// and every communication is a monitor violation.
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
/// registered protocol's tables, so the endpoints lower and pre-intern —
/// and the first send is a monitor violation that demotes the session
/// mid-flight.
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
fn uninterned_violations_capture_replayable_incidents() {
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
    // The uninternable label is monitored by lookup, inside the batch.
    assert_eq!(report.sessions_batched(), 4, "{report}");
    assert_eq!(report.sessions_slab(), 0, "{report}");
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
        .any(|e| matches!(e, FlightEvent::Admitted { .. })));
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
        .any(|e| matches!(e, FlightEvent::Admitted { .. })));
    let violations = events
        .iter()
        .filter(|e| matches!(e, FlightEvent::Violation { .. }))
        .count();
    assert_eq!(violations as u64, report.sessions_demoted(), "{report}");
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

    // The session's one answer is its non-compliant `Done`.
    let done = client.open_with("ring", EVENT_TIMEOUT).unwrap();
    assert!(!done.compliant);
    assert!(done.violations > 0);
    let reported_violations = done.violations;

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

/// A violator that ran unrecorded leaves the very incident its recorded
/// twin does: the shard re-runs its cast once with recording on, and a
/// batch steps a session the same way at any width, so the re-run repeats
/// it action for action. The delivered outcome stays unrecorded.
#[test]
fn an_unrecorded_violator_leaves_its_recorded_twins_incident() {
    let mut longest_prefix = 0;
    for (name, g) in [("ring3", generators::ring3()), ("two_buyer", generators::two_buyer())] {
        for mutation in ByzantineMutation::all() {
            if mutation.expected() != ExpectedClass::Violation {
                continue;
            }
            let context = format!("{name}/{mutation}");
            let protocol = Protocol::new(name, g.clone()).unwrap();
            let Some(driver) = byzantine_driver(&protocol, mutation).unwrap() else {
                continue;
            };
            let mut registry = ProtocolRegistry::new();
            let id = registry.register(protocol).unwrap();
            let cast: Arc<[_]> = driver.endpoints.into();
            let spec = |record| SessionSpec {
                protocol: id,
                endpoints: Arc::clone(&cast),
                options: ExecOptions::default().record_actions(record),
            };
            let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
            let recorded = server.submit(spec(true)).unwrap();
            let unrecorded = server.submit(spec(false)).unwrap();
            let outcomes = server.drain();
            assert_eq!(outcomes.len(), 2, "{context}");
            let quiet = outcomes.iter().find(|o| o.id == unrecorded).unwrap();
            assert!(quiet.quarantined, "{context}");
            assert!(quiet.global_trace.is_empty(), "{context}: the outcome stays unrecorded");

            let incidents = server.incidents();
            assert_eq!(incidents.len(), 2, "{context}: one incident per violator");
            let of = |session| {
                let incident = incidents.iter().find(|i| i.session == session);
                incident.expect("each violator has its incident").clone()
            };
            let (twin, mut rerun) = (of(recorded), of(unrecorded));
            let system = Arc::clone(server.registry().get(id).unwrap().compiled());
            assert!(!rerun.truncated, "{context}: {rerun:?}");
            assert!(rerun.replays_violation(&system), "{context}: {rerun:?}");
            longest_prefix = longest_prefix.max(rerun.trace_prefix.len());
            rerun.session = twin.session;
            assert_eq!(rerun, twin, "{context}");
            server.shutdown();
        }
    }
    assert!(longest_prefix > 0, "some violation comes after compliant actions");

    // A cast that calls an external keeps its incomplete incident: a re-run
    // could not repeat what the environment answered.
    let (p, q) = (Role::new("p"), Role::new("q"));
    let twice = |second: &str| {
        let tail = GlobalType::msg1(p.clone(), q.clone(), second, Sort::Nat, GlobalType::End);
        GlobalType::msg1(p.clone(), q.clone(), "a", Sort::Nat, tail)
    };
    let registered = Protocol::new("ticks", twice("b")).unwrap();
    let decoy = Protocol::new("ticks", twice("c")).unwrap();
    let mut externals = Externals::new();
    externals.register_read("src", Sort::Nat, || Value::Nat(7));
    let sends = Proc::send(q.clone(), "c", Expr::var("x"), Proc::Finish);
    let reader = Proc::read("src", "x", Proc::send(q.clone(), "a", Expr::var("x"), sends));
    let sourced = decoy
        .implement_against_projection(&p, reader, &externals)
        .unwrap();
    let mut endpoints = skeleton_endpoints(&registered).unwrap();
    endpoints.retain(|(cert, _)| cert.role() == &q);
    endpoints.push((sourced, externals));
    let mut registry = ProtocolRegistry::new();
    let id = registry.register(registered).unwrap();
    let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
    let spec = SessionSpec {
        protocol: id,
        endpoints: endpoints.into(),
        options: ExecOptions::default().record_actions(false),
    };
    server.submit(spec).unwrap();
    let outcomes = server.drain();
    assert!(outcomes[0].quarantined);
    let incidents = server.incidents();
    assert_eq!(incidents.len(), 1);
    let incident = &incidents[0];
    assert_eq!(incident.trace_len, 2, "`p` sent `a` and `q` took it: {incident:?}");
    assert!(incident.truncated && incident.trace_prefix.is_empty(), "{incident:?}");
    server.shutdown();
}
