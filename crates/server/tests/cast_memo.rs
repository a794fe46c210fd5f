//! The per-protocol cast memos: submission skips `validate_spec`, and a
//! shard skips resolution, for a cast that repeats the one it last
//! accepted. A cast is known by its certificates: it repeats when it is
//! the same handle, or a new list of the same certificates in the same
//! order. A memo hit must never change what a session does — which cast
//! runs, whether it is refused, whether its externals are called — only
//! what admitting it costs, and `casts_resolved` counts what it still
//! costs. A cast with any certificate of its own, or the same ones in
//! another order, is a miss.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use zooid_dsl::{CertifiedProcess, Protocol};
use zooid_mpst::global::GlobalType;
use zooid_mpst::{generators, Role, Sort};
use zooid_proc::{Expr, Externals, Proc, Value};
use zooid_server::synth::{byzantine_driver, skeleton_endpoints};
use zooid_server::{
    ByzantineMutation, ExpectedClass, ProtocolId, ProtocolRegistry, ServerConfig, ServerError,
    SessionServer, SessionSpec,
};

type Cast = Arc<[(CertifiedProcess, Externals)]>;

fn ring() -> (ProtocolRegistry, ProtocolId, Protocol) {
    let protocol = Protocol::new("ring", generators::ring3()).unwrap();
    let mut registry = ProtocolRegistry::new();
    let id = registry.register(protocol.clone()).unwrap();
    (registry, id, protocol)
}

#[test]
fn one_set_of_certificates_is_resolved_once_per_shard_whatever_its_handle() {
    let (registry, id, protocol) = ring();
    let endpoints = skeleton_endpoints(&protocol).unwrap();
    let shared: Cast = endpoints.clone().into();
    let mut server = SessionServer::start(registry, ServerConfig::with_shards(2));
    for _ in 0..1_000 {
        server
            .submit(SessionSpec::new(id, Arc::clone(&shared)))
            .unwrap();
    }
    let outcomes = server.drain();
    assert_eq!(outcomes.len(), 1_000);
    assert!(outcomes.iter().all(|o| o.all_finished_and_compliant()));
    let report = server.shutdown();
    assert!(report.casts_resolved() <= 2, "{report}");
    assert!(
        report.shards.iter().all(|s| s.casts_resolved <= 1),
        "{report}"
    );

    let (registry, id, _) = ring();
    let mut server = SessionServer::start(registry, ServerConfig::with_shards(2));
    for _ in 0..100 {
        // A `Vec` is a new `Arc` per spec, of the same certificates.
        server
            .submit(SessionSpec::new(id, endpoints.clone()))
            .unwrap();
    }
    let outcomes = server.drain();
    assert!(outcomes.iter().all(|o| o.all_finished_and_compliant()));
    let report = server.shutdown();
    assert!(report.casts_resolved() <= 2, "{report}");
    assert!(
        report.shards.iter().all(|s| s.casts_resolved <= 1),
        "{report}"
    );

    let (registry, id, protocol) = ring();
    let mut server = SessionServer::start(registry, ServerConfig::with_shards(2));
    for _ in 0..100 {
        // Each call certifies the processes anew: new certificates, equal
        // to the last ones but not the same, so a new cast every time.
        let recertified = skeleton_endpoints(&protocol).unwrap();
        server.submit(SessionSpec::new(id, recertified)).unwrap();
    }
    let outcomes = server.drain();
    assert!(outcomes.iter().all(|o| o.all_finished_and_compliant()));
    let report = server.shutdown();
    assert_eq!(report.casts_resolved(), 100, "{report}");
}

#[test]
fn the_same_certificates_in_another_order_are_a_new_cast_that_runs_alike() {
    let (registry, id, protocol) = ring();
    let forward: Cast = skeleton_endpoints(&protocol).unwrap().into();
    let backward: Cast = forward.iter().rev().cloned().collect();
    let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
    for n in 0..20 {
        let cast = if n % 2 == 0 { &forward } else { &backward };
        // A new list each time: only its order tells the two casts apart.
        server.submit(SessionSpec::new(id, cast.to_vec())).unwrap();
    }
    let outcomes = server.drain();
    assert_eq!(outcomes.len(), 20);
    assert!(outcomes.iter().all(|o| o.all_finished_and_compliant()));
    let first = &outcomes[0];
    assert!(outcomes
        .iter()
        .all(|o| o.endpoints == first.endpoints && o.global_trace == first.global_trace));
    let report = server.shutdown();
    assert_eq!(report.casts_resolved(), 20, "{report}");
}

#[test]
fn one_byzantine_certificate_among_the_honest_ones_is_a_new_cast_and_is_quarantined() {
    let (registry, id, protocol) = ring();
    let driver = ByzantineMutation::all()
        .into_iter()
        .filter_map(|mutation| byzantine_driver(&protocol, mutation).unwrap())
        .find(|d| d.mutation.expected() == ExpectedClass::Violation)
        .expect("the ring has a violating mutation");
    // The honest cast with its actor last, and the same list with only the
    // actor's certificate swapped for the mutant's: the casts share their
    // length, their first certificate and all but the last.
    let mut honest = skeleton_endpoints(&protocol).unwrap();
    honest.sort_by_key(|(cert, _)| *cert.role() == driver.actor);
    let mut mixed = honest.clone();
    let mutant = driver
        .endpoints
        .iter()
        .find(|(cert, _)| *cert.role() == driver.actor)
        .unwrap();
    *mixed.last_mut().unwrap() = mutant.clone();
    let (honest, mixed): (Cast, Cast) = (honest.into(), mixed.into());
    let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
    let mut submitted = Vec::new();
    for n in 0..20 {
        let is_honest = n % 2 == 0;
        let cast = if is_honest { &honest } else { &mixed };
        let sid = server.submit(SessionSpec::new(id, cast.to_vec())).unwrap();
        submitted.push((sid, is_honest));
    }
    let outcomes = server.drain();
    assert_eq!(outcomes.len(), 20);
    for outcome in &outcomes {
        let (_, is_honest) = submitted
            .iter()
            .find(|(sid, _)| *sid == outcome.id)
            .unwrap();
        if *is_honest {
            assert!(
                outcome.all_finished_and_compliant() && !outcome.quarantined,
                "honest session {outcome:?}"
            );
        } else {
            assert!(
                outcome.quarantined && !outcome.compliant,
                "mixed session {outcome:?}"
            );
        }
    }
    let report = server.shutdown();
    assert_eq!(report.sessions_quarantined(), 10, "{report}");
    assert_eq!(report.casts_resolved(), 20, "{report}");
}

#[test]
fn alternating_two_casts_of_one_protocol_never_serves_a_stale_layout() {
    // The skeleton and a byzantine cast of the same protocol share its
    // memo entry, so each switch is a miss on the submitting side and on
    // whichever shard the session lands. A stale layout would run the
    // honest cast as the mutant (a quarantined skeleton) or the mutant as
    // the honest cast (a compliant violator).
    let (registry, id, protocol) = ring();
    let skeleton: Cast = skeleton_endpoints(&protocol).unwrap().into();
    let drivers: Vec<_> = ByzantineMutation::all()
        .into_iter()
        .filter_map(|mutation| byzantine_driver(&protocol, mutation).unwrap())
        .collect();
    assert!(drivers
        .iter()
        .any(|d| d.mutation.expected() == ExpectedClass::Violation));
    let mut server = SessionServer::start(registry, ServerConfig::with_shards(2));
    for driver in &drivers {
        let mutant: Cast = driver.endpoints.clone().into();
        let mut submitted = Vec::new();
        // Runs of one, two and three sessions per cast, so hits and misses
        // both occur on both shards.
        for run in [1, 1, 2, 1, 3, 2, 1, 1, 3, 3] {
            for (cast, honest) in [(&skeleton, true), (&mutant, false)] {
                for _ in 0..run {
                    let sid = server
                        .submit(SessionSpec::new(id, Arc::clone(cast)))
                        .unwrap();
                    submitted.push((sid, honest));
                }
            }
        }
        let outcomes = server.drain();
        assert_eq!(outcomes.len(), submitted.len());
        for outcome in &outcomes {
            let honest = submitted
                .iter()
                .find(|(sid, _)| *sid == outcome.id)
                .unwrap()
                .1;
            if honest {
                assert!(
                    outcome.all_finished_and_compliant() && !outcome.quarantined,
                    "{}: skeleton session {:?}",
                    driver.mutation,
                    outcome
                );
            } else if driver.mutation.expected() == ExpectedClass::Violation {
                assert!(
                    outcome.quarantined && !outcome.compliant,
                    "{}: mutant session {:?}",
                    driver.mutation,
                    outcome
                );
            } else {
                assert!(
                    outcome.compliant && !outcome.complete && !outcome.quarantined,
                    "{}: silent mutant session {:?}",
                    driver.mutation,
                    outcome
                );
            }
        }
    }
    server.shutdown();
}

#[test]
fn an_invalid_handle_is_refused_every_time_it_is_submitted() {
    let (registry, id, protocol) = ring();
    let endpoints = skeleton_endpoints(&protocol).unwrap();
    let valid: Cast = endpoints.clone().into();
    let missing: Cast = endpoints[..2].to_vec().into();
    let mut server = SessionServer::start(registry, ServerConfig::with_shards(2));
    let refuse = |server: &mut SessionServer| {
        for _ in 0..3 {
            assert!(matches!(
                server.submit(SessionSpec::new(id, Arc::clone(&missing))),
                Err(ServerError::MissingEndpoint { .. })
            ));
        }
    };
    refuse(&mut server);
    for _ in 0..4 {
        server
            .submit(SessionSpec::new(id, Arc::clone(&valid)))
            .unwrap();
    }
    // The protocol's memo now holds an accepted cast of the same
    // protocol; the refused handle is still checked, and still refused.
    refuse(&mut server);
    server
        .submit(SessionSpec::new(id, Arc::clone(&valid)))
        .unwrap();
    let outcomes = server.drain();
    assert_eq!(outcomes.len(), 5);
    assert!(outcomes.iter().all(|o| o.all_finished_and_compliant()));
    let report = server.shutdown();
    assert_eq!(report.sessions_started(), 5, "{report}");
}

#[test]
fn a_remembered_cast_still_calls_its_externals_in_every_session() {
    // `A -> B : m(nat). end`, with A reading its payload from the
    // environment: the call happens in the session, not at resolution, so
    // a memo hit must not skip it.
    let (a, b) = (Role::new("A"), Role::new("B"));
    let g = GlobalType::msg1(a.clone(), b.clone(), "m", Sort::Nat, GlobalType::End);
    let protocol = Protocol::new("sourced", g).unwrap();
    let calls = Arc::new(AtomicU64::new(0));
    let mut externals = Externals::new();
    let counter = Arc::clone(&calls);
    externals.register_read("src", Sort::Nat, move || {
        Value::Nat(counter.fetch_add(1, Ordering::Relaxed))
    });
    let reader = Proc::read(
        "src",
        "x",
        Proc::send(b.clone(), "m", Expr::var("x"), Proc::Finish),
    );
    let reader = protocol
        .implement_against_projection(&a, reader, &externals)
        .expect("the reader implements A");
    let mut endpoints = vec![(reader, externals)];
    endpoints.extend(
        skeleton_endpoints(&protocol)
            .unwrap()
            .into_iter()
            .filter(|(cert, _)| *cert.role() == b),
    );
    let cast: Cast = endpoints.into();
    let mut registry = ProtocolRegistry::new();
    let id = registry.register(protocol).unwrap();
    let mut server = SessionServer::start(registry, ServerConfig::with_shards(2));
    for _ in 0..50 {
        server
            .submit(SessionSpec::new(id, Arc::clone(&cast)))
            .unwrap();
    }
    let outcomes = server.drain();
    assert_eq!(outcomes.len(), 50);
    assert!(outcomes.iter().all(|o| o.all_finished_and_compliant()));
    assert_eq!(calls.load(Ordering::Relaxed), 50);
    // Every value read was sent: each session made its own call.
    let mut sent: Vec<u64> = outcomes
        .iter()
        .map(|o| {
            let actions = &o.endpoints[&b].actions;
            assert_eq!(actions.len(), 1);
            actions[0].value.as_nat().unwrap()
        })
        .collect();
    sent.sort_unstable();
    assert_eq!(sent, (0..50).collect::<Vec<_>>());
    let report = server.shutdown();
    assert!(report.casts_resolved() <= 2, "{report}");
}
