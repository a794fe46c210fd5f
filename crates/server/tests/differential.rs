//! Differential tests: the sharded session server against the
//! [`SessionHarness`] (every endpoint stepped in lockstep over in-memory
//! channels), and the [`CompiledMonitor`] against the [`TraceMonitor`] —
//! the exhaustive-oracle pattern the ROADMAP mandates for every engine
//! replacement.
//!
//! Skeleton endpoints (first-branch sends with default payloads) make every
//! session fully deterministic per endpoint, so a protocol run through the
//! harness and through the server — under any shard schedule, with any
//! number of concurrent copies — must produce identical per-endpoint
//! statuses and traces, values included.

use std::collections::BTreeMap;

use rand::{Rng, SeedableRng, StdRng};
use zooid_dsl::Protocol;
use zooid_mpst::generators::{self, RandomProtocol};
use zooid_mpst::{Action, ActionKind, Label, Role, Sort};
use zooid_proc::ValueAction;
use zooid_runtime::monitor::CompiledMonitor;
use zooid_runtime::{EndpointStatus, SessionHarness, TraceMonitor};
use zooid_server::synth::skeleton_endpoints;
use zooid_server::{ProtocolRegistry, ServerConfig, SessionServer, SessionSpec};

const MAX_STEPS: usize = 32;

struct Baseline {
    /// Per-role (status, full value-level trace).
    endpoints: BTreeMap<Role, (EndpointStatus, Vec<ValueAction>)>,
    compliant: bool,
    complete: bool,
    global_trace: Vec<Action>,
}

/// Runs the protocol's skeletons once through the harness, each endpoint
/// stopped after `max_steps` communications.
fn harness_baseline(protocol: &Protocol, max_steps: usize) -> Baseline {
    let endpoints = skeleton_endpoints(protocol).expect("skeletons certify");
    let mut harness = SessionHarness::new(protocol.clone());
    for (cert, ext) in endpoints {
        harness.add_endpoint(cert, ext).unwrap();
    }
    harness.with_max_steps(max_steps);
    let report = harness.run().expect("harness runs");
    Baseline {
        endpoints: report
            .endpoints
            .iter()
            .map(|(role, r)| (role.clone(), (r.status.clone(), r.actions.clone())))
            .collect(),
        compliant: report.compliant,
        complete: report.complete,
        global_trace: report.global_trace.actions().to_vec(),
    }
}

/// The randomized protocol corpus: every seed whose protocol is projectable
/// (registration succeeds) and synthesizable.
fn random_corpus() -> Vec<Protocol> {
    let params = RandomProtocol::default();
    let mut corpus = Vec::new();
    for seed in 0..200u64 {
        if corpus.len() >= 25 {
            break;
        }
        let g = generators::random_global(seed, &params);
        let protocol = Protocol::new(format!("rand{seed}"), g).unwrap();
        if protocol.project_all().is_err() {
            continue;
        }
        if skeleton_endpoints(&protocol).is_err() {
            continue;
        }
        corpus.push(protocol);
    }
    assert!(corpus.len() >= 10, "corpus too small: {}", corpus.len());
    corpus
}

#[test]
fn server_sessions_match_the_harness_on_randomized_protocols() {
    let mut protocols = random_corpus();
    protocols.push(Protocol::new("ring", generators::ring3()).unwrap());
    protocols.push(Protocol::new("two_buyer", generators::two_buyer()).unwrap());
    protocols.push(Protocol::new("fanout", generators::fanout_n(5)).unwrap());

    // One server hosts every protocol at once, on 4 shards.
    let mut registry = ProtocolRegistry::new();
    let mut submissions = Vec::new();
    for protocol in &protocols {
        let id = registry.register(protocol.clone()).unwrap();
        let endpoints = skeleton_endpoints(protocol).unwrap();
        submissions.push((id, endpoints));
    }
    let baselines: BTreeMap<_, _> = protocols
        .iter()
        .zip(&submissions)
        .map(|(protocol, (id, _))| (*id, harness_baseline(protocol, MAX_STEPS)))
        .collect();

    let mut server = SessionServer::start(registry, ServerConfig::with_shards(4));
    // 1..=64 concurrent copies per protocol, varying across the corpus.
    let copy_counts = [1usize, 13, 64];
    let mut expected = BTreeMap::new();
    for (i, (id, endpoints)) in submissions.iter().enumerate() {
        let copies = copy_counts[i % copy_counts.len()];
        for _ in 0..copies {
            server
                .submit(SessionSpec::new(*id, endpoints.clone()).with_max_steps(MAX_STEPS))
                .unwrap();
        }
        *expected.entry(*id).or_insert(0usize) += copies;
    }
    let outcomes = server.drain();
    assert_eq!(outcomes.len(), expected.values().sum::<usize>());

    let mut seen = BTreeMap::new();
    for outcome in &outcomes {
        *seen.entry(outcome.protocol).or_insert(0usize) += 1;
        let baseline = &baselines[&outcome.protocol];
        assert_eq!(outcome.compliant, baseline.compliant, "{:?}", outcome.id);
        assert_eq!(outcome.complete, baseline.complete, "{:?}", outcome.id);
        assert!(outcome.violations.is_empty() == baseline.compliant);
        assert_eq!(outcome.endpoints.len(), baseline.endpoints.len());
        for (role, report) in &outcome.endpoints {
            let (expected_status, expected_actions) = &baseline.endpoints[role];
            assert_eq!(
                &report.status, expected_status,
                "status of `{role}` in {:?}",
                outcome.id
            );
            assert_eq!(
                &report.actions, expected_actions,
                "trace of `{role}` in {:?}",
                outcome.id
            );
        }
    }
    assert_eq!(seen, expected, "every submitted copy finished exactly once");

    let report = server.shutdown();
    assert_eq!(report.sessions_started() as usize, outcomes.len());
    assert_eq!(report.sessions_completed() as usize, outcomes.len());
    assert_eq!(report.sessions_violated(), 0, "skeletons are certified");
}

/// Mutations of a valid action used to probe the reject paths.
fn sabotaged(action: &Action) -> Vec<Action> {
    let mut out = vec![
        action.dual(),
        // Unknown label and a label from another protocol's namespace.
        Action::send(action.from().clone(), action.to().clone(), Label::new("zzz"), action.sort().clone()),
        // Wrong sort.
        Action::send(action.from().clone(), action.to().clone(), action.label().clone(), Sort::Str),
        // Reversed endpoints.
        Action::send(action.to().clone(), action.from().clone(), action.label().clone(), action.sort().clone()),
        // A role foreign to the protocol.
        Action::send(Role::new("zz_intruder"), action.to().clone(), action.label().clone(), action.sort().clone()),
    ];
    if action.kind() == ActionKind::Recv {
        out.push(Action::recv(
            action.to().clone(),
            action.from().clone(),
            Label::new("zzz"),
            action.sort().clone(),
        ));
    }
    out
}

#[test]
fn compiled_and_trace_monitors_agree_on_every_action() {
    let mut protocols = random_corpus();
    protocols.push(Protocol::new("ring", generators::ring3()).unwrap());
    protocols.push(Protocol::new("two_buyer", generators::two_buyer()).unwrap());

    let mut rng = StdRng::seed_from_u64(0xd1ff);
    let mut observations = 0usize;
    let mut rejections = 0usize;
    for protocol in &protocols {
        let baseline = harness_baseline(protocol, MAX_STEPS);
        let mut reference = TraceMonitor::new(protocol.global()).unwrap();
        let mut compiled = CompiledMonitor::for_global(protocol.global()).unwrap();

        for action in &baseline.global_trace {
            // Probe a random mutation before each valid action: both
            // monitors must hand down the same verdict, whatever it is. A
            // mutation can be *legal* (e.g. the dual of a pending send), so
            // its acceptance is first probed on clones; only a rejected
            // probe is replayed into the live monitors — recording a
            // violation on both — to keep the baseline stream on course.
            let mutations = sabotaged(action);
            let probe = &mutations[rng.gen_range(0..mutations.len())];
            let r = reference.clone().observe(probe);
            let c = compiled.clone().observe(probe);
            assert_eq!(r, c, "{}: monitors disagree on probe {probe}", protocol.name());
            observations += 1;
            if !r {
                assert!(!reference.observe(probe));
                assert!(!compiled.observe(probe));
                rejections += 1;
            }

            let r = reference.observe(action);
            let c = compiled.observe(action);
            assert_eq!(r, c, "{}: monitors disagree on {action}", protocol.name());
            assert!(r, "{}: baseline action {action} rejected", protocol.name());
            observations += 1;
        }
        assert_eq!(reference.trace(), compiled.trace(), "{}", protocol.name());
        assert_eq!(
            reference.violations(),
            compiled.violations(),
            "{}",
            protocol.name()
        );
        assert_eq!(
            reference.is_complete(),
            compiled.is_complete(),
            "{}",
            protocol.name()
        );
        assert_eq!(reference.is_complete(), baseline.complete, "{}", protocol.name());
    }
    assert!(observations > 100, "suite too small: {observations}");
    assert!(rejections > 20, "probes never exercised the reject path");
}

#[test]
fn a_single_copy_on_one_shard_matches_the_harness_exactly() {
    let protocol = Protocol::new("ring", generators::ring3()).unwrap();
    let baseline = harness_baseline(&protocol, MAX_STEPS);

    let mut registry = ProtocolRegistry::new();
    let id = registry.register(protocol.clone()).unwrap();
    let endpoints = skeleton_endpoints(&protocol).unwrap();
    let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
    server.submit(SessionSpec::new(id, endpoints)).unwrap();
    let outcomes = server.drain();
    server.shutdown();

    assert_eq!(outcomes.len(), 1);
    let outcome = &outcomes[0];
    assert!(outcome.all_finished_and_compliant());
    assert_eq!(outcome.compliant, baseline.compliant);
    assert_eq!(outcome.complete, baseline.complete);
    for (role, report) in &outcome.endpoints {
        assert_eq!(report.actions, baseline.endpoints[role].1, "{role}");
    }
}

/// Runs `copies` of the protocol's skeletons on a two-shard server, each
/// endpoint stopped after `max_steps` communications, and holds every copy
/// to the harness: the verdict, and each endpoint's status and value trace.
fn assert_step_bounded_copies_match_the_harness(protocol: &Protocol, max_steps: usize, copies: usize) {
    let baseline = harness_baseline(protocol, max_steps);
    let mut registry = ProtocolRegistry::new();
    let id = registry.register(protocol.clone()).unwrap();
    let endpoints = skeleton_endpoints(protocol).unwrap();
    let mut server = SessionServer::start(registry, ServerConfig::with_shards(2));
    for _ in 0..copies {
        server
            .submit(SessionSpec::new(id, endpoints.clone()).with_max_steps(max_steps))
            .unwrap();
    }
    let outcomes = server.drain();
    server.shutdown();

    assert_eq!(outcomes.len(), copies);
    let name = protocol.name();
    for outcome in &outcomes {
        assert_eq!(outcome.compliant, baseline.compliant, "{name}");
        assert_eq!(outcome.complete, baseline.complete, "{name}");
        assert_eq!(outcome.endpoints.len(), baseline.endpoints.len(), "{name}");
        for (role, report) in &outcome.endpoints {
            let (status, actions) = &baseline.endpoints[role];
            assert_eq!(&report.status, status, "{name}: status of `{role}`");
            assert_eq!(&report.actions, actions, "{name}: trace of `{role}`");
        }
    }
    // A bound that cuts the loop mid-round leaves a receiver waiting on a
    // sender that stopped: both sides call it stalled.
    assert!(
        baseline
            .endpoints
            .values()
            .any(|(status, _)| *status == EndpointStatus::Stalled),
        "{name}: the bound leaves some endpoint waiting"
    );
}

#[test]
fn a_step_bounded_pipeline_matches_the_harness_exactly() {
    let protocol = Protocol::new("pipeline", generators::pipeline()).unwrap();
    assert_step_bounded_copies_match_the_harness(&protocol, 12, 8);
}

#[test]
fn a_step_bounded_chain_matches_the_harness_exactly() {
    let protocol = Protocol::new("chain5", generators::chain_n(5)).unwrap();
    assert_step_bounded_copies_match_the_harness(&protocol, 9, 8);
}
