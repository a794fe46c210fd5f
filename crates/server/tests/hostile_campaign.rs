//! The hostile-world campaign: every case study is marched through a
//! fault-injecting transport and a synthesized byzantine cast, and the
//! serving plane must contain the damage.
//!
//! Three fronts, mirroring the three layers under test:
//!
//! 1. **Transport faults** — the seed-driven [`FaultyTransport`] injects
//!    delays, drops, duplicates, reorders, truncations and mid-session
//!    disconnects below honest endpoints. Each fault kind has a known
//!    outcome class (a drop stalls, a truncation is a structured codec
//!    error, a disconnect is a structured disconnect, ...), the
//!    [`CompiledMonitor`] and [`TraceMonitor`] must agree on every observed
//!    action, and the injected schedule must be byte-identical across runs
//!    and across backends (in-memory and real loopback TCP) for the same
//!    seed.
//! 2. **Byzantine casts** — [`byzantine_driver`] synthesizes minimally-
//!    wrong endpoint casts (one mutation per driver). A cast is the batch
//!    plane's real hostile input: its frame arena is process memory that
//!    only the batch writes. Sessions landing in the `Violation` class must
//!    be quarantined, since a violation ends the session: exactly one
//!    recorded violation (the zero-post-quarantine-steps witness), a
//!    replayable incident, counted per shard and per protocol, with
//!    co-resident compliant sessions untouched — whether the cast's sites
//!    were pre-interned or are interned as they happen. Every outcome is
//!    quarantined exactly when it is not compliant, and every report counts
//!    as many quarantines as violations.
//! 3. **The wire** — a violating catalog session costs the connection that
//!    opened it nothing: the opener reads a non-compliant `Done` and its
//!    next `Open` is served; and a connection that never sends a decodable
//!    frame is reaped at the idle deadline.

use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use zooid_cfsm::System;
use zooid_dsl::Protocol;
use zooid_mpst::global::GlobalType;
use zooid_mpst::{generators, Role};
use zooid_proc::{Externals, Proc};
use zooid_runtime::exec::{EndpointStatus, EndpointTask, ExecOptions, StepOutcome};
use zooid_runtime::monitor::{CompiledMonitor, TraceMonitor};
use zooid_runtime::tcp::TcpTransport;
use zooid_runtime::transport::{InMemoryNetwork, Transport};
use zooid_runtime::{FaultKind, FaultPlan, FaultSite, FaultSpec, FaultyTransport, InjectedFault};
use zooid_server::obs::CloseReason;
use zooid_server::synth::{byzantine_driver, skeleton_endpoints};
use zooid_server::{
    ByzantineMutation, ExpectedClass, FlightEvent, NetClient, NetServer, NetServerConfig,
    ProtocolRegistry, ServerConfig, Service, SessionServer, SessionSpec,
};

const EVENT_TIMEOUT: Duration = Duration::from_secs(10);

fn case_studies() -> Vec<(&'static str, GlobalType)> {
    vec![
        ("ring3", generators::ring_n(3)),
        ("two_buyer", generators::two_buyer()),
        ("fanout4", generators::fanout_n(4)),
    ]
}

/// The `(sender, receiver)` of the protocol's first exchange: the sender is
/// the fault target for send-site faults, the receiver for recv-site ones.
fn first_edge(g: &GlobalType) -> (Role, Role) {
    match g {
        GlobalType::Msg { from, to, .. } => (from.clone(), to.clone()),
        GlobalType::Rec(body) => first_edge(body),
        _ => panic!("case studies open with a message"),
    }
}

/// Certified skeleton endpoints flattened to `(role, proc)` pairs for the
/// transport-level driver.
fn skeleton_procs(name: &str, g: &GlobalType) -> Vec<(Role, Proc)> {
    let protocol = Protocol::new(name, g.clone()).expect("case studies are well-formed");
    skeleton_endpoints(&protocol)
        .expect("case studies synthesize")
        .into_iter()
        .map(|(cp, _)| (cp.role().clone(), cp.proc().clone()))
        .collect()
}

// ---------------------------------------------------------------------
// The cooperative driver over fault-wrapped transports
// ---------------------------------------------------------------------

#[derive(Debug)]
struct CampaignRun {
    statuses: BTreeMap<Role, EndpointStatus>,
    compliant: bool,
    complete: bool,
    /// The injected-fault schedule of every endpoint (non-target endpoints
    /// carry an empty plan and must stay empty).
    schedules: BTreeMap<Role, Vec<InjectedFault>>,
}

/// Wraps every endpoint in a [`FaultyTransport`]; only `target` gets the
/// real plan, the rest run the (behaviourally invisible) empty plan.
fn wrap<T: Transport>(
    endpoints: Vec<(Role, T)>,
    target: &Role,
    plan: &FaultPlan,
) -> Vec<(Role, FaultyTransport<T>)> {
    let empty = FaultPlan::new(0);
    endpoints
        .into_iter()
        .map(|(role, transport)| {
            let p = if &role == target { plan } else { &empty };
            let wrapped = FaultyTransport::new(transport, p);
            (role, wrapped)
        })
        .collect()
}

/// Steps every endpoint round-robin (drain-until-block) with the two
/// monitors in lockstep until all are done or the session stalls.
///
/// Stall detection needs *both* guards: the round floor keeps polling long
/// enough for a delayed message to reach its release tick (the fault
/// transport only advances its clock when it is called), and the time
/// grace absorbs real TCP delivery latency.
fn drive<T: Transport>(
    g: &GlobalType,
    procs: &[(Role, Proc)],
    options: &ExecOptions,
    mut endpoints: Vec<(Role, FaultyTransport<T>)>,
    stall_grace: Duration,
) -> CampaignRun {
    endpoints.sort_by(|(a, _), (b, _)| a.cmp(b));
    let system = Arc::new(System::from_global(g).expect("projectable").compile());
    let mut monitor = CompiledMonitor::new(Arc::clone(&system));
    let mut shadow = TraceMonitor::new(g).expect("well-formed");

    let proc_of: BTreeMap<&Role, &Proc> = procs.iter().map(|(r, p)| (r, p)).collect();
    let mut tasks: Vec<(Role, EndpointTask, FaultyTransport<T>)> = endpoints
        .drain(..)
        .map(|(role, transport)| {
            let task = EndpointTask::new(
                (*proc_of[&role]).clone(),
                role.clone(),
                Externals::new(),
                options.clone(),
            );
            (role, task, transport)
        })
        .collect();

    let mut last_progress = Instant::now();
    let mut idle_rounds = 0usize;
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        assert!(rounds < 10_000_000, "cooperative schedule must terminate");
        let mut progressed = false;
        for (_, task, transport) in &mut tasks {
            loop {
                let outcome = task.step(transport, &mut |va| {
                    let action = zooid_proc::erase(va);
                    let a = monitor.observe(&action);
                    let b = shadow.observe(&action);
                    assert_eq!(a, b, "monitors disagree on {action}");
                });
                match outcome {
                    StepOutcome::Progress => progressed = true,
                    _ => break,
                }
            }
        }
        if tasks.iter().all(|(_, t, _)| t.is_done()) {
            break;
        }
        if progressed {
            last_progress = Instant::now();
            idle_rounds = 0;
        } else {
            idle_rounds += 1;
            if idle_rounds >= 64 && last_progress.elapsed() >= stall_grace {
                for (_, task, _) in &mut tasks {
                    task.mark_stalled();
                }
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    let mut statuses = BTreeMap::new();
    let mut schedules = BTreeMap::new();
    for (role, task, mut transport) in tasks {
        statuses.insert(role.clone(), task.into_report().status);
        schedules.insert(role, transport.take_schedule());
    }
    assert_eq!(monitor.is_compliant(), shadow.is_compliant());
    assert_eq!(monitor.is_complete(), shadow.is_complete());
    CampaignRun {
        statuses,
        compliant: monitor.is_compliant(),
        complete: monitor.is_complete(),
        schedules,
    }
}

fn memory_run(
    g: &GlobalType,
    procs: &[(Role, Proc)],
    target: &Role,
    plan: &FaultPlan,
) -> CampaignRun {
    let mut network = InMemoryNetwork::new(procs.iter().map(|(r, _)| r.clone()));
    let endpoints: Vec<_> = procs
        .iter()
        .map(|(r, _)| (r.clone(), network.take_endpoint(r).expect("unique roles")))
        .collect();
    drive(
        g,
        procs,
        &ExecOptions::default(),
        wrap(endpoints, target, plan),
        Duration::ZERO,
    )
}

/// Full-mesh loopback TCP wiring, as in the runtime's differential suite.
fn tcp_mesh(roles: &[Role]) -> Vec<(Role, TcpTransport)> {
    let mut per_role: BTreeMap<Role, BTreeMap<Role, TcpStream>> =
        roles.iter().map(|r| (r.clone(), BTreeMap::new())).collect();
    for i in 0..roles.len() {
        for j in (i + 1)..roles.len() {
            let listener = TcpListener::bind((IpAddr::V4(Ipv4Addr::LOCALHOST), 0)).unwrap();
            let addr = listener.local_addr().unwrap();
            let client = TcpStream::connect(addr).unwrap();
            let (server, _) = listener.accept().unwrap();
            per_role
                .get_mut(&roles[i])
                .unwrap()
                .insert(roles[j].clone(), server);
            per_role
                .get_mut(&roles[j])
                .unwrap()
                .insert(roles[i].clone(), client);
        }
    }
    per_role
        .into_iter()
        .map(|(role, streams)| {
            let mut transport = TcpTransport::from_streams(role.clone(), streams);
            transport.set_recv_timeout(Duration::from_secs(10));
            (role, transport)
        })
        .collect()
}

fn tcp_run(g: &GlobalType, procs: &[(Role, Proc)], target: &Role, plan: &FaultPlan) -> CampaignRun {
    let roles: Vec<Role> = procs.iter().map(|(r, _)| r.clone()).collect();
    let endpoints = tcp_mesh(&roles);
    drive(
        g,
        procs,
        &ExecOptions::default(),
        wrap(endpoints, target, plan),
        Duration::from_millis(500),
    )
}

// ---------------------------------------------------------------------
// Front 1: the transport-fault matrix
// ---------------------------------------------------------------------

fn fault_plan(kind: FaultKind, seed: u64) -> (FaultPlan, FaultSite) {
    // Truncation models wire corruption seen by the receiver; every other
    // kind is injected at the sender.
    let site = match kind {
        FaultKind::Truncate => FaultSite::Recv,
        _ => FaultSite::Send,
    };
    (
        FaultPlan::new(seed).with(FaultSpec::new(kind, site)),
        site,
    )
}

/// Asserts one run landed in its fault kind's expected outcome class.
fn assert_expected_class(kind: FaultKind, target: &Role, run: &CampaignRun, context: &str) {
    let failures: Vec<(&Role, &str)> = run
        .statuses
        .iter()
        .filter_map(|(r, s)| match s {
            EndpointStatus::Failed { error } => Some((r, error.as_str())),
            _ => None,
        })
        .collect();
    // The target drew its one fault; bystanders drew none.
    assert_eq!(
        run.schedules[target].len(),
        1,
        "{context}: the budgeted fault must fire exactly once"
    );
    for (role, schedule) in &run.schedules {
        if role != target {
            assert!(
                schedule.is_empty(),
                "{context}: empty plans must inject nothing, {role} got {schedule:?}"
            );
        }
    }
    match kind {
        FaultKind::Delay | FaultKind::Duplicate | FaultKind::Reorder => {
            // Benign-in-this-harness kinds: extra latency or extra unread
            // wire traffic, never an endpoint failure or a false violation.
            assert!(run.compliant, "{context}: must stay compliant");
            assert!(failures.is_empty(), "{context}: unexpected failures {failures:?}");
        }
        FaultKind::Drop => {
            assert!(run.compliant, "{context}: a lost message is a valid prefix");
            assert!(!run.complete, "{context}: a dropped message must stall the session");
            assert!(failures.is_empty(), "{context}: unexpected failures {failures:?}");
            assert!(
                run.statuses.values().any(|s| matches!(s, EndpointStatus::Stalled)),
                "{context}: someone must be left waiting"
            );
        }
        FaultKind::Truncate => {
            assert!(run.compliant, "{context}: the mangled frame is never observed");
            let (_, error) = failures
                .iter()
                .find(|(r, _)| *r == target)
                .unwrap_or_else(|| panic!("{context}: target must fail, got {:?}", run.statuses));
            assert!(
                error.contains("truncated in flight"),
                "{context}: want a structured truncation error, got `{error}`"
            );
        }
        FaultKind::Disconnect => {
            let (_, error) = failures
                .iter()
                .find(|(r, _)| *r == target)
                .unwrap_or_else(|| panic!("{context}: target must fail, got {:?}", run.statuses));
            assert!(
                error.contains("disconnected"),
                "{context}: want a structured disconnect error, got `{error}`"
            );
        }
    }
}

#[test]
fn transport_faults_land_in_their_expected_classes_in_memory() {
    let kinds = [
        FaultKind::Delay,
        FaultKind::Drop,
        FaultKind::Duplicate,
        FaultKind::Reorder,
        FaultKind::Truncate,
        FaultKind::Disconnect,
    ];
    for (name, g) in case_studies() {
        let procs = skeleton_procs(name, &g);
        let (sender, receiver) = first_edge(&g);
        for kind in kinds {
            for seed in [11u64, 42] {
                let (plan, site) = fault_plan(kind, seed);
                let target = if site == FaultSite::Recv { &receiver } else { &sender };
                let run = memory_run(&g, &procs, target, &plan);
                assert_expected_class(kind, target, &run, &format!("{name}/{kind}/seed{seed}/mem"));
            }
        }
    }
}

#[test]
fn transport_faults_land_in_their_expected_classes_over_tcp() {
    let kinds = [
        FaultKind::Delay,
        FaultKind::Drop,
        FaultKind::Duplicate,
        FaultKind::Reorder,
        FaultKind::Truncate,
        FaultKind::Disconnect,
    ];
    for (name, g) in case_studies() {
        let procs = skeleton_procs(name, &g);
        let (sender, receiver) = first_edge(&g);
        for kind in kinds {
            let seed = 11u64;
            let (plan, site) = fault_plan(kind, seed);
            let target = if site == FaultSite::Recv { &receiver } else { &sender };
            let run = tcp_run(&g, &procs, target, &plan);
            assert_expected_class(kind, target, &run, &format!("{name}/{kind}/seed{seed}/tcp"));
        }
    }
}

#[test]
fn fault_schedules_are_byte_identical_across_runs_and_backends() {
    // The PRNG is consulted only on counted operations (sends and
    // message-producing receives) — per-endpoint program order — so the
    // same seed yields the same injected schedule no matter how the
    // backends interleave delivery.
    let g = generators::ring_n(3);
    let procs = skeleton_procs("ring3", &g);
    let (sender, _) = first_edge(&g);
    for kind in [FaultKind::Drop, FaultKind::Duplicate, FaultKind::Delay] {
        let (plan, _) = fault_plan(kind, 97);
        let mem_a = memory_run(&g, &procs, &sender, &plan);
        let mem_b = memory_run(&g, &procs, &sender, &plan);
        let tcp_a = tcp_run(&g, &procs, &sender, &plan);
        let tcp_b = tcp_run(&g, &procs, &sender, &plan);
        let fmt = |r: &CampaignRun| format!("{:?}", r.schedules);
        assert_eq!(fmt(&mem_a), fmt(&mem_b), "{kind}: memory runs diverged");
        assert_eq!(fmt(&tcp_a), fmt(&tcp_b), "{kind}: TCP runs diverged");
        assert_eq!(fmt(&mem_a), fmt(&tcp_a), "{kind}: backends diverged");
        // A different seed rolls different delay parameters but the same
        // budgeted single firing; the schedules still name the same op.
        let (other, _) = fault_plan(kind, 98);
        let mem_c = memory_run(&g, &procs, &sender, &other);
        assert_eq!(mem_c.schedules[&sender].len(), 1);
    }
}

// ---------------------------------------------------------------------
// Front 2: byzantine casts against the quarantine policy
// ---------------------------------------------------------------------

#[test]
fn byzantine_sessions_are_quarantined_and_neighbours_survive() {
    for (name, g) in case_studies() {
        let protocol = Protocol::new(name, g.clone()).unwrap();
        let honest = skeleton_endpoints(&protocol).unwrap();
        for mutation in ByzantineMutation::all() {
            let Some(driver) = byzantine_driver(&protocol, mutation).unwrap() else {
                continue;
            };
            let mut registry = ProtocolRegistry::new();
            let id = registry
                .register(Protocol::new(name, g.clone()).unwrap())
                .unwrap();
            let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
            let byz = server
                .submit(SessionSpec::new(id, driver.endpoints.clone()))
                .unwrap();
            for _ in 0..3 {
                server
                    .submit(SessionSpec::new(id, honest.clone()))
                    .unwrap();
            }
            let outcomes = server.drain();
            assert_eq!(outcomes.len(), 4);
            let context = format!("{name}/{mutation}");
            let byz_outcome = outcomes.iter().find(|o| o.id == byz).unwrap();
            match mutation.expected() {
                ExpectedClass::Violation => {
                    assert!(!byz_outcome.compliant, "{context}: must violate");
                    assert!(byz_outcome.quarantined, "{context}: must be quarantined");
                    assert_eq!(
                        byz_outcome.violations.len(),
                        1,
                        "{context}: quarantine means zero post-violation steps"
                    );
                }
                ExpectedClass::Silence => {
                    assert!(byz_outcome.compliant, "{context}: silence is a valid prefix");
                    assert!(!byz_outcome.complete, "{context}: silence must not complete");
                    assert!(!byz_outcome.quarantined, "{context}: silence is not quarantined");
                }
            }
            // Co-resident compliant sessions are untouched.
            for outcome in outcomes.iter().filter(|o| o.id != byz) {
                assert!(
                    outcome.all_finished_and_compliant(),
                    "{context}: neighbour {:?} was damaged",
                    outcome.id
                );
                assert!(!outcome.quarantined);
            }
            for outcome in &outcomes {
                assert_eq!(outcome.quarantined, !outcome.compliant, "{context}");
            }
            let report = server.report();
            let expected_quarantines =
                u64::from(mutation.expected() == ExpectedClass::Violation);
            assert_eq!(
                report.sessions_quarantined(),
                expected_quarantines,
                "{context}: {report}"
            );
            assert_eq!(
                report.sessions_quarantined(),
                report.sessions_violated(),
                "{context}: {report}"
            );
            if expected_quarantines > 0 {
                assert_eq!(
                    report.obs.per_protocol_quarantined,
                    vec![(id.index() as u32, 1)],
                    "{context}: per-protocol counter"
                );
                assert!(
                    server
                        .flight_events()
                        .iter()
                        .any(|e| matches!(e, FlightEvent::Violation { .. })),
                    "{context}: missing Violation flight event"
                );
                // The incident replays its violation against the compiled
                // system.
                let system = Arc::clone(server.registry().get(id).unwrap().compiled());
                let incidents = server.incidents();
                assert!(!incidents.is_empty(), "{context}: no incident captured");
                for incident in &incidents {
                    assert!(
                        incident.replays_violation(&system),
                        "{context}: incident must re-certify: {incident:?}"
                    );
                }
            } else {
                assert!(report.obs.per_protocol_quarantined.is_empty());
            }
            server.shutdown();
        }
    }
}

#[test]
fn batch_demoted_violators_are_quarantined_where_they_stand() {
    // The rotated ring pre-interns against the registered tables, so the
    // sessions coalesce into one columnar batch; the out-of-order first send
    // demotes each one, and the demoted session goes straight to
    // quarantine without another step.
    let mut registry = ProtocolRegistry::new();
    let id = registry
        .register(Protocol::new("ring", generators::ring_n(3)).unwrap())
        .unwrap();
    let decoy = Protocol::new("ring", generators::ring(&["w2", "w0", "w1"])).unwrap();
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
        assert!(!outcome.compliant);
        assert!(outcome.quarantined, "demoted violators must be quarantined");
        assert_eq!(
            outcome.violations.len(),
            1,
            "quarantine means zero post-violation steps"
        );
    }
    let report = server.report();
    assert_eq!(report.sessions_batched(), 8, "{report}");
    assert_eq!(report.sessions_quarantined(), 8, "{report}");
    assert_eq!(report.sessions_quarantined(), report.sessions_violated(), "{report}");
    assert_eq!(
        report.obs.per_protocol_quarantined,
        vec![(id.index() as u32, 8)]
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// Front 3: the wire — a violation costs the opener nothing; the idle reaper
// ---------------------------------------------------------------------

#[test]
fn a_violating_catalog_session_costs_its_opener_nothing() {
    // The server runs its own catalog cast and the wire carries only a
    // protocol name, so a violation is the registered cast's fault, not the
    // client's: the opener reads a non-compliant `Done` and keeps serving.
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
    let byz_service = Service {
        protocol: byz_id,
        endpoints: driver.endpoints.into(),
        options: ExecOptions::default(),
    };
    let ok_service = Service::skeleton(&registry, ok_id).unwrap();
    let server =
        NetServer::start(registry, [byz_service, ok_service], NetServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    let byz = client
        .open_with("byz_ring", EVENT_TIMEOUT)
        .expect("byzantine open is admitted — the monitor, not admission, catches it");
    assert_eq!((byz.compliant, byz.violations), (false, 1));

    // The same connection opens and completes a compliant session.
    let ok = client.open_with("ok_ring", EVENT_TIMEOUT).unwrap();
    assert!(ok.compliant, "the opener's next session must be served");
    // Read before shutdown, which says goodbye with a `ShuttingDown`.
    let net = server.net_report();
    assert_eq!(net.rejects.total(), 0, "{net}");
    let report = server.shutdown();
    assert_eq!(report.shards.sessions_quarantined(), 1);
}

#[test]
fn idle_connections_are_reaped_and_live_ones_are_not() {
    let mut registry = ProtocolRegistry::new();
    let id = registry
        .register(Protocol::new("ring", generators::ring_n(3)).unwrap())
        .unwrap();
    let service = Service::skeleton(&registry, id).unwrap();
    let config = NetServerConfig {
        idle_timeout: Duration::from_millis(150),
        ..NetServerConfig::default()
    };
    let server = NetServer::start(registry, [service], config).unwrap();

    // A live client disarms its own idle deadline by sending frames.
    let mut live = NetClient::connect(server.local_addr()).unwrap();
    assert!(live.open_with("ring", EVENT_TIMEOUT).unwrap().compliant);

    // The mute connection never sends a byte.
    let mute = TcpStream::connect(server.local_addr()).unwrap();
    mute.set_read_timeout(Some(Duration::from_millis(100))).unwrap();

    let deadline = Instant::now() + EVENT_TIMEOUT;
    loop {
        let reaped = server.flight_events().iter().any(|e| {
            matches!(
                e,
                FlightEvent::ConnClosed {
                    reason: CloseReason::Idle,
                    ..
                }
            )
        });
        if reaped {
            break;
        }
        assert!(Instant::now() < deadline, "idle connection never reaped");
        std::thread::sleep(Duration::from_millis(20));
    }
    // The mute socket reads EOF; the live one still completes its session.
    let mut mute = mute;
    let eof_deadline = Instant::now() + EVENT_TIMEOUT;
    loop {
        let mut scratch = [0u8; 64];
        match std::io::Read::read(&mut mute, &mut scratch) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
        assert!(Instant::now() < eof_deadline, "mute socket never closed");
    }
    let again = live.open_with("ring", EVENT_TIMEOUT).unwrap();
    assert!(again.compliant, "the live connection must not be reaped");
    server.shutdown();
}

#[test]
fn open_with_surfaces_structured_rejections_and_timeouts() {
    let mut registry = ProtocolRegistry::new();
    let id = registry
        .register(Protocol::new("ring", generators::ring_n(3)).unwrap())
        .unwrap();
    let service = Service::skeleton(&registry, id).unwrap();
    let server = NetServer::start(registry, [service], NetServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // An unknown protocol is a structured error, not a silent None.
    match client.open_with("no_such_protocol", EVENT_TIMEOUT) {
        Err(zooid_runtime::RuntimeError::Codec { reason }) => {
            assert!(reason.contains("open rejected"), "{reason}");
            assert!(reason.contains("unknown"), "{reason}");
        }
        other => panic!("want a structured rejection, got {other:?}"),
    }
    // An admitted session's answer is its `Done`.
    let done = client.open_with("ring", EVENT_TIMEOUT).unwrap();
    assert!(done.compliant && done.complete && done.actions == 6, "{done:?}");
    server.shutdown();

    // A peer that accepts the connection and never answers: silence past
    // the timeout is a structured `Timeout`, not a hang or a silent `None`.
    let mute = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = NetClient::connect(mute.local_addr().unwrap()).unwrap();
    let started = Instant::now();
    match client.open_with("ring", Duration::from_millis(50)) {
        Err(zooid_runtime::RuntimeError::Timeout { .. }) => {}
        other => panic!("want a structured timeout, got {other:?}"),
    }
    assert!(started.elapsed() < EVENT_TIMEOUT);
}

#[test]
fn the_byzantine_campaign_over_tcp_reports_complete_incidents() {
    // The front door runs every catalog session unrecorded; a violator's
    // incident comes from its shard's recorded re-run. So each violating
    // mutation, served as a catalog entry, answers with the `Done` a
    // recorded direct run earns, and every incident on the wire is whole.
    fn catalog() -> (ProtocolRegistry, Vec<(String, Service)>) {
        let mut registry = ProtocolRegistry::new();
        let mut services = Vec::new();
        for (name, g) in case_studies() {
            for mutation in ByzantineMutation::all() {
                if mutation.expected() != ExpectedClass::Violation {
                    continue;
                }
                let served = format!("{name}-{mutation}");
                let protocol = Protocol::new(served.as_str(), g.clone()).unwrap();
                let Some(driver) = byzantine_driver(&protocol, mutation).unwrap() else {
                    continue;
                };
                let id = registry.register(protocol).unwrap();
                services.push((served, Service::new(id, driver.endpoints)));
            }
        }
        (registry, services)
    }

    let (registry, services) = catalog();
    let mut direct = SessionServer::start(registry, ServerConfig::with_shards(1));
    let mut submitted = BTreeMap::new();
    for (served, service) in services {
        assert!(service.options.record_actions, "a direct run records by default");
        submitted.insert(direct.submit(service).unwrap(), served);
    }
    let mut expected_actions = BTreeMap::new();
    for outcome in direct.drain() {
        let served = submitted.remove(&outcome.id).unwrap();
        assert!(outcome.quarantined, "{served}");
        let steps: u64 = outcome.endpoints.values().map(|r| r.steps() as u64).sum();
        let recorded: usize = outcome.endpoints.values().map(|r| r.actions.len()).sum();
        assert_eq!(steps, recorded as u64, "{served}: a recorded run records every step");
        expected_actions.insert(served, steps);
    }
    direct.shutdown();
    assert!(expected_actions.len() >= 6, "{expected_actions:?}");

    let (registry, services) = catalog();
    let server = NetServer::start(
        registry,
        services.into_iter().map(|(_, service)| service),
        NetServerConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for (served, &expected) in &expected_actions {
        let done = client.open_with(served, EVENT_TIMEOUT).unwrap();
        assert!(!done.compliant, "{served}");
        assert_eq!(done.actions, expected, "{served}: Done counts the direct run's steps");
    }
    let stats = client
        .fetch_stats(EVENT_TIMEOUT)
        .unwrap()
        .expect("stats reply within the timeout");
    assert_eq!(stats.incidents.len(), expected_actions.len());
    for incident in &stats.incidents {
        assert!(!incident.truncated, "{incident:?}");
        assert_eq!(incident.prefix_len, incident.trace_len, "{incident:?}");
    }
    assert!(
        stats.incidents.iter().any(|i| i.prefix_len > 0),
        "some violation comes after compliant actions"
    );
    server.shutdown();
}
