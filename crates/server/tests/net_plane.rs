//! Integration tests for the networked serving plane: sessions multiplexed
//! over real loopback sockets must be verdict-for-verdict identical to
//! direct submission, admission control must shed with the documented
//! structured rejection codes, and hostile bytes must cost the server one
//! connection — never its health.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use zooid_dsl::Protocol;
use zooid_mpst::generators;
use zooid_runtime::{MuxFrame, RejectCode};
use zooid_server::synth::skeleton_endpoints;
use zooid_server::{
    NetClient, NetServer, NetServerConfig, ProtocolRegistry, ServerConfig, Service, SessionServer,
    SessionSpec,
};

const EVENT_TIMEOUT: Duration = Duration::from_secs(10);

fn registry_with_case_studies() -> (ProtocolRegistry, Vec<(String, zooid_server::ProtocolId)>) {
    let mut registry = ProtocolRegistry::new();
    let mut ids = Vec::new();
    for (name, g) in [
        ("ring", generators::ring3()),
        ("two_buyer", generators::two_buyer()),
        ("fanout", generators::fanout_n(4)),
    ] {
        let protocol = Protocol::new(name, g).unwrap();
        let id = registry.register(protocol).unwrap();
        ids.push((name.to_owned(), id));
    }
    (registry, ids)
}

fn services(registry: &ProtocolRegistry, ids: &[(String, zooid_server::ProtocolId)]) -> Vec<Service> {
    ids.iter()
        .map(|(_, id)| Service::skeleton(registry, *id).unwrap().with_max_steps(64))
        .collect()
}

/// Waits for the next frame, failing the test on silence.
fn next_event(client: &mut NetClient) -> MuxFrame {
    let deadline = Instant::now() + EVENT_TIMEOUT;
    loop {
        match client.poll_event(Duration::from_millis(100)) {
            Ok(Some(frame)) => return frame,
            Ok(None) => assert!(Instant::now() < deadline, "no frame within {EVENT_TIMEOUT:?}"),
            Err(e) => panic!("client transport failed: {e}"),
        }
    }
}

/// Collects events until every listed session has a `Done`, asserting each
/// one was `Accepted` first.
fn await_done(client: &mut NetClient, sessions: &[u64]) -> BTreeMap<u64, MuxFrame> {
    let mut accepted = std::collections::BTreeSet::new();
    let mut done = BTreeMap::new();
    while done.len() < sessions.len() {
        match next_event(client) {
            MuxFrame::Accepted { session } => {
                assert!(accepted.insert(session), "session {session} accepted twice");
            }
            frame @ MuxFrame::Done { .. } => {
                let MuxFrame::Done { session, .. } = frame else { unreachable!() };
                assert!(accepted.contains(&session), "done before accept for {session}");
                assert!(done.insert(session, frame).is_none(), "double done for {session}");
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    for session in sessions {
        assert!(done.contains_key(session), "session {session} never finished");
    }
    done
}

/// Two names for one global type share everything compiled, but each name
/// keeps its own catalog entry: an `Open` runs the cast of the service it
/// names.
#[test]
fn structural_twins_are_served_by_name_each_with_its_own_cast() {
    let mut registry = ProtocolRegistry::new();
    let mut twin = |name| {
        registry
            .register(Protocol::new(name, generators::ring3()).unwrap())
            .unwrap()
    };
    let (whole, cut) = (twin("ring-whole"), twin("ring-cut"));
    // Told apart by what their sessions can do: one cast runs the ring to
    // its end, the other stops every endpoint after one communication.
    let services = vec![
        Service::skeleton(&registry, whole).unwrap(),
        Service::skeleton(&registry, cut).unwrap().with_max_steps(1),
    ];
    let server = NetServer::start(registry, services, NetServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let cut_session = client.open("ring-cut").unwrap();
    let whole_session = client.open("ring-whole").unwrap();
    let done = await_done(&mut client, &[cut_session, whole_session]);
    let MuxFrame::Done { complete, actions, .. } = done[&whole_session] else { unreachable!() };
    assert!(complete && actions == 6, "ring-whole ran {actions} actions");
    let MuxFrame::Done { complete, actions, .. } = done[&cut_session] else { unreachable!() };
    assert!(!complete && actions < 6, "ring-cut ran {actions} actions");
    server.shutdown();
}

#[test]
fn multiplexed_sessions_match_direct_submission() {
    let (registry, ids) = registry_with_case_studies();

    // Baseline: the same skeleton specs submitted straight to a
    // SessionServer, no sockets involved.
    let mut direct: BTreeMap<String, (bool, bool, bool, u32, u64)> = BTreeMap::new();
    {
        let (registry, ids2) = registry_with_case_studies();
        let mut server = SessionServer::start(registry, ServerConfig::default());
        let mut submitted = BTreeMap::new();
        for (name, id) in &ids2 {
            let endpoints = skeleton_endpoints(
                server.registry().get(*id).unwrap().protocol(),
            )
            .unwrap();
            let sid = server
                .submit(SessionSpec::new(*id, endpoints).with_max_steps(64))
                .unwrap();
            submitted.insert(sid, name.clone());
        }
        for outcome in server.drain() {
            let name = submitted.remove(&outcome.id).unwrap();
            let actions: u64 = outcome
                .endpoints
                .values()
                .map(|r| r.actions.len() as u64)
                .sum();
            direct.insert(
                name,
                (
                    outcome.compliant,
                    outcome.complete,
                    outcome.stalled,
                    outcome.violations.len() as u32,
                    actions,
                ),
            );
        }
    }

    let catalog = services(&registry, &ids);
    let server = NetServer::start(registry, catalog, NetServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // 10 interleaved copies of each protocol on one connection.
    let mut opened: Vec<(u64, String)> = Vec::new();
    for round in 0..10 {
        let _ = round;
        for (name, _) in &ids {
            let session = client.open(name).unwrap();
            opened.push((session, name.clone()));
        }
    }
    let sessions: Vec<u64> = opened.iter().map(|(s, _)| *s).collect();
    let done = await_done(&mut client, &sessions);

    for (session, name) in &opened {
        let MuxFrame::Done {
            compliant,
            complete,
            stalled,
            violations,
            actions,
            ..
        } = done[session]
        else {
            unreachable!()
        };
        let expected = &direct[name];
        assert_eq!(
            (compliant, complete, stalled, violations, actions),
            *expected,
            "verdicts diverged for `{name}` (session {session})"
        );
    }

    let report = server.net_report();
    assert_eq!(report.connections_accepted, 1);
    assert_eq!(report.sessions_opened, sessions.len() as u64);
    assert_eq!(report.sessions_done, sessions.len() as u64);
    assert_eq!(report.bad_frames, 0);
    // Every Open was read; every Accepted and Done was written.
    assert_eq!(report.frames_read, sessions.len() as u64);
    assert_eq!(report.frames_written, 2 * sessions.len() as u64);

    let final_report = server.shutdown();
    assert_eq!(final_report.net.sessions_done, sessions.len() as u64);
    assert!(!final_report.to_string().is_empty());
}

#[test]
fn many_connections_share_the_server() {
    let (registry, ids) = registry_with_case_studies();
    let catalog = services(&registry, &ids);
    let server = NetServer::start(registry, catalog, NetServerConfig::default()).unwrap();

    let addr = server.local_addr();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).unwrap();
                let mut sessions = Vec::new();
                for _ in 0..8 {
                    sessions.push(client.open("ring").unwrap());
                }
                let done = await_done(&mut client, &sessions);
                for frame in done.values() {
                    let MuxFrame::Done { compliant, complete, .. } = frame else {
                        unreachable!()
                    };
                    assert!(*compliant && *complete);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let report = server.shutdown();
    assert_eq!(report.net.connections_accepted, 4);
    assert_eq!(report.net.sessions_done, 32);
    assert_eq!(report.net.sessions_opened, 32);
}

#[test]
fn per_connection_cap_sheds_with_session_limit() {
    let (registry, ids) = registry_with_case_studies();
    let catalog = services(&registry, &ids);
    let config = NetServerConfig {
        max_inflight_per_conn: 0,
        ..NetServerConfig::default()
    };
    let server = NetServer::start(registry, catalog, config).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    let session = client.open("ring").unwrap();
    match next_event(&mut client) {
        MuxFrame::Rejected { session: s, code, reason } => {
            assert_eq!(s, session);
            assert_eq!(code, RejectCode::SessionLimit);
            assert!(!reason.is_empty());
        }
        other => panic!("expected SessionLimit, got {other:?}"),
    }

    let report = server.shutdown();
    assert_eq!(report.net.sessions_shed, 1);
    assert_eq!(report.net.sessions_opened, 0);
    // The shed is attributed to its own code, not a lumped counter.
    assert_eq!(report.net.rejects.session_limit, 1, "{}", report.net);
    assert_eq!(report.net.rejects.overloaded, 0, "{}", report.net);
    assert_eq!(report.net.rejects.unknown_protocol, 0, "{}", report.net);
}

#[test]
fn global_cap_sheds_with_overloaded() {
    let (registry, ids) = registry_with_case_studies();
    let catalog = services(&registry, &ids);
    let config = NetServerConfig {
        max_inflight_total: 0,
        ..NetServerConfig::default()
    };
    let server = NetServer::start(registry, catalog, config).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    let session = client.open("two_buyer").unwrap();
    match next_event(&mut client) {
        MuxFrame::Rejected { session: s, code, .. } => {
            assert_eq!(s, session);
            assert_eq!(code, RejectCode::Overloaded);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let report = server.shutdown();
    assert_eq!(report.net.sessions_shed, 1);
    assert_eq!(report.net.rejects.overloaded, 1, "{}", report.net);
    assert_eq!(report.net.rejects.session_limit, 0, "{}", report.net);
}

#[test]
fn connection_limit_refuses_excess_connections() {
    let (registry, ids) = registry_with_case_studies();
    let catalog = services(&registry, &ids);
    let config = NetServerConfig {
        max_connections: 1,
        ..NetServerConfig::default()
    };
    let server = NetServer::start(registry, catalog, config).unwrap();

    // First client is admitted — prove it by running a session.
    let mut first = NetClient::connect(server.local_addr()).unwrap();
    let session = first.open("ring").unwrap();
    let done = await_done(&mut first, &[session]);
    assert!(matches!(done[&session], MuxFrame::Done { compliant: true, .. }));

    // Second client is over the cap: a structured rejection, then close.
    let mut second = NetClient::connect(server.local_addr()).unwrap();
    match next_event(&mut second) {
        MuxFrame::Rejected { code, .. } => assert_eq!(code, RejectCode::ConnectionLimit),
        other => panic!("expected ConnectionLimit, got {other:?}"),
    }

    // Once the first client leaves, a new one gets in (close detection
    // takes a sweep, so retry briefly).
    drop(first);
    let deadline = Instant::now() + EVENT_TIMEOUT;
    let admitted = loop {
        let mut third = NetClient::connect(server.local_addr()).unwrap();
        let session = third.open("ring").unwrap();
        match next_event(&mut third) {
            MuxFrame::Accepted { session: s } => {
                assert_eq!(s, session);
                break third;
            }
            MuxFrame::Rejected { code, .. } => {
                assert_eq!(code, RejectCode::ConnectionLimit);
                assert!(Instant::now() < deadline, "slot never freed");
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("unexpected frame {other:?}"),
        }
    };
    let mut third = admitted;
    // Drain the session so the shutdown counters are stable.
    while !matches!(next_event(&mut third), MuxFrame::Done { .. }) {}

    let report = server.shutdown();
    assert!(report.net.connections_rejected >= 1, "{}", report.net);
    assert_eq!(report.net.connections_accepted, 2);
    assert!(report.net.rejects.connection_limit >= 1, "{}", report.net);
}

#[test]
fn unknown_protocols_are_rejected_but_the_connection_survives() {
    let (registry, ids) = registry_with_case_studies();
    let catalog = services(&registry, &ids);
    let server = NetServer::start(registry, catalog, NetServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    let bogus = client.open("no_such_protocol").unwrap();
    match next_event(&mut client) {
        MuxFrame::Rejected { session, code, reason } => {
            assert_eq!(session, bogus);
            assert_eq!(code, RejectCode::UnknownProtocol);
            assert!(reason.contains("no_such_protocol"), "{reason}");
        }
        other => panic!("expected UnknownProtocol, got {other:?}"),
    }

    // Same connection, real protocol: still served.
    let session = client.open("fanout").unwrap();
    let done = await_done(&mut client, &[session]);
    assert!(matches!(done[&session], MuxFrame::Done { compliant: true, .. }));

    let report = server.shutdown();
    assert_eq!(report.net.sessions_rejected, 1);
    assert_eq!(report.net.sessions_done, 1);
    assert_eq!(report.net.rejects.unknown_protocol, 1, "{}", report.net);
    assert_eq!(report.net.rejects.bad_frame, 0, "{}", report.net);
}

/// Reads frames off a raw socket until EOF, returning decoded mux frames.
fn drain_raw(stream: &mut TcpStream) -> Vec<MuxFrame> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = zooid_runtime::FrameReader::new(zooid_runtime::DEFAULT_MAX_FRAME_BYTES);
    let mut frames = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        while let Ok(Some(payload)) = reader.next_frame() {
            if let Ok(frame) = zooid_runtime::wire::decode_mux(&payload) {
                frames.push(frame);
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => reader.extend(&buf[..n]),
            Err(_) => break,
        }
    }
    while let Ok(Some(payload)) = reader.next_frame() {
        if let Ok(frame) = zooid_runtime::wire::decode_mux(&payload) {
            frames.push(frame);
        }
    }
    frames
}

#[test]
fn hostile_bytes_cost_one_connection_not_the_server() {
    let (registry, ids) = registry_with_case_studies();
    let catalog = services(&registry, &ids);
    let server = NetServer::start(registry, catalog, NetServerConfig::default()).unwrap();

    // Probe 1: a frame whose payload is not a mux frame.
    let mut garbage = TcpStream::connect(server.local_addr()).unwrap();
    garbage.write_all(&4u32.to_be_bytes()).unwrap();
    garbage.write_all(&[0xFF; 4]).unwrap();
    let frames = drain_raw(&mut garbage);
    assert!(
        frames
            .iter()
            .any(|f| matches!(f, MuxFrame::Rejected { code: RejectCode::BadFrame, .. })),
        "expected a BadFrame rejection, got {frames:?}"
    );

    // Probe 2: an absurd length prefix. The server must refuse without
    // allocating and close the connection.
    let mut oversized = TcpStream::connect(server.local_addr()).unwrap();
    oversized.write_all(&u32::MAX.to_be_bytes()).unwrap();
    let frames = drain_raw(&mut oversized);
    assert!(
        frames
            .iter()
            .any(|f| matches!(f, MuxFrame::Rejected { code: RejectCode::BadFrame, .. })),
        "expected a BadFrame rejection, got {frames:?}"
    );

    // The server is still perfectly healthy for a compliant client.
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let session = client.open("ring").unwrap();
    let done = await_done(&mut client, &[session]);
    assert!(matches!(done[&session], MuxFrame::Done { compliant: true, .. }));

    let report = server.shutdown();
    assert!(report.net.bad_frames >= 2, "{}", report.net);
    assert!(report.net.rejects.bad_frame >= 2, "{}", report.net);
    assert_eq!(report.net.sessions_done, 1);
    assert_eq!(report.net.connections_accepted, 3);
}

/// 200 KB of nested `inl` tags inside a `StatsReply` — a frame kind the
/// server refuses anyway, but decodes first. Unbounded, the value decoder
/// recursed once per tag and overflowed the IO thread's stack, which aborts
/// the process and every session on every connection with it; bounded, it
/// is one more malformed frame.
#[test]
fn a_deeply_nested_frame_costs_one_connection_not_the_process() {
    let (registry, ids) = registry_with_case_studies();
    let catalog = services(&registry, &ids);
    let server = NetServer::start(registry, catalog, NetServerConfig::default()).unwrap();
    let mut bystander = NetClient::connect(server.local_addr()).unwrap();

    const DEPTH: usize = 200_000;
    let mut payload = vec![6u8]; // MuxFrame::StatsReply
    payload.extend_from_slice(&7u64.to_be_bytes());
    payload.resize(payload.len() + DEPTH, 6); // Value::Inl, DEPTH times
    payload.push(0); // Value::Unit
    let mut hostile = TcpStream::connect(server.local_addr()).unwrap();
    hostile
        .write_all(&u32::try_from(payload.len()).unwrap().to_be_bytes())
        .unwrap();
    hostile.write_all(&payload).unwrap();
    // `drain_raw` returns at end of stream: the connection was closed.
    let frames = drain_raw(&mut hostile);
    match &frames[..] {
        [MuxFrame::Rejected { code: RejectCode::BadFrame, reason, .. }] => {
            assert!(reason.contains("nested"), "{reason}")
        }
        other => panic!("expected exactly one BadFrame rejection, got {other:?}"),
    }

    let session = bystander.open("ring").unwrap();
    let done = await_done(&mut bystander, &[session]);
    assert!(matches!(done[&session], MuxFrame::Done { compliant: true, .. }));

    let report = server.shutdown();
    assert_eq!(report.net.bad_frames, 1, "{}", report.net);
    assert_eq!(report.net.rejects.bad_frame, 1, "{}", report.net);
    assert_eq!(report.net.sessions_done, 1);
}

#[test]
fn outcomes_for_dead_connections_are_not_misdelivered() {
    let (registry, ids) = registry_with_case_studies();
    let catalog = services(&registry, &ids);
    let server = NetServer::start(registry, catalog, NetServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Repeatedly open a burst of sessions and vanish before their outcomes
    // return, then immediately connect a fresh client that may reuse the
    // dead connection's slot. The stale outcomes must be dropped — the new
    // client must see frames only for sessions it opened itself.
    for _ in 0..10 {
        {
            let mut ghost = NetClient::connect(addr).unwrap();
            for _ in 0..32 {
                ghost.open("ring").unwrap();
            }
        } // dropped with every outcome still in flight
        let mut client = NetClient::connect(addr).unwrap();
        let session = client.open("ring").unwrap();
        let mut accepted = false;
        loop {
            let frame = next_event(&mut client);
            let (MuxFrame::Accepted { session: s }
            | MuxFrame::Done { session: s, .. }
            | MuxFrame::Rejected { session: s, .. }) = frame
            else {
                panic!("unexpected frame {frame:?}")
            };
            assert_eq!(s, session, "frame for a session this client never opened: {frame:?}");
            match frame {
                MuxFrame::Accepted { .. } => accepted = true,
                MuxFrame::Done { .. } => break,
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert!(accepted, "done before accept");
        // After this client's own Done, nothing further may arrive: a stale
        // ghost outcome surfacing here is exactly the misdelivery bug.
        assert_eq!(client.poll_event(Duration::from_millis(50)).unwrap(), None);
    }
    server.shutdown();
}

#[test]
fn write_hog_is_disconnected_not_buffered_without_bound() {
    let (registry, ids) = registry_with_case_studies();
    let catalog = services(&registry, &ids);
    // Every Open is shed with a rejection frame; a tiny write high-water
    // mark makes the backlog bound observable quickly.
    let config = NetServerConfig {
        max_inflight_per_conn: 0,
        max_conn_outbuf_bytes: 64 * 1024,
        ..NetServerConfig::default()
    };
    let server = NetServer::start(registry, catalog, config).unwrap();

    // A hog that floods Opens and never reads: once the kernel buffers are
    // full, the server's userspace backlog hits the mark and the hog is
    // disconnected instead of growing server memory without bound.
    let mut hog = TcpStream::connect(server.local_addr()).unwrap();
    hog.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    let open = {
        let payload = zooid_runtime::wire::encode_mux(&MuxFrame::Open {
            session: 1,
            protocol: "ring".into(),
        });
        let mut buf = Vec::new();
        zooid_runtime::wire::put_frame(
            &mut buf,
            &payload,
            zooid_runtime::DEFAULT_MAX_FRAME_BYTES,
        )
        .unwrap();
        buf
    };
    let mut cut_off = false;
    for _ in 0..400_000 {
        if hog.write_all(&open).is_err() {
            cut_off = true;
            break;
        }
    }
    assert!(cut_off, "the non-reading flood was never disconnected");

    // The server itself stays healthy for a compliant client.
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let probe = client.open("ring").unwrap();
    match next_event(&mut client) {
        MuxFrame::Rejected { session, code, .. } => {
            assert_eq!(session, probe);
            assert_eq!(code, RejectCode::SessionLimit);
        }
        other => panic!("expected SessionLimit (per-conn cap is 0), got {other:?}"),
    }

    let report = server.shutdown();
    assert!(report.net.connections_closed >= 1, "{}", report.net);
    assert!(report.net.sessions_shed > 0, "{}", report.net);
}

#[test]
fn shutdown_tells_lingering_clients() {
    let (registry, ids) = registry_with_case_studies();
    let catalog = services(&registry, &ids);
    let server = NetServer::start(registry, catalog, NetServerConfig::default()).unwrap();

    // An idle raw connection: admitted, no traffic.
    let mut idle = TcpStream::connect(server.local_addr()).unwrap();
    // Give the loop a moment to admit it before stopping.
    let deadline = Instant::now() + EVENT_TIMEOUT;
    while server.net_report().connections_accepted == 0 {
        assert!(Instant::now() < deadline, "connection never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }

    let report = server.shutdown();
    assert_eq!(report.net.connections_accepted, 1);

    let frames = drain_raw(&mut idle);
    assert!(
        frames
            .iter()
            .any(|f| matches!(f, MuxFrame::Rejected { code: RejectCode::ShuttingDown, .. })),
        "expected a ShuttingDown notice, got {frames:?}"
    );
}

#[test]
fn live_stats_are_fetchable_over_the_wire() {
    let (registry, ids) = registry_with_case_studies();
    let catalog = services(&registry, &ids);
    let server = NetServer::start(registry, catalog, NetServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // Run a few sessions to completion so the histograms have substance.
    let sessions: Vec<u64> = (0..6).map(|_| client.open("ring").unwrap()).collect();
    await_done(&mut client, &sessions);
    // One rejection so a per-code counter is visibly nonzero on the wire.
    let bogus = client.open("no_such_protocol").unwrap();
    match next_event(&mut client) {
        MuxFrame::Rejected { session, code, .. } => {
            assert_eq!(session, bogus);
            assert_eq!(code, RejectCode::UnknownProtocol);
        }
        other => panic!("expected UnknownProtocol, got {other:?}"),
    }

    // The same connection pulls the whole observability bundle live — no
    // shutdown, no side channel.
    let stats = client
        .fetch_stats(EVENT_TIMEOUT)
        .unwrap()
        .expect("stats reply within the timeout");
    assert_eq!(stats.net.sessions_opened, 6);
    assert_eq!(stats.net.sessions_done, 6);
    assert_eq!(stats.net.rejects.unknown_protocol, 1);
    assert!(stats.net.io_pass_ns.count() > 0, "pass durations recorded");
    let obs = &stats.shards.obs;
    assert_eq!(obs.session_wall_ns.count(), 6, "one wall sample per session");
    assert!(obs.session_wall_ns.p50() <= obs.session_wall_ns.p99());
    assert!(obs.action_cost_ns.count() > 0, "per-action cost recorded");
    assert!(obs.flight_events >= 6, "admissions hit the flight recorder");
    assert!(obs.per_protocol_wall_ns.len() == 1, "only ring sessions ran");
    assert!(stats.incidents.is_empty(), "certified skeletons comply");
    assert_eq!(obs.incidents_recorded, 0);
    let started: u64 = stats.shards.shards.iter().map(|s| s.sessions_started).sum();
    assert_eq!(started, 6);

    // The stats exchange is accounted like any other frame traffic.
    let report = server.net_report();
    assert!(report.frames_read > stats.net.frames_read - 1);
    server.shutdown();
}

// ---------------------------------------------------------------------
// No timer on the session path
// ---------------------------------------------------------------------

/// The fastest of five timings of `f`: a scheduler hiccup can slow one run,
/// a timer slows all of them.
fn fastest_of_five(mut f: impl FnMut()) -> Duration {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .unwrap()
}

#[test]
fn poll_event_honours_zero_and_short_timeouts() {
    let (registry, ids) = registry_with_case_studies();
    let catalog = services(&registry, &ids);
    let server = NetServer::start(registry, catalog, NetServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // A silent connection: the timeout is the caller's, not the socket's.
    let zero = fastest_of_five(|| {
        assert_eq!(client.poll_event(Duration::ZERO).unwrap(), None);
    });
    assert!(
        zero < Duration::from_millis(5),
        "zero timeout took {zero:?}"
    );
    // Socket timeouts round up to the kernel tick, so no tighter than this.
    let short = fastest_of_five(|| {
        assert_eq!(client.poll_event(Duration::from_millis(2)).unwrap(), None);
    });
    assert!(
        short < Duration::from_millis(15),
        "2 ms timeout took {short:?}"
    );

    // Zero still means "whatever is there": two sessions' four frames come
    // out through zero-timeout polls alone, the first of each read from the
    // socket, the ones behind it from the buffer.
    let sessions = [client.open("ring").unwrap(), client.open("ring").unwrap()];
    let deadline = Instant::now() + EVENT_TIMEOUT;
    let (mut accepted, mut done) = (Vec::new(), Vec::new());
    while done.len() < sessions.len() {
        assert!(Instant::now() < deadline, "frames never arrived");
        match client.poll_event(Duration::ZERO).unwrap() {
            Some(MuxFrame::Accepted { session }) => accepted.push(session),
            Some(MuxFrame::Done {
                session, compliant, ..
            }) => {
                assert!(compliant);
                done.push(session);
            }
            Some(other) => panic!("unexpected frame {other:?}"),
            None => std::thread::yield_now(),
        }
    }
    assert_eq!(accepted, sessions);
    done.sort_unstable();
    assert_eq!(done, sessions);
    server.shutdown();
}

#[test]
fn sequential_round_trips_wait_on_no_timer() {
    let (registry, ids) = registry_with_case_studies();
    let catalog = services(&registry, &ids);
    let server = NetServer::start(registry, catalog, NetServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // One session at a time: every frame is the only one in its wake, so a
    // client (or server) that sits out a timer per wake shows it 100 times.
    let start = Instant::now();
    for _ in 0..50 {
        let session = client.open("ring").unwrap();
        assert_eq!(next_event(&mut client), MuxFrame::Accepted { session });
        match next_event(&mut client) {
            MuxFrame::Done {
                session: s,
                compliant: true,
                complete: true,
                ..
            } => {
                assert_eq!(s, session);
            }
            other => panic!("expected a clean Done, got {other:?}"),
        }
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "50 round trips took {took:?}"
    );

    let report = server.shutdown();
    assert_eq!(report.net.sessions_done, 50);
}

/// Polls `net_report()` until `ready` holds.
fn await_report(server: &NetServer, what: &str, ready: impl Fn(&zooid_server::NetReport) -> bool) {
    let deadline = Instant::now() + EVENT_TIMEOUT;
    while !ready(&server.net_report()) {
        assert!(Instant::now() < deadline, "never saw: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn buffered_opens_all_leave_and_none_is_lost() {
    let (registry, ids) = registry_with_case_studies();
    let catalog = services(&registry, &ids);
    let server = NetServer::start(registry, catalog, NetServerConfig::default()).unwrap();

    // A burst under the per-connection cap (256), no poll in between: the
    // first poll writes all of it out and every session is answered.
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let sessions: Vec<u64> = (0..200).map(|_| client.open("ring").unwrap()).collect();
    assert_eq!(server.net_report().sessions_opened, 0, "opens are buffered");
    let done = await_done(&mut client, &sessions);
    assert_eq!(done.len(), 200);
    assert_eq!(client.poll_event(Duration::from_millis(50)).unwrap(), None);

    // An explicit flush starts a session without polling for it.
    client.open("ring").unwrap();
    client.flush().unwrap();
    await_report(&server, "the flushed open", |r| r.sessions_opened == 201);

    // Dropping the client flushes what it still holds.
    let mut leaver = NetClient::connect(server.local_addr()).unwrap();
    for _ in 0..3 {
        leaver.open("ring").unwrap();
    }
    drop(leaver);
    await_report(&server, "the dropped client's opens", |r| {
        r.sessions_opened == 204
    });

    // A buffer that fills up empties itself: 1 KiB names pass 16 KiB at the
    // sixteenth open, well before the last.
    let mut bulky = NetClient::connect(server.local_addr()).unwrap();
    let name = "x".repeat(1024);
    for _ in 0..20 {
        bulky.open(&name).unwrap();
    }
    await_report(&server, "the self-flushed opens", |r| {
        r.sessions_rejected >= 16
    });
    assert!(
        server.net_report().sessions_rejected < 20,
        "the tail is still buffered"
    );

    let report = server.shutdown();
    assert_eq!(report.net.sessions_shed, 0);
    assert_eq!(report.net.bad_frames, 0);
}

/// IO passes the server makes over `window`.
fn passes_over(server: &NetServer, window: Duration) -> u64 {
    let before = server.net_report().io_pass_ns.count();
    std::thread::sleep(window);
    server.net_report().io_pass_ns.count() - before
}

#[test]
fn an_idle_loop_waits_instead_of_spinning() {
    use zooid_mpst::{Role, Sort};
    use zooid_proc::{Expr, Externals, Proc, Value};

    // A pipeline whose first role reads each payload from the environment,
    // and an environment that answers only once the test lets go of
    // `release`: a session that stays in flight exactly as long as wanted.
    let protocol = Protocol::new("pipeline", generators::pipeline()).unwrap();
    let (alice, bob) = (Role::new("Alice"), Role::new("Bob"));
    let (release, gate) = std::sync::mpsc::channel::<()>();
    let gate = std::sync::Mutex::new(gate);
    let mut externals = Externals::new();
    externals.register_read("gate", Sort::Nat, move || {
        let _ = gate.lock().unwrap().recv();
        Value::Nat(0)
    });
    let gated = Proc::loop_(Proc::read(
        "gate",
        "x",
        Proc::send(bob, "l", Expr::var("x"), Proc::Jump(0)),
    ));
    let gated = protocol
        .implement_against_projection(&alice, gated, &externals)
        .expect("the gated reader implements Alice");
    let mut endpoints = vec![(gated, externals)];
    endpoints.extend(
        skeleton_endpoints(&protocol)
            .unwrap()
            .into_iter()
            .filter(|(cert, _)| *cert.role() != alice),
    );
    let mut registry = ProtocolRegistry::new();
    let service = Service {
        protocol: registry.register(protocol).unwrap(),
        endpoints: endpoints.into(),
        options: zooid_runtime::ExecOptions::with_max_steps(4),
    };
    let server = NetServer::start(registry, [service], NetServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    await_report(&server, "the connection", |r| r.connections_accepted == 1);

    // Nothing in flight, one silent connection: the loop sleeps its slices.
    let window = Duration::from_millis(300);
    let idle = passes_over(&server, window);
    assert!(idle < 1_000, "{idle} passes over an idle {window:?}");

    // One session in flight, sockets silent: the wait on the outcome
    // channel must block for its slice, not come back early.
    let session = client.open("pipeline").unwrap();
    assert_eq!(next_event(&mut client), MuxFrame::Accepted { session });
    let waiting = passes_over(&server, window);
    assert_eq!(
        server.net_report().sessions_done,
        0,
        "the gate holds the session"
    );
    assert!(
        waiting < 1_000,
        "{waiting} passes while waiting on a session for {window:?}"
    );

    drop(release);
    assert!(matches!(next_event(&mut client), MuxFrame::Done { session: s, .. } if s == session));
    server.shutdown();
}

#[test]
fn io_pass_histogram_records_work_not_sleep() {
    let (registry, ids) = registry_with_case_studies();
    let catalog = services(&registry, &ids);
    let server = NetServer::start(registry, catalog, NetServerConfig::default()).unwrap();
    let _idle = NetClient::connect(server.local_addr()).unwrap();
    // Mostly idle passes over one silent socket: each is a few syscalls of
    // work, however long the loop then waits before the next.
    std::thread::sleep(Duration::from_millis(100));
    let passes = server.shutdown().net.io_pass_ns;
    assert!(
        passes.count() > 10,
        "only {} passes recorded",
        passes.count()
    );
    assert!(
        passes.p50() < 100_000,
        "an idle pass reads as {} ns of work",
        passes.p50()
    );
}
