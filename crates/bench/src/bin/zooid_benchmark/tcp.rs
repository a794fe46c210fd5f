//! `tcp_short`: the `mem_short` sessions opened through `NetServer` on
//! loopback by two `NetClient` connections, one thread each. `mem_short` is
//! its control — the same sessions with no wire — so the pair prices the
//! front door.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use zooid_runtime::wire::{decode_mux, encode_mux, put_frame, FillStatus};
use zooid_runtime::{ExecOptions, FrameReader, MuxFrame, DEFAULT_MAX_FRAME_BYTES};
use zooid_server::{NetClient, NetServer, NetServerConfig, ServerConfig, Service};

use crate::procstat;
use crate::replay;
use crate::serve::{finish_trace, host, hosted_globals, latency_of, shard_counts, Hosted};
use crate::stats::{lost_share, percentile, Summary};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{arrivals, Gate, MemPlan, Report, RunArgs, SHARDS, TRACE_PAIRS};

/// Connections, each driven by its own thread.
const CONNECTIONS: usize = 2;
const EVENT_TIMEOUT: Duration = Duration::from_secs(30);

struct Front {
    net: NetServer,
    hosted: Vec<Hosted>,
    clients: Vec<NetClient>,
}

impl Front {
    fn start(plan: &MemPlan) -> Front {
        let (registry, hosted) = host(plan);
        let services: Vec<Service> = hosted
            .iter()
            .map(|h| Service {
                protocol: h.id,
                endpoints: std::sync::Arc::clone(&h.shared),
                options: ExecOptions::default(),
            })
            .collect();
        let config = NetServerConfig {
            server: ServerConfig::with_shards(SHARDS),
            ..NetServerConfig::default()
        };
        let net = NetServer::start(registry, services, config).expect("binds loopback");
        let clients = (0..CONNECTIONS)
            .map(|_| NetClient::connect(net.local_addr()).expect("connects"))
            .collect();
        Front {
            net,
            hosted,
            clients,
        }
    }
}

/// What one connection's thread did in one repetition.
#[derive(Default)]
struct Lane {
    gate: Gate,
    done: u64,
    wall_ns: u64,
    poll_ns: u64,
    latency_ns: Vec<u64>,
    lateness_ns: Vec<u64>,
    tracer: Option<Tracer>,
}

/// One connection: opens sessions (at most `in_flight` open when `due` is
/// `None`, else one per entry of `due` when it is due) and collects their
/// `Done` frames.
fn drive(
    client: &mut NetClient,
    protocol: &str,
    expected_actions: u64,
    count: usize,
    in_flight: usize,
    due: Option<&[u64]>,
    epoch: Option<Instant>,
) -> Lane {
    let mut lane = Lane {
        tracer: epoch.map(Tracer::since),
        ..Lane::default()
    };
    let start = Instant::now();
    let origin = lane.tracer.as_ref().map_or(0, |t| t.at(start));
    let elapsed = || start.elapsed().as_nanos() as u64;
    let mut first_session = None;
    // Per opened session: when its latency clock started, and its root span.
    let mut opened: Vec<(u64, SpanId)> = Vec::with_capacity(count);
    let mut done = 0;
    while done < count {
        let now = elapsed();
        let may_open = opened.len() < count
            && match due {
                Some(due) => due[opened.len()] <= now,
                None => opened.len() - done < in_flight,
            };
        if may_open {
            let clock = due.map_or(now, |due| due[opened.len()]);
            if due.is_some() {
                lane.lateness_ns.push(now - clock);
            }
            let session = client.open(protocol);
            let after = elapsed();
            lane.gate
                .check(session.is_ok(), || format!("open failed: {session:?}"));
            let Ok(session) = session else {
                return lane;
            };
            first_session.get_or_insert(session);
            let root = lane.tracer.as_mut().map_or(0, |t| {
                let root = t.push("session", session, None, origin + clock, origin + clock);
                t.push(
                    "client.open",
                    session,
                    Some(root),
                    origin + now,
                    origin + after,
                );
                root
            });
            opened.push((clock, root));
            continue;
        }
        let wait = match due {
            Some(due) if opened.len() < count => Duration::from_nanos(due[opened.len()] - now),
            _ => EVENT_TIMEOUT,
        };
        if opened.len() == done {
            std::thread::sleep(wait);
            continue;
        }
        let event = client.poll_event(wait);
        let after = elapsed();
        lane.poll_ns += after - now;
        let frame = match event {
            Ok(Some(frame)) => frame,
            Ok(None) if opened.len() < count => continue,
            other => {
                lane.gate
                    .check(false, || format!("server went silent or away: {other:?}"));
                return lane;
            }
        };
        let session_of = |session: u64| (session - first_session.unwrap_or(session)) as usize;
        match frame {
            MuxFrame::Accepted { session } => {
                if let Some(t) = lane.tracer.as_mut() {
                    let (_, root) = opened[session_of(session)];
                    t.push(
                        "client.poll_event",
                        session,
                        Some(root),
                        origin + now,
                        origin + after,
                    );
                }
            }
            MuxFrame::Done {
                session,
                compliant,
                complete,
                stalled,
                violations,
                actions,
            } => {
                done += 1;
                let (clock, root) = opened[session_of(session)];
                lane.latency_ns.push(after - clock);
                if let Some(t) = lane.tracer.as_mut() {
                    t.push(
                        "client.poll_event",
                        session,
                        Some(root),
                        origin + now,
                        origin + after,
                    );
                    t.set_end(root, origin + after);
                }
                lane.gate.check(
                    compliant && complete && !stalled && violations == 0 && actions == expected_actions,
                    || format!("session {session} ended wrong: compliant {compliant}, complete {complete}, stalled {stalled}, {violations} violations, {actions} actions"),
                );
            }
            other => lane
                .gate
                .check(false, || format!("session refused: {other:?}")),
        }
    }
    lane.done = done as u64;
    lane.wall_ns = elapsed();
    lane
}

/// Runs one repetition on every connection at once.
fn repetition(
    front: &mut Front,
    count_per_conn: usize,
    in_flight: usize,
    due: Option<&[Vec<u64>]>,
    epoch: Option<Instant>,
) -> Vec<Lane> {
    let protocol = front.hosted[0].fixture.name;
    let actions = front.hosted[0].fixture.actions as u64;
    std::thread::scope(|scope| {
        let lanes: Vec<_> = front
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let due = due.map(|due| due[conn].as_slice());
                scope.spawn(move || {
                    drive(
                        client,
                        protocol,
                        actions,
                        count_per_conn,
                        in_flight,
                        due,
                        epoch,
                    )
                })
            })
            .collect();
        lanes
            .into_iter()
            .map(|lane| lane.join().expect("a connection thread panicked"))
            .collect()
    })
}

fn frame_bytes(frame: &MuxFrame) -> Vec<u8> {
    // `put_frame` takes the wire crate's own buffer type, which this crate
    // does not name: the default value is inferred.
    let mut buf = Default::default();
    put_frame(&mut buf, &encode_mux(frame), DEFAULT_MAX_FRAME_BYTES).expect("small frame");
    buf.to_vec()
}

/// `Open` → `Done` over a socket of the benchmark's own, non-blocking and
/// spinning, one session in flight: the server's side of the round trip
/// without `NetClient`.
fn raw_roundtrips(addr: SocketAddr, protocol: &str, rounds: usize, gate: &mut Gate) -> Vec<u64> {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_nonblocking(true).expect("nonblocking");
    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
    let mut samples = Vec::with_capacity(rounds);
    for session in 1..=rounds as u64 {
        let open = frame_bytes(&MuxFrame::Open {
            session,
            protocol: protocol.to_owned(),
        });
        let start = Instant::now();
        let mut written = 0;
        while written < open.len() {
            match stream.write(&open[written..]) {
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => {
                    gate.check(false, || format!("raw socket write: {e}"));
                    return samples;
                }
            }
        }
        loop {
            if start.elapsed() > EVENT_TIMEOUT {
                gate.check(false, || "raw round trip timed out".into());
                return samples;
            }
            match reader.next_frame() {
                Ok(Some(payload)) => match decode_mux(&payload) {
                    Ok(MuxFrame::Done {
                        session: s,
                        compliant: true,
                        complete: true,
                        ..
                    }) if s == session => break,
                    Ok(MuxFrame::Accepted { .. }) => {}
                    other => {
                        gate.check(false, || format!("raw round trip answered {other:?}"));
                        return samples;
                    }
                },
                Ok(None) => match reader.fill(&mut stream) {
                    Ok(FillStatus::Eof) | Err(_) => {
                        gate.check(false, || "raw socket closed".into());
                        return samples;
                    }
                    Ok(_) => {}
                },
                Err(e) => {
                    gate.check(false, || format!("raw socket frame: {e}"));
                    return samples;
                }
            }
        }
        samples.push(start.elapsed().as_nanos() as u64);
        gate.check(true, String::new);
    }
    samples
}

/// Encode and decode cost of the three frames of one session, and their
/// size on the wire. Returns the codec time one session costs the process
/// (each frame is encoded once and decoded once, by client or server).
fn wire_replay(report: &mut Report, tracer: &mut Tracer, protocol: &str) -> f64 {
    const ROUNDS: usize = 2_000;
    let frames = [
        MuxFrame::Open {
            session: 1_000_000,
            protocol: protocol.to_owned(),
        },
        MuxFrame::Accepted { session: 1_000_000 },
        MuxFrame::Done {
            session: 1_000_000,
            compliant: true,
            complete: true,
            stalled: false,
            violations: 0,
            actions: 8,
        },
    ];
    let start = tracer.now();
    let mut bytes = Vec::new();
    for _ in 0..ROUNDS {
        bytes.clear();
        for frame in &frames {
            bytes.extend_from_slice(&std::hint::black_box(frame_bytes(frame)));
        }
    }
    let encoded = tracer.now();
    tracer.push("replay.runtime.wire.encode", 0, None, start, encoded);
    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
    for _ in 0..ROUNDS {
        reader.extend(&bytes);
        while let Some(payload) = reader.next_frame().expect("own frames") {
            std::hint::black_box(decode_mux(&payload).expect("own frames decode"));
        }
    }
    let decoded = tracer.now();
    tracer.push("replay.runtime.wire.decode", 0, None, encoded, decoded);
    let per_frame = (ROUNDS * frames.len()) as f64;
    let (encode_ns, decode_ns) = (
        (encoded - start) as f64 / per_frame,
        (decoded - encoded) as f64 / per_frame,
    );
    report.value("runtime.wire.encode_ns_per_frame", encode_ns);
    report.value("runtime.wire.decode_ns_per_frame", decode_ns);
    report.value("runtime.wire.bytes_per_session", bytes.len() as f64);
    (encode_ns + decode_ns) * frames.len() as f64
}

/// One closed-loop repetition with the process's CPU and switches over it.
struct ClosedRep {
    lanes: Vec<Lane>,
    done: u64,
    wall_ns: u64,
    cpu_ns: u64,
    switches: u64,
}

fn closed(
    front: &mut Front,
    count_per_conn: usize,
    in_flight: usize,
    epoch: Option<Instant>,
) -> ClosedRep {
    let switches = procstat::involuntary_switches();
    let cpu = procstat::cpu_ns();
    let start = Instant::now();
    let lanes = repetition(front, count_per_conn, in_flight, None, epoch);
    ClosedRep {
        wall_ns: start.elapsed().as_nanos() as u64,
        cpu_ns: procstat::cpu_ns() - cpu,
        switches: procstat::involuntary_switches().saturating_sub(switches),
        done: lanes.iter().map(|l| l.done).sum(),
        lanes,
    }
}

pub fn run(args: &RunArgs, plan: &MemPlan) -> Report {
    let process_start = Instant::now();
    let mut report = Report::default();
    let per_conn = |total: usize| total.div_ceil(CONNECTIONS);
    let closed_count = per_conn(args.count(plan.closed_rate, 2 * CONNECTIONS));
    let warm_count = (closed_count / 20).max(2);

    let mut setup_s = Vec::new();
    let mut front: Option<Front> = None;
    for round in 0..args.setups() {
        if let Some(previous) = front.take() {
            drop(previous.clients);
            previous.net.shutdown();
        }
        let begun = if round == 0 {
            process_start
        } else {
            Instant::now()
        };
        let mut fresh = Front::start(plan);
        for lane in repetition(&mut fresh, warm_count, plan.in_flight, None, None) {
            report.gate.absorb(lane.gate);
        }
        setup_s.push(begun.elapsed().as_secs_f64());
        front = Some(fresh);
    }
    let mut front = front.expect("at least one set-up");
    report.set("setup_s", Summary::of(&setup_s));
    // What the server that is still up has been asked to run so far.
    let mut opened = (warm_count * CONNECTIONS) as u64;

    // Closed loop: throughput per repetition, CPU over the whole phase.
    let reps = args.repetitions();
    let (mut per_s, mut cpu_ns, mut done) = (Vec::new(), 0, 0);
    let mut first = None;
    for _ in 0..reps {
        let rep = closed(&mut front, closed_count, plan.in_flight, None);
        opened += (closed_count * CONNECTIONS) as u64;
        if rep.done > 0 {
            per_s.push(rep.done as f64 * 1e9 / rep.wall_ns as f64);
            cpu_ns += rep.cpu_ns;
            done += rep.done;
            first.get_or_insert((rep.wall_ns, rep.cpu_ns, rep.switches));
        }
        for lane in rep.lanes {
            report.gate.absorb(lane.gate);
        }
    }
    let Some((wall_ns, first_cpu_ns, switches)) = first else {
        report
            .gate
            .check(false, || "no repetition completed".into());
        return report;
    };
    let cpu_us = cpu_ns as f64 / 1e3 / done as f64;
    report.set("ops_per_s", Summary::of(&per_s));
    report.value("cpu_us_per_op", cpu_us);
    report.notes.push(format!(
        "closed loop: {closed_count} sessions x {CONNECTIONS} connections x {reps}, {} in flight each",
        plan.in_flight
    ));

    // The traced pass: the closed loop under the tracer, an open loop for
    // latency, and the server's side of a round trip on a socket of our own.
    let protocol = front.hosted[0].fixture.name;
    let mut tracer = args.trace.then(Tracer::new);
    let mut traced = None;
    if let Some(tracer) = tracer.as_mut() {
        let count = (closed_count / TRACE_PAIRS).max(2);
        let (mut plain, mut under) = (Vec::new(), Vec::new());
        let (mut poll, mut wall) = (0, 0);
        for _ in 0..TRACE_PAIRS {
            for with_tracer in [false, true] {
                let epoch = with_tracer.then(|| tracer.epoch());
                let rep = closed(&mut front, count, plan.in_flight, epoch);
                opened += (count * CONNECTIONS) as u64;
                let rates = if with_tracer { &mut under } else { &mut plain };
                rates.push(rep.done as f64 / rep.wall_ns.max(1) as f64);
                for lane in rep.lanes {
                    report.gate.absorb(lane.gate);
                    if let Some(spans) = lane.tracer {
                        poll += lane.poll_ns;
                        wall += lane.wall_ns;
                        tracer.absorb(spans);
                    }
                }
            }
        }

        let open_count = per_conn(args.count(plan.open_rate, 2 * CONNECTIONS));
        let due: Vec<Vec<u64>> = (0..CONNECTIONS)
            .map(|conn| {
                arrivals(
                    args.seed,
                    &format!("open/conn{conn}"),
                    plan.open_rate / CONNECTIONS as f64,
                    open_count,
                )
            })
            .collect();
        let lanes = repetition(
            &mut front,
            open_count,
            plan.in_flight,
            Some(&due),
            Some(tracer.epoch()),
        );
        opened += (open_count * CONNECTIONS) as u64;
        let (mut latency, mut lateness) = (Vec::new(), Vec::new());
        for lane in lanes {
            latency.extend(lane.latency_ns);
            lateness.extend(lane.lateness_ns);
            report.gate.absorb(lane.gate);
            tracer.absorb(lane.tracer.expect("a traced lane"));
        }

        let rounds = if args.smoke { 20 } else { 200 };
        let raw = raw_roundtrips(front.net.local_addr(), protocol, rounds, &mut report.gate);
        opened += raw.len() as u64;
        traced = Some((
            lost_share(&plain, &under),
            poll as f64 / wall.max(1) as f64,
            latency,
            lateness,
            raw,
        ));
    }

    // Stop the server and hold its counts against what was opened.
    let Front {
        net,
        hosted,
        clients,
    } = front;
    drop(clients);
    let served = net.shutdown();
    let g = &mut report.gate;
    g.check(served.net.sessions_done == opened, || {
        format!(
            "{} Done frames sent, {opened} sessions opened",
            served.net.sessions_done
        )
    });
    g.check(served.net.sessions_opened == opened, || {
        format!(
            "{} sessions admitted, {opened} opened",
            served.net.sessions_opened
        )
    });
    g.check(served.net.bad_frames == 0, || {
        format!("{} bad frames", served.net.bad_frames)
    });
    g.check(
        served.net.sessions_shed == 0 && served.net.sessions_rejected == 0,
        || {
            format!(
                "{} shed, {} rejected",
                served.net.sessions_shed, served.net.sessions_rejected
            )
        },
    );
    g.check(served.shards.sessions_completed() == opened, || {
        format!(
            "{} sessions completed, {opened} opened",
            served.shards.sessions_completed()
        )
    });
    let actions = opened * hosted[0].fixture.actions as u64;
    g.check(served.shards.actions_executed() == actions, || {
        format!(
            "{} actions executed, {actions} expected",
            served.shards.actions_executed()
        )
    });

    if let (Some(tracer), Some((trace_overhead, poll_share, latency, mut lateness, mut raw))) =
        (tracer.as_mut(), traced)
    {
        if latency.is_empty() || raw.is_empty() {
            report
                .gate
                .check(false, || "the traced repetition did not complete".into());
            return report;
        }
        report.value("driver.trace_overhead_share", trace_overhead);
        report.value(
            "process.cpu_busy_share",
            first_cpu_ns as f64 / (wall_ns as f64 * procstat::nproc() as f64),
        );
        report.value("process.ctx_switches_invol", switches as f64);
        let samples = latency.len();
        let (p50_us, tail_us, tail) = latency_of(latency);
        report.value("driver.latency_p50_us", p50_us);
        report.value("driver.latency_tail_us", tail_us);
        report.value(
            "driver.lateness_p99_us",
            percentile(&mut lateness, 99) as f64 / 1e3,
        );
        report.notes.push(format!(
            "open loop: {samples} sessions at {}/s over both connections; driver.latency_tail_us is p{tail}",
            plan.open_rate
        ));
        report.value("server.net.client_poll_wait_share", poll_share);
        report.value(
            "server.net.raw_roundtrip_p50_us",
            percentile(&mut raw, 50) as f64 / 1e3,
        );
        report.value("server.net.frames_read", served.net.frames_read as f64);
        report.value(
            "server.net.frames_written",
            served.net.frames_written as f64,
        );
        report.value("server.net.sessions_shed", served.net.sessions_shed as f64);
        report.value(
            "server.net.io_pass_p50_ns",
            served.net.io_pass_ns.p50() as f64,
        );
        report.value(
            "server.net.io_pass_p99_ns",
            served.net.io_pass_ns.p99() as f64,
        );
        shard_counts(&mut report, &served.shards);
        // The front door exposes no live shard report, so these are over the
        // server's whole life, closed-loop phase included.
        let obs = &served.shards.obs;
        report.value(
            "server.obs.session_wall_p50_us",
            obs.session_wall_ns.p50() as f64 / 1e3,
        );
        report.value(
            "server.obs.session_wall_p99_us",
            obs.session_wall_ns.p99() as f64 / 1e3,
        );
        report.value(
            "server.obs.action_cost_p50_ns",
            obs.action_cost_ns.p50() as f64,
        );

        let wire_ns = wire_replay(&mut report, tracer, protocol);
        replay::registration(&mut report, tracer, &hosted_globals(&hosted));
        // Two connections' worth of sessions meet on the shards.
        let on_shards = MemPlan {
            in_flight: plan.in_flight * CONNECTIONS,
            ..plan.clone()
        };
        replay::serving(&mut report, tracer, &on_shards, &hosted, cpu_us, wire_ns);
        finish_trace(args, tracer, &mut report);
    }
    report
}
