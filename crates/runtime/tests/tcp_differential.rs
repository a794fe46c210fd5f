//! Transport-level differential tests: the same session populations driven
//! over the in-memory network and over real loopback TCP sockets must agree
//! exactly — per-endpoint statuses, value-level traces, and the monitor's
//! verdicts (compliance, completion, the accepted global trace).
//!
//! This is the exhaustive-oracle pattern applied to the wire: the in-memory
//! transport (no codec, no sockets) is the oracle, and the TCP path (frame
//! cap, incremental reassembly, non-blocking `try_recv`) must be
//! behaviourally invisible. Both run on the lockstep runner
//! ([`zooid_runtime::lockstep`]), which only works over TCP because
//! `TcpTransport::try_recv` is genuinely non-blocking — under the old
//! blocking trait default every `WouldBlock` poll would have parked the
//! whole schedule.
//!
//! The second half is the hostile-framing suite: oversized length prefixes,
//! truncated frames, garbage payloads and mid-frame disconnects must each
//! produce a *structured* error within the configured deadline — no panic,
//! no hang, no unbounded allocation — and `recv`/`try_recv` must classify
//! every probe identically.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use zooid_dsl::synth::skeleton_procs;
use zooid_mpst::global::GlobalType;
use zooid_mpst::{generators, Role, Sort};
use zooid_proc::{Externals, Proc, Value, ValueAction};
use zooid_runtime::error::RuntimeError;
use zooid_runtime::exec::{EndpointStatus, EndpointTask, ExecOptions};
use zooid_runtime::lockstep::Lockstep;
use zooid_runtime::monitor::{CompiledMonitor, TraceMonitor};
use zooid_runtime::tcp::{loopback_mesh, TcpTransport};
use zooid_runtime::transport::Transport;
use zooid_mpst::Label;

mod common;
use common::memory_transports;

// ---------------------------------------------------------------------
// The lockstep runner over either transport
// ---------------------------------------------------------------------

/// The observables the two transports must agree on. The raw global trace
/// is *not* compared: with asynchronous delivery, independent actions may
/// interleave differently over TCP than in memory (both orders are valid
/// traces of the same protocol — the monitors accept either), but the
/// per-endpoint statuses, per-endpoint value traces, number of globally
/// accepted actions and the verdicts must be identical.
#[derive(Debug, PartialEq)]
struct RunResult {
    statuses: BTreeMap<Role, EndpointStatus>,
    traces: BTreeMap<Role, Vec<ValueAction>>,
    compliant: bool,
    complete: bool,
    global_actions: usize,
}

/// How long a no-progress streak must last before the runner declares a
/// stall over TCP, where a frame can be in flight between a send and the
/// peer's socket becoming readable.
const TCP_GRACE: Duration = Duration::from_millis(500);

/// Runs the tree executor over one transport per proc, in `procs` order,
/// with a `TraceMonitor` shadowing the `CompiledMonitor`; `grace` is zero
/// in memory, where delivery is synchronous.
fn run<T: Transport>(
    g: &GlobalType,
    procs: &[(Role, Proc)],
    options: &ExecOptions,
    transports: Vec<T>,
    grace: Duration,
) -> RunResult {
    let endpoints = procs
        .iter()
        .zip(transports)
        .map(|((role, proc), transport)| {
            let options = options.clone();
            let task = EndpointTask::new(proc.clone(), role.clone(), Externals::new(), options);
            (task, transport)
        })
        .collect();
    let (report, _) = Lockstep::new(CompiledMonitor::for_global(g).expect("projectable"))
        .shadow(TraceMonitor::new(g).expect("well-formed"))
        .grace(grace)
        .run(endpoints);
    let (statuses, traces) =
        report.endpoints.into_iter().map(|(r, e)| ((r.clone(), e.status), (r, e.actions))).unzip();
    RunResult {
        statuses,
        traces,
        compliant: report.compliant,
        complete: report.complete,
        global_actions: report.global_trace.len(),
    }
}

fn tcp_transports(procs: &[(Role, Proc)]) -> Vec<TcpTransport> {
    loopback_mesh(procs.iter().map(|(r, _)| r.clone()), Duration::from_secs(10))
}

fn run_memory(g: &GlobalType, procs: &[(Role, Proc)], options: &ExecOptions) -> RunResult {
    run(g, procs, options, memory_transports(procs), Duration::ZERO)
}

fn run_tcp(g: &GlobalType, procs: &[(Role, Proc)], options: &ExecOptions) -> RunResult {
    run(g, procs, options, tcp_transports(procs), TCP_GRACE)
}

fn assert_transports_agree(
    g: &GlobalType,
    procs: &[(Role, Proc)],
    options: &ExecOptions,
    context: &str,
) {
    let memory = run_memory(g, procs, options);
    let tcp = run_tcp(g, procs, options);
    assert_eq!(memory, tcp, "{context}: TCP diverged from the in-memory oracle");
}

// ---------------------------------------------------------------------
// Differential suite
// ---------------------------------------------------------------------

#[test]
fn tcp_and_memory_agree_on_the_case_studies() {
    let cases: Vec<(&str, GlobalType, ExecOptions)> = vec![
        ("ring3", generators::ring3(), ExecOptions::default()),
        ("two_buyer", generators::two_buyer(), ExecOptions::default()),
        ("fanout4", generators::fanout_n(4), ExecOptions::default()),
        ("branching2", generators::branching(2), ExecOptions::default()),
        // The looping families run to their step limit.
        ("pipeline", generators::pipeline(), ExecOptions::with_max_steps(12)),
        ("ping_pong", generators::ping_pong(), ExecOptions::with_max_steps(7)),
    ];
    for (name, g, options) in cases {
        let procs = skeleton_procs(&g).expect("case studies synthesize");
        assert_transports_agree(&g, &procs, &options, name);
    }
}

#[test]
fn tcp_and_memory_agree_on_randomized_protocols() {
    let params = generators::RandomProtocol::default();
    let mut covered = 0;
    for seed in 0..200u64 {
        if covered >= 8 {
            break;
        }
        let g = generators::random_global(seed, &params);
        let Some(procs) = skeleton_procs(&g) else {
            continue;
        };
        covered += 1;
        assert_transports_agree(
            &g,
            &procs,
            &ExecOptions::with_max_steps(24),
            &format!("seed {seed}"),
        );
    }
    assert!(covered >= 4, "corpus too small: {covered}");
}

#[test]
fn tcp_and_memory_agree_on_stalls() {
    // Bob never forwards: Alice finishes her send, Carol stalls waiting.
    let g = generators::ring3();
    let mut procs = skeleton_procs(&g).expect("ring synthesizes");
    for (role, proc) in &mut procs {
        if role.name() == "Bob" {
            *proc = Proc::recv1(Role::new("Alice"), "l", Sort::Nat, "x", Proc::Finish);
        }
    }
    let memory = run_memory(&g, &procs, &ExecOptions::default());
    let tcp = run_tcp(&g, &procs, &ExecOptions::default());
    assert_eq!(memory, tcp);
    assert_eq!(tcp.statuses[&Role::new("Carol")], EndpointStatus::Stalled);
    assert!(tcp.compliant, "an unfinished prefix is still compliant");
    assert!(!tcp.complete);
}

#[test]
fn an_empty_fault_plan_is_behaviourally_invisible() {
    // The fault-injection wrapper with no specs must be a passthrough on
    // both backends: identical statuses, traces and verdicts to the bare
    // transports, for looping protocols as well as terminating ones.
    use zooid_runtime::faults::{FaultPlan, FaultyTransport};
    let cases: Vec<(&str, GlobalType, ExecOptions)> = vec![
        ("ring3", generators::ring3(), ExecOptions::default()),
        ("two_buyer", generators::two_buyer(), ExecOptions::default()),
        ("pipeline", generators::pipeline(), ExecOptions::with_max_steps(12)),
    ];
    for (name, g, options) in cases {
        let procs = skeleton_procs(&g).expect("case studies synthesize");
        let plan = FaultPlan::new(0xFA17);

        let bare = run_memory(&g, &procs, &options);
        let endpoints = memory_transports(&procs)
            .into_iter()
            .map(|t| FaultyTransport::new(t, &plan))
            .collect();
        let wrapped = run(&g, &procs, &options, endpoints, Duration::ZERO);
        assert_eq!(bare, wrapped, "{name}: empty plan changed the in-memory run");

        let bare_tcp = run_tcp(&g, &procs, &options);
        let endpoints = tcp_transports(&procs)
            .into_iter()
            .map(|t| FaultyTransport::new(t, &plan))
            .collect();
        let wrapped_tcp = run(&g, &procs, &options, endpoints, TCP_GRACE);
        assert_eq!(bare_tcp, wrapped_tcp, "{name}: empty plan changed the TCP run");
    }
}

// ---------------------------------------------------------------------
// Hostile framing: structured errors, bounded time, recv/try_recv lockstep
// ---------------------------------------------------------------------

/// Classifies an error for lockstep comparison between `recv` and
/// `try_recv` without demanding identical free-text messages.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum ErrorClass {
    FrameTooLarge,
    Codec,
    Disconnected,
    Timeout,
    Io,
    Other,
}

fn classify(e: &RuntimeError) -> ErrorClass {
    match e {
        RuntimeError::FrameTooLarge { .. } => ErrorClass::FrameTooLarge,
        RuntimeError::Codec { .. } => ErrorClass::Codec,
        RuntimeError::Disconnected { .. } => ErrorClass::Disconnected,
        RuntimeError::Timeout { .. } => ErrorClass::Timeout,
        RuntimeError::Io(_) => ErrorClass::Io,
        _ => ErrorClass::Other,
    }
}

/// A hostile peer: writes `bytes`, then optionally slams the connection.
struct Probe {
    name: &'static str,
    bytes: Vec<u8>,
    close_after: bool,
    expected: ErrorClass,
}

fn probes() -> Vec<Probe> {
    let msg = zooid_runtime::codec::encode_message(&zooid_runtime::codec::Message::new(
        "l",
        Value::Str("payload".into()),
    ));
    let mut valid = (msg.len() as u32).to_be_bytes().to_vec();
    valid.extend_from_slice(&msg);

    // Oversized: the header announces 4 GiB - 1; no body follows (none is
    // needed — the header alone must trip the cap).
    let oversized = u32::MAX.to_be_bytes().to_vec();

    // Truncated: a valid header, half the body, then the peer closes.
    let truncated = valid[..4 + (msg.len() / 2)].to_vec();

    // Garbage: a plausible small length followed by bytes that decode to
    // nothing (unknown tags / truncated fields inside a complete frame).
    let garbage_body = [0xFFu8; 16];
    let mut garbage = (garbage_body.len() as u32).to_be_bytes().to_vec();
    garbage.extend_from_slice(&garbage_body);

    // Mid-frame disconnect: only the header and one body byte arrive.
    let midframe = valid[..5].to_vec();

    vec![
        Probe {
            name: "oversized length prefix",
            bytes: oversized,
            close_after: false,
            expected: ErrorClass::FrameTooLarge,
        },
        Probe {
            name: "truncated frame then close",
            bytes: truncated,
            close_after: true,
            expected: ErrorClass::Codec,
        },
        Probe {
            name: "garbage payload",
            bytes: garbage,
            close_after: false,
            expected: ErrorClass::Codec,
        },
        Probe {
            name: "mid-frame disconnect",
            bytes: midframe,
            close_after: true,
            expected: ErrorClass::Codec,
        },
    ]
}

/// Builds a victim transport wired to a raw hostile socket.
fn victim_and_attacker() -> (TcpTransport, TcpStream) {
    let listener = TcpListener::bind((IpAddr::V4(Ipv4Addr::LOCALHOST), 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let attacker = TcpStream::connect(addr).unwrap();
    let (victim_stream, _) = listener.accept().unwrap();
    let mut streams = BTreeMap::new();
    streams.insert(Role::new("attacker"), victim_stream);
    let mut victim = TcpTransport::from_streams(Role::new("victim"), streams);
    victim.set_recv_timeout(Duration::from_millis(500));
    (victim, attacker)
}

fn drive_probe(probe: &Probe, use_try_recv: bool) -> ErrorClass {
    let (mut victim, mut attacker) = victim_and_attacker();
    attacker.write_all(&probe.bytes).unwrap();
    attacker.flush().unwrap();
    // For close_after probes the attacker's socket is slammed shut here;
    // otherwise the binding stays alive across the receive below, so the
    // victim must fail from the bytes alone (or hit its deadline for
    // probes whose frame never completes).
    if probe.close_after {
        drop(attacker);
    }

    let started = Instant::now();
    let hard_deadline = Duration::from_secs(10);
    let from = Role::new("attacker");
    let class = if use_try_recv {
        loop {
            match victim.try_recv(&from) {
                Ok(Some(m)) => panic!("{}: hostile bytes decoded to {m:?}", probe.name),
                Ok(None) => {
                    // try_recv never blocks: a probe that leaves the frame
                    // forever incomplete with the socket open parks here —
                    // mirror recv's deadline by bounding the poll loop.
                    if started.elapsed() >= Duration::from_millis(500) {
                        break ErrorClass::Timeout;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => break classify(&e),
            }
        }
    } else {
        match victim.recv(&from) {
            Ok(m) => panic!("{}: hostile bytes decoded to {m:?}", probe.name),
            Err(e) => classify(&e),
        }
    };
    assert!(
        started.elapsed() < hard_deadline,
        "{}: took {:?} — the structured-error path must be bounded",
        probe.name,
        started.elapsed()
    );
    class
}

#[test]
fn hostile_frames_yield_structured_errors_in_recv_and_try_recv_lockstep() {
    for probe in probes() {
        let via_recv = drive_probe(&probe, false);
        let via_try = drive_probe(&probe, true);
        assert_eq!(
            via_recv, probe.expected,
            "{}: recv misclassified the probe",
            probe.name
        );
        assert_eq!(
            via_recv, via_try,
            "{}: recv and try_recv disagree",
            probe.name
        );
    }
}

#[test]
fn oversized_header_fails_fast_without_allocating() {
    let (mut victim, mut attacker) = victim_and_attacker();
    // 4 GiB announced; only 4 bytes sent. recv must fail from the header
    // alone, well inside the 500ms receive deadline.
    attacker.write_all(&u32::MAX.to_be_bytes()).unwrap();
    let started = Instant::now();
    match victim.recv(&Role::new("attacker")) {
        Err(RuntimeError::FrameTooLarge { len, max }) => {
            assert_eq!(len, u32::MAX as usize);
            assert_eq!(max, zooid_runtime::wire::DEFAULT_MAX_FRAME_BYTES);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_millis(400), "failed too slowly");
    // The error is sticky: the stream cannot be resynchronised.
    assert!(matches!(
        victim.try_recv(&Role::new("attacker")),
        Err(RuntimeError::FrameTooLarge { .. })
    ));
}

#[test]
fn a_compliant_session_survives_next_to_a_hostile_connection() {
    // Hardening must not break the happy path: a victim holding both a
    // hostile peer and a well-behaved one still serves the latter.
    let listener = TcpListener::bind((IpAddr::V4(Ipv4Addr::LOCALHOST), 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let attacker = TcpStream::connect(addr).unwrap();
    let (to_attacker, _) = listener.accept().unwrap();
    let friend_raw = TcpStream::connect(addr).unwrap();
    let (to_friend, _) = listener.accept().unwrap();

    let mut streams = BTreeMap::new();
    streams.insert(Role::new("attacker"), to_attacker);
    streams.insert(Role::new("friend"), to_friend);
    let mut victim = TcpTransport::from_streams(Role::new("victim"), streams);
    victim.set_recv_timeout(Duration::from_secs(5));

    let mut friend_streams = BTreeMap::new();
    friend_streams.insert(Role::new("victim"), friend_raw);
    let mut friend = TcpTransport::from_streams(Role::new("friend"), friend_streams);

    let mut attacker = attacker;
    attacker.write_all(&u32::MAX.to_be_bytes()).unwrap();
    assert!(matches!(
        victim.recv(&Role::new("attacker")),
        Err(RuntimeError::FrameTooLarge { .. })
    ));

    friend
        .send(&Role::new("victim"), &Label::new("hi"), &Value::Nat(7))
        .unwrap();
    assert_eq!(
        victim.recv(&Role::new("friend")).unwrap(),
        (Label::new("hi"), Value::Nat(7))
    );
}
