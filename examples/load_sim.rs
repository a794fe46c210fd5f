//! Load simulation for the multi-session server: two registered protocols,
//! 1,000 concurrent sessions multiplexed on 4 worker shards.
//!
//! Where the other examples run *one* session with one OS thread per
//! participant, this one exercises the serving layer: every protocol is
//! compiled exactly once by the [`ProtocolRegistry`], sessions are resumable
//! endpoint tasks stepped in bounded quanta by the sharded scheduler, and
//! every communication is checked live by a compiled per-role monitor.
//!
//! It also exercises the observability plane: latency percentiles come off
//! the lock-free shard histograms, and a tail of deliberately misbehaving
//! sessions (certified against a decoy protocol) shows the monitor's
//! violations being captured as incidents whose trace prefixes *replay* to
//! the same verdict against the compiled system.
//!
//! Then comes the hostile-world campaign: synthesized byzantine casts
//! (one minimal mutation each) are thrown at the server, the default
//! quarantine policy stops every flagged session at its first violation,
//! and the per-protocol quarantine counters and a replayed incident show
//! the containment working.
//!
//! Run with `cargo run --release --example load_sim`.

use std::sync::Arc;
use std::time::Instant;

use zooid::dsl::Protocol;
use zooid::mpst::generators;
use zooid::server::synth::{byzantine_driver, skeleton_endpoints};
use zooid::server::{
    ByzantineMutation, ExpectedClass, ProtocolRegistry, ServerConfig, SessionServer, SessionSpec,
};

const SESSIONS: usize = 1_000;
const SHARDS: usize = 4;
/// Deliberately misbehaving sessions appended after the main run to show
/// incident capture and replay.
const BAD_SESSIONS: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Register two protocols; each is projected and compiled exactly once.
    let mut registry = ProtocolRegistry::new();
    let ring = registry.register(Protocol::new("ring", generators::ring_n(4))?)?;
    let two_buyer = registry.register(Protocol::new("two_buyer", generators::two_buyer())?)?;
    println!("registered {} protocols", registry.len());

    // Certify one skeleton implementation per role, and share each cast as
    // one handle: the server validates a cast once and each shard resolves
    // it once. (A cast is known by its certificates, so a new list of the
    // same certificates per session would do as well, at the cost of the
    // list.)
    let ring_endpoints: Arc<[_]> =
        skeleton_endpoints(registry.get(ring).unwrap().protocol())?.into();
    let buyer_endpoints: Arc<[_]> =
        skeleton_endpoints(registry.get(two_buyer).unwrap().protocol())?.into();
    // Every distinct cast submitted to this server, for the bound on
    // `casts_resolved` below.
    let mut casts = 2;

    let mut server = SessionServer::start(registry, ServerConfig::with_shards(SHARDS));
    println!(
        "serving {SESSIONS} sessions on {} worker shards...",
        server.shard_count()
    );

    let started = Instant::now();
    for i in 0..SESSIONS {
        let spec = if i % 2 == 0 {
            SessionSpec::new(ring, Arc::clone(&ring_endpoints))
        } else {
            SessionSpec::new(two_buyer, Arc::clone(&buyer_endpoints))
        };
        server.submit(spec)?;
    }
    let outcomes = server.drain();
    let elapsed = started.elapsed();

    assert_eq!(outcomes.len(), SESSIONS);
    let compliant = outcomes.iter().filter(|o| o.all_finished_and_compliant()).count();
    let messages: usize = outcomes.iter().map(|o| o.messages_exchanged()).sum();
    println!(
        "finished {SESSIONS} sessions in {elapsed:?} ({:.0} sessions/s, {messages} messages)",
        SESSIONS as f64 / elapsed.as_secs_f64()
    );
    assert_eq!(compliant, SESSIONS, "every session must be compliant");

    // Latency percentiles, straight from the lock-free shard histograms.
    let obs = server.report().obs;
    println!("\nlatency (session wall time): {}", obs.session_wall_ns);
    println!("latency (per-action cost):   {}", obs.action_cost_ns);
    println!("batch cohort width:          {}", obs.cohort_width);

    // Incident demo: a handful of sessions certified against a *rotated*
    // ring — same participants and per-role communication sites (so they
    // batch), but the wrong global order. The monitor catches the first
    // out-of-order send, demotes the session, and the flight recorder
    // captures a replayable incident.
    let rotated = Protocol::new("ring", generators::ring(&["w3", "w0", "w1", "w2"]))?;
    let bad_endpoints: Arc<[_]> = skeleton_endpoints(&rotated)?.into();
    casts += 1;
    for _ in 0..BAD_SESSIONS {
        server.submit(SessionSpec::new(ring, Arc::clone(&bad_endpoints)))?;
    }
    let bad_outcomes = server.drain();
    assert!(bad_outcomes.iter().all(|o| !o.compliant));
    assert!(
        bad_outcomes.iter().all(|o| o.quarantined),
        "the default policy quarantines every flagged session"
    );

    let system = std::sync::Arc::clone(server.registry().get(ring).unwrap().compiled());
    let incidents = server.incidents();
    println!("\ncaptured {} incidents:", incidents.len());
    for incident in &incidents {
        let s = incident.summary();
        println!(
            "  session {} role {} violated at position {} ({}): prefix of {} actions replays: {}",
            s.session,
            s.role,
            s.position,
            s.action,
            s.prefix_len,
            incident.replays_violation(&system),
        );
    }
    assert!(incidents.iter().all(|i| i.replays_violation(&system)));

    // Fault campaign: synthesized byzantine casts, one minimal mutation
    // per driver, each with a known expected class. Sessions landing in
    // the Violation class are quarantined — stopped at their first
    // violation, never stepped again — and counted per protocol.
    println!("\nbyzantine campaign against `ring`:");
    let ring_protocol = Protocol::new("ring", generators::ring_n(4))?;
    let mut expected_quarantines = BAD_SESSIONS;
    for mutation in ByzantineMutation::all() {
        let Some(driver) = byzantine_driver(&ring_protocol, mutation)? else {
            println!("  {mutation}: not applicable to this protocol shape");
            continue;
        };
        casts += 1;
        let id = server.submit(SessionSpec::new(ring, driver.endpoints))?;
        let outcome = server
            .drain()
            .into_iter()
            .find(|o| o.id == id)
            .expect("submitted session drains");
        match driver.mutation.expected() {
            ExpectedClass::Violation => {
                assert!(!outcome.compliant && outcome.quarantined);
                expected_quarantines += 1;
                println!(
                    "  {mutation}: quarantined after {} violation(s), actor {}",
                    outcome.violations.len(),
                    driver.actor
                );
            }
            ExpectedClass::Silence => {
                assert!(outcome.compliant && !outcome.complete && !outcome.quarantined);
                println!("  {mutation}: compliant silence (stalled, not quarantined)");
            }
        }
    }

    // One replayed incident from the campaign, re-certified against the
    // compiled system.
    let incident = server
        .incidents()
        .into_iter()
        .last()
        .expect("the campaign captured incidents");
    let s = incident.summary();
    println!(
        "  last incident: session {} role {} at position {} ({}) — replays: {}",
        s.session,
        s.role,
        s.position,
        s.action,
        incident.replays_violation(&system),
    );
    assert!(incident.replays_violation(&system));

    let report = server.shutdown();
    println!("\n{report}");
    println!("quarantined sessions per protocol:");
    for (protocol, count) in &report.obs.per_protocol_quarantined {
        println!("  protocol #{protocol}: {count}");
    }
    assert_eq!(
        report.sessions_quarantined() as usize,
        expected_quarantines,
        "quarantine counters must match the campaign"
    );
    assert_eq!(report.sessions_violated() as usize, expected_quarantines);
    // Each cast is resolved at most once per shard: its sessions run back
    // to back, so a shard's memo misses only on a cast's first.
    println!(
        "cast resolutions: {} ({casts} casts on {SHARDS} shards)",
        report.casts_resolved()
    );
    assert!(report.casts_resolved() <= (SHARDS * casts) as u64);

    Ok(())
}
