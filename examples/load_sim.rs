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
//! The final act is durability: a second server (single-action quanta, so
//! sessions stay in flight) is drained shard by shard — every in-flight
//! session leaves as an encoded, re-certifiable checkpoint — and the
//! checkpoints are migrated onto other shards where they resume and finish
//! compliant. Violators submitted alongside them quarantine under the
//! default policy: each is closed from the state its batch extracted at the
//! first rejection, and none is rebuilt on the slab.
//!
//! Run with `cargo run --release --example load_sim`.

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

    // Certify one skeleton implementation per role, reused by every session.
    let ring_endpoints = skeleton_endpoints(registry.get(ring).unwrap().protocol())?;
    let buyer_endpoints = skeleton_endpoints(registry.get(two_buyer).unwrap().protocol())?;

    let mut server = SessionServer::start(registry, ServerConfig::with_shards(SHARDS));
    println!(
        "serving {SESSIONS} sessions on {} worker shards...",
        server.shard_count()
    );

    let started = Instant::now();
    for i in 0..SESSIONS {
        let spec = if i % 2 == 0 {
            SessionSpec::new(ring, ring_endpoints.clone())
        } else {
            SessionSpec::new(two_buyer, buyer_endpoints.clone())
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
    let bad_endpoints = skeleton_endpoints(&rotated)?;
    for _ in 0..BAD_SESSIONS {
        server.submit(SessionSpec::new(ring, bad_endpoints.clone()))?;
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
        let id = server.submit(SessionSpec::new(ring, driver.endpoints.clone()))?;
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

    // Durability act: drain shards mid-flight and migrate the checkpoints,
    // with violators quarantining next to them. A fresh server with
    // single-action quanta keeps sessions in flight long enough to catch
    // them between quanta.
    println!("\ndrain-and-recover:");
    let mut registry = ProtocolRegistry::new();
    let ring = registry.register(Protocol::new("ring", generators::ring_n(4))?)?;
    let ring_endpoints = skeleton_endpoints(registry.get(ring).unwrap().protocol())?;
    let mut server = SessionServer::start(
        registry,
        ServerConfig {
            shards: 2,
            quantum: 1,
            ..ServerConfig::default()
        },
    );
    const MIGRATED_SESSIONS: usize = 64;
    for _ in 0..MIGRATED_SESSIONS {
        server.submit(SessionSpec::new(ring, ring_endpoints.clone()))?;
    }

    // Drain both shards: every session still in flight leaves as an
    // encoded checkpoint (already-finished ones deliver outcomes instead).
    let mut migrated = Vec::new();
    for shard in 0..server.shard_count() {
        migrated.extend(server.drain_shard(shard)?);
    }
    let bytes: usize = migrated.iter().map(|m| m.bytes.len()).sum();
    println!(
        "  drained {} in-flight sessions ({bytes} checkpoint bytes)",
        migrated.len()
    );

    // Migrate each checkpoint onto the *other* shard; decode re-validates
    // every index before the session is re-admitted, so a restored session
    // is re-certified, not just trusted.
    for m in migrated {
        let home = m.id.0 as usize % server.shard_count();
        server.migrate_session(m, (home + 1) % server.shard_count())?;
    }

    // Violators under the default policy: each is over at its first
    // rejected action, and is closed as quarantined from the state its
    // batch demoted it with.
    for _ in 0..BAD_SESSIONS {
        server.submit(SessionSpec::new(ring, bad_endpoints.clone()))?;
    }

    let outcomes = server.drain();
    assert_eq!(outcomes.len(), MIGRATED_SESSIONS + BAD_SESSIONS);
    let compliant = outcomes
        .iter()
        .filter(|o| o.all_finished_and_compliant())
        .count();
    assert_eq!(compliant, MIGRATED_SESSIONS, "migrated sessions finish compliant");
    assert_eq!(
        outcomes.iter().filter(|o| o.quarantined).count(),
        BAD_SESSIONS,
        "violators quarantine at their first rejection"
    );

    let report = server.shutdown();
    println!(
        "  {} sessions finished compliant after migration; {} sessions quarantined ({} of them out of a batch)",
        compliant,
        report.sessions_quarantined(),
        report.sessions_demoted(),
    );
    assert_eq!(report.sessions_quarantined() as usize, BAD_SESSIONS);
    assert_eq!(report.sessions_demoted() as usize, BAD_SESSIONS);
    Ok(())
}
