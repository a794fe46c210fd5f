//! Durability suite: checkpoint/restore under re-validation.
//!
//! The covenant under test is *kill-anywhere equivalence*: interrupting a
//! session after **any** quantum, serializing it through the checkpoint
//! codec, restoring it under re-validation and running it on must be
//! observably identical — per-endpoint statuses, value traces, monitor
//! verdicts — to never having interrupted it at all. Around that
//! differential core sit the trust-boundary tests (truncated, bit-flipped
//! and cross-protocol checkpoints are refused with structured errors, not
//! panics), and the refusal of a checkpoint whose recorded trace or
//! in-flight frames disagree with its monitor.

use std::sync::Arc;

use zooid_cfsm::CompiledSystem;
use zooid_dsl::synth::skeleton_procs;
use zooid_mpst::global::GlobalType;
use zooid_mpst::{generators, Role, Sort};
use zooid_proc::Externals;
use zooid_runtime::cbatch::{BatchLayout, DemotedSession, SessionBatch};
use zooid_runtime::checkpoint::SessionCheckpoint;
use zooid_runtime::exec::ExecOptions;
use zooid_runtime::monitor::CompiledMonitor;
use zooid_runtime::RuntimeError;

mod common;
use common::{finish_demoted, make_layout, run_reference};

/// Serializes a demoted session through the checkpoint codec and restores
/// it under re-validation — the full durability round trip.
fn roundtrip(demoted: &DemotedSession, layout: &Arc<BatchLayout>) -> DemotedSession {
    let checkpoint = SessionCheckpoint::from_demoted(demoted);
    let bytes = checkpoint.encode();
    let decoded = SessionCheckpoint::decode(&bytes).expect("own encoding decodes");
    assert_eq!(decoded, checkpoint, "decode(encode(c)) == c");
    decoded
        .into_demoted(layout.programs(), layout.system())
        .expect("own checkpoint re-validates")
}

fn case_studies() -> Vec<(&'static str, GlobalType, ExecOptions)> {
    vec![
        ("ring3", generators::ring3(), ExecOptions::default()),
        ("ring8", generators::ring_n(8), ExecOptions::default()),
        ("two_buyer", generators::two_buyer(), ExecOptions::default()),
        ("fanout5", generators::fanout_n(5), ExecOptions::default()),
        ("branching3", generators::branching(3), ExecOptions::default()),
        (
            "pipeline",
            generators::pipeline(),
            ExecOptions::with_max_steps(12),
        ),
        (
            "chain5",
            generators::chain_n(5),
            ExecOptions::with_max_steps(9),
        ),
        (
            "ping_pong",
            generators::ping_pong(),
            ExecOptions::with_max_steps(7),
        ),
    ]
}

// ---------------------------------------------------------------------
// Checkpoint: kill at every quantum, restore, compare.
// ---------------------------------------------------------------------

#[test]
fn checkpoint_at_every_quantum_matches_the_uninterrupted_run() {
    for (name, g, options) in case_studies() {
        let procs = skeleton_procs(&g).expect("case studies synthesize");
        let reference = run_reference(&g, &procs, &options, true, None);
        let layout = make_layout(&g, &procs, &Externals::new())
            .expect("skeleton layouts are batch-eligible");
        // Kill after k quanta of budget 1, for every k until the session
        // concludes inside the batch on its own.
        'kills: for kill_after in 0..10_000 {
            let mut batch = SessionBatch::new(Arc::clone(&layout), options.clone(), 1);
            assert!(batch.admit(7));
            for _ in 0..kill_after {
                let out = batch.run_quantum(1);
                if !out.finished.is_empty() {
                    // The session concluded before this kill point: later
                    // kill points are unreachable.
                    break 'kills;
                }
                if let Some(demoted) = out.demoted.into_iter().next() {
                    // The batch gave the session up on its own (stall,
                    // violation): the demotion *is* the kill point.
                    let restored = roundtrip(&demoted, &layout);
                    let observed = finish_demoted(restored, &layout);
                    assert_eq!(observed, reference, "{name}: demote-at-{kill_after}");
                    break 'kills;
                }
            }
            let demoted = batch.demote_now(7).expect("session still live");
            let restored = roundtrip(&demoted, &layout);
            let observed = finish_demoted(restored, &layout);
            assert_eq!(observed, reference, "{name}: kill-at-{kill_after}");
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint: the trust boundary.
// ---------------------------------------------------------------------

#[test]
fn truncated_and_bitflipped_checkpoints_are_refused_not_panicked() {
    let g = generators::two_buyer();
    let procs = skeleton_procs(&g).expect("synthesizes");
    let options = ExecOptions::default();
    let layout = make_layout(&g, &procs, &Externals::new())
        .expect("skeleton layouts are batch-eligible");
    let mut batch = SessionBatch::new(Arc::clone(&layout), options, 1);
    assert!(batch.admit(3));
    batch.run_quantum(2);
    let demoted = batch.demote_now(3).expect("live");
    let bytes = SessionCheckpoint::from_demoted(&demoted).encode();

    // Every truncation fails with a structured codec error.
    for cut in 0..bytes.len() {
        match SessionCheckpoint::decode(&bytes[..cut]) {
            Err(RuntimeError::Codec { .. }) => {}
            Err(other) => panic!("truncation at {cut} gave non-codec error {other}"),
            Ok(_) => panic!("truncation at {cut} decoded"),
        }
    }
    // Every single-bit flip either fails decoding with a structured error
    // or — if the flip lands in a don't-care position — still has to pass
    // re-validation before it can become a session. Nothing panics.
    for i in 0..bytes.len() {
        for bit in [0x01u8, 0x80u8] {
            let mut mangled = bytes.to_vec();
            mangled[i] ^= bit;
            if let Ok(decoded) = SessionCheckpoint::decode(&mangled) {
                let _ = decoded.into_demoted(layout.programs(), layout.system());
            }
        }
    }
    // Flipping the magic is always refused.
    let mut mangled = bytes.to_vec();
    mangled[0] ^= 0xFF;
    let err = SessionCheckpoint::decode(&mangled).unwrap_err();
    assert!(
        err.to_string().contains("bad magic"),
        "unexpected error: {err}"
    );
}

#[test]
fn checkpoints_do_not_restore_against_a_foreign_protocol() {
    let ring = generators::ring3();
    let ring_procs = skeleton_procs(&ring).expect("synthesizes");
    let ring_layout = make_layout(&ring, &ring_procs, &Externals::new())
        .expect("skeleton layouts are batch-eligible");
    let buyer = generators::two_buyer();
    let buyer_procs = skeleton_procs(&buyer).expect("synthesizes");
    let buyer_layout = make_layout(&buyer, &buyer_procs, &Externals::new())
        .expect("skeleton layouts are batch-eligible");

    let mut batch = SessionBatch::new(Arc::clone(&ring_layout), ExecOptions::default(), 1);
    assert!(batch.admit(1));
    batch.run_quantum(1);
    let demoted = batch.demote_now(1).expect("live");
    let checkpoint = SessionCheckpoint::from_demoted(&demoted);

    let err = checkpoint
        .into_demoted(buyer_layout.programs(), buyer_layout.system())
        .unwrap_err();
    match &err {
        RuntimeError::Recovery { .. } => {}
        other => panic!("expected a recovery refusal, got {other}"),
    }
    assert!(err.to_string().starts_with("recovery refused"), "{err}");
}

#[test]
fn a_checkpointed_frame_with_a_label_no_program_communicates_is_refused() {
    // A restored session's frames go back into a batch arena by wire id, and
    // only the programs' own labels have one.
    let g = generators::ring3();
    let procs = skeleton_procs(&g).expect("synthesizes");
    let layout = make_layout(&g, &procs, &Externals::new())
        .expect("skeleton layouts are batch-eligible");
    let mut batch = SessionBatch::new(Arc::clone(&layout), ExecOptions::default(), 1);
    assert!(batch.admit(1));
    let mut demoted = batch.demote_now(1).expect("live");
    let smuggled = zooid_mpst::Label::new("smuggled");
    demoted
        .frames
        .push((0, 1, smuggled, zooid_proc::Value::Nat(0)));
    let err = SessionCheckpoint::from_demoted(&demoted)
        .into_demoted(layout.programs(), layout.system())
        .unwrap_err();
    assert!(matches!(err, RuntimeError::Recovery { .. }), "{err}");
    assert!(err.to_string().contains("smuggled"), "{err}");
}

#[test]
fn checkpointed_frames_that_disagree_with_the_monitor_cursor_are_refused() {
    // A restored session's frames are the monitor's queue, so each must be
    // the message the cursor queues on its channel. An extra frame with a
    // real label would be received and rejected, blaming the cast for the
    // checkpoint's forgery; a dropped one would leave its receiver blocked.
    let g = generators::ring3();
    let procs = skeleton_procs(&g).expect("synthesizes");
    let layout = make_layout(&g, &procs, &Externals::new())
        .expect("skeleton layouts are batch-eligible");
    let mut batch = SessionBatch::new(Arc::clone(&layout), ExecOptions::default(), 1);
    assert!(batch.admit(1));
    // Three passes: Alice → Bob and Bob → Carol are delivered, and Carol's
    // send to Alice is in flight.
    batch.run_quantum(5);
    let mut demoted = batch.demote_now(1).expect("live");
    assert_eq!(demoted.frames.len(), 1, "Carol's frame is in flight");
    let restore = |demoted: &DemotedSession| {
        SessionCheckpoint::from_demoted(demoted).into_demoted(layout.programs(), layout.system())
    };
    assert!(restore(&demoted).is_ok(), "the checkpoint as taken restores");

    let in_flight = demoted.frames[0].clone();
    let forgeries = [
        ("an extra frame", vec![in_flight.clone(), in_flight]),
        ("the in-flight frame removed", Vec::new()),
    ];
    for (case, frames) in forgeries {
        demoted.frames = frames;
        match restore(&demoted) {
            Err(RuntimeError::Recovery { reason }) => {
                assert!(reason.contains("monitor queues"), "{case}: {reason}");
            }
            other => panic!("{case}: expected a recovery refusal, got {other:?}"),
        }
    }
}

/// `mu X. A -> B : tick(nat). B -> A : tock(nat). X`: the skeleton cast
/// never ends, so a session of it is always live to be cut.
fn metronome() -> GlobalType {
    let (a, b) = (Role::new("A"), Role::new("B"));
    let tock = GlobalType::msg1(b.clone(), a.clone(), "tock", Sort::Nat, GlobalType::var(0));
    GlobalType::rec(GlobalType::msg1(a, b, "tick", Sort::Nat, tock))
}

/// `!BA(tock, nat)`: B's answer, which the metronome never allows first.
fn tock() -> zooid_mpst::Action {
    zooid_mpst::Action::send(Role::new("B"), Role::new("A"), "tock".into(), Sort::Nat)
}

/// Cuts a metronome session after three actions and checkpoints it with the
/// monitor `edit` makes of the one it carries, everything else as cut.
/// Returns the encoded checkpoint and the layout it must restore against.
fn metronome_checkpoint_with(
    edit: impl FnOnce(&Arc<CompiledSystem>, &CompiledMonitor) -> CompiledMonitor,
) -> (Vec<u8>, Arc<BatchLayout>) {
    let g = metronome();
    let procs = skeleton_procs(&g).expect("synthesizes");
    let layout = make_layout(&g, &procs, &Externals::new())
        .expect("skeleton layouts are batch-eligible");
    let mut batch = SessionBatch::new(Arc::clone(&layout), ExecOptions::default(), 1);
    assert!(batch.admit(1));
    batch.run_quantum(3);
    let mut demoted = batch.demote_now(1).expect("the metronome never ends");
    demoted.monitor = edit(layout.system(), &demoted.monitor);
    (SessionCheckpoint::from_demoted(&demoted).encode(), layout)
}

#[test]
fn a_checkpoint_whose_compliant_trace_does_not_replay_is_refused() {
    // The cursor and the counters are consistent with a one-action trace,
    // but that action cannot come first: the trace is forged, and restore
    // replays it instead of trusting it.
    let (bytes, layout) = metronome_checkpoint_with(|system, monitor| {
        CompiledMonitor::resume(
            Arc::clone(system),
            monitor.cursor().clone(),
            zooid_mpst::Trace::new(vec![tock()]),
            1,
            Vec::new(),
            1,
            true,
        )
    });
    let decoded = SessionCheckpoint::decode(&bytes).expect("the forgery is well-formed bytes");
    match decoded.into_demoted(layout.programs(), layout.system()) {
        Err(RuntimeError::Recovery { reason }) => {
            assert!(reason.contains("compliant trace action 0"), "{reason}");
        }
        other => panic!("a forged trace must be a recovery refusal, got {other:?}"),
    }
}

#[test]
fn a_checkpoint_that_carries_a_violation_is_refused() {
    // A live session never carries a violation (its batch closes it at the
    // pass that saw one), so a checkpoint that does was not cut from a live
    // session, and restoring it would run a violator on.
    let (bytes, layout) = metronome_checkpoint_with(|system, monitor| {
        let violation = zooid_runtime::MonitorViolation {
            action: tock(),
            position: monitor.observed(),
            trace_len: monitor.accepted(),
        };
        CompiledMonitor::resume(
            Arc::clone(system),
            monitor.cursor().clone(),
            monitor.trace().clone(),
            monitor.accepted(),
            vec![violation],
            monitor.observed() + 1,
            monitor.records_trace(),
        )
    });
    let decoded = SessionCheckpoint::decode(&bytes).expect("the taint is well-formed bytes");
    match decoded.into_demoted(layout.programs(), layout.system()) {
        Err(RuntimeError::Recovery { reason }) => {
            assert!(reason.contains("violation"), "{reason}");
        }
        other => panic!("a carried violation must be a recovery refusal, got {other:?}"),
    }
}
