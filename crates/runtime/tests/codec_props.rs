//! Property-based tests for the wire codec: arbitrary values round-trip, and
//! corrupted frames never decode into a different message silently... they
//! either decode to the original or fail.

use std::sync::Arc;

use proptest::prelude::*;

use zooid_cfsm::System;
use zooid_mpst::{generators, Label, Role, Sort};
use zooid_proc::{CompiledProc, Externals, Proc, Value, ValueAction};
use zooid_runtime::cbatch::{BatchLayout, DemotedSession, SessionBatch};
use zooid_runtime::cexec::EndpointProgram;
use zooid_runtime::checkpoint::SessionCheckpoint;
use zooid_runtime::codec::{decode_message, encode_message, Message, MAX_NESTING};
use zooid_runtime::exec::ExecOptions;
use zooid_runtime::wire::{decode_mux, encode_mux, MuxFrame};
use zooid_runtime::RuntimeError;

/// `Unit` under `depth` constructors, along each recursive shape a decoder
/// (and later a drop, a comparison, an encoder) can be made to follow.
fn nested_values(depth: usize) -> [Value; 3] {
    let spine = |wrap: fn(Value) -> Value| (0..depth).fold(Value::Unit, |v, _| wrap(v));
    [
        spine(Value::inl),
        spine(|v| Value::pair(Value::Nat(1), v)),
        spine(|v| Value::Seq(vec![v])),
    ]
}

fn nested_sorts(depth: usize) -> [Sort; 2] {
    let spine = |wrap: fn(Sort) -> Sort| (0..depth).fold(Sort::Unit, |s, _| wrap(s));
    [spine(Sort::seq), spine(|s| Sort::prod(Sort::Nat, s))]
}

/// A two-role session pulled out of a batch before its first step: the one
/// public way to a [`DemotedSession`], and so to a checkpoint.
fn fresh_demoted() -> DemotedSession {
    let g = generators::ping_pong();
    let system = Arc::new(System::from_global(&g).unwrap().compile());
    let (roles, programs): (Vec<Role>, Vec<_>) = system
        .roles()
        .iter()
        .map(|role| {
            let compiled = CompiledProc::compile(&Proc::Finish, role, &Externals::new()).unwrap();
            let program = EndpointProgram::with_system(Arc::new(compiled), &system);
            (role.clone(), Arc::new(program))
        })
        .unzip();
    let layout = BatchLayout::new(roles.into(), programs, system).unwrap();
    let mut batch = SessionBatch::new(layout, ExecOptions::default(), 1);
    assert!(batch.admit(9));
    batch.demote_now(9).unwrap()
}

/// A checkpoint carrying `value` as a slot-free in-flight frame and as the
/// payload of a recorded action of sort `sort`.
fn checkpoint_with(value: &Value, sort: &Sort) -> SessionCheckpoint {
    let mut demoted = fresh_demoted();
    let (a, b) = (demoted.endpoints[0].role.clone(), demoted.endpoints[1].role.clone());
    demoted.endpoints[0].actions.push(ValueAction::send(
        a,
        b,
        Label::new("l"),
        sort.clone(),
        value.clone(),
    ));
    demoted.frames.push((0, 1, Label::new("l"), value.clone()));
    SessionCheckpoint::from_demoted(&demoted)
}

/// The nesting cap holds at every decoder a hostile byte string reaches —
/// a peer's message, a mux frame, a migrated checkpoint — and
/// what sits exactly at the cap still decodes, compares, re-encodes and
/// drops inside the 2 MiB stack a spawned thread gets by default.
#[test]
fn nesting_is_capped_at_every_decoder_and_the_cap_fits_a_default_stack() {
    std::thread::spawn(|| {
        for value in nested_values(MAX_NESTING) {
            let msg = Message::new("l", value.clone());
            assert_eq!(decode_message(&encode_message(&msg)).unwrap(), msg);
            let frame = MuxFrame::StatsReply {
                session: 3,
                stats: value.clone(),
            };
            assert_eq!(decode_mux(&encode_mux(&frame)).unwrap(), frame);
            for sort in nested_sorts(MAX_NESTING) {
                let checkpoint = checkpoint_with(&value, &sort);
                assert_eq!(SessionCheckpoint::decode(&checkpoint.encode()).unwrap(), checkpoint);
            }
        }
    })
    .join()
    .expect("a value and a sort at the cap fit a default thread stack");

    let refused = |result: Result<(), RuntimeError>, what: &str| match result {
        Err(RuntimeError::Codec { reason }) => assert!(reason.contains("nested"), "{what}: {reason}"),
        other => panic!("{what}: expected a codec refusal, got {other:?}"),
    };
    let at_cap = nested_values(MAX_NESTING);
    for (value, fits) in nested_values(MAX_NESTING + 1).iter().zip(&at_cap) {
        let msg = encode_message(&Message::new("l", value.clone()));
        refused(decode_message(&msg).map(drop), "decode_message");
        let frame = encode_mux(&MuxFrame::StatsReply {
            session: 3,
            stats: value.clone(),
        });
        refused(decode_mux(&frame).map(drop), "decode_mux");
        let bytes = checkpoint_with(value, &Sort::Unit).encode();
        refused(SessionCheckpoint::decode(&bytes).map(drop), "checkpoint value");
        for sort in nested_sorts(MAX_NESTING + 1) {
            let bytes = checkpoint_with(fits, &sort).encode();
            refused(SessionCheckpoint::decode(&bytes).map(drop), "checkpoint sort");
        }
    }
}

/// Appends a length-prefixed name spelled in raw bytes, so the test never
/// makes the name itself.
fn put_name(buf: &mut Vec<u8>, name: &str) {
    buf.extend_from_slice(&(name.len() as u32).to_be_bytes());
    buf.extend_from_slice(name.as_bytes());
}

/// Decoders look names up and never intern them: a message frame, and a
/// checkpoint's in-flight frame and recorded action, that name a label no
/// code in the process made are each refused with a codec error quoting
/// it, the name table still does not know it afterwards, and the same bytes
/// with a label the process does know decode.
#[test]
fn a_label_no_code_made_is_refused_by_every_name_decoder_and_never_interned() {
    const FRESH: &str = "label-that-no-code-in-this-process-makes";
    let refused = |result: Result<(), RuntimeError>, what: &str| match result {
        Err(RuntimeError::Codec { reason }) => assert!(reason.contains(FRESH), "{what}: {reason}"),
        other => panic!("{what}: expected a codec refusal, got {other:?}"),
    };
    let known = Label::new("l");

    // A peer's message: the label, then a unit payload.
    let message = |label: &str| {
        let mut bytes = Vec::new();
        put_name(&mut bytes, label);
        bytes.push(0);
        bytes
    };
    refused(decode_message(&message(FRESH)).map(drop), "decode_message");
    assert_eq!(
        decode_message(&message("l")).unwrap(),
        Message::new(known.clone(), Value::Unit)
    );

    // A checkpoint whose last bytes are its one in-flight frame's label
    // (`[len]"l"`) and unit payload: respell the label.
    let mut demoted = fresh_demoted();
    demoted.frames.push((0, 1, known.clone(), Value::Unit));
    let checkpoint = SessionCheckpoint::from_demoted(&demoted);
    let encoded = checkpoint.encode();
    let mut forged = encoded[..encoded.len() - 6].to_vec();
    put_name(&mut forged, FRESH);
    forged.push(0);
    refused(SessionCheckpoint::decode(&forged).map(drop), "checkpoint frame");
    assert_eq!(SessionCheckpoint::decode(&encoded).unwrap(), checkpoint);

    // A checkpoint whose one recorded action, a send of a unit, is labelled
    // with a known name as long as the fresh one: respell it in place.
    let stand_in = "s".repeat(FRESH.len());
    let mut demoted = fresh_demoted();
    let (a, b) = (
        demoted.endpoints[0].role.clone(),
        demoted.endpoints[1].role.clone(),
    );
    let action = ValueAction::send(a, b, Label::new(&stand_in), Sort::Unit, Value::Unit);
    demoted.endpoints[0].actions.push(action);
    let checkpoint = SessionCheckpoint::from_demoted(&demoted);
    let encoded = checkpoint.encode();
    let at = encoded
        .windows(stand_in.len())
        .position(|name| name == stand_in.as_bytes())
        .expect("the checkpoint spells the recorded label");
    let mut forged = encoded.clone();
    forged[at..at + FRESH.len()].copy_from_slice(FRESH.as_bytes());
    refused(
        SessionCheckpoint::decode(&forged).map(drop),
        "checkpoint action",
    );
    assert_eq!(SessionCheckpoint::decode(&encoded).unwrap(), checkpoint);

    assert_eq!(Label::lookup(FRESH), None);
    assert_eq!(Role::lookup(FRESH), None);
}

/// A strategy for arbitrary payload values (bounded depth).
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<u64>().prop_map(Value::Nat),
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        "[a-zA-Z0-9 ]{0,16}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Value::inl),
            inner.clone().prop_map(Value::inr),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Value::pair(a, b)),
            proptest::collection::vec(inner, 0..4).prop_map(Value::Seq),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_message_round_trips(label in "[a-zA-Z_][a-zA-Z0-9_]{0,12}", value in value_strategy()) {
        let msg = Message::new(label, value);
        let encoded = encode_message(&msg);
        let decoded = decode_message(&encoded).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn truncations_never_decode_to_the_original(value in value_strategy(), cut_fraction in 0.0f64..1.0) {
        let msg = Message::new("label", value);
        let encoded = encode_message(&msg);
        let cut = ((encoded.len() as f64) * cut_fraction) as usize;
        if cut < encoded.len() {
            // Truncation may still parse if the dropped suffix was not
            // needed... but then it must not silently equal the original
            // unless nothing was actually dropped.
            if let Ok(decoded) = decode_message(&encoded[..cut]) {
                prop_assert!(decoded != msg || cut == encoded.len());
            }
        }
    }

    #[test]
    fn appending_garbage_is_always_rejected(value in value_strategy(), garbage in 1usize..8) {
        let msg = Message::new("l", value);
        let mut encoded = encode_message(&msg).to_vec();
        encoded.extend(std::iter::repeat_n(0xAA, garbage));
        prop_assert!(decode_message(&encoded).is_err());
    }

    /// The in-memory transport now passes `(Label, Value)` frames directly
    /// and no longer exercises the codec on every message, so this suite is
    /// the codec's sole guardian: `decode ∘ encode = id` must keep holding
    /// for every value shape (the TCP path depends on it).
    #[test]
    fn round_trip_is_the_identity_on_every_shape_combination(
        label in "[a-zA-Z_][a-zA-Z0-9_]{0,12}",
        a in value_strategy(),
        b in value_strategy(),
    ) {
        // Force every composite constructor around arbitrary leaves, so no
        // tag is ever only reachable through the generator's whims.
        for value in [
            Value::pair(a.clone(), b.clone()),
            Value::inl(a.clone()),
            Value::inr(b.clone()),
            Value::Seq(vec![a.clone(), b.clone(), a.clone()]),
            Value::pair(Value::inr(Value::Seq(vec![b])), Value::inl(a)),
        ] {
            let msg = Message::new(label.as_str(), value);
            prop_assert_eq!(decode_message(&encode_message(&msg)).unwrap(), msg);
        }
    }
}
