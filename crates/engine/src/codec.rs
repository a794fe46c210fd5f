//! Wire format for messages: a small, self-describing binary encoding of
//! labels and values, standing in for OCaml's `Marshal` module (§4.5).
//!
//! The format is deliberately simple: every value is encoded as a one-byte
//! tag followed by its payload, with `u64`/`i64` in big-endian and
//! length-prefixed strings and sequences. Frames on the wire are the encoded
//! message preceded by a `u32` length (see [`crate::wire`]). The in-memory
//! transport passes `(Label, Value)` frames directly — encoding is a wire
//! concern — so the codec is kept honest by its round-trip property tests
//! (`tests/codec_props.rs`: `decode ∘ encode = id` for every value shape)
//! rather than by riding along on every in-process message.

use zooid_mpst::{Action, Label, Role, Sort};
use zooid_proc::{Value, ValueAction};

use crate::error::{Result, RuntimeError};

/// A message as it travels between endpoints: a label and a payload value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The label selecting the branch of the protocol.
    pub label: Label,
    /// The payload.
    pub value: Value,
}

impl Message {
    /// Creates a message.
    pub fn new(label: impl Into<Label>, value: Value) -> Self {
        Message {
            label: label.into(),
            value,
        }
    }
}

const TAG_UNIT: u8 = 0;
const TAG_NAT: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_BOOL_FALSE: u8 = 3;
const TAG_BOOL_TRUE: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_INL: u8 = 6;
const TAG_INR: u8 = 7;
const TAG_PAIR: u8 = 8;
const TAG_SEQ: u8 = 9;

/// How many constructors (`inl`, `inr`, pair, sequence — or sum, product,
/// sequence for a sort) a decoder follows inwards before it refuses the
/// input with [`RuntimeError::Codec`]. The value and sort decoders recurse
/// once per level, and whatever they build is later dropped, compared and
/// re-encoded by recursion too, so without a bound a frame far below the
/// size cap — 200 KB of `inl` tags — overflows the stack of whichever thread
/// decodes it, and that aborts the process. At this cap a debug build
/// decodes a value in under 1 MiB of stack (`tests/codec_props.rs` runs it
/// on a spawned thread's default 2 MiB), and a 128-cell cons-list (two
/// constructors a cell) still fits; sequences are flat and cost one level
/// whatever their length. The encoders are not bounded: a value this
/// process built is not hostile input.
pub const MAX_NESTING: usize = 256;

/// One level further in, or the refusal past [`MAX_NESTING`].
fn descend(room: usize, what: &str) -> Result<usize> {
    room.checked_sub(1).ok_or_else(|| RuntimeError::Codec {
        reason: format!("{what} nested deeper than {MAX_NESTING} constructors"),
    })
}

/// Encodes a message into a byte buffer.
pub fn encode_message(message: &Message) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, message.label.name());
    put_value(&mut buf, &message.value);
    buf
}

/// Decodes a message from a byte buffer.
///
/// # Errors
///
/// Returns [`RuntimeError::Codec`] on truncated or malformed input, including
/// trailing bytes, and on a label no code in this process made: the label
/// is looked up in the process-wide name table ([`Label::lookup`]), never
/// entered into it, so a peer cannot grow the table one fresh label at a
/// time.
pub fn decode_message(mut bytes: &[u8]) -> Result<Message> {
    let label = get_label(&mut bytes)?;
    let value = get_value(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(RuntimeError::Codec {
            reason: format!("{} trailing bytes after the payload", bytes.len()),
        });
    }
    Ok(Message { label, value })
}

/// Appends a value: a one-byte tag, then its payload.
pub fn put_value(buf: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Unit => put_u8(buf, TAG_UNIT),
        Value::Nat(n) => {
            put_u8(buf, TAG_NAT);
            put_u64(buf, *n);
        }
        Value::Int(n) => {
            put_u8(buf, TAG_INT);
            put_u64(buf, *n as u64);
        }
        Value::Bool(false) => put_u8(buf, TAG_BOOL_FALSE),
        Value::Bool(true) => put_u8(buf, TAG_BOOL_TRUE),
        Value::Str(s) => {
            put_u8(buf, TAG_STR);
            put_str(buf, s);
        }
        Value::Inl(inner) => {
            put_u8(buf, TAG_INL);
            put_value(buf, inner);
        }
        Value::Inr(inner) => {
            put_u8(buf, TAG_INR);
            put_value(buf, inner);
        }
        Value::Pair(a, b) => {
            put_u8(buf, TAG_PAIR);
            put_value(buf, a);
            put_value(buf, b);
        }
        Value::Seq(items) => {
            put_u8(buf, TAG_SEQ);
            put_u32(buf, u32::try_from(items.len()).unwrap_or(u32::MAX));
            for item in items {
                put_value(buf, item);
            }
        }
    }
}

/// Decodes a [`put_value`] encoding, following at most [`MAX_NESTING`]
/// constructors inwards.
///
/// # Errors
///
/// [`RuntimeError::Codec`] on malformed bytes or nesting past the cap.
pub fn get_value(bytes: &mut &[u8]) -> Result<Value> {
    value_within(bytes, MAX_NESTING)
}

/// Decodes a value with at most `room` constructors around any leaf. The
/// leaves are decoded by a function of their own so that this one — the one
/// on the stack once per level — keeps a small frame.
fn value_within(bytes: &mut &[u8], room: usize) -> Result<Value> {
    let tag = get_u8(bytes)?;
    if !matches!(tag, TAG_INL | TAG_INR | TAG_PAIR | TAG_SEQ) {
        return leaf_value(tag, bytes);
    }
    let room = descend(room, "value")?;
    Ok(match tag {
        TAG_INL => Value::inl(value_within(bytes, room)?),
        TAG_INR => Value::inr(value_within(bytes, room)?),
        TAG_PAIR => {
            let a = value_within(bytes, room)?;
            let b = value_within(bytes, room)?;
            Value::pair(a, b)
        }
        _ => {
            let len = get_u32(bytes)? as usize;
            let mut items = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                items.push(value_within(bytes, room)?);
            }
            Value::Seq(items)
        }
    })
}

fn leaf_value(tag: u8, bytes: &mut &[u8]) -> Result<Value> {
    Ok(match tag {
        TAG_UNIT => Value::Unit,
        TAG_NAT => Value::Nat(get_u64(bytes)?),
        TAG_INT => Value::Int(get_u64(bytes)? as i64),
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        TAG_STR => Value::Str(get_str(bytes)?),
        other => {
            return Err(RuntimeError::Codec {
                reason: format!("unknown value tag {other}"),
            })
        }
    })
}

/// Appends a string: its byte length as a big-endian `u32`, then its
/// UTF-8 bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, u32::try_from(s.len()).unwrap_or(u32::MAX));
    buf.extend_from_slice(s.as_bytes());
}

/// Decodes a [`put_str`] encoding.
///
/// # Errors
///
/// [`RuntimeError::Codec`] on truncated input or bytes that are not UTF-8.
pub fn get_str(bytes: &mut &[u8]) -> Result<String> {
    get_text(bytes).map(str::to_owned)
}

/// A length-prefixed string, borrowed from the input.
fn get_text<'a>(bytes: &mut &'a [u8]) -> Result<&'a str> {
    let len = get_u32(bytes)? as usize;
    if bytes.len() < len {
        return Err(RuntimeError::Codec {
            reason: "truncated string".to_owned(),
        });
    }
    let (head, rest) = bytes.split_at(len);
    let s = std::str::from_utf8(head).map_err(|_| RuntimeError::Codec {
        reason: "string is not valid utf-8".to_owned(),
    })?;
    *bytes = rest;
    Ok(s)
}

/// Decodes a role name spelled as a [`put_str`] string, looked up and
/// never interned (see [`get_label`]).
///
/// # Errors
///
/// [`RuntimeError::Codec`] on malformed bytes or a name no code in this
/// process made.
pub fn get_role(bytes: &mut &[u8]) -> Result<Role> {
    known(get_text(bytes)?, Role::lookup, "role")
}

/// Decodes a label name spelled as a [`put_str`] string, looked up in the
/// process-wide name table and never entered into it: outside bytes must
/// not grow a table that is never freed, and a name no code in this process
/// made cannot match any program arm or compiled table, so it is refused
/// here.
///
/// # Errors
///
/// [`RuntimeError::Codec`] on malformed bytes or a name no code in this
/// process made.
pub fn get_label(bytes: &mut &[u8]) -> Result<Label> {
    known(get_text(bytes)?, Label::lookup, "label")
}

fn known<T>(name: &str, lookup: fn(&str) -> Option<T>, what: &str) -> Result<T> {
    lookup(name).ok_or_else(|| RuntimeError::Codec {
        reason: format!("unknown {what} {name:?}: no code in this process made that name"),
    })
}

/// Decodes a boolean written as one byte, `0` or `1`.
///
/// # Errors
///
/// [`RuntimeError::Codec`] on truncated input or any other byte.
pub fn get_bool(bytes: &mut &[u8]) -> Result<bool> {
    match get_u8(bytes)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(RuntimeError::Codec {
            reason: format!("unknown boolean tag {other}"),
        }),
    }
}

// ---------------------------------------------------------------------
// Sort, action and value-action sub-codecs: the runtime's session
// checkpoints record actions with them
// ---------------------------------------------------------------------

const SORT_UNIT: u8 = 0;
const SORT_NAT: u8 = 1;
const SORT_INT: u8 = 2;
const SORT_BOOL: u8 = 3;
const SORT_STR: u8 = 4;
const SORT_SUM: u8 = 5;
const SORT_PROD: u8 = 6;
const SORT_SEQ: u8 = 7;

fn put_sort(buf: &mut Vec<u8>, sort: &Sort) {
    match sort {
        Sort::Unit => put_u8(buf, SORT_UNIT),
        Sort::Nat => put_u8(buf, SORT_NAT),
        Sort::Int => put_u8(buf, SORT_INT),
        Sort::Bool => put_u8(buf, SORT_BOOL),
        Sort::Str => put_u8(buf, SORT_STR),
        Sort::Sum(a, b) => {
            put_u8(buf, SORT_SUM);
            put_sort(buf, a);
            put_sort(buf, b);
        }
        Sort::Prod(a, b) => {
            put_u8(buf, SORT_PROD);
            put_sort(buf, a);
            put_sort(buf, b);
        }
        Sort::Seq(inner) => {
            put_u8(buf, SORT_SEQ);
            put_sort(buf, inner);
        }
    }
}

fn get_sort(bytes: &mut &[u8]) -> Result<Sort> {
    sort_within(bytes, MAX_NESTING)
}

/// Decodes a sort with at most `room` constructors around any base sort
/// (the value decoder's cap: see [`MAX_NESTING`]).
fn sort_within(bytes: &mut &[u8], room: usize) -> Result<Sort> {
    let tag = get_u8(bytes)?;
    Ok(match tag {
        SORT_UNIT => Sort::Unit,
        SORT_NAT => Sort::Nat,
        SORT_INT => Sort::Int,
        SORT_BOOL => Sort::Bool,
        SORT_STR => Sort::Str,
        SORT_SUM | SORT_PROD | SORT_SEQ => {
            let room = descend(room, "sort")?;
            let first = Box::new(sort_within(bytes, room)?);
            match tag {
                SORT_SEQ => Sort::Seq(first),
                SORT_SUM => Sort::Sum(first, Box::new(sort_within(bytes, room)?)),
                _ => Sort::Prod(first, Box::new(sort_within(bytes, room)?)),
            }
        }
        other => {
            return Err(RuntimeError::Codec {
                reason: format!("unknown sort tag {other}"),
            })
        }
    })
}

/// Appends an erased [`Action`] spelled out in full: direction, both
/// roles, label and sort.
pub fn put_action(buf: &mut Vec<u8>, action: &Action) {
    put_u8(buf, u8::from(action.is_send()));
    put_str(buf, action.from().name());
    put_str(buf, action.to().name());
    put_str(buf, action.label().name());
    put_sort(buf, action.sort());
}

/// Decodes a [`put_action`] encoding.
///
/// # Errors
///
/// [`RuntimeError::Codec`] on malformed bytes, a sort nested past
/// [`MAX_NESTING`], or a role or label name no code in this process made.
pub fn get_action(bytes: &mut &[u8]) -> Result<Action> {
    let is_send = get_bool(bytes)?;
    let from = get_role(bytes)?;
    let to = get_role(bytes)?;
    let label = get_label(bytes)?;
    let sort = get_sort(bytes)?;
    Ok(if is_send {
        Action::send(from, to, label, sort)
    } else {
        Action::recv(to, from, label, sort)
    })
}

/// Appends a [`ValueAction`] spelled out in full: direction, both roles,
/// label, sort and payload.
pub fn put_value_action(buf: &mut Vec<u8>, action: &ValueAction) {
    put_u8(buf, u8::from(action.is_send));
    put_str(buf, action.from.name());
    put_str(buf, action.to.name());
    put_str(buf, action.label.name());
    put_sort(buf, &action.sort);
    put_value(buf, &action.value);
}

/// Decodes a [`put_value_action`] encoding.
///
/// # Errors
///
/// [`RuntimeError::Codec`] on malformed bytes, nesting past
/// [`MAX_NESTING`], or a role or label name no code in this process made.
pub fn get_value_action(bytes: &mut &[u8]) -> Result<ValueAction> {
    let is_send = get_bool(bytes)?;
    let from = get_role(bytes)?;
    let to = get_role(bytes)?;
    let label = get_label(bytes)?;
    let sort = get_sort(bytes)?;
    let value = get_value(bytes)?;
    Ok(if is_send {
        ValueAction::send(from, to, label, sort, value)
    } else {
        ValueAction::recv(to, from, label, sort, value)
    })
}

/// Appends one byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a big-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Splits the next `N` bytes off the cursor.
fn take<const N: usize>(bytes: &mut &[u8], what: &str) -> Result<[u8; N]> {
    let Some((head, rest)) = bytes.split_first_chunk::<N>() else {
        return Err(RuntimeError::Codec {
            reason: format!("truncated {what}"),
        });
    };
    *bytes = rest;
    Ok(*head)
}

/// Reads one byte.
///
/// # Errors
///
/// [`RuntimeError::Codec`] on empty input.
pub fn get_u8(bytes: &mut &[u8]) -> Result<u8> {
    take::<1>(bytes, "frame").map(|[v]| v)
}

/// Reads a big-endian `u32`, consuming nothing when the input is short.
///
/// # Errors
///
/// [`RuntimeError::Codec`] on truncated input.
pub fn get_u32(bytes: &mut &[u8]) -> Result<u32> {
    take(bytes, "integer").map(u32::from_be_bytes)
}

/// Reads a big-endian `u64`, consuming nothing when the input is short.
///
/// # Errors
///
/// [`RuntimeError::Codec`] on truncated input.
pub fn get_u64(bytes: &mut &[u8]) -> Result<u64> {
    take(bytes, "integer").map(u64::from_be_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(value: Value) {
        let msg = Message::new("some_label", value);
        let encoded = encode_message(&msg);
        let decoded = decode_message(&encoded).unwrap();
        assert_eq!(decoded, msg);
    }

    /// The integer helpers are the wire format: big-endian, fixed width,
    /// and a short cursor is an error that consumes nothing.
    #[test]
    fn integers_round_trip_big_endian() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, 42);
        assert_eq!(
            buf,
            [7, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0, 0, 0, 0, 42]
        );
        let mut view: &[u8] = &buf;
        assert_eq!(get_u8(&mut view).unwrap(), 7);
        view = &view[2..]; // The `u16`, which nothing reads back.
        assert_eq!(get_u32(&mut view).unwrap(), 0xDEAD_BEEF);
        let mut short = &view[..7];
        assert!(get_u64(&mut short).is_err());
        assert_eq!(short.len(), 7);
        assert_eq!(get_u64(&mut view).unwrap(), 42);
        assert!(view.is_empty() && get_u8(&mut view).is_err());
    }

    #[test]
    fn round_trips_every_value_shape() {
        round_trip(Value::Unit);
        round_trip(Value::Nat(u64::MAX));
        round_trip(Value::Int(-42));
        round_trip(Value::Bool(true));
        round_trip(Value::Bool(false));
        round_trip(Value::Str("héllo world".into()));
        round_trip(Value::inl(Value::Nat(1)));
        round_trip(Value::inr(Value::pair(Value::Bool(true), Value::Unit)));
        round_trip(Value::Seq(vec![Value::Nat(1), Value::Nat(2), Value::Nat(3)]));
        round_trip(Value::Seq(vec![]));
        round_trip(Value::pair(
            Value::Seq(vec![Value::Str("a".into())]),
            Value::inl(Value::Int(0)),
        ));
    }

    #[test]
    fn labels_with_unicode_round_trip() {
        let msg = Message::new("étiquette", Value::Unit);
        assert_eq!(decode_message(&encode_message(&msg)).unwrap(), msg);
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let msg = Message::new("l", Value::Nat(7));
        let encoded = encode_message(&msg);
        for cut in 0..encoded.len() {
            assert!(
                decode_message(&encoded[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let msg = Message::new("l", Value::Nat(7));
        let mut encoded = encode_message(&msg);
        encoded.push(0);
        assert!(decode_message(&encoded).is_err());
    }

    #[test]
    fn unknown_tags_are_rejected() {
        // A frame with a valid label and an invalid value tag.
        let mut buf = Vec::new();
        put_str(&mut buf, "l");
        put_u8(&mut buf, 200);
        assert!(decode_message(&buf).is_err());
    }
}
