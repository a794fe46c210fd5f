//! Framing for the networked serving plane: an incremental length-prefixed
//! frame reader and the session-multiplexing control frames.
//!
//! # Wire format
//!
//! Every frame on a socket is `u32` big-endian length `n`, followed by `n`
//! payload bytes. Two payload vocabularies ride on this framing:
//!
//! * **peer-to-peer messages** ([`crate::codec`]): label + value, used by
//!   [`crate::tcp::TcpTransport`] between session endpoints;
//! * **multiplexing frames** ([`MuxFrame`]): a one-byte tag, a `u64` session
//!   id, and tag-specific fields, used between a client and the
//!   `zooid-server` networked serving plane to open sessions, accept or
//!   reject them, and stream back completions. Many sessions share one
//!   connection; frames for different sessions interleave freely.
//!
//! # Bounded buffering
//!
//! The length header is validated against a configurable `max_frame_bytes`
//! cap **before any body byte is buffered**: a hostile 4 GiB length prefix
//! yields [`RuntimeError::FrameTooLarge`] from 4 bytes of input, never an
//! allocation. [`FrameReader`] owns the partial-frame buffer, so callers can
//! interleave non-blocking reads across many sockets and resume a
//! half-received frame later — the serving plane's IO loop depends on this.
//!
//! The buffer is a `Vec<u8>` plus a read cursor: popping a frame copies its
//! payload out once and advances the cursor, so the cost of a frame does not
//! depend on how many bytes are buffered behind it. Consumed bytes are
//! reclaimed by compaction — free when the buffer empties, otherwise a
//! `memmove` of the live remainder taken only once the consumed prefix has
//! outgrown it, so every byte moved is paid for by a byte already handed out.

use std::io::Read;

use crate::codec::{
    get_str, get_u32, get_u64, get_u8, get_value, put_str, put_u32, put_u64, put_u8, put_value,
};
use crate::error::{Result, RuntimeError};
use zooid_proc::Value;

/// Default cap on a single frame's payload: 16 MiB.
///
/// Generous for any value the codec produces in practice, small enough that
/// a hostile length prefix cannot make the receiver allocate unbounded
/// memory.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// How many bytes one `fill` call may pull off a socket before yielding
/// back to the caller, so a single chatty connection cannot starve the
/// others in an event loop iteration.
const MAX_READ_PER_FILL: usize = 64 * 1024;

/// What one non-blocking pump of a [`FrameReader`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillStatus {
    /// The peer has closed its write side; no further bytes will arrive.
    Eof,
    /// The socket had no bytes ready (`WouldBlock`).
    WouldBlock,
    /// Some bytes were buffered (complete frames may now be available).
    Progress,
}

/// An incremental parser for length-prefixed frames.
///
/// Feed it bytes — either directly ([`FrameReader::extend`]) or by pumping a
/// non-blocking reader ([`FrameReader::fill`]) — and pop complete payloads
/// with [`FrameReader::next_frame`]. Partial frames persist across calls;
/// oversized length headers fail fast without buffering the body.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Offset in `buf` of the first byte not yet handed out as a frame.
    head: usize,
    max_frame_bytes: usize,
    /// Set once a header above the cap has been seen: the stream is
    /// unrecoverable from that point (we refuse to resynchronise inside
    /// attacker-controlled bytes), so every later call re-reports the error.
    poisoned: Option<(usize, usize)>,
}

impl FrameReader {
    /// Creates a reader enforcing the given per-frame payload cap.
    pub fn new(max_frame_bytes: usize) -> Self {
        FrameReader {
            buf: Vec::new(),
            head: 0,
            max_frame_bytes,
            poisoned: None,
        }
    }

    /// The configured per-frame payload cap.
    pub fn max_frame_bytes(&self) -> usize {
        self.max_frame_bytes
    }

    /// Changes the per-frame payload cap in place, keeping any buffered
    /// partial frame. The new cap applies from the next header check.
    pub fn set_max_frame_bytes(&mut self, max: usize) {
        self.max_frame_bytes = max;
    }

    /// Number of buffered bytes not yet consumed as complete frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Appends raw bytes to the internal buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pumps up to `MAX_READ_PER_FILL` bytes from a non-blocking reader
    /// into the buffer.
    ///
    /// Returns what stopped the pump: end-of-stream, an empty socket, or a
    /// successful partial read. `Interrupted` is retried internally.
    ///
    /// # Errors
    ///
    /// Propagates genuine I/O errors (connection reset, ...) as
    /// [`RuntimeError::Io`].
    pub fn fill(&mut self, reader: &mut impl Read) -> Result<FillStatus> {
        let mut chunk = [0u8; 4096];
        let mut total = 0usize;
        loop {
            if total >= MAX_READ_PER_FILL {
                return Ok(FillStatus::Progress);
            }
            match reader.read(&mut chunk) {
                Ok(0) => return Ok(FillStatus::Eof),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    total += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(if total == 0 {
                        FillStatus::WouldBlock
                    } else {
                        FillStatus::Progress
                    });
                }
                Err(e) => return Err(RuntimeError::Io(e)),
            }
        }
    }

    /// Pops the next complete frame payload, if the buffer holds one.
    ///
    /// `Ok(None)` means "not enough bytes yet" — call again after feeding
    /// more input.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::FrameTooLarge`] as soon as a 4-byte header announces
    /// a payload above the cap; the reader stays poisoned and keeps
    /// returning the error (a framing stream cannot be resynchronised after
    /// a bad header).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        if let Some((len, max)) = self.poisoned {
            return Err(RuntimeError::FrameTooLarge { len, max });
        }
        let live = &self.buf[self.head..];
        let Some(header) = live.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*header) as usize;
        if len > self.max_frame_bytes {
            self.poisoned = Some((len, self.max_frame_bytes));
            return Err(RuntimeError::FrameTooLarge {
                len,
                max: self.max_frame_bytes,
            });
        }
        let Some(payload) = live[4..].get(..len) else {
            return Ok(None);
        };
        let payload = payload.to_vec();
        self.head += 4 + len;
        let live = self.buf.len() - self.head;
        if live == 0 {
            self.buf.clear();
            self.head = 0;
        } else if self.head > live {
            // The consumed prefix has outgrown what is left: shifting the
            // remainder down moves fewer bytes than were handed out since
            // the last compaction.
            self.buf.drain(..self.head);
            self.head = 0;
        }
        Ok(Some(payload))
    }
}

/// Appends one frame (`u32` big-endian length prefix + payload) to an
/// outgoing byte buffer — the one frame writer every sender goes through.
///
/// # Errors
///
/// [`RuntimeError::FrameTooLarge`] if the payload exceeds `max_frame_bytes`
/// — the sender enforces the same cap the receiver does, so a compliant
/// peer can never trip the receiver's guard.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8], max_frame_bytes: usize) -> Result<()> {
    if payload.len() > max_frame_bytes {
        return Err(RuntimeError::FrameTooLarge {
            len: payload.len(),
            max: max_frame_bytes,
        });
    }
    // The cap is usize-valued and caps above 4 GiB are constructible, so
    // the length must be checked against the prefix width too — a silently
    // truncated prefix would corrupt the whole stream.
    let len = u32::try_from(payload.len()).map_err(|_| RuntimeError::FrameTooLarge {
        len: payload.len(),
        max: u32::MAX as usize,
    })?;
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Why the serving plane refused an `Open` (or the whole connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectCode {
    /// The requested protocol name is not in the server's service catalog.
    UnknownProtocol = 1,
    /// The server is at its connection limit; try again later.
    ConnectionLimit = 2,
    /// This connection is at its per-connection in-flight session cap.
    SessionLimit = 3,
    /// The server as a whole is at its global in-flight cap (load shed).
    Overloaded = 4,
    /// The frame was malformed; the connection will be closed.
    BadFrame = 5,
    /// The server is shutting down.
    ShuttingDown = 6,
    /// A session hosted on this connection was quarantined (its monitor
    /// rejected an action) and the server's policy tears the owning
    /// connection down.
    Quarantined = 7,
    /// The connection accumulated too many byzantine strikes (quarantined
    /// sessions) and further `Open`s from it are refused.
    Banned = 8,
}

impl TryFrom<u8> for RejectCode {
    type Error = RuntimeError;

    fn try_from(raw: u8) -> Result<Self> {
        Ok(match raw {
            1 => RejectCode::UnknownProtocol,
            2 => RejectCode::ConnectionLimit,
            3 => RejectCode::SessionLimit,
            4 => RejectCode::Overloaded,
            5 => RejectCode::BadFrame,
            6 => RejectCode::ShuttingDown,
            7 => RejectCode::Quarantined,
            8 => RejectCode::Banned,
            _ => {
                return Err(RuntimeError::Codec {
                    reason: format!("unknown reject code {raw}"),
                })
            }
        })
    }
}

impl std::fmt::Display for RejectCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RejectCode::UnknownProtocol => "unknown-protocol",
            RejectCode::ConnectionLimit => "connection-limit",
            RejectCode::SessionLimit => "session-limit",
            RejectCode::Overloaded => "overloaded",
            RejectCode::BadFrame => "bad-frame",
            RejectCode::ShuttingDown => "shutting-down",
            RejectCode::Quarantined => "quarantined",
            RejectCode::Banned => "banned",
        };
        f.write_str(s)
    }
}

/// A control frame on a multiplexed serving-plane connection.
///
/// The `session` id is chosen by the client and scoped to its connection;
/// the server echoes it on every frame about that session, which is what
/// lets many sessions share one socket with out-of-order completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MuxFrame {
    /// Client → server: start a session of the named service protocol.
    Open {
        /// Client-chosen id, echoed on all responses.
        session: u64,
        /// Service catalog key (a registered protocol name).
        protocol: String,
    },
    /// Server → client: the session was admitted and scheduled.
    Accepted {
        /// The id from the `Open`.
        session: u64,
    },
    /// Server → client: the session (or connection) was refused.
    Rejected {
        /// The id from the `Open` (0 for connection-level rejections).
        session: u64,
        /// Machine-readable reason.
        code: RejectCode,
        /// Human-readable detail.
        reason: String,
    },
    /// Server → client: the session ran to an outcome.
    Done {
        /// The id from the `Open`.
        session: u64,
        /// Every endpoint trace satisfied its monitor.
        compliant: bool,
        /// The global protocol ran to completion.
        complete: bool,
        /// At least one endpoint stalled waiting on a peer.
        stalled: bool,
        /// Number of monitor violations recorded.
        violations: u32,
        /// Total value-level actions across all endpoints.
        actions: u64,
    },
    /// Client → server: request a live stats snapshot (reports, histogram
    /// percentiles, recent incidents). Read-only introspection — no session
    /// is opened; the `session` id is a client-chosen request correlator.
    Stats {
        /// Client-chosen id, echoed on the reply.
        session: u64,
    },
    /// Server → client: the stats snapshot, as a self-describing codec
    /// [`Value`] (the server crate defines the record layout).
    StatsReply {
        /// The id from the `Stats` request.
        session: u64,
        /// The snapshot, codec-encoded.
        stats: Value,
    },
}

const MUX_OPEN: u8 = 1;
const MUX_ACCEPTED: u8 = 2;
const MUX_REJECTED: u8 = 3;
const MUX_DONE: u8 = 4;
const MUX_STATS: u8 = 5;
const MUX_STATS_REPLY: u8 = 6;

const DONE_COMPLIANT: u8 = 1;
const DONE_COMPLETE: u8 = 2;
const DONE_STALLED: u8 = 4;

/// Encodes a multiplexing frame payload (no length prefix — see
/// [`put_frame`]).
pub fn encode_mux(frame: &MuxFrame) -> Vec<u8> {
    let mut buf = Vec::new();
    match frame {
        MuxFrame::Open { session, protocol } => {
            put_u8(&mut buf, MUX_OPEN);
            put_u64(&mut buf, *session);
            put_str(&mut buf, protocol);
        }
        MuxFrame::Accepted { session } => {
            put_u8(&mut buf, MUX_ACCEPTED);
            put_u64(&mut buf, *session);
        }
        MuxFrame::Rejected {
            session,
            code,
            reason,
        } => {
            put_u8(&mut buf, MUX_REJECTED);
            put_u64(&mut buf, *session);
            put_u8(&mut buf, *code as u8);
            put_str(&mut buf, reason);
        }
        MuxFrame::Done {
            session,
            compliant,
            complete,
            stalled,
            violations,
            actions,
        } => {
            put_u8(&mut buf, MUX_DONE);
            put_u64(&mut buf, *session);
            let mut flags = 0u8;
            if *compliant {
                flags |= DONE_COMPLIANT;
            }
            if *complete {
                flags |= DONE_COMPLETE;
            }
            if *stalled {
                flags |= DONE_STALLED;
            }
            put_u8(&mut buf, flags);
            put_u32(&mut buf, *violations);
            put_u64(&mut buf, *actions);
        }
        MuxFrame::Stats { session } => {
            put_u8(&mut buf, MUX_STATS);
            put_u64(&mut buf, *session);
        }
        MuxFrame::StatsReply { session, stats } => {
            put_u8(&mut buf, MUX_STATS_REPLY);
            put_u64(&mut buf, *session);
            put_value(&mut buf, stats);
        }
    }
    buf
}

/// Decodes a multiplexing frame payload.
///
/// # Errors
///
/// [`RuntimeError::Codec`] on unknown tags, unknown reject codes, truncated
/// fields or trailing bytes.
pub fn decode_mux(mut bytes: &[u8]) -> Result<MuxFrame> {
    let tag = get_u8(&mut bytes)?;
    let session = get_u64(&mut bytes)?;
    let frame = match tag {
        MUX_OPEN => MuxFrame::Open {
            session,
            protocol: get_str(&mut bytes)?,
        },
        MUX_ACCEPTED => MuxFrame::Accepted { session },
        MUX_REJECTED => {
            let code = RejectCode::try_from(get_u8(&mut bytes)?)?;
            MuxFrame::Rejected {
                session,
                code,
                reason: get_str(&mut bytes)?,
            }
        }
        MUX_DONE => {
            let flags = get_u8(&mut bytes)?;
            let violations = get_u32(&mut bytes)?;
            let actions = get_u64(&mut bytes)?;
            MuxFrame::Done {
                session,
                compliant: flags & DONE_COMPLIANT != 0,
                complete: flags & DONE_COMPLETE != 0,
                stalled: flags & DONE_STALLED != 0,
                violations,
                actions,
            }
        }
        MUX_STATS => MuxFrame::Stats { session },
        MUX_STATS_REPLY => MuxFrame::StatsReply {
            session,
            stats: get_value(&mut bytes)?,
        },
        other => {
            return Err(RuntimeError::Codec {
                reason: format!("unknown mux frame tag {other}"),
            })
        }
    };
    if !bytes.is_empty() {
        return Err(RuntimeError::Codec {
            reason: format!("{} trailing bytes after the mux frame", bytes.len()),
        });
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A scripted reader: each `read` pops the *last* entry (a delivery of
    /// at most one `fill` chunk, or an error); an empty script reads as EOF.
    struct Script(Vec<std::io::Result<Vec<u8>>>);
    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop() {
                Some(Ok(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Err(e)) => Err(e),
                None => Ok(0),
            }
        }
    }

    fn would_block() -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::WouldBlock, "empty")
    }

    /// The `split_to` reader this module shipped before the cursor: two
    /// head splits (here `Vec::drain`s) and a copy per frame. Kept as the
    /// oracle the cursor reader is driven against.
    struct SplitToReader {
        buf: Vec<u8>,
        max_frame_bytes: usize,
        poisoned: Option<(usize, usize)>,
    }

    impl SplitToReader {
        fn new(max_frame_bytes: usize) -> Self {
            SplitToReader {
                buf: Vec::new(),
                max_frame_bytes,
                poisoned: None,
            }
        }

        fn pending_bytes(&self) -> usize {
            self.buf.len()
        }

        fn extend(&mut self, bytes: &[u8]) {
            self.buf.extend_from_slice(bytes);
        }

        fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
            if let Some((len, max)) = self.poisoned {
                return Err(RuntimeError::FrameTooLarge { len, max });
            }
            if self.buf.len() < 4 {
                return Ok(None);
            }
            let len =
                u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
            if len > self.max_frame_bytes {
                self.poisoned = Some((len, self.max_frame_bytes));
                return Err(RuntimeError::FrameTooLarge {
                    len,
                    max: self.max_frame_bytes,
                });
            }
            if self.buf.len() < 4 + len {
                return Ok(None);
            }
            self.buf.drain(..4);
            Ok(Some(self.buf.drain(..len).collect()))
        }
    }

    /// A `next_frame` result in comparable form (`RuntimeError` holds an
    /// `io::Error`, so it has no `PartialEq`).
    fn comparable(
        result: Result<Option<Vec<u8>>>,
    ) -> std::result::Result<Option<Vec<u8>>, (usize, usize)> {
        match result {
            Ok(frame) => Ok(frame),
            Err(RuntimeError::FrameTooLarge { len, max }) => Err((len, max)),
            Err(other) => panic!("next_frame can only fail with FrameTooLarge, got {other}"),
        }
    }

    /// Pops frames off both readers until they run dry (or fail, then once
    /// more for stickiness), holding every result and every
    /// `pending_bytes` equal.
    fn drain_in_lockstep(cursor: &mut FrameReader, oracle: &mut SplitToReader) {
        let mut failed = false;
        loop {
            let got = comparable(cursor.next_frame());
            let want = comparable(oracle.next_frame());
            assert_eq!(got, want);
            assert_eq!(cursor.pending_bytes(), oracle.pending_bytes());
            match got {
                Ok(Some(_)) => {}
                Ok(None) => return,
                Err(_) if failed => return,
                Err(_) => failed = true,
            }
        }
    }

    const DIFF_CAP: usize = 64;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn cursor_reader_matches_the_split_to_reader(
            // Per frame: a payload class and a fill byte.
            frames in proptest::collection::vec((0u8..5, any::<u8>()), 0..40),
            // Where (if inside the stream) a header over the cap goes.
            oversized_at in 0usize..80,
            // Delivery sizes, cycled; `fill` when the flag is set, else `extend`.
            chunks in proptest::collection::vec((1usize..97, any::<bool>()), 1..12),
        ) {
            let mut wire = Vec::new();
            for (at, (class, byte)) in frames.iter().enumerate() {
                if at == oversized_at {
                    let over = DIFF_CAP as u32 + 1 + u32::from(*byte);
                    wire.extend_from_slice(&over.to_be_bytes());
                }
                let len = match class {
                    0 => 0,
                    1 => 1,
                    2 => DIFF_CAP,
                    _ => usize::from(*byte) % DIFF_CAP,
                };
                put_frame(&mut wire, &vec![*byte; len], DIFF_CAP).unwrap();
            }
            let mut cursor = FrameReader::new(DIFF_CAP);
            let mut oracle = SplitToReader::new(DIFF_CAP);
            let mut rest: &[u8] = &wire;
            for (size, through_fill) in chunks.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (piece, tail) = rest.split_at((*size).min(rest.len()));
                rest = tail;
                if *through_fill {
                    // Two reads (one for a 1-byte piece: an empty read would
                    // be EOF), then an empty socket: one `fill` takes both.
                    let (a, b) = piece.split_at(piece.len() / 2);
                    let mut script = Script(vec![Err(would_block()), Ok(b.to_vec())]);
                    if !a.is_empty() {
                        script.0.push(Ok(a.to_vec()));
                    }
                    prop_assert_eq!(cursor.fill(&mut script).unwrap(), FillStatus::Progress);
                    prop_assert!(script.0.is_empty());
                } else {
                    cursor.extend(piece);
                }
                oracle.extend(piece);
                prop_assert_eq!(cursor.pending_bytes(), oracle.pending_bytes());
                drain_in_lockstep(&mut cursor, &mut oracle);
            }
        }
    }

    #[test]
    fn a_full_fill_of_small_frames_survives_compaction() {
        // 64 KiB (one `fill`'s cap) of 26-byte frames, the size of a `Done`.
        let count = 64 * 1024 / 26;
        let mut wire = Vec::new();
        let payload = |i: usize| -> Vec<u8> { (0..22).map(|j| (i * 31 + j) as u8).collect() };
        for i in 0..count {
            put_frame(&mut wire, &payload(i), DEFAULT_MAX_FRAME_BYTES).unwrap();
        }
        let mut cursor = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        let mut oracle = SplitToReader::new(DEFAULT_MAX_FRAME_BYTES);
        cursor.extend(&wire);
        oracle.extend(&wire);
        let mut compactions = 0;
        for i in 0..count {
            let before = cursor.head;
            let frame = cursor.next_frame().unwrap().expect("a buffered frame");
            assert_eq!(frame, payload(i), "frame {i}");
            assert_eq!(oracle.next_frame().unwrap(), Some(frame));
            assert_eq!(cursor.pending_bytes(), oracle.pending_bytes());
            if cursor.head < before && cursor.pending_bytes() > 0 {
                compactions += 1;
            }
        }
        assert!(compactions >= 1, "the consumed prefix was never reclaimed");
        assert_eq!(cursor.pending_bytes(), 0);
        assert_eq!((cursor.head, cursor.buf.len()), (0, 0));
        assert!(cursor.next_frame().unwrap().is_none());
    }

    fn mux_cases() -> Vec<MuxFrame> {
        vec![
            MuxFrame::Open {
                session: 7,
                protocol: "two_buyer".into(),
            },
            MuxFrame::Accepted { session: u64::MAX },
            MuxFrame::Rejected {
                session: 0,
                code: RejectCode::Overloaded,
                reason: "global in-flight cap reached".into(),
            },
            MuxFrame::Done {
                session: 42,
                compliant: true,
                complete: false,
                stalled: true,
                violations: 3,
                actions: 1234,
            },
            MuxFrame::Stats { session: 9 },
            MuxFrame::StatsReply {
                session: 9,
                stats: Value::pair(
                    Value::Str("sessions_done".into()),
                    Value::Seq(vec![Value::Nat(17), Value::Bool(true)]),
                ),
            },
        ]
    }

    #[test]
    fn mux_frames_round_trip() {
        for frame in mux_cases() {
            let encoded = encode_mux(&frame);
            assert_eq!(decode_mux(&encoded).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn truncated_mux_frames_are_rejected() {
        for frame in mux_cases() {
            let encoded = encode_mux(&frame);
            for cut in 0..encoded.len() {
                assert!(
                    decode_mux(&encoded[..cut]).is_err(),
                    "{frame:?} cut at {cut} should fail"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_and_unknown_tags_are_rejected() {
        let mut encoded = encode_mux(&MuxFrame::Accepted { session: 1 });
        encoded.push(0);
        assert!(decode_mux(&encoded).is_err());
        assert!(decode_mux(&[99, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        // Unknown reject code.
        let mut bad = encode_mux(&MuxFrame::Rejected {
            session: 1,
            code: RejectCode::BadFrame,
            reason: String::new(),
        });
        bad[9] = 200;
        assert!(decode_mux(&bad).is_err());
    }

    #[test]
    fn frame_reader_reassembles_across_arbitrary_splits() {
        let payloads: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![], vec![9; 1000]];
        let mut wire = Vec::new();
        for p in &payloads {
            put_frame(&mut wire, p, DEFAULT_MAX_FRAME_BYTES).unwrap();
        }
        for chunk in [1usize, 2, 3, 5, 7, wire.len()] {
            let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                reader.extend(piece);
                while let Some(frame) = reader.next_frame().unwrap() {
                    got.push(frame);
                }
            }
            assert_eq!(got, payloads, "chunk size {chunk}");
            assert_eq!(reader.pending_bytes(), 0);
        }
    }

    #[test]
    fn oversized_header_fails_before_buffering_the_body() {
        let mut reader = FrameReader::new(1024);
        reader.extend(&u32::MAX.to_be_bytes());
        match reader.next_frame() {
            Err(RuntimeError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        // Only the 4 header bytes were ever buffered.
        assert_eq!(reader.pending_bytes(), 4);
        // The reader stays poisoned: no resynchronising inside hostile bytes.
        reader.extend(&[0u8; 64]);
        assert!(matches!(
            reader.next_frame(),
            Err(RuntimeError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn senders_enforce_the_same_cap() {
        let mut out = Vec::new();
        assert!(matches!(
            put_frame(&mut out, &[0u8; 2048], 1024),
            Err(RuntimeError::FrameTooLarge { len: 2048, max: 1024 })
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn fill_reports_eof_wouldblock_and_progress() {
        let mut reader = FrameReader::new(1024);
        // Reversed pop order: some bytes, then WouldBlock.
        let mut script = Script(vec![Err(would_block()), Ok(vec![0, 0, 0, 1])]);
        assert_eq!(reader.fill(&mut script).unwrap(), FillStatus::Progress);
        assert_eq!(reader.pending_bytes(), 4);
        let mut empty = Script(vec![Err(would_block())]);
        assert_eq!(reader.fill(&mut empty).unwrap(), FillStatus::WouldBlock);
        let mut eof = Script(vec![]);
        assert_eq!(reader.fill(&mut eof).unwrap(), FillStatus::Eof);
    }
}
