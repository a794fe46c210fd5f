//! Append-only write-ahead trace log with columnar records and re-certified
//! recovery.
//!
//! Every visible communication of a hosted session can be appended here
//! before (or as) it happens; after a crash, [`recover`] replays each
//! session's logged suffix through a **fresh** [`CompiledMonitor`], so a
//! restored trace is *re-certified* against the protocol's compiled tables —
//! the same replay machinery incident capture trusts — rather than merely
//! deserialized. A corrupted log yields a structured error
//! ([`RuntimeError::Codec`] for mangled bytes, [`RuntimeError::Recovery`]
//! for well-formed bytes the monitor rejects); it never becomes an admitted
//! session.
//!
//! # Columnar records
//!
//! A logged action is two parts, split exactly like the batch plane splits
//! a session population: the **skeleton** — which session, which role,
//! which pre-compiled communication *site* (the per-program
//! [`ActionTemplate`](crate::cexec::ActionTemplate) id) — is three dense
//! integers, while the **variables** — the payload values — are the only
//! self-describing bytes. Each group-committed quantum is framed with the
//! skeleton column first and the value column after it, so the fixed-width
//! ids pack contiguously and the log costs a fraction of naively
//! serializing every action's roles, label and sort per record (the
//! structural-entropy trick, here buying audit-log density; see
//! [`encode_quantum`] vs [`encode_quantum_naive`]). A columnar record spells
//! no name at all, so [`scan_bytes`] never consults the process-wide name
//! table; the naive format does, and its decoder looks names up and refuses
//! one no code made, exactly like the checkpoint decoder it shares.
//!
//! # Group commit and torn tails
//!
//! [`WalWriter::append_quantum`] encodes a whole quantum's records into one
//! length-prefixed, checksummed frame and issues a single `write` + `flush`
//! — one commit per scheduling quantum, not per action. On reopen,
//! [`scan_bytes`] distinguishes the two corruption shapes: a frame that
//! runs past the end of the file is a **torn tail** (a crash mid-commit;
//! reported, dropped, and recovery proceeds with the certified prefix),
//! while a complete frame whose checksum does not match is **corruption**
//! and fails the scan with a structured error.

use std::fs::File;
use std::hash::Hasher;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use zooid_cfsm::CompiledSystem;
use zooid_mpst::common::intern::{FxHashMap, FxHasher};
use zooid_mpst::{Label, Role};
use zooid_proc::{Value, ValueAction};

use crate::cexec::EndpointProgram;
use crate::checkpoint::{get_value_action, put_value_action};
use crate::codec::{get_u16, get_u32, get_u64, get_value, put_u16, put_u32, put_u64, put_value};
use crate::error::{Result, RuntimeError};
use crate::exec::sort_of_value;
use crate::monitor::CompiledMonitor;

/// Upper bound on one frame's payload; a length prefix above it is treated
/// as corruption, never as an allocation request.
const MAX_FRAME_BYTES: usize = 1 << 26;

/// One logged action: the columnar skeleton (`session`, `role`, `event`)
/// plus the payload value. `role` is the index of the acting role in the
/// protocol's sorted role table; `event` is the per-program
/// [`ActionTemplate`](crate::cexec::ActionTemplate) id of the communication
/// site — together they name the action's direction, peer, label and sort
/// without serializing any of them.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The session the action belongs to.
    pub session: u64,
    /// Index of the acting role in the protocol's sorted role table.
    pub role: u16,
    /// The acting role's per-program event (template) id.
    pub event: u32,
    /// The payload value.
    pub value: Value,
}

/// Maps between [`ValueAction`]s and columnar [`WalRecord`]s for one
/// protocol's compiled per-role programs.
///
/// Only sites the compiled data plane pre-resolved (an interned
/// [`ActionTemplate`](crate::cexec::ActionTemplate) per event) are
/// indexable — which is exactly the serving plane's steady state.
#[derive(Debug)]
pub struct WalIndexer {
    roles: Vec<Role>,
    programs: Vec<Arc<EndpointProgram>>,
    /// Per role: `(is_send, peer, label) → event id`.
    sites: Vec<FxHashMap<(bool, Role, Label), u32>>,
}

impl WalIndexer {
    /// Builds the site index for one program per role (in the protocol's
    /// sorted role order — the same order checkpoints and batches use).
    pub fn new(programs: &[Arc<EndpointProgram>]) -> Self {
        let roles = programs
            .iter()
            .map(|p| p.program().role().clone())
            .collect();
        let sites = programs
            .iter()
            .map(|program| {
                let events = program.program().events();
                program
                    .templates()
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        (
                            (events[i].is_send, t.peer.clone(), t.label.clone()),
                            i as u32,
                        )
                    })
                    .collect()
            })
            .collect();
        WalIndexer {
            roles,
            programs: programs.to_vec(),
            sites,
        }
    }

    /// Columnarizes one action: resolves its subject to a role index and
    /// its `(direction, peer, label)` site to the per-program event id.
    /// `None` when the subject or site is unknown to the compiled programs
    /// (e.g. a tree-walking endpoint) — such actions cannot be logged
    /// skeleton-style.
    pub fn record(&self, session: u64, action: &ValueAction) -> Option<WalRecord> {
        let subject = action.subject();
        let role = self.roles.iter().position(|r| r == subject)?;
        let peer = if action.is_send {
            &action.to
        } else {
            &action.from
        };
        let event = *self.sites[role].get(&(
            action.is_send,
            peer.clone(),
            action.label.clone(),
        ))?;
        Some(WalRecord {
            session,
            role: u16::try_from(role).ok()?,
            event,
            value: action.value.clone(),
        })
    }

    /// Expands a columnar record back into the full action it encodes.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Recovery`] when the record's role or event index
    /// does not exist in the compiled programs — a record that cannot have
    /// been produced against them.
    pub fn expand(&self, record: &WalRecord) -> Result<ValueAction> {
        let role = record.role as usize;
        let Some(program) = self.programs.get(role) else {
            return Err(RuntimeError::Recovery {
                reason: format!("wal record names role index {role} of {}", self.roles.len()),
            });
        };
        let event = record.event as usize;
        let Some(template) = program.templates().get(event) else {
            return Err(RuntimeError::Recovery {
                reason: format!(
                    "wal record names event {event} which `{}` does not compile",
                    self.roles[role]
                ),
            });
        };
        let is_send = program.program().events()[event].is_send;
        let sort = template
            .static_sort
            .clone()
            .unwrap_or_else(|| sort_of_value(&record.value));
        let subject = self.roles[role].clone();
        Ok(if is_send {
            ValueAction::send(
                subject,
                template.peer.clone(),
                template.label.clone(),
                sort,
                record.value.clone(),
            )
        } else {
            ValueAction::recv(
                subject,
                template.peer.clone(),
                template.label.clone(),
                sort,
                record.value.clone(),
            )
        })
    }

    /// The per-role programs the indexer resolves against.
    pub fn programs(&self) -> &[Arc<EndpointProgram>] {
        &self.programs
    }
}

/// Encodes one quantum's records columnar-style: count, then the skeleton
/// column (fixed-width `session`/`role`/`event` ids, contiguous), then the
/// value column. This is the frame payload [`WalWriter::append_quantum`]
/// commits; exposed for the bench harness's bytes-per-action comparison.
pub fn encode_quantum(records: &[WalRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, records.len() as u32);
    for record in records {
        put_u64(&mut buf, record.session);
        put_u16(&mut buf, record.role);
        put_u32(&mut buf, record.event);
    }
    for record in records {
        put_value(&mut buf, &record.value);
    }
    buf
}

/// Decodes one quantum's payload (the inverse of [`encode_quantum`]),
/// appending onto `out`.
fn decode_quantum(mut bytes: &[u8], out: &mut Vec<WalRecord>) -> Result<()> {
    let bytes = &mut bytes;
    let count = get_u32(bytes)? as usize;
    let start = out.len();
    for _ in 0..count {
        let session = get_u64(bytes)?;
        let role = get_u16(bytes)?;
        let event = get_u32(bytes)?;
        out.push(WalRecord {
            session,
            role,
            event,
            value: Value::Unit,
        });
    }
    for record in &mut out[start..] {
        record.value = get_value(bytes)?;
    }
    if !bytes.is_empty() {
        return Err(RuntimeError::Codec {
            reason: format!("{} trailing bytes after a wal quantum", bytes.len()),
        });
    }
    Ok(())
}

/// The naive baseline the columnar format is benched against: every record
/// serialized as a fully self-describing action — subject roles, label and
/// sort spelled out per record. Behaviourally equivalent to
/// [`encode_quantum`] + [`WalIndexer::expand`]; decisively larger.
///
/// # Errors
///
/// [`RuntimeError::Recovery`] when a record does not resolve against the
/// indexer's programs.
pub fn encode_quantum_naive(records: &[WalRecord], indexer: &WalIndexer) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    put_u32(&mut buf, records.len() as u32);
    for record in records {
        put_u64(&mut buf, record.session);
        put_value_action(&mut buf, &indexer.expand(record)?);
    }
    Ok(buf)
}

/// Decodes a [`encode_quantum_naive`] payload (kept so the naive format is
/// round-trip honest in the property tests, not just a byte counter).
///
/// # Errors
///
/// [`RuntimeError::Codec`] on malformed bytes, and on a role or label name
/// no code in this process made: names are looked up, never interned, as in
/// [`SessionCheckpoint::decode`](crate::checkpoint::SessionCheckpoint::decode).
pub fn decode_quantum_naive(mut bytes: &[u8]) -> Result<Vec<(u64, ValueAction)>> {
    let bytes = &mut bytes;
    let count = get_u32(bytes)? as usize;
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let session = get_u64(bytes)?;
        out.push((session, get_value_action(bytes)?));
    }
    if !bytes.is_empty() {
        return Err(RuntimeError::Codec {
            reason: format!("{} trailing bytes after a naive wal quantum", bytes.len()),
        });
    }
    Ok(out)
}

fn checksum(payload: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(payload);
    hasher.finish()
}

/// Appends framed, checksummed quanta to a log file with one commit per
/// quantum.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
}

impl WalWriter {
    /// Creates (or truncates) the log at `path`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] from file creation.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        Ok(WalWriter {
            file: File::create(path)?,
        })
    }

    /// Group-commits one quantum's records: the columnar payload is framed
    /// as `u32` length + payload + `u64` checksum and written (then
    /// flushed) as a single buffer, so a crash can tear at most the last
    /// frame — which [`scan_bytes`] detects and drops on reopen. Returns
    /// the number of bytes appended. Empty quanta append nothing.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] from the write or flush.
    pub fn append_quantum(&mut self, records: &[WalRecord]) -> Result<usize> {
        if records.is_empty() {
            return Ok(0);
        }
        let frame = frame_quantum(records);
        self.file.write_all(&frame)?;
        self.file.flush()?;
        Ok(frame.len())
    }
}

/// Frames one quantum for appending: length prefix, columnar payload,
/// checksum. Exposed so tests (and the bench) can build log images without
/// touching the filesystem.
pub fn frame_quantum(records: &[WalRecord]) -> Vec<u8> {
    let payload = encode_quantum(records);
    let mut frame = Vec::with_capacity(4 + payload.len() + 8);
    put_u32(&mut frame, payload.len() as u32);
    frame.extend_from_slice(&payload);
    put_u64(&mut frame, checksum(&payload));
    frame
}

/// What scanning a log produced: every record of the certified prefix, in
/// append order, plus whether a torn tail was dropped.
#[derive(Debug)]
pub struct WalScan {
    /// The records of every intact frame, in append order.
    pub records: Vec<WalRecord>,
    /// `true` when the file ended inside a frame (a crash mid-commit); the
    /// partial frame was dropped.
    pub torn_tail: bool,
    /// The byte length of the intact prefix (the safe truncation point for
    /// continuing the log).
    pub valid_bytes: u64,
}

/// Reads a log file and scans it (see [`scan_bytes`]).
///
/// # Errors
///
/// [`RuntimeError::Io`] from reading; [`RuntimeError::Codec`] on mid-file
/// corruption.
pub fn scan(path: impl AsRef<Path>) -> Result<WalScan> {
    scan_bytes(&std::fs::read(path)?)
}

/// Walks a log image frame by frame.
///
/// A frame that runs past the end of the input (length prefix, payload or
/// checksum cut short) is a **torn tail**: the write was interrupted, the
/// partial frame carries no committed data, and the scan succeeds with
/// `torn_tail = true`. A *complete* frame whose checksum or payload does
/// not verify is **corruption** — the log was altered after commit — and
/// the scan fails with [`RuntimeError::Codec`].
pub fn scan_bytes(bytes: &[u8]) -> Result<WalScan> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        if offset == bytes.len() {
            return Ok(WalScan {
                records,
                torn_tail: false,
                valid_bytes: offset as u64,
            });
        }
        let rest = &bytes[offset..];
        let torn = |records: Vec<WalRecord>| {
            Ok(WalScan {
                records,
                torn_tail: true,
                valid_bytes: offset as u64,
            })
        };
        if rest.len() < 4 {
            return torn(records);
        }
        let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(RuntimeError::Codec {
                reason: format!("wal frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
            });
        }
        if rest.len() < 4 + len + 8 {
            return torn(records);
        }
        let payload = &rest[4..4 + len];
        let stored = u64::from_be_bytes(rest[4 + len..4 + len + 8].try_into().expect("8 bytes"));
        if checksum(payload) != stored {
            return Err(RuntimeError::Codec {
                reason: format!("wal frame at byte {offset} fails its checksum"),
            });
        }
        decode_quantum(payload, &mut records)?;
        offset += 4 + len + 8;
    }
}

/// One session's re-certified recovery: the monitor that replayed (and
/// accepted) the session's entire logged suffix, plus the expanded actions
/// in log order.
#[derive(Debug)]
pub struct RecoveredSession {
    /// The session the records belonged to.
    pub session: u64,
    /// A fresh monitor that has observed — and accepted — every logged
    /// action of the session, in order. Its cursor, trace and verdict are
    /// exactly what an uninterrupted monitor would hold.
    pub monitor: CompiledMonitor,
    /// The expanded actions, in log order.
    pub actions: Vec<ValueAction>,
}

/// Replays scanned records through fresh [`CompiledMonitor`]s, one per
/// session (grouped in first-appearance order; records of one session keep
/// their log order).
///
/// This is what makes restoration *re-certification*: the log's claim of a
/// compliant history is not trusted — it is re-run against the protocol's
/// compiled tables, and any action the monitor rejects fails the whole
/// recovery with [`RuntimeError::Recovery`]. A tampered or cross-wired log
/// (wrong protocol, reordered records, forged events) is refused; it never
/// yields an admitted session.
pub fn recover(
    records: &[WalRecord],
    indexer: &WalIndexer,
    system: &Arc<CompiledSystem>,
) -> Result<Vec<RecoveredSession>> {
    let mut sessions: Vec<RecoveredSession> = Vec::new();
    let mut by_session: FxHashMap<u64, usize> = FxHashMap::default();
    for (n, record) in records.iter().enumerate() {
        let action = indexer.expand(record)?;
        let i = *by_session.entry(record.session).or_insert_with(|| {
            sessions.push(RecoveredSession {
                session: record.session,
                monitor: CompiledMonitor::new(Arc::clone(system)),
                actions: Vec::new(),
            });
            sessions.len() - 1
        });
        let erased = zooid_proc::erase(&action);
        if !sessions[i].monitor.observe(&erased) {
            return Err(RuntimeError::Recovery {
                reason: format!(
                    "monitor rejected logged action {n} of session {} ({erased})",
                    record.session
                ),
            });
        }
        sessions[i].actions.push(action);
    }
    Ok(sessions)
}
