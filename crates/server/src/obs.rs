//! The observability plane: latency histograms, a flight recorder, and
//! replayable incident records.
//!
//! The paper's runtime monitor turns protocol violations into a verdict
//! bit; this module turns the *serving stack around that monitor* into
//! something diagnosable. Three hermetic, allocation-light substrates:
//!
//! * [`Histogram`] — a fixed log2-bucket atomic histogram (no deps, no
//!   unsafe, no locks) with lossless [`HistogramSnapshot::merge`] and
//!   `p50/p90/p99/max` accessors. Shards record session wall-time,
//!   per-action step cost and batch cohort widths into it; the networked
//!   plane records IO-loop pass durations.
//! * [`FlightRecorder`] — a bounded ring of dense structured events
//!   ([`FlightEvent`], packed to one `u64` each, interned-id style), written
//!   lock-free by the owning worker and snapshottable at any time without
//!   stopping it.
//! * [`Incident`] — the structured record of one [`MonitorViolation`]: the
//!   protocol, session, offending role and action, the monitor cursor at
//!   violation time, and a bounded *replayable* prefix of the compliant
//!   trace. [`Incident::replays_violation`] re-certifies the violation
//!   against the [`CompiledSystem`] — detection produces an auditable
//!   counterexample, not just a boolean. A capped [`IncidentStore`] retains
//!   the most recent records per shard.
//!
//! Which histograms and counters each layer keeps is declared in
//! [`crate::metrics`]; [`crate::StatsSnapshot`] bundles the reports and the
//! recent incident summaries into a codec [`Value`] so a live
//! [`crate::NetServer`] can answer `MuxFrame::Stats` introspection frames
//! over the wire (see [`crate::NetClient::fetch_stats`]).

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use zooid_cfsm::{CompiledSystem, MonitorCursor};
use zooid_mpst::{Action, Role, Trace};
use zooid_proc::Value;
use zooid_runtime::monitor::MonitorViolation;
use zooid_runtime::wire::RejectCode;

use crate::instruments::{entry, field, Cell};
use crate::registry::ProtocolId;
use crate::session::SessionId;

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `k ≥ 1`
/// holds `[2^(k-1), 2^k - 1]`, and the last bucket absorbs everything up to
/// `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Default capacity of a shard's [`FlightRecorder`] ring.
pub const FLIGHT_CAPACITY: usize = 1024;

/// Default cap on retained [`Incident`]s per shard.
pub const INCIDENT_CAPACITY: usize = 64;

/// Default bound on an incident's replayable trace prefix.
pub const INCIDENT_PREFIX_CAP: usize = 256;

/// Index of the log2 bucket holding `value`.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive `(lower, upper)` bounds of a bucket.
pub fn bucket_bounds(bucket: usize) -> (u64, u64) {
    match bucket {
        0 => (0, 0),
        b if b >= HISTOGRAM_BUCKETS - 1 => (1 << (HISTOGRAM_BUCKETS - 2), u64::MAX),
        b => (1 << (b - 1), (1 << b) - 1),
    }
}

/// A fixed log2-bucket histogram updated lock-free.
///
/// Writers call [`Histogram::record`] (one relaxed `fetch_add` plus a
/// `fetch_max` for the exact maximum); readers take a [`HistogramSnapshot`]
/// at any time. No allocation after construction, no locks, no unsafe —
/// cheap enough to sit on the serving data path.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Merges `n` observations that were already bucketed elsewhere (the
    /// batch executor aggregates cohort widths into a small local array per
    /// quantum; the shard folds it in here with the same bucket mapping).
    #[inline]
    pub fn add_count(&self, bucket: usize, n: u64) {
        if n > 0 {
            let b = bucket.min(HISTOGRAM_BUCKETS - 1);
            self.buckets[b].fetch_add(n, Ordering::Relaxed);
            // The exact value is gone; the bucket's upper bound keeps `max`
            // an upper bound of every recorded observation.
            self.max.fetch_max(bucket_bounds(b).1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed)),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain copy of a [`Histogram`]'s counters: mergeable, comparable, and
/// the unit the reports carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; HISTOGRAM_BUCKETS],
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The per-bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Folds another snapshot in, losslessly: bucket counts add, the
    /// maximum is the larger of the two. Merging is commutative and
    /// associative (checked by the property suite).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` (`0 < q ≤ 1`): the upper bound of the
    /// bucket containing the `ceil(q·count)`-th smallest observation,
    /// capped at the exact recorded maximum. Returns 0 for an empty
    /// snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(b).1.min(self.max);
            }
        }
        self.max
    }

    /// The median (bucket-resolution, see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

impl fmt::Display for HistogramSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p50={} p90={} p99={} max={} (n={})",
            self.p50(),
            self.p90(),
            self.p99(),
            self.max(),
            self.count()
        )
    }
}

impl Cell for HistogramSnapshot {
    type Live = Histogram;

    fn load(live: &Histogram) -> HistogramSnapshot {
        live.snapshot()
    }

    /// Sparse: the maximum, then one `(bucket, count)` pair per non-empty
    /// bucket.
    fn to_value(&self) -> Value {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| Value::pair(Value::Nat(b as u64), Value::Nat(n)))
            .collect();
        Value::Seq(vec![
            entry("max", Value::Nat(self.max)),
            entry("buckets", Value::Seq(buckets)),
        ])
    }

    fn from_value(value: &Value) -> Option<HistogramSnapshot> {
        let mut snap = HistogramSnapshot {
            max: u64::from_value(field(value, "max")?)?,
            ..HistogramSnapshot::default()
        };
        let Value::Seq(buckets) = field(value, "buckets")? else {
            return None;
        };
        for entry in buckets {
            let Value::Pair(b, n) = entry else {
                return None;
            };
            let bucket = usize::try_from(u64::from_value(b)?).ok()?;
            *snap.buckets.get_mut(bucket)? = u64::from_value(n)?;
        }
        Some(snap)
    }
}

/// Why the networked plane closed a connection (flight-recorder vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CloseReason {
    /// The peer closed its write side with no session left in flight.
    PeerClosed = 1,
    /// Hostile or malformed framing; the connection was cut.
    BadFrame = 2,
    /// The peer stopped reading and its write buffer hit the cap.
    WriteStalled = 3,
    /// The server shut down while the connection was live.
    Shutdown = 4,
    /// A rejected connection's linger window expired.
    LingerExpired = 5,
    /// The connection never sent a decodable frame within the idle timeout.
    Idle = 6,
    /// A session hosted on the connection was quarantined and the server's
    /// policy tears the owning connection down.
    Quarantined = 7,
}

impl CloseReason {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => CloseReason::PeerClosed,
            2 => CloseReason::BadFrame,
            3 => CloseReason::WriteStalled,
            4 => CloseReason::Shutdown,
            5 => CloseReason::LingerExpired,
            6 => CloseReason::Idle,
            7 => CloseReason::Quarantined,
            _ => return None,
        })
    }
}

impl fmt::Display for CloseReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CloseReason::PeerClosed => "peer-closed",
            CloseReason::BadFrame => "bad-frame",
            CloseReason::WriteStalled => "write-stalled",
            CloseReason::Shutdown => "shutdown",
            CloseReason::LingerExpired => "linger-expired",
            CloseReason::Idle => "idle",
            CloseReason::Quarantined => "quarantined",
        })
    }
}

const EV_ADMITTED: u8 = 1;
const EV_BATCH_DEMOTED: u8 = 2;
const EV_STALLED: u8 = 3;
const EV_VIOLATION: u8 = 4;
const EV_REJECTED: u8 = 5;
const EV_CONN_CLOSED: u8 = 6;
const EV_QUARANTINED: u8 = 7;

const PAYLOAD_MASK: u64 = (1 << 48) - 1;

/// One structured flight-recorder event.
///
/// Events pack to a single `u64` — `kind:8 | code:8 | payload:48` — in the
/// dense-id style of the compiled skeleton/payload tables: session and
/// client ids are dense counters, so 48 bits never truncate in practice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEvent {
    /// A session entered the shard (`batched` = columnar executor).
    Admitted {
        /// The session's dense id (low 48 bits).
        session: u64,
        /// Whether it joined a columnar batch (vs. the slab).
        batched: bool,
    },
    /// A session was pulled out of its batch mid-flight: to resume on the
    /// slab, or — its violation budget spent — to close as quarantined.
    BatchDemoted {
        /// The session's dense id.
        session: u64,
    },
    /// A session was closed as stalled.
    Stalled {
        /// The session's dense id.
        session: u64,
    },
    /// A session finished with at least one monitor violation (an
    /// [`Incident`] was captured alongside).
    Violation {
        /// The session's dense id.
        session: u64,
    },
    /// The networked plane refused an `Open` (or a whole connection).
    Rejected {
        /// The client-chosen session id of the refused `Open` (0 for
        /// connection-level rejections).
        session: u64,
        /// The machine-readable reason sent to the client.
        code: RejectCode,
    },
    /// The networked plane closed a connection.
    ConnClosed {
        /// The connection's dense client id.
        client: u64,
        /// Why it was closed.
        reason: CloseReason,
    },
    /// The quarantine policy halted a session at its first rejected action.
    Quarantined {
        /// The session's dense id.
        session: u64,
    },
}

impl FlightEvent {
    fn pack(self) -> u64 {
        let (kind, code, payload) = match self {
            FlightEvent::Admitted { session, batched } => (EV_ADMITTED, batched as u8, session),
            FlightEvent::BatchDemoted { session } => (EV_BATCH_DEMOTED, 0, session),
            FlightEvent::Stalled { session } => (EV_STALLED, 0, session),
            FlightEvent::Violation { session } => (EV_VIOLATION, 0, session),
            FlightEvent::Rejected { session, code } => (EV_REJECTED, code as u8, session),
            FlightEvent::ConnClosed { client, reason } => (EV_CONN_CLOSED, reason as u8, client),
            FlightEvent::Quarantined { session } => (EV_QUARANTINED, 0, session),
        };
        (u64::from(kind) << 56) | (u64::from(code) << 48) | (payload & PAYLOAD_MASK)
    }

    fn unpack(raw: u64) -> Option<FlightEvent> {
        let kind = (raw >> 56) as u8;
        let code = (raw >> 48) as u8;
        let payload = raw & PAYLOAD_MASK;
        Some(match kind {
            EV_ADMITTED => FlightEvent::Admitted {
                session: payload,
                batched: code != 0,
            },
            EV_BATCH_DEMOTED => FlightEvent::BatchDemoted { session: payload },
            EV_STALLED => FlightEvent::Stalled { session: payload },
            EV_VIOLATION => FlightEvent::Violation { session: payload },
            EV_REJECTED => FlightEvent::Rejected {
                session: payload,
                code: RejectCode::try_from(code).ok()?,
            },
            EV_CONN_CLOSED => FlightEvent::ConnClosed {
                client: payload,
                reason: CloseReason::from_u8(code)?,
            },
            EV_QUARANTINED => FlightEvent::Quarantined { session: payload },
            _ => return None,
        })
    }
}

/// A bounded lock-free ring of [`FlightEvent`]s.
///
/// The owning worker records with one relaxed counter bump and one release
/// store; any thread can [`FlightRecorder::snapshot`] without stopping it.
/// A snapshot racing a concurrent write may miss the slot being overwritten
/// at that instant — the recorder trades that last-event fuzziness for a
/// data path with no locks and no allocation.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<AtomicU64>,
    next: AtomicU64,
}

impl Default for FlightRecorder {
    /// A ring of [`FLIGHT_CAPACITY`] events.
    fn default() -> Self {
        FlightRecorder::new(FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A ring holding the last `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, || AtomicU64::new(0));
        FlightRecorder {
            slots,
            next: AtomicU64::new(0),
        }
    }

    /// Number of ring slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (recorded − capacity have been
    /// overwritten).
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Acquire)
    }

    /// Appends one event, overwriting the oldest once the ring is full.
    #[inline]
    pub fn record(&self, event: FlightEvent) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        self.slots[slot].store(event.pack(), Ordering::Release);
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let end = self.next.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = end.saturating_sub(cap);
        let mut out = Vec::with_capacity((end - start) as usize);
        for seq in start..end {
            let raw = self.slots[(seq % cap) as usize].load(Ordering::Acquire);
            // 0 = never written (a racing writer claimed the sequence number
            // but has not stored yet); unknown kinds are skipped the same way.
            if let Some(event) = FlightEvent::unpack(raw) {
                out.push(event);
            }
        }
        out
    }
}

/// The structured record of one monitor violation: who, what, where, and a
/// bounded replayable counterexample prefix.
#[derive(Debug, Clone)]
pub struct Incident {
    /// The protocol the session ran.
    pub protocol: ProtocolId,
    /// The violating session.
    pub session: SessionId,
    /// The participant that performed the violating action (its subject).
    pub role: Role,
    /// The action the protocol does not allow.
    pub action: Action,
    /// Zero-based index of the action in the session's observation stream.
    pub position: usize,
    /// Compliant actions accepted before the violation.
    pub trace_len: usize,
    /// The monitor cursor reached by replaying [`Incident::trace_prefix`]
    /// from the initial cursor — the violation-time cursor when the prefix
    /// is complete (`truncated == false`).
    pub cursor: MonitorCursor,
    /// The replayable prefix of the compliant trace leading to the
    /// violation (bounded; see [`Incident::truncated`]).
    pub trace_prefix: Trace,
    /// `true` when the prefix is incomplete: the compliant trace was longer
    /// than the bound, or trace recording was off for the session.
    pub truncated: bool,
}

impl Incident {
    /// Captures an incident from a finished session's violation: clips the
    /// compliant trace to the violation point (bounded by `prefix_cap`) and
    /// replays it through `system` to reconstruct the violation-time
    /// monitor cursor.
    pub fn capture(
        protocol: ProtocolId,
        session: SessionId,
        system: &CompiledSystem,
        violation: &MonitorViolation,
        global_trace: &Trace,
        prefix_cap: usize,
    ) -> Incident {
        let take = violation
            .trace_len
            .min(global_trace.len())
            .min(prefix_cap);
        let mut cursor = system.monitor_cursor();
        let mut prefix = Trace::empty();
        for action in &global_trace.actions()[..take] {
            let accepted = system.observe(&mut cursor, action);
            debug_assert!(accepted, "the compliant trace must replay: {action}");
            prefix.push(action.clone());
        }
        Incident {
            protocol,
            session,
            role: violation.action.subject().clone(),
            action: violation.action.clone(),
            position: violation.position,
            trace_len: violation.trace_len,
            cursor,
            trace_prefix: prefix,
            truncated: take < violation.trace_len,
        }
    }

    /// Re-certifies the violation: replays the recorded prefix through
    /// `system` from the initial cursor and checks that every prefix action
    /// is accepted, the cursor lands exactly on [`Incident::cursor`], and
    /// the recorded action is then rejected. Returns `false` for truncated
    /// prefixes (the counterexample is not fully replayable).
    pub fn replays_violation(&self, system: &CompiledSystem) -> bool {
        if self.truncated {
            return false;
        }
        let mut cursor = system.monitor_cursor();
        for action in self.trace_prefix.actions() {
            if !system.observe(&mut cursor, action) {
                return false;
            }
        }
        cursor == self.cursor && !system.observe(&mut cursor, &self.action)
    }

    /// The wire-portable summary of this incident.
    pub fn summary(&self) -> IncidentSummary {
        IncidentSummary {
            protocol: self.protocol.index() as u32,
            session: self.session.0,
            role: self.role.to_string(),
            action: self.action.to_string(),
            position: self.position as u64,
            trace_len: self.trace_len as u64,
            prefix_len: self.trace_prefix.len() as u64,
            truncated: self.truncated,
        }
    }
}

/// A capped store of the most recent [`Incident`]s.
///
/// Violations are exceptional, so a mutex-guarded deque is fine here: the
/// hot path never touches it. The total-recorded counter keeps counting
/// past the cap.
#[derive(Debug)]
pub struct IncidentStore {
    cap: usize,
    recorded: AtomicU64,
    inner: Mutex<VecDeque<Incident>>,
}

impl Default for IncidentStore {
    /// A store retaining [`INCIDENT_CAPACITY`] incidents.
    fn default() -> Self {
        IncidentStore::new(INCIDENT_CAPACITY)
    }
}

impl IncidentStore {
    /// A store retaining the `cap` most recent incidents (at least 1).
    pub fn new(cap: usize) -> Self {
        IncidentStore {
            cap: cap.max(1),
            recorded: AtomicU64::new(0),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends an incident, evicting the oldest beyond the cap.
    pub fn record(&self, incident: Incident) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.len() == self.cap {
            inner.pop_front();
        }
        inner.push_back(incident);
    }

    /// Total incidents ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// The retained incidents, oldest first.
    pub fn snapshot(&self) -> Vec<Incident> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

/// The wire-portable summary of an [`Incident`]: interned ids flattened to
/// integers and display strings — everything an operator needs to locate
/// the full record, nothing that drags [`Action`]/[`MonitorCursor`]
/// encodings onto the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentSummary {
    /// Dense registry index of the protocol.
    pub protocol: u32,
    /// The violating session's id.
    pub session: u64,
    /// Display form of the offending role.
    pub role: String,
    /// Display form of the violating action.
    pub action: String,
    /// Zero-based observation index of the violation.
    pub position: u64,
    /// Compliant actions accepted before the violation.
    pub trace_len: u64,
    /// Length of the retained replayable prefix.
    pub prefix_len: u64,
    /// Whether the retained prefix is incomplete.
    pub truncated: bool,
}

impl IncidentSummary {
    /// The codec record carried by a `StatsReply`.
    pub(crate) fn to_value(&self) -> Value {
        Value::Seq(vec![
            entry("protocol", Value::Nat(u64::from(self.protocol))),
            entry("session", Value::Nat(self.session)),
            entry("role", Value::Str(self.role.clone())),
            entry("action", Value::Str(self.action.clone())),
            entry("position", Value::Nat(self.position)),
            entry("trace_len", Value::Nat(self.trace_len)),
            entry("prefix_len", Value::Nat(self.prefix_len)),
            entry("truncated", Value::Bool(self.truncated)),
        ])
    }

    /// Inverse of [`IncidentSummary::to_value`]; `None` on any other shape.
    pub(crate) fn from_value(value: &Value) -> Option<IncidentSummary> {
        let nat = |key| u64::from_value(field(value, key)?);
        let text = |key| match field(value, key)? {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        };
        Some(IncidentSummary {
            protocol: nat("protocol")? as u32,
            session: nat("session")?,
            role: text("role")?,
            action: text("action")?,
            position: nat("position")?,
            trace_len: nat("trace_len")?,
            prefix_len: nat("prefix_len")?,
            truncated: match field(value, "truncated")? {
                Value::Bool(b) => *b,
                _ => return None,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use zooid_cfsm::System;
    use zooid_mpst::{generators, Label, Sort};

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    #[test]
    fn buckets_partition_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for v in [0u64, 1, 2, 3, 7, 8, 1000, u64::MAX / 2, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_of(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
        // Bounds tile without gaps or overlaps.
        for b in 1..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_bounds(b).0, bucket_bounds(b - 1).1 + 1);
        }
    }

    #[test]
    fn percentiles_track_recorded_values_at_bucket_resolution() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        assert_eq!(snap.max(), 100);
        // p50 falls in the bucket of 50 ([32, 63]); capped upper bound.
        assert_eq!(snap.p50(), 63);
        assert_eq!(snap.p99(), 100, "top bucket percentile caps at max");
        assert!(snap.p50() <= snap.p90() && snap.p90() <= snap.p99());
        assert!(snap.p99() <= snap.max());
    }

    #[test]
    fn empty_snapshots_report_zeroes() {
        let snap = HistogramSnapshot::default();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p99(), 0);
        assert_eq!(snap.max(), 0);
    }

    #[test]
    fn merge_is_lossless() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [1u64, 5, 9, 120, 7000] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 2, 64, 1 << 40] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn add_count_agrees_with_individual_records_up_to_the_bucket() {
        let direct = Histogram::new();
        let bucketed = Histogram::new();
        for v in [3u64, 3, 3, 17] {
            direct.record(v);
        }
        bucketed.add_count(bucket_of(3), 3);
        bucketed.add_count(bucket_of(17), 1);
        assert_eq!(direct.snapshot().buckets(), bucketed.snapshot().buckets());
        // add_count's max is the bucket upper bound (conservative).
        assert!(bucketed.snapshot().max() >= direct.snapshot().max());
    }

    #[test]
    fn flight_recorder_keeps_the_last_events_in_order() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(FlightEvent::Admitted {
                session: i,
                batched: i % 2 == 0,
            });
        }
        assert_eq!(rec.recorded(), 10);
        let events = rec.snapshot();
        assert_eq!(events.len(), 4);
        let sessions: Vec<u64> = events
            .iter()
            .map(|e| match e {
                FlightEvent::Admitted { session, .. } => *session,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(sessions, vec![6, 7, 8, 9]);
    }

    #[test]
    fn flight_events_pack_and_unpack_every_variant() {
        let cases = [
            FlightEvent::Admitted {
                session: 1,
                batched: true,
            },
            FlightEvent::Admitted {
                session: 2,
                batched: false,
            },
            FlightEvent::BatchDemoted { session: 77 },
            FlightEvent::Stalled { session: (1 << 48) - 1 },
            FlightEvent::Violation { session: 3 },
            FlightEvent::Rejected {
                session: 9,
                code: RejectCode::Overloaded,
            },
            FlightEvent::ConnClosed {
                client: 5,
                reason: CloseReason::WriteStalled,
            },
            FlightEvent::ConnClosed {
                client: 6,
                reason: CloseReason::Idle,
            },
            FlightEvent::ConnClosed {
                client: 7,
                reason: CloseReason::Quarantined,
            },
            FlightEvent::Rejected {
                session: 10,
                code: RejectCode::Quarantined,
            },
            FlightEvent::Quarantined { session: 11 },
        ];
        for case in cases {
            assert_eq!(FlightEvent::unpack(case.pack()), Some(case), "{case:?}");
        }
        assert_eq!(FlightEvent::unpack(0), None, "empty slots decode to nothing");
    }

    #[test]
    fn incidents_capture_and_replay_their_violation() {
        let system = Arc::new(System::from_global(&generators::ring_n(3)).unwrap().compile());
        // Accept the first exchange, then observe a premature action.
        let roles = [r("w0"), r("w1"), r("w2")];
        let send = Action::send(roles[0].clone(), roles[1].clone(), Label::new("l"), Sort::Nat);
        let mut cursor = system.monitor_cursor();
        let mut trace = Trace::empty();
        for action in [send.clone(), send.dual()] {
            assert!(system.observe(&mut cursor, &action));
            trace.push(action);
        }
        let premature = Action::send(roles[2].clone(), roles[0].clone(), Label::new("l"), Sort::Nat);
        assert!(!system.observe(&mut cursor, &premature));
        let violation = MonitorViolation {
            action: premature.clone(),
            position: 2,
            trace_len: 2,
        };
        let incident = Incident::capture(
            ProtocolId(0),
            SessionId(42),
            &system,
            &violation,
            &trace,
            INCIDENT_PREFIX_CAP,
        );
        assert_eq!(incident.role, roles[2]);
        assert!(!incident.truncated);
        assert_eq!(incident.trace_prefix.len(), 2);
        assert_eq!(incident.cursor, cursor);
        assert!(incident.replays_violation(&system));
        let summary = incident.summary();
        assert_eq!(summary.session, 42);
        assert_eq!(summary.prefix_len, 2);
        assert!(!summary.truncated);
    }

    #[test]
    fn truncated_incidents_say_so_and_refuse_replay() {
        let system = Arc::new(System::from_global(&generators::ring_n(3)).unwrap().compile());
        let send = Action::send(r("w0"), r("w1"), Label::new("l"), Sort::Nat);
        let violation = MonitorViolation {
            action: send.clone(),
            position: 5,
            trace_len: 4,
        };
        // Trace recording was off: no prefix available.
        let incident = Incident::capture(
            ProtocolId(0),
            SessionId(1),
            &system,
            &violation,
            &Trace::empty(),
            INCIDENT_PREFIX_CAP,
        );
        assert!(incident.truncated);
        assert_eq!(incident.trace_prefix.len(), 0);
        assert!(!incident.replays_violation(&system));
    }

    #[test]
    fn the_incident_store_caps_retention_but_counts_everything() {
        let system = Arc::new(System::from_global(&generators::ring_n(3)).unwrap().compile());
        let store = IncidentStore::new(2);
        let violation = MonitorViolation {
            action: Action::send(r("w1"), r("w2"), Label::new("l"), Sort::Nat),
            position: 0,
            trace_len: 0,
        };
        for i in 0..5 {
            store.record(Incident::capture(
                ProtocolId(0),
                SessionId(i),
                &system,
                &violation,
                &Trace::empty(),
                INCIDENT_PREFIX_CAP,
            ));
        }
        assert_eq!(store.recorded(), 5);
        let held = store.snapshot();
        assert_eq!(held.len(), 2);
        assert_eq!(held[0].session, SessionId(3));
        assert_eq!(held[1].session, SessionId(4));
    }
}
