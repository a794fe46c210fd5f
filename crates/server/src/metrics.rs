//! The server's instrument tables — one per layer — and the reports derived
//! from them.
//!
//! [`ShardInstruments`] is what a worker shard updates and [`NetInstruments`]
//! what the IO loop updates; each is declared once, as the rows of an
//! `instruments!` table (see `instruments.rs`), and its report structs
//! ([`ShardReport`] + [`ObsReport`], [`NetReport`] + [`RejectCounts`]), the
//! cross-shard totals on [`ServerReport`], the [`StatsSnapshot`] codec and
//! the plain-text `Display` of every report all follow from the rows.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use zooid_proc::Value;
use zooid_engine::wire::RejectCode;

use crate::instruments::{decode, encode, entry, field, instruments, read_into, render, Cell};
use crate::obs::{FlightRecorder, Histogram, HistogramSnapshot, IncidentStore, IncidentSummary};

instruments! {
    [
        /// Live instruments of one worker shard: the counters and histograms
        /// of the table below (bumped lock-free by the worker, snapshotted by
        /// [`crate::SessionServer::report`]), the shard's flight recorder and
        /// incident store, and its per-protocol figures (sized by
        /// [`ShardInstruments::new`]: the registry is frozen before a shard
        /// exists).
        live ShardInstruments {
            /// The shard's event ring.
            pub recorder: FlightRecorder,
            /// The shard's retained incidents.
            pub incidents: IncidentStore,
            /// Session wall time per protocol, indexed by
            /// [`ProtocolId`](crate::ProtocolId).
            pub per_protocol_wall_ns: Vec<Histogram>,
            /// Sessions quarantined per protocol, indexed by
            /// [`ProtocolId`](crate::ProtocolId).
            pub per_protocol_quarantined: Vec<AtomicU64>,
        }
        /// A snapshot of one shard's counters.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        counters ShardReport {
            /// Index of the shard.
            pub shard: usize,
        }
        /// Aggregated observability figures, carried inside
        /// [`ServerReport`]: the shards' histograms merged, plus incident
        /// and flight-recorder totals.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        histograms ObsReport {
            /// Session wall time per protocol (dense registry index order).
            pub per_protocol_wall_ns: Vec<(u32, HistogramSnapshot)>,
            /// Sessions quarantined per protocol (dense registry index
            /// order); empty when no session was ever quarantined.
            pub per_protocol_quarantined: Vec<(u32, u64)>,
            /// Incidents captured across all shards (including evicted ones).
            pub incidents_recorded: u64,
            /// Incidents currently retained and fetchable.
            pub incidents_held: u64,
            /// Flight-recorder events ever recorded across all shards.
            pub flight_events: u64,
        }
        totals ServerReport.shards
    ]
    /// Sessions assigned to this shard.
    sessions_started: sum = "started",
    /// Sessions that ran to the end (all endpoints done, none stalled).
    sessions_completed: sum = "completed",
    /// Finished sessions whose monitor observed at least one violation.
    sessions_violated: sum = "violated",
    /// Sessions closed at their first rejected action; equals
    /// `sessions_violated`, since a violation always ends the session.
    sessions_quarantined: sum = "quarantined",
    /// Sessions the scheduler gave up on (every endpoint blocked).
    sessions_stalled: sum = "stalled",
    /// Messages delivered between endpoints of this shard's sessions.
    messages_routed: sum = "routed",
    /// Visible communications executed (sends and receives).
    actions_executed: sum = "actions",
    /// Scheduling quanta served.
    quanta: sum = "quanta",
    /// Largest run-queue depth observed.
    peak_queue_depth: max = "peak_queue",
    /// Largest sum of batch capacities the shard has held: the session
    /// slots its batch columns were sized for at their widest.
    peak_batch_slots: max = "peak_batch_slots",
    /// Sessions admitted into one of the shard's batches: every session
    /// that runs.
    sessions_batched: sum = "batched",
    /// Casts resolved into their batch layout: the admissions that missed
    /// the shard's per-protocol memo of the last cast it resolved. A
    /// client that shares one cast handle pays one per shard, one that
    /// builds a fresh handle per session pays one per session.
    casts_resolved: sum = "casts_resolved",
    /// Always 0: the shard has no per-session executor. The row stays
    /// because the benchmark reads it.
    sessions_slab: sum = "slab",
    /// Sessions a batch demoted at a monitor violation, each closed as
    /// quarantined from the extracted state. A session a batch closes as
    /// stalled is not demoted. The row stays because the benchmark reads
    /// it; it equals `sessions_quarantined`.
    sessions_demoted: sum = "demoted",
    /// `(role, pc)` cohorts stepped by this shard's batches.
    batch_cohorts: sum = "cohorts",
    /// Total sessions across those cohorts (mean cohort width =
    /// `batch_cohort_sessions / batch_cohorts`).
    batch_cohort_sessions: sum = "cohort_sessions",
    /// Session wall time, admission → outcome, in nanoseconds.
    session_wall_ns: histogram = "session_wall_ns",
    /// Per-action step cost in nanoseconds (quantum elapsed ÷ actions).
    action_cost_ns: histogram = "action_cost_ns",
    /// Batch cohort widths (sessions per `(role, pc)` cohort).
    cohort_width: histogram = "cohort_width",
}

impl ShardInstruments {
    /// The instruments of a shard serving a registry of `protocols`
    /// protocols.
    pub fn new(protocols: usize) -> Self {
        ShardInstruments {
            per_protocol_wall_ns: (0..protocols).map(|_| Histogram::new()).collect(),
            per_protocol_quarantined: (0..protocols).map(|_| AtomicU64::new(0)).collect(),
            ..ShardInstruments::default()
        }
    }

    /// Snapshots this shard's counters.
    pub fn report(&self, shard: usize) -> ShardReport {
        let mut report = ShardReport {
            shard,
            ..ShardReport::default()
        };
        read_into(Self::COUNTERS, self, &mut report);
        report
    }

    /// Folds this shard's histograms, incident and flight totals and
    /// per-protocol figures into an aggregated [`ObsReport`].
    pub fn merge_into(&self, report: &mut ObsReport) {
        read_into(Self::HISTOGRAMS, self, report);
        report.incidents_recorded += self.incidents.recorded();
        report.incidents_held += self.incidents.snapshot().len() as u64;
        report.flight_events += self.recorder.recorded();
        // Protocols with no readings are skipped: the report stays sparse.
        for (protocol, hist) in self.per_protocol_wall_ns.iter().enumerate() {
            let wall = hist.snapshot();
            if wall.count() > 0 {
                merge_keyed(
                    &mut report.per_protocol_wall_ns,
                    protocol as u32,
                    wall,
                    |mine, theirs| mine.merge(&theirs),
                );
            }
        }
        for (protocol, count) in self.per_protocol_quarantined.iter().enumerate() {
            let count = count.load(Ordering::Relaxed);
            if count > 0 {
                merge_keyed(
                    &mut report.per_protocol_quarantined,
                    protocol as u32,
                    count,
                    |mine, theirs| *mine += theirs,
                );
            }
        }
    }
}

/// Folds `reading` into the entry of `key` in a list kept sorted by key.
fn merge_keyed<C>(entries: &mut Vec<(u32, C)>, key: u32, reading: C, merge: impl Fn(&mut C, C)) {
    match entries.binary_search_by_key(&key, |(k, _)| *k) {
        Ok(at) => merge(&mut entries[at].1, reading),
        Err(at) => entries.insert(at, (key, reading)),
    }
}

instruments! {
    [
        /// Rejections sent to clients, one live counter per [`RejectCode`].
        live RejectInstruments {}
        /// Rejections sent to clients, broken out per [`RejectCode`] — the
        /// aggregate counters say *how many* opens were refused; these say
        /// *why*.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        report RejectCounts {}
    ]
    /// `RejectCode::UnknownProtocol` rejections.
    unknown_protocol: sum = "unknown_protocol",
    /// `RejectCode::ConnectionLimit` rejections (at accept time).
    connection_limit: sum = "connection_limit",
    /// `RejectCode::SessionLimit` rejections (per-connection cap).
    session_limit: sum = "session_limit",
    /// `RejectCode::Overloaded` rejections (global in-flight cap).
    overloaded: sum = "overloaded",
    /// `RejectCode::BadFrame` rejections (hostile or malformed framing).
    bad_frame: sum = "bad_frame",
    /// `RejectCode::ShuttingDown` rejections.
    shutting_down: sum = "shutting_down",
}

impl RejectCounts {
    /// Total rejections across all codes.
    pub fn total(&self) -> u64 {
        RejectInstruments::COUNTERS
            .iter()
            .map(|row| *(row.get)(self))
            .sum()
    }
}

instruments! {
    [
        /// Live instruments of the networked serving plane's IO event loop
        /// (updated by the loop thread, snapshotted by
        /// [`crate::NetServer::net_report`]), with the loop's flight
        /// recorder.
        live NetInstruments {
            /// Rejections sent, per [`RejectCode`].
            pub rejects: RejectInstruments,
            /// The IO loop's event ring (rejections, connection closes).
            pub recorder: FlightRecorder,
        }
        /// A snapshot of the networked serving plane's instruments:
        /// admission control (accepted/rejected connections, shed sessions),
        /// wire health (frames, bad frames) and IO-thread busy time.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        report NetReport {
            /// Rejections broken out per [`RejectCode`].
            pub rejects: RejectCounts,
        }
    ]
    /// Connections admitted into the event loop.
    connections_accepted: sum = "conns_accepted",
    /// Connections refused at accept time (connection limit).
    connections_rejected: sum = "conns_rejected",
    /// Connections closed (peer hangup, error, or hostile framing).
    connections_closed: sum = "conns_closed",
    /// Sessions admitted and submitted to the shard scheduler.
    sessions_opened: sum = "sessions_opened",
    /// `Open` requests refused for cause (unknown protocol).
    sessions_rejected: sum = "sessions_rejected",
    /// `Open` requests load-shed (per-connection or global in-flight cap).
    sessions_shed: sum = "sessions_shed",
    /// Sessions whose `Done` frame was queued back to the client.
    sessions_done: sum = "sessions_done",
    /// Well-formed multiplexing frames read.
    frames_read: sum = "frames_read",
    /// Frames written back to clients.
    frames_written: sum = "frames_written",
    /// Malformed or oversized frames observed (each closes its connection).
    bad_frames: sum = "bad_frames",
    /// IO-thread busy time per event-loop pass, in nanoseconds: one
    /// observation per accept/read/drain/flush pass, less the time the pass
    /// spent blocked waiting for work (the idle wait is not in it).
    io_pass_ns: histogram = "io_pass_ns",
}

impl NetInstruments {
    /// Bumps the per-code counter for one rejection sent to a client.
    pub(crate) fn record_reject(&self, code: RejectCode) {
        let rejects = &self.rejects;
        let counter = match code {
            RejectCode::UnknownProtocol => &rejects.unknown_protocol,
            RejectCode::ConnectionLimit => &rejects.connection_limit,
            RejectCode::SessionLimit => &rejects.session_limit,
            RejectCode::Overloaded => &rejects.overloaded,
            RejectCode::BadFrame => &rejects.bad_frame,
            RejectCode::ShuttingDown => &rejects.shutting_down,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots every instrument of the layer.
    pub fn report(&self) -> NetReport {
        let mut report = NetReport::default();
        read_into(Self::COUNTERS, self, &mut report);
        read_into(Self::HISTOGRAMS, self, &mut report);
        read_into(
            RejectInstruments::COUNTERS,
            &self.rejects,
            &mut report.rejects,
        );
        report
    }
}

impl fmt::Display for NetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        render(NetInstruments::COUNTERS, "net", self, f)?;
        render(RejectInstruments::COUNTERS, "net.rejects", &self.rejects, f)?;
        render(NetInstruments::HISTOGRAMS, "net", self, f)
    }
}

/// The networked serving plane's final report: the IO loop's counters next
/// to the shard scheduler's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetServerReport {
    /// IO event-loop counters.
    pub net: NetReport,
    /// The hosted [`crate::SessionServer`]'s per-shard report.
    pub shards: ServerReport,
}

impl fmt::Display for NetServerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.net, self.shards)
    }
}

/// Aggregated server metrics: one [`ShardReport`] per worker shard, with a
/// cross-shard total per counter (`sessions_started()`, …).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Per-shard snapshots, in shard order.
    pub shards: Vec<ShardReport>,
    /// Aggregated observability figures (latency histograms, incident and
    /// flight-recorder totals), merged across shards.
    pub obs: ObsReport,
}

impl ServerReport {
    /// Mean width of the `(role, pc)` cohorts stepped by the batch
    /// executors — the observable columnar win: per-cohort work is
    /// amortised over this many sessions. `0.0` before any cohort ran.
    pub fn mean_cohort_width(&self) -> f64 {
        match self.batch_cohorts() {
            0 => 0.0,
            cohorts => self.batch_cohort_sessions() as f64 / cohorts as f64,
        }
    }
}

impl fmt::Display for ServerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, total) in Self::TOTALS {
            writeln!(f, "shard.{name} {}", total(self))?;
        }
        writeln!(f, "shard.mean_cohort_width {:.1}", self.mean_cohort_width())?;
        write!(f, "{}", self.obs)?;
        for shard in &self.shards {
            write!(f, "shard[{}]", shard.shard)?;
            for row in ShardInstruments::COUNTERS {
                write!(f, " {}={}", row.name, (row.get)(shard))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl fmt::Display for ObsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        render(ShardInstruments::HISTOGRAMS, "shard", self, f)?;
        writeln!(f, "shard.incidents_recorded {}", self.incidents_recorded)?;
        writeln!(f, "shard.incidents_held {}", self.incidents_held)?;
        writeln!(f, "shard.flight_events {}", self.flight_events)?;
        for (protocol, count) in &self.per_protocol_quarantined {
            writeln!(f, "shard.per_protocol_quarantined[{protocol}] {count}")?;
        }
        Ok(())
    }
}

/// Everything a live server hands back for one `MuxFrame::Stats` request.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// The IO event loop's counters.
    pub net: NetReport,
    /// The shard scheduler's report (with the aggregated [`ObsReport`]).
    pub shards: ServerReport,
    /// Summaries of the retained incidents, oldest first.
    pub incidents: Vec<IncidentSummary>,
}

/// A `Seq` of `(protocol, reading)` pairs.
fn keyed_to_value<C: Cell>(entries: &[(u32, C)]) -> Value {
    Value::Seq(
        entries
            .iter()
            .map(|(p, c)| Value::pair(Value::Nat(u64::from(*p)), c.to_value()))
            .collect(),
    )
}

fn keyed_from_value<C: Cell>(value: &Value) -> Option<Vec<(u32, C)>> {
    let Value::Seq(entries) = value else {
        return None;
    };
    entries
        .iter()
        .map(|entry| match entry {
            Value::Pair(p, c) => Some((u64::from_value(p)? as u32, C::from_value(c)?)),
            _ => None,
        })
        .collect()
}

impl StatsSnapshot {
    /// Serializes the snapshot into a codec [`Value`] (the `StatsReply`
    /// payload): one record per report, one field per instrument row.
    pub fn to_value(&self) -> Value {
        let mut net = Vec::new();
        encode(NetInstruments::COUNTERS, &self.net, &mut net);
        encode(NetInstruments::HISTOGRAMS, &self.net, &mut net);
        let mut rejects = Vec::new();
        encode(RejectInstruments::COUNTERS, &self.net.rejects, &mut rejects);
        net.push(entry("rejects", Value::Seq(rejects)));

        let per_shard = self.shards.shards.iter().map(|shard| {
            let mut fields = vec![entry("shard", Value::Nat(shard.shard as u64))];
            encode(ShardInstruments::COUNTERS, shard, &mut fields);
            Value::Seq(fields)
        });
        let obs = &self.shards.obs;
        let mut obs_fields = Vec::new();
        encode(ShardInstruments::HISTOGRAMS, obs, &mut obs_fields);
        obs_fields.extend([
            entry(
                "per_protocol_wall_ns",
                keyed_to_value(&obs.per_protocol_wall_ns),
            ),
            entry(
                "per_protocol_quarantined",
                keyed_to_value(&obs.per_protocol_quarantined),
            ),
            entry("incidents_recorded", Value::Nat(obs.incidents_recorded)),
            entry("incidents_held", Value::Nat(obs.incidents_held)),
            entry("flight_events", Value::Nat(obs.flight_events)),
        ]);

        Value::Seq(vec![
            entry("net", Value::Seq(net)),
            entry("per_shard", Value::Seq(per_shard.collect())),
            entry("obs", Value::Seq(obs_fields)),
            entry(
                "incidents",
                Value::Seq(
                    self.incidents
                        .iter()
                        .map(IncidentSummary::to_value)
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes a snapshot from a codec [`Value`]; `None` when the
    /// value does not carry the expected record shape.
    pub fn from_value(value: &Value) -> Option<StatsSnapshot> {
        let net_record = field(value, "net")?;
        let mut net = NetReport::default();
        decode(NetInstruments::COUNTERS, net_record, &mut net)?;
        decode(NetInstruments::HISTOGRAMS, net_record, &mut net)?;
        let rejects = field(net_record, "rejects")?;
        decode(RejectInstruments::COUNTERS, rejects, &mut net.rejects)?;

        let Value::Seq(per_shard) = field(value, "per_shard")? else {
            return None;
        };
        let shards = per_shard
            .iter()
            .map(|record| {
                let mut report = ShardReport {
                    shard: usize::try_from(u64::from_value(field(record, "shard")?)?).ok()?,
                    ..ShardReport::default()
                };
                decode(ShardInstruments::COUNTERS, record, &mut report)?;
                Some(report)
            })
            .collect::<Option<Vec<_>>>()?;
        let obs_record = field(value, "obs")?;
        let mut obs = ObsReport {
            per_protocol_wall_ns: keyed_from_value(field(obs_record, "per_protocol_wall_ns")?)?,
            per_protocol_quarantined: keyed_from_value(field(
                obs_record,
                "per_protocol_quarantined",
            )?)?,
            incidents_recorded: u64::from_value(field(obs_record, "incidents_recorded")?)?,
            incidents_held: u64::from_value(field(obs_record, "incidents_held")?)?,
            flight_events: u64::from_value(field(obs_record, "flight_events")?)?,
            ..ObsReport::default()
        };
        decode(ShardInstruments::HISTOGRAMS, obs_record, &mut obs)?;

        let Value::Seq(incidents) = field(value, "incidents")? else {
            return None;
        };
        Some(StatsSnapshot {
            net,
            shards: ServerReport { shards, obs },
            incidents: incidents
                .iter()
                .map(IncidentSummary::from_value)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Histogram;

    #[test]
    fn totals_sum_over_shards_and_display_mentions_them() {
        let report = ServerReport {
            shards: vec![
                ShardReport {
                    shard: 0,
                    sessions_started: 3,
                    sessions_completed: 2,
                    sessions_violated: 1,
                    sessions_quarantined: 1,
                    sessions_stalled: 0,
                    messages_routed: 10,
                    actions_executed: 20,
                    quanta: 5,
                    peak_queue_depth: 2,
                    peak_batch_slots: 4,
                    sessions_batched: 2,
                    casts_resolved: 2,
                    sessions_slab: 1,
                    sessions_demoted: 1,
                    batch_cohorts: 4,
                    batch_cohort_sessions: 10,
                },
                ShardReport {
                    shard: 1,
                    sessions_started: 4,
                    sessions_completed: 4,
                    sessions_violated: 0,
                    sessions_quarantined: 0,
                    sessions_stalled: 0,
                    messages_routed: 6,
                    actions_executed: 12,
                    quanta: 4,
                    peak_queue_depth: 1,
                    peak_batch_slots: 8,
                    sessions_batched: 4,
                    casts_resolved: 1,
                    sessions_slab: 0,
                    sessions_demoted: 0,
                    batch_cohorts: 2,
                    batch_cohort_sessions: 8,
                },
            ],
            obs: ObsReport::default(),
        };
        assert_eq!(report.sessions_started(), 7);
        assert_eq!(report.sessions_completed(), 6);
        assert_eq!(report.messages_routed(), 16);
        assert_eq!(report.actions_executed(), 32);
        assert_eq!(report.sessions_batched(), 6);
        assert_eq!(report.sessions_slab(), 1);
        assert_eq!(report.sessions_demoted(), 1);
        assert_eq!(report.casts_resolved(), 3);
        assert!((report.mean_cohort_width() - 3.0).abs() < 1e-9);
        let text = report.to_string();
        assert!(text.contains("shard.sessions_started 7\n"), "{text}");
        assert!(text.contains("shard[1] "), "{text}");
        assert!(text.contains("shard.sessions_batched 6\n"), "{text}");
        assert!(text.contains("shard.casts_resolved 3\n"), "{text}");
    }

    #[test]
    fn mean_cohort_width_is_zero_before_any_cohort() {
        let report = ServerReport::default();
        assert_eq!(report.mean_cohort_width(), 0.0);
    }

    #[test]
    fn degenerate_reports_display_without_dividing_by_zero() {
        // Entirely empty: no shards, no observations, no cohorts.
        let empty = ServerReport::default();
        assert_eq!(empty.sessions_started(), 0);
        assert_eq!(empty.mean_cohort_width(), 0.0);
        assert_eq!(empty.obs.session_wall_ns.p99(), 0);
        let text = empty.to_string();
        assert!(text.contains("shard.sessions_started 0\n"), "{text}");
        assert!(text.contains("shard.mean_cohort_width 0.0\n"), "{text}");

        // A shard that ran but never formed a cohort: the width ratio must
        // stay defined.
        let no_cohorts = ServerReport {
            shards: vec![ShardReport {
                shard: 0,
                sessions_started: 5,
                sessions_completed: 5,
                sessions_violated: 0,
                sessions_quarantined: 0,
                sessions_stalled: 0,
                messages_routed: 15,
                actions_executed: 30,
                quanta: 5,
                peak_queue_depth: 1,
                peak_batch_slots: 0,
                sessions_batched: 0,
                casts_resolved: 0,
                sessions_slab: 5,
                sessions_demoted: 0,
                batch_cohorts: 0,
                batch_cohort_sessions: 0,
            }],
            obs: ObsReport::default(),
        };
        assert_eq!(no_cohorts.mean_cohort_width(), 0.0);
        assert!(no_cohorts
            .to_string()
            .contains("shard.mean_cohort_width 0.0\n"));
    }

    #[test]
    fn net_report_displays_per_code_rejects_and_io_pass_percentiles() {
        let metrics = NetInstruments::default();
        metrics.record_reject(RejectCode::Overloaded);
        metrics.record_reject(RejectCode::Overloaded);
        metrics.record_reject(RejectCode::BadFrame);
        metrics.record_reject(RejectCode::UnknownProtocol);
        metrics.record_reject(RejectCode::ConnectionLimit);
        metrics.record_reject(RejectCode::SessionLimit);
        metrics.record_reject(RejectCode::ShuttingDown);
        metrics.record_reject(RejectCode::ShuttingDown);
        let report = metrics.report();
        assert_eq!(
            report.rejects,
            RejectCounts {
                unknown_protocol: 1,
                connection_limit: 1,
                session_limit: 1,
                overloaded: 2,
                bad_frame: 1,
                shutting_down: 2,
            }
        );
        assert_eq!(report.rejects.total(), 8);
        let text = report.to_string();
        assert!(text.contains("net.rejects.shutting_down 2\n"), "{text}");
        assert!(text.contains("net.rejects.overloaded 2\n"), "{text}");
        assert!(text.contains("net.rejects.bad_frame 1\n"), "{text}");
        assert!(text.contains("net.io_pass_ns "), "{text}");
    }

    #[test]
    fn shard_instruments_merge_per_protocol_histograms() {
        let a = ShardInstruments::new(3);
        let b = ShardInstruments::new(3);
        a.per_protocol_wall_ns[0].record(10);
        a.per_protocol_wall_ns[1].record(20);
        b.per_protocol_wall_ns[0].record(30);
        a.session_wall_ns.record(10);
        b.session_wall_ns.record(30);
        let mut report = ObsReport::default();
        a.merge_into(&mut report);
        b.merge_into(&mut report);
        assert_eq!(report.session_wall_ns.count(), 2);
        assert_eq!(report.per_protocol_wall_ns.len(), 2);
        assert_eq!(report.per_protocol_wall_ns[0].0, 0);
        assert_eq!(report.per_protocol_wall_ns[0].1.count(), 2);
        assert_eq!(report.per_protocol_wall_ns[1].1.count(), 1);
    }

    #[test]
    fn stats_snapshots_round_trip_through_values() {
        let mut session_wall = HistogramSnapshot::default();
        let h = Histogram::new();
        h.record(100);
        h.record(90_000);
        session_wall.merge(&h.snapshot());
        let snapshot = StatsSnapshot {
            net: NetReport {
                connections_accepted: 3,
                sessions_opened: 7,
                frames_read: 21,
                rejects: RejectCounts {
                    overloaded: 2,
                    bad_frame: 1,
                    ..RejectCounts::default()
                },
                io_pass_ns: h.snapshot(),
                ..NetReport::default()
            },
            shards: ServerReport {
                shards: vec![ShardReport {
                    shard: 0,
                    sessions_started: 7,
                    sessions_completed: 6,
                    sessions_violated: 1,
                    sessions_quarantined: 1,
                    sessions_stalled: 0,
                    messages_routed: 21,
                    actions_executed: 42,
                    quanta: 9,
                    peak_queue_depth: 4,
                    peak_batch_slots: 8,
                    sessions_batched: 5,
                    casts_resolved: 3,
                    sessions_slab: 2,
                    sessions_demoted: 1,
                    batch_cohorts: 3,
                    batch_cohort_sessions: 12,
                }],
                obs: ObsReport {
                    session_wall_ns: session_wall,
                    per_protocol_wall_ns: vec![(0, session_wall)],
                    per_protocol_quarantined: vec![(0, 1)],
                    incidents_recorded: 1,
                    incidents_held: 1,
                    flight_events: 17,
                    ..ObsReport::default()
                },
            },
            incidents: vec![IncidentSummary {
                protocol: 0,
                session: 4,
                role: "w1".into(),
                action: "!w1w2(l, nat)".into(),
                position: 2,
                trace_len: 2,
                prefix_len: 2,
                truncated: false,
            }],
        };
        let value = snapshot.to_value();
        let back = StatsSnapshot::from_value(&value).expect("round trip");
        assert_eq!(back, snapshot);
        // Malformed values decode to None, not a panic.
        assert_eq!(StatsSnapshot::from_value(&Value::Nat(3)), None);
        assert_eq!(StatsSnapshot::from_value(&Value::Seq(vec![])), None);
    }

    /// Every row of both tables, driven with a distinct non-zero reading:
    /// the snapshot reads it, the codec carries it, the scrape names it and
    /// the cross-shard totals fold it — so a row added to a table cannot be
    /// dropped by any of them.
    #[test]
    fn every_instrument_survives_the_snapshot_the_codec_the_scrape_and_the_totals() {
        let mut next = 0u64;
        let mut fresh = || {
            next += 1;
            next
        };

        // Live instruments, filled row by row.
        let net = NetInstruments::default();
        for row in NetInstruments::COUNTERS {
            (row.live)(&net).store(fresh(), Ordering::Relaxed);
        }
        for row in RejectInstruments::COUNTERS {
            (row.live)(&net.rejects).store(fresh(), Ordering::Relaxed);
        }
        for row in NetInstruments::HISTOGRAMS {
            (row.live)(&net).record(fresh());
        }
        let shards = [ShardInstruments::new(0), ShardInstruments::new(0)];
        for shard in &shards {
            for row in ShardInstruments::COUNTERS {
                (row.live)(shard).store(fresh(), Ordering::Relaxed);
            }
            for row in ShardInstruments::HISTOGRAMS {
                (row.live)(shard).record(fresh());
            }
        }
        let readings = next;

        // The snapshot is complete by itself: no reading is left at zero
        // and no two rows share one.
        let mut obs = ObsReport::default();
        for shard in &shards {
            shard.merge_into(&mut obs);
        }
        let report = NetServerReport {
            net: net.report(),
            shards: ServerReport {
                shards: shards
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s.report(i))
                    .collect(),
                obs,
            },
        };
        let mut seen: Vec<u64> = Vec::new();
        seen.extend(
            NetInstruments::COUNTERS
                .iter()
                .map(|r| *(r.get)(&report.net)),
        );
        seen.extend(
            RejectInstruments::COUNTERS
                .iter()
                .map(|r| *(r.get)(&report.net.rejects)),
        );
        seen.extend(
            NetInstruments::HISTOGRAMS
                .iter()
                .map(|r| (r.get)(&report.net).max()),
        );
        for shard in &report.shards.shards {
            seen.extend(ShardInstruments::COUNTERS.iter().map(|r| *(r.get)(shard)));
        }
        for shard in &shards {
            seen.extend(
                ShardInstruments::HISTOGRAMS
                    .iter()
                    .map(|r| (r.live)(shard).snapshot().max()),
            );
        }
        seen.sort_unstable();
        assert_eq!(seen, (1..=readings).collect::<Vec<_>>());
        for row in ShardInstruments::HISTOGRAMS {
            assert_eq!(
                (row.get)(&report.shards.obs).count(),
                2,
                "{} merges both shards",
                row.name
            );
        }

        // (a) The codec carries every row.
        let stats = StatsSnapshot {
            net: report.net.clone(),
            shards: report.shards.clone(),
            incidents: Vec::new(),
        };
        assert_eq!(StatsSnapshot::from_value(&stats.to_value()), Some(stats));

        // (b) The scrape names every row next to its reading.
        let text = report.to_string();
        for row in NetInstruments::COUNTERS {
            let line = format!("net.{} {}\n", row.name, (row.get)(&report.net));
            assert!(text.contains(&line), "{line:?} missing from:\n{text}");
        }
        for row in RejectInstruments::COUNTERS {
            let line = format!(
                "net.rejects.{} {}\n",
                row.name,
                (row.get)(&report.net.rejects)
            );
            assert!(text.contains(&line), "{line:?} missing from:\n{text}");
        }
        for row in NetInstruments::HISTOGRAMS {
            let line = format!("net.{} {}\n", row.name, (row.get)(&report.net));
            assert!(text.contains(&line), "{line:?} missing from:\n{text}");
        }
        for row in ShardInstruments::HISTOGRAMS {
            let line = format!("shard.{} {}\n", row.name, (row.get)(&report.shards.obs));
            assert!(text.contains(&line), "{line:?} missing from:\n{text}");
        }
        for shard in &report.shards.shards {
            let line = text
                .lines()
                .find(|l| l.starts_with(&format!("shard[{}] ", shard.shard)))
                .expect("one line per shard");
            for row in ShardInstruments::COUNTERS {
                let cell = format!(" {}={}", row.name, (row.get)(shard));
                assert!(
                    format!("{line} ").contains(&format!("{cell} ")),
                    "{cell:?} missing from {line:?}"
                );
            }
        }

        // (c) Every total is the per-shard sum — the largest, for the `max`
        // rows — and the scrape prints it. The memo's miss count is among
        // the summed rows.
        assert_eq!(ServerReport::TOTALS.len(), ShardInstruments::COUNTERS.len());
        let resolved = ShardInstruments::COUNTERS
            .iter()
            .find(|row| row.name == "casts_resolved")
            .expect("a casts_resolved row");
        assert_eq!(resolved.key, "casts_resolved");
        for ((name, total), row) in ServerReport::TOTALS.iter().zip(ShardInstruments::COUNTERS) {
            assert_eq!(*name, row.name);
            let per_shard = report.shards.shards.iter().map(|s| *(row.get)(s));
            let expected: u64 = if ["peak_queue_depth", "peak_batch_slots"].contains(&row.name) {
                per_shard.max().unwrap()
            } else {
                per_shard.sum()
            };
            assert_eq!(total(&report.shards), expected, "{name}");
            let line = format!("shard.{name} {expected}\n");
            assert!(text.contains(&line), "{line:?} missing from:\n{text}");
        }
    }
}
