//! Per-shard metrics and the aggregated [`ServerReport`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use zooid_runtime::wire::RejectCode;

use crate::obs::{HistogramSnapshot, ObsReport};

/// Live counters of one worker shard (updated lock-free by the worker,
/// snapshotted by [`crate::SessionServer::report`]).
#[derive(Debug, Default)]
pub(crate) struct ShardMetrics {
    pub(crate) sessions_started: AtomicU64,
    pub(crate) sessions_completed: AtomicU64,
    pub(crate) sessions_violated: AtomicU64,
    pub(crate) sessions_quarantined: AtomicU64,
    pub(crate) sessions_restarted: AtomicU64,
    pub(crate) sessions_stalled: AtomicU64,
    pub(crate) messages_routed: AtomicU64,
    pub(crate) actions_executed: AtomicU64,
    pub(crate) quanta: AtomicU64,
    pub(crate) peak_queue_depth: AtomicU64,
    pub(crate) sessions_batched: AtomicU64,
    pub(crate) sessions_slab: AtomicU64,
    pub(crate) sessions_demoted: AtomicU64,
    pub(crate) batch_cohorts: AtomicU64,
    pub(crate) batch_cohort_sessions: AtomicU64,
}

impl ShardMetrics {
    pub(crate) fn record_queue_depth(&self, depth: usize) {
        let depth = depth as u64;
        // A stale read only under-reports momentarily; the single-writer
        // worker makes the fetch_max race-free in practice.
        self.peak_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, shard: usize) -> ShardReport {
        ShardReport {
            shard,
            sessions_started: self.sessions_started.load(Ordering::Relaxed),
            sessions_completed: self.sessions_completed.load(Ordering::Relaxed),
            sessions_violated: self.sessions_violated.load(Ordering::Relaxed),
            sessions_quarantined: self.sessions_quarantined.load(Ordering::Relaxed),
            sessions_restarted: self.sessions_restarted.load(Ordering::Relaxed),
            sessions_stalled: self.sessions_stalled.load(Ordering::Relaxed),
            messages_routed: self.messages_routed.load(Ordering::Relaxed),
            actions_executed: self.actions_executed.load(Ordering::Relaxed),
            quanta: self.quanta.load(Ordering::Relaxed),
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            sessions_batched: self.sessions_batched.load(Ordering::Relaxed),
            sessions_slab: self.sessions_slab.load(Ordering::Relaxed),
            sessions_demoted: self.sessions_demoted.load(Ordering::Relaxed),
            batch_cohorts: self.batch_cohorts.load(Ordering::Relaxed),
            batch_cohort_sessions: self.batch_cohort_sessions.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of one shard's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Index of the shard.
    pub shard: usize,
    /// Sessions assigned to this shard.
    pub sessions_started: u64,
    /// Sessions that ran to the end (all endpoints done, none stalled).
    pub sessions_completed: u64,
    /// Finished sessions whose monitor observed at least one violation.
    pub sessions_violated: u64,
    /// Sessions the quarantine policy halted at their first rejected
    /// action (a subset of `sessions_violated`).
    pub sessions_quarantined: u64,
    /// Quarantined sessions re-admitted from their last certified
    /// checkpoint ([`crate::QuarantinePolicy::RestartFromCheckpoint`]).
    pub sessions_restarted: u64,
    /// Sessions the scheduler gave up on (every endpoint blocked).
    pub sessions_stalled: u64,
    /// Messages delivered between endpoints of this shard's sessions.
    pub messages_routed: u64,
    /// Visible communications executed (sends and receives).
    pub actions_executed: u64,
    /// Scheduling quanta served.
    pub quanta: u64,
    /// Largest run-queue depth observed.
    pub peak_queue_depth: u64,
    /// Sessions admitted into the columnar batch executor.
    pub sessions_batched: u64,
    /// Sessions that ran on the per-session slab executor from the start
    /// (heterogeneous or not batch-eligible).
    pub sessions_slab: u64,
    /// Sessions demoted from a batch to the slab executor mid-flight.
    pub sessions_demoted: u64,
    /// `(role, pc)` cohorts stepped by this shard's batches.
    pub batch_cohorts: u64,
    /// Total sessions across those cohorts (mean cohort width =
    /// `batch_cohort_sessions / batch_cohorts`).
    pub batch_cohort_sessions: u64,
}

/// Live counters of the networked serving plane's IO event loop (updated
/// by the loop thread, snapshotted by [`crate::NetServer::net_report`]).
#[derive(Debug, Default)]
pub(crate) struct NetMetrics {
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) connections_rejected: AtomicU64,
    pub(crate) connections_closed: AtomicU64,
    pub(crate) sessions_opened: AtomicU64,
    pub(crate) sessions_rejected: AtomicU64,
    pub(crate) sessions_shed: AtomicU64,
    pub(crate) sessions_done: AtomicU64,
    pub(crate) frames_read: AtomicU64,
    pub(crate) frames_written: AtomicU64,
    pub(crate) bad_frames: AtomicU64,
    /// One counter per [`RejectCode`], indexed by `code as u8 - 1`.
    pub(crate) rejects: [AtomicU64; 8],
}

impl NetMetrics {
    /// Bumps the per-code counter for one rejection sent to a client.
    pub(crate) fn record_reject(&self, code: RejectCode) {
        self.rejects[(code as u8 - 1) as usize].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> NetReport {
        NetReport {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_rejected: self.connections_rejected.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_rejected: self.sessions_rejected.load(Ordering::Relaxed),
            sessions_shed: self.sessions_shed.load(Ordering::Relaxed),
            sessions_done: self.sessions_done.load(Ordering::Relaxed),
            frames_read: self.frames_read.load(Ordering::Relaxed),
            frames_written: self.frames_written.load(Ordering::Relaxed),
            bad_frames: self.bad_frames.load(Ordering::Relaxed),
            rejects: RejectCounts {
                unknown_protocol: self.rejects[0].load(Ordering::Relaxed),
                connection_limit: self.rejects[1].load(Ordering::Relaxed),
                session_limit: self.rejects[2].load(Ordering::Relaxed),
                overloaded: self.rejects[3].load(Ordering::Relaxed),
                bad_frame: self.rejects[4].load(Ordering::Relaxed),
                shutting_down: self.rejects[5].load(Ordering::Relaxed),
                quarantined: self.rejects[6].load(Ordering::Relaxed),
                banned: self.rejects[7].load(Ordering::Relaxed),
            },
            io_pass_ns: HistogramSnapshot::default(),
        }
    }
}

/// Rejections sent to clients, broken out per [`RejectCode`] — the
/// aggregate counters say *how many* opens were refused; these say *why*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectCounts {
    /// `RejectCode::UnknownProtocol` rejections.
    pub unknown_protocol: u64,
    /// `RejectCode::ConnectionLimit` rejections (at accept time).
    pub connection_limit: u64,
    /// `RejectCode::SessionLimit` rejections (per-connection cap).
    pub session_limit: u64,
    /// `RejectCode::Overloaded` rejections (global in-flight cap).
    pub overloaded: u64,
    /// `RejectCode::BadFrame` rejections (hostile or malformed framing).
    pub bad_frame: u64,
    /// `RejectCode::ShuttingDown` rejections.
    pub shutting_down: u64,
    /// `RejectCode::Quarantined` rejections (connection torn down because a
    /// hosted session was quarantined).
    pub quarantined: u64,
    /// `RejectCode::Banned` rejections (`Open`s refused because the
    /// connection crossed the byzantine-strike threshold).
    pub banned: u64,
}

impl RejectCounts {
    /// Total rejections across all codes.
    pub fn total(&self) -> u64 {
        self.unknown_protocol
            + self.connection_limit
            + self.session_limit
            + self.overloaded
            + self.bad_frame
            + self.shutting_down
            + self.quarantined
            + self.banned
    }
}

/// A snapshot of the networked serving plane's counters: admission control
/// (accepted/rejected connections, shed sessions) and wire health (frames,
/// bad frames).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetReport {
    /// Connections admitted into the event loop.
    pub connections_accepted: u64,
    /// Connections refused at accept time (connection limit).
    pub connections_rejected: u64,
    /// Connections closed (peer hangup, error, or hostile framing).
    pub connections_closed: u64,
    /// Sessions admitted and submitted to the shard scheduler.
    pub sessions_opened: u64,
    /// `Open` requests refused for cause (unknown protocol).
    pub sessions_rejected: u64,
    /// `Open` requests load-shed (per-connection or global in-flight cap).
    pub sessions_shed: u64,
    /// Sessions whose `Done` frame was queued back to the client.
    pub sessions_done: u64,
    /// Well-formed multiplexing frames read.
    pub frames_read: u64,
    /// Frames written back to clients.
    pub frames_written: u64,
    /// Malformed or oversized frames observed (each closes its connection).
    pub bad_frames: u64,
    /// Rejections broken out per [`RejectCode`].
    pub rejects: RejectCounts,
    /// IO-thread busy time per event-loop pass, in nanoseconds: one
    /// observation per accept/read/drain/flush pass, less the time the pass
    /// spent blocked waiting for work (the idle wait is not in it).
    pub io_pass_ns: HistogramSnapshot,
}

impl fmt::Display for NetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "net report: {} conns accepted ({} rejected, {} closed), \
             {} sessions opened ({} rejected, {} shed), {} done",
            self.connections_accepted,
            self.connections_rejected,
            self.connections_closed,
            self.sessions_opened,
            self.sessions_rejected,
            self.sessions_shed,
            self.sessions_done,
        )?;
        writeln!(
            f,
            "  wire: {} frames in, {} frames out, {} bad",
            self.frames_read, self.frames_written, self.bad_frames,
        )?;
        writeln!(
            f,
            "  rejects: {} unknown-protocol, {} conn-limit, {} session-limit, \
             {} overloaded, {} bad-frame, {} shutting-down, {} quarantined, \
             {} banned",
            self.rejects.unknown_protocol,
            self.rejects.connection_limit,
            self.rejects.session_limit,
            self.rejects.overloaded,
            self.rejects.bad_frame,
            self.rejects.shutting_down,
            self.rejects.quarantined,
            self.rejects.banned,
        )?;
        writeln!(f, "  io pass ns: {}", self.io_pass_ns)
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

/// Aggregated server metrics: one [`ShardReport`] per worker shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Per-shard snapshots, in shard order.
    pub shards: Vec<ShardReport>,
    /// Aggregated observability figures (latency histograms, incident and
    /// flight-recorder totals), merged across shards.
    pub obs: ObsReport,
}

impl ServerReport {
    /// Total sessions assigned across all shards.
    pub fn sessions_started(&self) -> u64 {
        self.shards.iter().map(|s| s.sessions_started).sum()
    }

    /// Total sessions that ran to the end.
    pub fn sessions_completed(&self) -> u64 {
        self.shards.iter().map(|s| s.sessions_completed).sum()
    }

    /// Total finished sessions with monitor violations.
    pub fn sessions_violated(&self) -> u64 {
        self.shards.iter().map(|s| s.sessions_violated).sum()
    }

    /// Total sessions the scheduler gave up on.
    pub fn sessions_stalled(&self) -> u64 {
        self.shards.iter().map(|s| s.sessions_stalled).sum()
    }

    /// Total sessions the quarantine policy halted at their first rejected
    /// action.
    pub fn sessions_quarantined(&self) -> u64 {
        self.shards.iter().map(|s| s.sessions_quarantined).sum()
    }

    /// Total quarantined sessions re-admitted from their last certified
    /// checkpoint.
    pub fn sessions_restarted(&self) -> u64 {
        self.shards.iter().map(|s| s.sessions_restarted).sum()
    }

    /// Total messages routed between endpoints.
    pub fn messages_routed(&self) -> u64 {
        self.shards.iter().map(|s| s.messages_routed).sum()
    }

    /// Total visible communications executed.
    pub fn actions_executed(&self) -> u64 {
        self.shards.iter().map(|s| s.actions_executed).sum()
    }

    /// Total sessions admitted into the columnar batch executor.
    pub fn sessions_batched(&self) -> u64 {
        self.shards.iter().map(|s| s.sessions_batched).sum()
    }

    /// Total sessions that ran on the slab executor from the start.
    pub fn sessions_slab(&self) -> u64 {
        self.shards.iter().map(|s| s.sessions_slab).sum()
    }

    /// Total sessions demoted from a batch to the slab mid-flight.
    pub fn sessions_demoted(&self) -> u64 {
        self.shards.iter().map(|s| s.sessions_demoted).sum()
    }

    /// Mean width of the `(role, pc)` cohorts stepped by the batch
    /// executors — the observable columnar win: per-cohort work is
    /// amortised over this many sessions. `0.0` before any cohort ran.
    pub fn mean_cohort_width(&self) -> f64 {
        let cohorts: u64 = self.shards.iter().map(|s| s.batch_cohorts).sum();
        if cohorts == 0 {
            return 0.0;
        }
        let sessions: u64 = self.shards.iter().map(|s| s.batch_cohort_sessions).sum();
        sessions as f64 / cohorts as f64
    }
}

impl fmt::Display for ServerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "server report: {} sessions started, {} completed ({} violated, {} quarantined, \
             {} restarted, {} stalled), {} messages routed, {} actions",
            self.sessions_started(),
            self.sessions_completed(),
            self.sessions_violated(),
            self.sessions_quarantined(),
            self.sessions_restarted(),
            self.sessions_stalled(),
            self.messages_routed(),
            self.actions_executed(),
        )?;
        writeln!(
            f,
            "  batching: {} batched / {} slab ({} demoted), mean cohort width {:.1}",
            self.sessions_batched(),
            self.sessions_slab(),
            self.sessions_demoted(),
            self.mean_cohort_width(),
        )?;
        write!(f, "{}", self.obs)?;
        for s in &self.shards {
            writeln!(
                f,
                "  shard {}: {} started, {} completed, {} routed, {} quanta, peak queue {}, \
                 {} batched, {} slab",
                s.shard,
                s.sessions_started,
                s.sessions_completed,
                s.messages_routed,
                s.quanta,
                s.peak_queue_depth,
                s.sessions_batched,
                s.sessions_slab,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                    sessions_restarted: 0,
                    sessions_stalled: 0,
                    messages_routed: 10,
                    actions_executed: 20,
                    quanta: 5,
                    peak_queue_depth: 2,
                    sessions_batched: 2,
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
                    sessions_restarted: 0,
                    sessions_stalled: 0,
                    messages_routed: 6,
                    actions_executed: 12,
                    quanta: 4,
                    peak_queue_depth: 1,
                    sessions_batched: 4,
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
        assert!((report.mean_cohort_width() - 3.0).abs() < 1e-9);
        let text = report.to_string();
        assert!(text.contains("7 sessions started"), "{text}");
        assert!(text.contains("shard 1"), "{text}");
        assert!(text.contains("6 batched / 1 slab"), "{text}");
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
        assert!(text.contains("0 sessions started"), "{text}");
        assert!(text.contains("mean cohort width 0.0"), "{text}");

        // A shard that ran but never formed a cohort (pure slab traffic):
        // the width ratio must stay defined.
        let slab_only = ServerReport {
            shards: vec![ShardReport {
                shard: 0,
                sessions_started: 5,
                sessions_completed: 5,
                sessions_violated: 0,
                sessions_quarantined: 0,
                sessions_restarted: 0,
                sessions_stalled: 0,
                messages_routed: 15,
                actions_executed: 30,
                quanta: 5,
                peak_queue_depth: 1,
                sessions_batched: 0,
                sessions_slab: 5,
                sessions_demoted: 0,
                batch_cohorts: 0,
                batch_cohort_sessions: 0,
            }],
            obs: ObsReport::default(),
        };
        assert_eq!(slab_only.mean_cohort_width(), 0.0);
        assert!(slab_only.to_string().contains("mean cohort width 0.0"));
    }

    #[test]
    fn net_report_displays_per_code_rejects_and_io_pass_percentiles() {
        let metrics = NetMetrics::default();
        metrics.record_reject(RejectCode::Overloaded);
        metrics.record_reject(RejectCode::Overloaded);
        metrics.record_reject(RejectCode::BadFrame);
        metrics.record_reject(RejectCode::UnknownProtocol);
        metrics.record_reject(RejectCode::ConnectionLimit);
        metrics.record_reject(RejectCode::SessionLimit);
        metrics.record_reject(RejectCode::ShuttingDown);
        metrics.record_reject(RejectCode::Quarantined);
        metrics.record_reject(RejectCode::Banned);
        metrics.record_reject(RejectCode::Banned);
        let report = metrics.snapshot();
        assert_eq!(
            report.rejects,
            RejectCounts {
                unknown_protocol: 1,
                connection_limit: 1,
                session_limit: 1,
                overloaded: 2,
                bad_frame: 1,
                shutting_down: 1,
                quarantined: 1,
                banned: 2,
            }
        );
        assert_eq!(report.rejects.total(), 10);
        assert!(report.to_string().contains("2 banned"));
        let text = report.to_string();
        assert!(text.contains("2 overloaded"), "{text}");
        assert!(text.contains("1 bad-frame"), "{text}");
        assert!(text.contains("io pass ns"), "{text}");
    }
}
