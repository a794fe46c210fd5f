//! The event-driven networked serving plane: sessions over real sockets.
//!
//! [`NetServer`] puts the in-memory [`SessionServer`] behind a TCP front
//! door. One IO thread owns a non-blocking listener and every client
//! connection — no thread per connection, no parked accepts. Clients speak
//! the framed wire protocol of [`zooid_runtime::wire`]: each frame is a
//! `u32` length prefix (capped — hostile lengths are structured errors, not
//! allocations) followed by a [`MuxFrame`], and many sessions share one
//! connection through client-chosen session ids echoed on every response.
//!
//! # The IO loop
//!
//! One *pass* of the loop is: accept pending connections (bounded), pump
//! every live connection's socket once into its [`FrameReader`] (a single
//! non-blocking `fill`, whose [`FillStatus`] says whether the socket was
//! empty, had bytes or is closed — there is no separate readiness probe)
//! and act on every complete frame, then drain finished sessions into
//! `Done` frames, flush the write buffers and reap dead connections. Each
//! complete `Open` frame is an admission decision and — when admitted — a
//! [`SessionSpec`] submitted to the shard scheduler. Sockets, admissions and
//! completions all interleave on the one loop thread.
//!
//! A pass that finds work is followed by another at once. Only when a pass
//! found no work on its sockets and its predecessor found none at all does
//! the loop block — in exactly one place, between reading the sockets and
//! draining outcomes, and always *for* something:
//!
//! * with sessions in flight it waits on the scheduler's outcome channel, so
//!   a shard flushing finished sessions wakes the loop immediately and the
//!   outcome that woke it is drained and flushed as a `Done` frame by the
//!   same pass — no timer sits between a finished session and its client;
//! * with nothing in flight it sleeps.
//!
//! Either way the wait is bounded by a slice that starts at 100 µs, doubles
//! per idle pass up to 1 ms and is reset by any progress. The slice is what
//! bounds the one thing nothing can wake the loop for without an OS selector
//! (`forbid(unsafe_code)` and the hermetic build rule out `epoll`/`mio`): a
//! byte arriving on a socket while the loop waits is seen when the slice
//! ends, so an idle server's first-byte latency is at most 1 ms.
//! [`NetReport::io_pass_ns`] records each pass *less* its wait: it reads as
//! IO-thread busy time per pass.
//!
//! # Backpressure and admission control
//!
//! * **Bounded accept queue** — at most `ACCEPTS_PER_SWEEP` connections
//!   are admitted per loop iteration, and a connection beyond
//!   [`NetServerConfig::max_connections`] is refused with a structured
//!   [`RejectCode::ConnectionLimit`] frame before its socket is closed.
//!   The refusal itself is non-blocking: the socket lingers in the loop as
//!   a write-only entry just long enough to flush the frame (bounded by
//!   `MAX_PENDING_REJECTS` sockets and the `REJECT_LINGER` deadline), so a
//!   connect flood at the limit cannot stall live connections.
//! * **Per-connection in-flight cap** — a connection may have at most
//!   [`NetServerConfig::max_inflight_per_conn`] sessions open; further
//!   `Open`s are shed with [`RejectCode::SessionLimit`].
//! * **Bounded write buffers** — a client that triggers response frames
//!   faster than it reads them is disconnected once its userspace write
//!   backlog passes [`NetServerConfig::max_conn_outbuf_bytes`]; a
//!   non-reading hostile client cannot grow server memory without bound.
//! * **Global load shed** — past
//!   [`NetServerConfig::max_inflight_total`] in-flight sessions the server
//!   sheds every `Open` with [`RejectCode::Overloaded`] instead of letting
//!   the shard queues grow without bound.
//! * **Hostile framing** — an oversized length prefix or an undecodable
//!   frame draws one [`RejectCode::BadFrame`] rejection and closes the
//!   connection; the server itself stays healthy (see the counters in
//!   [`NetReport`]).
//! * **Idle reaper** — a connection that never delivers a decodable frame
//!   within [`NetServerConfig::idle_timeout`] is closed with a
//!   [`CloseReason::Idle`] flight event; silent peers cannot hold slots.
//! * **Quarantine teardown** — with
//!   [`NetServerConfig::close_on_quarantine`] set, a session the shards
//!   quarantined also costs its opener the connection: `Done`, then a
//!   [`RejectCode::Quarantined`] rejection, then the close.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zooid_runtime::wire::{
    decode_mux, encode_mux, put_frame, FillStatus, FrameReader, MuxFrame, RejectCode,
    DEFAULT_MAX_FRAME_BYTES,
};
use zooid_runtime::RuntimeError;

use crate::metrics::{NetInstruments, NetReport, NetServerReport, StatsSnapshot};
use crate::obs::{CloseReason, FlightEvent, Incident};
use crate::registry::ProtocolRegistry;
use crate::server::{ServerConfig, SessionServer};
use crate::session::{SessionId, SessionOutcome, SessionSpec};
use crate::{Result, ServerError};

/// Maximum connections admitted in one event-loop sweep: the bounded
/// accept queue. Pending peers stay in the kernel backlog until the next
/// iteration, so a connect storm cannot starve in-flight sessions.
const ACCEPTS_PER_SWEEP: usize = 64;

/// First idle wait once two passes in a row found nothing to do; doubles
/// per further idle pass, reset by any progress.
const MIN_IDLE_WAIT: Duration = Duration::from_micros(100);

/// Longest idle wait: bounds how stale the loop's view of its sockets and
/// pending accepts can get while nothing wakes it.
const MAX_IDLE_WAIT: Duration = Duration::from_millis(1);

/// How long a connection refused at accept time may linger (non-blocking,
/// write-only) so the peer can read its `ConnectionLimit` rejection before
/// the close.
const REJECT_LINGER: Duration = Duration::from_millis(250);

/// Cap on simultaneously lingering refused connections: a connect flood at
/// the connection limit beyond this is dropped without the courtesy frame
/// instead of tying up loop state.
const MAX_PENDING_REJECTS: usize = 128;

/// How many inbound bytes a closing connection discards per sweep. Reading
/// (and throwing away) the peer's in-flight bytes keeps the final close
/// from turning into a RST that could destroy the queued rejection frame.
const DISCARD_PER_SWEEP: usize = 64 * 1024;

/// One entry of the service catalog: what to run when a client opens a
/// session of a protocol — a [`SessionSpec`], submitted afresh per `Open`
/// ([`SessionSpec::skeleton`] builds the deterministic one).
///
/// The serving plane is a *submission* plane: the server hosts every
/// endpoint of the session on its shards (the endpoints are certified at
/// registration time), and the wire carries session control — open,
/// accept/reject, done — not individual payload messages.
pub type Service = SessionSpec;

/// Configuration of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Address to bind (use port 0 for an ephemeral test port).
    pub addr: SocketAddr,
    /// Shard scheduler configuration for the hosted [`SessionServer`].
    pub server: ServerConfig,
    /// Connections beyond this are refused with `ConnectionLimit`.
    pub max_connections: usize,
    /// Per-connection cap on sessions opened but not yet done; beyond it
    /// `Open`s are shed with `SessionLimit`.
    pub max_inflight_per_conn: usize,
    /// Global cap on in-flight sessions; beyond it `Open`s are shed with
    /// `Overloaded`.
    pub max_inflight_total: usize,
    /// Per-frame payload cap on every connection (default 16 MiB).
    pub max_frame_bytes: usize,
    /// High-water mark on a connection's buffered-but-unflushed outbound
    /// bytes: a client that triggers response frames faster than it reads
    /// them is disconnected when its backlog passes this (default 256 KiB).
    pub max_conn_outbuf_bytes: usize,
    /// A connection that has never delivered a decodable frame is reaped
    /// after this long (default 30 s): a peer that connects and goes
    /// silent cannot hold a slot forever. The deadline is disarmed by the
    /// first decoded frame.
    pub idle_timeout: Duration,
    /// When set, a session quarantined by the shards also tears down the
    /// TCP connection that opened it: the client sees its `Done` frame,
    /// then a [`RejectCode::Quarantined`] rejection, then the close
    /// (default `false` — quarantine stays a scheduler-side containment).
    pub close_on_quarantine: bool,
    /// Reject-then-ban: once a connection has accumulated this many
    /// quarantined sessions (byzantine *strikes*), its further `Open`s are
    /// shed with [`RejectCode::Banned`] — the connection stays up (its
    /// compliant sessions finish and its `Done`/`Stats` traffic still
    /// flows), but it can open nothing new. `0` disables banning
    /// (the default).
    pub ban_after_quarantines: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            server: ServerConfig::default(),
            max_connections: 1024,
            max_inflight_per_conn: 256,
            max_inflight_total: 16 * 1024,
            max_frame_bytes: zooid_runtime::wire::DEFAULT_MAX_FRAME_BYTES,
            max_conn_outbuf_bytes: 256 * 1024,
            idle_timeout: Duration::from_secs(30),
            close_on_quarantine: false,
            ban_after_quarantines: 0,
        }
    }
}

/// One client connection in the event loop.
#[derive(Debug)]
struct NetConn {
    stream: TcpStream,
    reader: FrameReader,
    /// Userspace write buffer: the loop never blocks on a slow reader.
    out: Vec<u8>,
    /// How much of `out` has already reached the socket.
    written: usize,
    /// Sessions opened on this connection and not yet done.
    inflight: usize,
    /// Set when the connection must close once `out` has drained (bad
    /// frame, peer EOF, write backlog over the high-water mark).
    closing: bool,
    /// High-water mark on `out.len() - written`; past it the connection is
    /// aborted instead of buffering without bound.
    outbuf_limit: usize,
    /// True for a connection refused at accept time (over
    /// `max_connections`): it exists only to deliver the rejection frame
    /// and never counts against the connection limit.
    limit_reject: bool,
    /// Why the connection earned its close, for the flight recorder (first
    /// cause wins).
    close_reason: Option<CloseReason>,
    /// The peer closed its write side while this connection was closing.
    peer_eof: bool,
    /// Write half shut down after the last queued byte was flushed.
    fin_sent: bool,
    /// Hard deadline for a refused connection to drain and close.
    linger_until: Option<Instant>,
    /// Reap deadline for a connection that has yet to deliver a decodable
    /// frame; disarmed by the first decoded frame.
    idle_until: Option<Instant>,
    /// Quarantined sessions this connection has opened (byzantine
    /// strikes), for [`NetServerConfig::ban_after_quarantines`].
    strikes: usize,
}

impl NetConn {
    fn new(stream: TcpStream, max_frame_bytes: usize, outbuf_limit: usize) -> Self {
        NetConn {
            stream,
            reader: FrameReader::new(max_frame_bytes),
            out: Vec::new(),
            written: 0,
            inflight: 0,
            closing: false,
            outbuf_limit,
            limit_reject: false,
            close_reason: None,
            peer_eof: false,
            fin_sent: false,
            linger_until: None,
            idle_until: None,
            strikes: 0,
        }
    }

    fn queue(&mut self, frame: &MuxFrame) {
        if self.closing {
            // The connection already earned its close; buffering more for a
            // peer that may never read it would undo the backlog bound.
            return;
        }
        // Control frames are tiny; the cap cannot trip for a compliant
        // server, but keep the single enforcement point anyway.
        let _ = put_frame(
            &mut self.out,
            &encode_mux(frame),
            self.reader.max_frame_bytes(),
        );
        if self.out.len() - self.written > self.outbuf_limit {
            // The peer triggers frames faster than it reads them: abort the
            // connection rather than grow the buffer without bound.
            self.out.truncate(self.written);
            self.close(CloseReason::WriteStalled);
        }
    }

    /// Marks the connection for closing, keeping the first recorded cause.
    fn close(&mut self, reason: CloseReason) {
        self.closing = true;
        self.close_reason.get_or_insert(reason);
    }

    fn pending_out(&self) -> bool {
        self.written < self.out.len()
    }

    /// Reads and discards inbound bytes on a closing connection (bounded
    /// per sweep), so the eventual close does not turn into a RST that
    /// destroys the queued rejection before the peer reads it.
    fn discard_input(&mut self) {
        let mut scratch = [0u8; 4096];
        let mut total = 0usize;
        while total < DISCARD_PER_SWEEP {
            match self.stream.read(&mut scratch) {
                Ok(0) => {
                    self.peer_eof = true;
                    return;
                }
                Ok(n) => total += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.peer_eof = true;
                    return;
                }
            }
        }
    }

    /// Pushes buffered bytes into the socket without blocking. Returns
    /// `false` when the connection died.
    fn flush(&mut self) -> bool {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return false,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => return false,
            }
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
        } else if self.written > 64 * 1024 {
            // Compact so an always-partially-flushed connection cannot grow
            // its buffer without bound.
            self.out.drain(..self.written);
            self.written = 0;
        }
        true
    }
}

/// The networked serving plane: a [`SessionServer`] fronted by one
/// event-driven IO thread speaking the multiplexed wire protocol.
#[derive(Debug)]
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<NetInstruments>,
    handle: Option<JoinHandle<NetServerReport>>,
}

impl NetServer {
    /// Compiles the service catalog, binds the listener and spawns the IO
    /// event loop (which in turn starts the shard scheduler).
    ///
    /// # Errors
    ///
    /// Fails if a service references an unregistered protocol or the bind
    /// fails.
    pub fn start(
        registry: ProtocolRegistry,
        services: impl IntoIterator<Item = Service>,
        config: NetServerConfig,
    ) -> Result<NetServer> {
        let mut catalog: Vec<Option<Service>> = vec![None; registry.len()];
        for service in services {
            let entry = catalog
                .get_mut(service.protocol.index())
                .ok_or(ServerError::UnknownProtocol)?;
            *entry = Some(service);
        }
        let listener = TcpListener::bind(config.addr).map_err(io_err)?;
        listener.set_nonblocking(true).map_err(io_err)?;
        let local_addr = listener.local_addr().map_err(io_err)?;

        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(NetInstruments::default());
        let io = IoLoop {
            listener,
            server: SessionServer::start(registry, config.server.clone()),
            catalog,
            config,
            metrics: Arc::clone(&metrics),
            conns: Vec::new(),
            gens: Vec::new(),
            routes: BTreeMap::new(),
            open_sessions: 0,
            idle_wait: MIN_IDLE_WAIT,
        };
        let loop_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("zooid-net-io".into())
            .spawn(move || io.run(&loop_stop))
            .expect("spawning the IO thread");

        Ok(NetServer {
            local_addr,
            stop,
            metrics,
            handle: Some(handle),
        })
    }

    /// The bound address (with the real port when configured with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshots the IO loop's instruments.
    pub fn net_report(&self) -> NetReport {
        self.metrics.report()
    }

    /// The IO loop's retained flight-recorder events (rejections,
    /// connection closes), oldest first.
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        self.metrics.recorder.snapshot()
    }

    /// Stops the IO loop and the shard scheduler, returning both reports.
    /// In-flight sessions are closed as stalled by the scheduler's own
    /// shutdown; unread client bytes are discarded.
    pub fn shutdown(mut self) -> NetServerReport {
        self.stop.store(true, Ordering::Release);
        let handle = self.handle.take().expect("shutdown runs once");
        handle.join().unwrap_or_else(|_| NetServerReport {
            net: self.metrics.report(),
            shards: crate::ServerReport::default(),
        })
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn io_err(e: std::io::Error) -> ServerError {
    ServerError::Net {
        reason: e.to_string(),
    }
}

/// The IO event loop's state: the listener, the hosted scheduler, and every
/// connection with the routes of its in-flight sessions. Lives on the IO
/// thread; see the module docs for the shape of a pass.
struct IoLoop {
    listener: TcpListener,
    server: SessionServer,
    /// The service of each registered protocol that has one, indexed by
    /// [`ProtocolId`](crate::ProtocolId): the wire carries names, which the
    /// registry resolves.
    catalog: Vec<Option<Service>>,
    config: NetServerConfig,
    metrics: Arc<NetInstruments>,
    conns: Vec<Option<NetConn>>,
    /// Per-slot generation, bumped on every removal: slots are reused, so a
    /// route must name (slot, generation) to prove the connection it was
    /// created for is still the one living there.
    gens: Vec<u64>,
    /// Server-side session id → (connection slot, slot generation,
    /// client-chosen id).
    routes: BTreeMap<SessionId, (usize, u64, u64)>,
    /// Sessions submitted to the scheduler whose outcome has not come back.
    open_sessions: usize,
    /// The next idle wait's bound (see [`IoLoop::wait_idle`]).
    idle_wait: Duration,
}

impl IoLoop {
    /// Runs passes until `stop` is set, then says goodbye to the lingering
    /// clients and stops the scheduler.
    fn run(mut self, stop: &AtomicBool) -> NetServerReport {
        // Eager first passes; after that, wait only once a pass and its
        // predecessor found nothing to do — on small machines a spinning IO
        // thread starves the very shards it is waiting on.
        let mut prev_progress = true;
        while !stop.load(Ordering::Acquire) {
            let pass_started = Instant::now();
            let mut progress = self.accept();
            progress |= self.read_sockets();
            let (woke, waited) = if progress || prev_progress {
                (None, Duration::ZERO)
            } else {
                self.wait_idle()
            };
            progress |= self.drain_outcomes(woke);
            self.flush_and_reap();
            if progress {
                self.idle_wait = MIN_IDLE_WAIT;
            }
            prev_progress = progress;
            // Less the wait: the histogram is work, not sleep.
            let busy = pass_started.elapsed().saturating_sub(waited);
            self.metrics
                .io_pass_ns
                .record(u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX));
        }

        // Shutdown: tell the lingering clients, then stop the scheduler
        // (which closes in-flight sessions as stalled).
        for (slot, conn) in self.conns.iter_mut().enumerate() {
            let Some(conn) = conn else { continue };
            self.metrics.record_reject(RejectCode::ShuttingDown);
            conn.queue(&MuxFrame::Rejected {
                session: 0,
                code: RejectCode::ShuttingDown,
                reason: "server shutting down".into(),
            });
            let _ = conn.flush();
            self.metrics.recorder.record(FlightEvent::ConnClosed {
                client: slot as u64,
                reason: CloseReason::Shutdown,
            });
        }
        let shards = self.server.shutdown();
        NetServerReport {
            net: self.metrics.report(),
            shards,
        }
    }

    /// The one place the loop blocks: for at most the current slice, on the
    /// scheduler's outcome channel when sessions are in flight — a shard's
    /// flush ends the wait at once, and the outcome it hands back is the
    /// first this pass delivers — and asleep when none are. The slice
    /// doubles up to [`MAX_IDLE_WAIT`]; progress resets it. Returns how
    /// long it waited, for the pass to leave out of its duration.
    fn wait_idle(&mut self) -> (Option<SessionOutcome>, Duration) {
        let started = Instant::now();
        let outcome = if self.open_sessions > 0 {
            self.server.next_outcome(self.idle_wait)
        } else {
            None
        };
        if outcome.is_none() {
            // Nothing in flight — or the channel gave up early, which it
            // does once every shard worker is gone: sit out what is left of
            // the slice, so an idle pass never turns into a spin.
            if let Some(rest) = self.idle_wait.checked_sub(started.elapsed()) {
                std::thread::sleep(rest);
            }
        }
        self.idle_wait = (self.idle_wait * 2).min(MAX_IDLE_WAIT);
        (outcome, started.elapsed())
    }

    /// Admits new connections (bounded per sweep).
    fn accept(&mut self) -> bool {
        let mut progress = false;
        for _ in 0..ACCEPTS_PER_SWEEP {
            let Ok((stream, _)) = self.listener.accept() else {
                break;
            };
            progress = true;
            let (max_frame, max_outbuf) = (
                self.config.max_frame_bytes,
                self.config.max_conn_outbuf_bytes,
            );
            let active = self.conns.iter().flatten().filter(|c| !c.limit_reject);
            if active.count() >= self.config.max_connections {
                self.metrics
                    .connections_rejected
                    .fetch_add(1, Ordering::Relaxed);
                self.metrics.record_reject(RejectCode::ConnectionLimit);
                self.metrics.recorder.record(FlightEvent::Rejected {
                    session: 0,
                    code: RejectCode::ConnectionLimit,
                });
                let pending = self.conns.iter().flatten().filter(|c| c.limit_reject);
                if pending.count() >= MAX_PENDING_REJECTS || stream.set_nonblocking(true).is_err() {
                    // Flooded: drop without the courtesy frame.
                    continue;
                }
                // Refuse non-blockingly: a short-lived write-only entry in
                // the loop delivers the rejection; a blocking
                // write-and-drain here could stall every live connection
                // through a connect flood.
                let mut conn = NetConn::new(stream, max_frame, max_outbuf);
                conn.queue(&MuxFrame::Rejected {
                    session: 0,
                    code: RejectCode::ConnectionLimit,
                    reason: "connection limit reached".into(),
                });
                conn.close(CloseReason::LingerExpired);
                conn.limit_reject = true;
                conn.linger_until = Some(Instant::now() + REJECT_LINGER);
                self.install(conn);
                continue;
            }
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            self.metrics
                .connections_accepted
                .fetch_add(1, Ordering::Relaxed);
            let mut conn = NetConn::new(stream, max_frame, max_outbuf);
            conn.idle_until = Some(Instant::now() + self.config.idle_timeout);
            self.install(conn);
        }
        progress
    }

    /// Installs a connection into the first free slot (or a new one),
    /// keeping the per-slot generation vector in step with the slot vector.
    fn install(&mut self, conn: NetConn) {
        match self.conns.iter_mut().find(|c| c.is_none()) {
            Some(slot) => *slot = Some(conn),
            None => {
                self.conns.push(Some(conn));
                self.gens.push(0);
            }
        }
    }

    /// Pumps every connection's socket once and acts on its frames.
    fn read_sockets(&mut self) -> bool {
        let mut progress = false;
        for slot in 0..self.conns.len() {
            // Out of its slot while its frames are handled, so admission
            // can use the rest of the loop's state alongside it.
            let Some(mut conn) = self.conns[slot].take() else {
                continue;
            };
            progress |= self.read_conn(slot, &mut conn);
            self.conns[slot] = Some(conn);
        }
        progress
    }

    /// One non-blocking fill of one connection, then every complete frame
    /// that is now buffered. Returns whether the socket had anything.
    fn read_conn(&mut self, slot: usize, conn: &mut NetConn) -> bool {
        if conn.closing {
            // Still read (and discard) so the close stays graceful.
            conn.discard_input();
            return false;
        }
        let fill = conn.reader.fill(&mut conn.stream);
        if matches!(fill, Ok(FillStatus::WouldBlock)) {
            return false;
        }
        let mut hostile: Option<String> = None;
        loop {
            match conn.reader.next_frame() {
                Ok(Some(payload)) => match decode_mux(&payload) {
                    Ok(frame) => {
                        self.metrics.frames_read.fetch_add(1, Ordering::Relaxed);
                        // A decodable frame proves the peer is live: disarm
                        // the idle reaper for good.
                        conn.idle_until = None;
                        self.on_frame(slot, conn, frame);
                    }
                    Err(e) => {
                        hostile = Some(e.to_string());
                        break;
                    }
                },
                Ok(None) => break,
                Err(e) => {
                    // Oversized length prefix: poisoned reader.
                    hostile = Some(e.to_string());
                    break;
                }
            }
        }
        match (hostile, fill) {
            (Some(reason), _) => self.bad_frame(conn, reason),
            (None, Ok(FillStatus::Eof)) if conn.reader.pending_bytes() > 0 => {
                // The peer left mid-frame.
                self.metrics.bad_frames.fetch_add(1, Ordering::Relaxed);
                conn.close(CloseReason::BadFrame);
            }
            (None, Ok(FillStatus::Eof) | Err(_)) => conn.close(CloseReason::PeerClosed),
            (None, Ok(_)) => {}
        }
        true
    }

    /// Queues a `Rejected` frame on `conn` and accounts for it: the
    /// per-code counter, the flight recorder, the written-frame count.
    fn reject(&self, conn: &mut NetConn, session: u64, code: RejectCode, reason: String) {
        self.metrics.record_reject(code);
        self.metrics
            .recorder
            .record(FlightEvent::Rejected { session, code });
        conn.queue(&MuxFrame::Rejected {
            session,
            code,
            reason,
        });
        self.metrics.frames_written.fetch_add(1, Ordering::Relaxed);
    }

    /// A protocol error costs the connection: one `BadFrame` rejection,
    /// then the close.
    fn bad_frame(&self, conn: &mut NetConn, reason: String) {
        self.metrics.bad_frames.fetch_add(1, Ordering::Relaxed);
        self.reject(conn, 0, RejectCode::BadFrame, reason);
        conn.close(CloseReason::BadFrame);
    }

    /// Acts on one decoded client frame: an `Open` is an admission
    /// decision, a `Stats` a snapshot, anything else a protocol error.
    fn on_frame(&mut self, slot: usize, conn: &mut NetConn, frame: MuxFrame) {
        match frame {
            MuxFrame::Open { session, protocol } => {
                if let Err((code, reason)) = self.admit(slot, conn, session, &protocol) {
                    self.reject(conn, session, code, reason);
                }
            }
            MuxFrame::Stats { session } => {
                // Live introspection: ship the whole observability bundle —
                // IO counters, shard report with histograms, incident
                // summaries — as one codec-serialized value.
                let stats = StatsSnapshot {
                    net: self.metrics.report(),
                    shards: self.server.report(),
                    incidents: self
                        .server
                        .incidents()
                        .iter()
                        .map(Incident::summary)
                        .collect(),
                };
                conn.queue(&MuxFrame::StatsReply {
                    session,
                    stats: stats.to_value(),
                });
                self.metrics.frames_written.fetch_add(1, Ordering::Relaxed);
            }
            _ => self.bad_frame(
                conn,
                "only Open and Stats frames may be sent by clients".into(),
            ),
        }
    }

    /// Admission control for one `Open`: submits the session and queues its
    /// `Accepted`, or says with which code and why it is refused.
    fn admit(
        &mut self,
        slot: usize,
        conn: &mut NetConn,
        session: u64,
        protocol: &str,
    ) -> std::result::Result<(), (RejectCode, String)> {
        let (rejected, shed) = (&self.metrics.sessions_rejected, &self.metrics.sessions_shed);
        let config = &self.config;
        if config.ban_after_quarantines > 0 && conn.strikes >= config.ban_after_quarantines {
            // Reject-then-ban: the connection has spent its byzantine-strike
            // budget; its in-flight sessions finish but nothing new is
            // admitted from it.
            rejected.fetch_add(1, Ordering::Relaxed);
            return Err((
                RejectCode::Banned,
                format!(
                    "connection banned after {} quarantined sessions",
                    conn.strikes
                ),
            ));
        }
        let id = self.server.registry().lookup(protocol);
        let Some(service) = id.and_then(|id| self.catalog[id.index()].as_ref()) else {
            rejected.fetch_add(1, Ordering::Relaxed);
            return Err((
                RejectCode::UnknownProtocol,
                format!("no service registered for `{protocol}`"),
            ));
        };
        if conn.inflight >= config.max_inflight_per_conn {
            shed.fetch_add(1, Ordering::Relaxed);
            return Err((
                RejectCode::SessionLimit,
                format!(
                    "connection already has {} sessions in flight",
                    conn.inflight
                ),
            ));
        }
        if self.open_sessions >= config.max_inflight_total {
            shed.fetch_add(1, Ordering::Relaxed);
            return Err((
                RejectCode::Overloaded,
                format!("server has {} sessions in flight", self.open_sessions),
            ));
        }

        match self.server.submit(service.clone()) {
            Ok(id) => {
                self.routes.insert(id, (slot, self.gens[slot], session));
                conn.inflight += 1;
                self.open_sessions += 1;
                self.metrics.sessions_opened.fetch_add(1, Ordering::Relaxed);
                conn.queue(&MuxFrame::Accepted { session });
                self.metrics.frames_written.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                rejected.fetch_add(1, Ordering::Relaxed);
                Err((RejectCode::ShuttingDown, e.to_string()))
            }
        }
    }

    /// Turns finished sessions into `Done` frames: first the outcome that
    /// ended the idle wait (if one did), then whatever else the shards have
    /// flushed.
    fn drain_outcomes(&mut self, woke: Option<SessionOutcome>) -> bool {
        let mut next = woke.or_else(|| self.server.try_next_outcome());
        let progress = next.is_some();
        while let Some(outcome) = next {
            self.deliver(outcome);
            next = self.server.try_next_outcome();
        }
        progress
    }

    /// Routes one outcome back to the connection that opened its session.
    fn deliver(&mut self, outcome: SessionOutcome) {
        self.open_sessions = self.open_sessions.saturating_sub(1);
        let Some((slot, gen, client_id)) = self.routes.remove(&outcome.id) else {
            return;
        };
        if self.gens[slot] != gen {
            // The opening connection died and its slot was reused: the
            // unrelated client living there now must not see this outcome
            // or have its admission counter touched.
            return;
        }
        let Some(mut conn) = self.conns[slot].take() else {
            // The owning connection died while the session ran.
            return;
        };
        conn.inflight = conn.inflight.saturating_sub(1);
        let actions: u64 = outcome
            .endpoints
            .values()
            .map(|r| r.actions.len() as u64)
            .sum();
        conn.queue(&MuxFrame::Done {
            session: client_id,
            compliant: outcome.compliant,
            complete: outcome.complete,
            stalled: outcome.stalled,
            violations: outcome.violations.len().min(u32::MAX as usize) as u32,
            actions,
        });
        self.metrics.frames_written.fetch_add(1, Ordering::Relaxed);
        self.metrics.sessions_done.fetch_add(1, Ordering::Relaxed);
        if outcome.quarantined {
            // A byzantine strike against the opening connection, for the
            // reject-then-ban admission check.
            conn.strikes += 1;
            if self.config.close_on_quarantine {
                // Quarantine escalates to the transport: the opener reads
                // its Done, a structured rejection, then EOF.
                let reason = "session quarantined by monitor";
                self.reject(&mut conn, client_id, RejectCode::Quarantined, reason.into());
                conn.close(CloseReason::Quarantined);
            }
        }
        self.conns[slot] = Some(conn);
    }

    /// Flushes write buffers; reaps idle, drained-and-closing and dead
    /// connections.
    fn flush_and_reap(&mut self) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if !conn.closing && conn.idle_until.is_some_and(|t| now >= t) {
                // Accepted, never sent a decodable frame, deadline hit:
                // reap the slot.
                conn.close(CloseReason::Idle);
            }
            let alive = conn.flush();
            if alive && conn.limit_reject && !conn.pending_out() && !conn.fin_sent {
                // The rejection is flushed: half-close so a peer reading to
                // EOF finishes promptly; the socket itself lives until the
                // peer closes or the linger deadline fires.
                let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                conn.fin_sent = true;
            }
            let lingering = !conn.peer_eof && conn.linger_until.is_some_and(|t| now < t);
            if !alive || (conn.closing && !conn.pending_out() && !lingering) {
                if !conn.limit_reject {
                    self.metrics
                        .connections_closed
                        .fetch_add(1, Ordering::Relaxed);
                }
                self.metrics.recorder.record(FlightEvent::ConnClosed {
                    client: slot as u64,
                    reason: conn.close_reason.unwrap_or(CloseReason::PeerClosed),
                });
                self.conns[slot] = None;
                self.gens[slot] = self.gens[slot].wrapping_add(1);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// The longest one blocking read of [`NetClient::poll_event`] may sit in the
/// kernel before the deadline is looked at again.
const CLIENT_READ_SLICE: Duration = Duration::from_millis(20);

/// Buffered `Open`s go out on their own once they pass this many bytes.
const CLIENT_WRITE_BUFFER: usize = 16 * 1024;

/// Stack buffer of one client `read`: a full window of `Accepted` and
/// `Done` frames (39 bytes a session) fits in one wake.
const CLIENT_READ_CHUNK: usize = 8 * 1024;

/// A blocking client for the multiplexed serving plane: open many sessions
/// over one connection and poll their events.
///
/// # Write coalescing
///
/// [`NetClient::open`] does not touch the socket: it appends its `Open`
/// frame to a small write buffer, so a burst of opens — say, one
/// replacement per `Done` of the last wake — costs one `write` and one
/// packet, not one each. The buffered bytes leave in one `write_all`
///
/// * when [`NetClient::poll_event`] (also inside [`NetClient::open_with`]
///   and [`NetClient::fetch_stats`]) has handed out every frame it already
///   holds and goes to the socket for more — the client never blocks in a
///   read with unsent bytes behind it,
/// * by themselves once the buffer passes 16 KiB,
/// * on an explicit [`NetClient::flush`], and
/// * best-effort when the client is dropped.
///
/// A write error is therefore *deferred*: it surfaces on the call that
/// flushes, not on the `open` that queued the frame (a drop discards it).
/// Call [`NetClient::flush`] to have sessions start without polling for
/// their events yet.
///
/// # Reading
///
/// [`NetClient::poll_event`] hands out buffered frames first and otherwise
/// issues one blocking `read` per wake, returning as soon as that read
/// completes a frame — it never goes back to the socket to see whether more
/// is there, so it never sits out a read timeout with a frame in hand.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    reader: FrameReader,
    next_session: u64,
    /// Frames queued by `open`/`fetch_stats` and not yet written.
    out: Vec<u8>,
    /// The read timeout the socket is currently armed with.
    read_timeout: Duration,
}

impl NetClient {
    /// Connects to a [`NetServer`].
    ///
    /// # Errors
    ///
    /// Fails if the TCP connect fails.
    pub fn connect(addr: SocketAddr) -> zooid_runtime::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_READ_SLICE))?;
        Ok(NetClient {
            stream,
            reader: FrameReader::new(DEFAULT_MAX_FRAME_BYTES),
            next_session: 1,
            out: Vec::new(),
            read_timeout: CLIENT_READ_SLICE,
        })
    }

    /// Queues an `Open` for the named protocol, returning the client-side
    /// session id to correlate later events with. The frame is buffered
    /// (see the type docs for when it leaves).
    ///
    /// # Errors
    ///
    /// Fails if the frame is over the cap, or if this `Open` filled the
    /// write buffer and writing it out failed.
    pub fn open(&mut self, protocol: &str) -> zooid_runtime::Result<u64> {
        let session = self.next_id();
        self.queue(&MuxFrame::Open {
            session,
            protocol: protocol.to_owned(),
        })?;
        Ok(session)
    }

    /// Writes every buffered frame to the socket in one `write_all`.
    ///
    /// # Errors
    ///
    /// Fails if the write fails; the buffered frames are dropped with it
    /// (the connection is broken).
    pub fn flush(&mut self) -> zooid_runtime::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        Ok(written?)
    }

    fn next_id(&mut self) -> u64 {
        let session = self.next_session;
        self.next_session += 1;
        session
    }

    fn queue(&mut self, frame: &MuxFrame) -> zooid_runtime::Result<()> {
        put_frame(&mut self.out, &encode_mux(frame), DEFAULT_MAX_FRAME_BYTES)?;
        if self.out.len() >= CLIENT_WRITE_BUFFER {
            self.flush()?;
        }
        Ok(())
    }

    /// Sends an `Open` and waits up to `timeout` for the admission verdict,
    /// returning the client-side session id once the server `Accepted` it.
    ///
    /// Unlike [`NetClient::open`] + [`NetClient::poll_event`] by hand,
    /// every failure mode is a structured error: a rejection maps to
    /// [`RuntimeError::Codec`] naming the reject code, server silence past
    /// `timeout` maps to [`RuntimeError::Timeout`], and a connection the
    /// server closes mid-wait surfaces as [`RuntimeError::Disconnected`]
    /// (never a silent `None`). Frames for other sessions that arrive while
    /// waiting are decoded and discarded, as with
    /// [`NetClient::fetch_stats`].
    ///
    /// # Errors
    ///
    /// Fails on connection loss, malformed server frames, rejection, or
    /// admission silence past `timeout`.
    pub fn open_with(&mut self, protocol: &str, timeout: Duration) -> zooid_runtime::Result<u64> {
        let session = self.open(protocol)?;
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.poll_event(remaining)? {
                Some(MuxFrame::Accepted { session: reply }) if reply == session => {
                    return Ok(session);
                }
                Some(MuxFrame::Rejected {
                    session: reply,
                    code,
                    reason,
                }) if reply == session || reply == 0 => {
                    return Err(RuntimeError::Codec {
                        reason: format!("open rejected ({code}): {reason}"),
                    });
                }
                Some(_) => {}
                None => {
                    return Err(RuntimeError::Timeout {
                        from: zooid_mpst::Role::new("server"),
                    });
                }
            }
        }
    }

    /// Pulls the server's live observability bundle — IO counters and
    /// pass-duration histogram, the merged shard report with latency
    /// histograms, and recent incident summaries — over the wire.
    ///
    /// Frames for other sessions that arrive while waiting are decoded and
    /// discarded; interleave stats pulls with session traffic on a
    /// dedicated connection when every `Done` matters.
    ///
    /// Returns `Ok(None)` when the server stays silent past `timeout`.
    ///
    /// # Errors
    ///
    /// Fails on connection loss, malformed server frames, or a stats
    /// payload that does not decode as a [`StatsSnapshot`].
    pub fn fetch_stats(
        &mut self,
        timeout: Duration,
    ) -> zooid_runtime::Result<Option<StatsSnapshot>> {
        let session = self.next_id();
        self.queue(&MuxFrame::Stats { session })?;
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.poll_event(remaining)? {
                Some(MuxFrame::StatsReply {
                    session: reply,
                    stats,
                }) if reply == session => {
                    let snapshot =
                        StatsSnapshot::from_value(&stats).ok_or(RuntimeError::Codec {
                            reason: "malformed stats payload".into(),
                        })?;
                    return Ok(Some(snapshot));
                }
                Some(_) => {}
                None => return Ok(None),
            }
        }
    }

    /// Hands out the next server frame (`Accepted`/`Rejected`/`Done`): one
    /// already buffered if there is one, else — after writing out anything
    /// [`NetClient::open`] queued — whatever arrives within `timeout`,
    /// returning `Ok(None)` on silence. A zero `timeout` still hands out a
    /// frame that is already buffered or already in the socket.
    ///
    /// # Errors
    ///
    /// Fails on connection loss (including a deferred write error, see the
    /// type docs) or malformed server frames.
    pub fn poll_event(&mut self, timeout: Duration) -> zooid_runtime::Result<Option<MuxFrame>> {
        if let Some(frame) = self.buffered_frame()? {
            return Ok(Some(frame));
        }
        self.flush()?;
        let deadline = Instant::now() + timeout;
        let mut chunk = [0u8; CLIENT_READ_CHUNK];
        // Each turn is one read; a turn follows another only while no frame
        // is complete yet — never after a read that completed one.
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.read_once(&mut chunk, remaining) {
                Ok(0) => {
                    // No complete frame is buffered here: those were handed
                    // out before the socket was touched.
                    if self.reader.pending_bytes() > 0 {
                        return Err(RuntimeError::Codec {
                            reason: "server disconnected mid-frame".into(),
                        });
                    }
                    return Err(RuntimeError::Disconnected {
                        role: zooid_mpst::Role::new("server"),
                    });
                }
                Ok(n) => {
                    self.reader.extend(&chunk[..n]);
                    if let Some(frame) = self.buffered_frame()? {
                        return Ok(Some(frame));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                }
                Err(e) => return Err(RuntimeError::Io(e)),
            }
        }
    }

    /// Pops and decodes the next frame that is already buffered whole.
    fn buffered_frame(&mut self) -> zooid_runtime::Result<Option<MuxFrame>> {
        let payload = self.reader.next_frame()?;
        payload.map(|payload| decode_mux(&payload)).transpose()
    }

    /// One `read`, blocking for at most `min(remaining, 20 ms)`. The
    /// socket's timeout is re-armed only when that value changes; std
    /// rejects a zero timeout, so a spent deadline gets a single
    /// non-blocking attempt instead.
    fn read_once(&mut self, chunk: &mut [u8], remaining: Duration) -> std::io::Result<usize> {
        if remaining.is_zero() {
            self.stream.set_nonblocking(true)?;
            let read = self.stream.read(chunk);
            self.stream.set_nonblocking(false)?;
            return read;
        }
        let timeout = remaining.min(CLIENT_READ_SLICE);
        if timeout != self.read_timeout {
            self.stream.set_read_timeout(Some(timeout))?;
            self.read_timeout = timeout;
        }
        self.stream.read(chunk)
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        // Best effort: sessions opened but never polled for still start.
        let _ = self.flush();
    }
}
