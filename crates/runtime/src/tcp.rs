//! TCP transport with `Server`/`Client` connection specifications (§4.5).
//!
//! The paper's runtime asks each participant for a `conn_desc list`: for
//! every peer, either wait for a connection (`Server addr`) or initiate one
//! (`Client addr`). [`TcpTransport::connect`] implements the same handshake
//! — and honours `connect_timeout` on **both** arms, so a never-arriving
//! peer is an error, not a hung `accept`.
//!
//! Frames are the [`codec`](crate::codec) encoding preceded by a big-endian
//! `u32` length. The receive path is hardened against hostile framing:
//!
//! * the length header is checked against a configurable
//!   [`max_frame_bytes`](TcpTransport::set_max_frame_bytes) cap *before*
//!   any body byte is buffered — a wire-controlled 4 GiB length yields
//!   [`RuntimeError::FrameTooLarge`], never a 4 GiB allocation;
//! * a peer that disconnects mid-frame yields a structured
//!   [`RuntimeError::Codec`] (complete silence on an empty buffer is
//!   [`RuntimeError::Disconnected`]);
//! * blocking [`Transport::recv`] is a deadline loop (default 30 s,
//!   configurable via [`TcpTransport::set_recv_timeout`]) that returns
//!   [`RuntimeError::Timeout`] instead of parking forever;
//! * a send that fails after a *partial* write poisons the peer connection
//!   — a half-written frame cannot be resynchronised, so every later
//!   `send`/`recv` on that peer returns a structured [`RuntimeError::Codec`]
//!   instead of emitting bytes the peer would parse as garbage mid-frame.
//!
//! All streams run in non-blocking mode from the moment the transport owns
//! them, which is what makes [`Transport::try_recv`] genuinely
//! non-blocking here: it pumps whatever bytes the socket has into a
//! [`FrameReader`] (partial frames persist across
//! calls) and returns `Ok(None)` on an empty socket — so the poll-based
//! executor's `WouldBlock` contract holds over real sockets exactly as it
//! does in memory.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use zooid_mpst::{Label, Role};
use zooid_proc::Value;

use crate::codec::{decode_message, encode_message, Message};
use crate::error::{Result, RuntimeError};
use crate::transport::Transport;
use crate::wire::{put_frame, FillStatus, FrameReader, DEFAULT_MAX_FRAME_BYTES};

/// Default deadline for blocking receives (and non-blocking sends that
/// cannot drain into the socket buffer).
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// Sleep slice while a blocking operation waits for socket readiness.
const WAIT_SLICE: Duration = Duration::from_micros(200);

/// How to establish the connection towards one peer (the paper's
/// `connection_spec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionSpec {
    /// Bind the address and wait for the peer to connect.
    Server(SocketAddr),
    /// Connect to the peer's address (retrying until it is up or the
    /// timeout elapses).
    Client(SocketAddr),
}

/// The connection description for one peer (the paper's `conn_desc`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnDesc {
    /// The peer this entry connects to.
    pub role_to: Role,
    /// How to reach it.
    pub spec: ConnectionSpec,
}

impl ConnDesc {
    /// Creates a server-side entry: wait for `role_to` on `addr`.
    pub fn server(role_to: Role, addr: SocketAddr) -> Self {
        ConnDesc {
            role_to,
            spec: ConnectionSpec::Server(addr),
        }
    }

    /// Creates a client-side entry: connect to `role_to` at `addr`.
    pub fn client(role_to: Role, addr: SocketAddr) -> Self {
        ConnDesc {
            role_to,
            spec: ConnectionSpec::Client(addr),
        }
    }
}

/// One peer: a non-blocking stream plus the incremental frame parser that
/// buffers partial frames across `try_recv` calls.
#[derive(Debug)]
struct PeerConn {
    stream: TcpStream,
    reader: FrameReader,
    /// Set once a send died with part of a frame already on the wire: the
    /// peer's framing can never be resynchronised (mirroring
    /// [`FrameReader`]'s poisoning on the receive side), so every later
    /// operation on this peer re-reports a structured error instead of
    /// emitting bytes the peer will parse as garbage mid-frame.
    poisoned: bool,
}

/// A TCP transport: one framed stream per peer.
#[derive(Debug)]
pub struct TcpTransport {
    me: Role,
    streams: BTreeMap<Role, PeerConn>,
    max_frame_bytes: usize,
    recv_timeout: Duration,
}

impl TcpTransport {
    /// Establishes connections to every peer according to the given
    /// descriptions, exactly like the paper's `execute_extracted_process`
    /// does before running the endpoint.
    ///
    /// Both arms honour `connect_timeout`: `Client` entries retry until the
    /// peer's socket is up, and `Server` entries wait for the peer to
    /// arrive on a non-blocking listener — either way a missing peer is a
    /// [`RuntimeError::Timeout`], never an indefinite hang.
    ///
    /// # Errors
    ///
    /// Fails if a bind, accept or connect fails (after retries) or the
    /// deadline elapses first.
    pub fn connect(me: Role, descs: &[ConnDesc], connect_timeout: Duration) -> Result<Self> {
        let mut streams = BTreeMap::new();
        for desc in descs {
            let deadline = Instant::now() + connect_timeout;
            let stream = match desc.spec {
                ConnectionSpec::Server(addr) => {
                    let listener = TcpListener::bind(addr)?;
                    listener.set_nonblocking(true)?;
                    loop {
                        match listener.accept() {
                            Ok((stream, _)) => break stream,
                            Err(e)
                                if e.kind() == std::io::ErrorKind::WouldBlock
                                    || e.kind() == std::io::ErrorKind::Interrupted =>
                            {
                                if Instant::now() >= deadline {
                                    return Err(RuntimeError::Timeout {
                                        from: desc.role_to.clone(),
                                    });
                                }
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Err(e) => return Err(e.into()),
                        }
                    }
                }
                ConnectionSpec::Client(addr) => loop {
                    match TcpStream::connect(addr) {
                        Ok(stream) => break stream,
                        Err(e) if Instant::now() >= deadline => return Err(e.into()),
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                },
            };
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            streams.insert(
                desc.role_to.clone(),
                PeerConn {
                    stream,
                    reader: FrameReader::new(DEFAULT_MAX_FRAME_BYTES),
                    poisoned: false,
                },
            );
        }
        Ok(TcpTransport {
            me,
            streams,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            recv_timeout: DEFAULT_RECV_TIMEOUT,
        })
    }

    /// Builds a transport from already-established streams (useful for tests
    /// and for embedding into other connection managers).
    ///
    /// The streams are switched to non-blocking mode — all framing here runs
    /// over readiness-polled sockets.
    pub fn from_streams(me: Role, streams: BTreeMap<Role, TcpStream>) -> Self {
        let streams = streams
            .into_iter()
            .map(|(role, stream)| {
                // Best-effort: a dead socket will surface on first use.
                let _ = stream.set_nonblocking(true);
                (
                    role,
                    PeerConn {
                        stream,
                        reader: FrameReader::new(DEFAULT_MAX_FRAME_BYTES),
                        poisoned: false,
                    },
                )
            })
            .collect();
        TcpTransport {
            me,
            streams,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            recv_timeout: DEFAULT_RECV_TIMEOUT,
        }
    }

    /// Caps the size of a single frame in both directions (default 16 MiB).
    ///
    /// Receives reject a larger announced length from the 4-byte header
    /// alone; sends refuse to emit a frame the peer would reject.
    pub fn set_max_frame_bytes(&mut self, max: usize) {
        self.max_frame_bytes = max;
        for conn in self.streams.values_mut() {
            conn.reader.set_max_frame_bytes(max);
        }
    }

    /// Sets the deadline for blocking receives (default 30 s).
    pub fn set_recv_timeout(&mut self, timeout: Duration) {
        self.recv_timeout = timeout;
    }

    fn conn_mut(&mut self, role: &Role) -> Result<&mut PeerConn> {
        self.streams
            .get_mut(role)
            .ok_or_else(|| RuntimeError::UnknownPeer { role: role.clone() })
    }

    /// Writes the whole buffer to a non-blocking stream, sleeping through
    /// `WouldBlock` until `deadline`.
    ///
    /// On failure the error carries how many bytes already reached the
    /// socket, so the caller can tell a clean failure (nothing sent) from
    /// one that left a partial frame on the wire.
    fn write_all_deadline(
        stream: &mut TcpStream,
        buf: &[u8],
        deadline: Instant,
        to: &Role,
    ) -> std::result::Result<(), (usize, RuntimeError)> {
        let mut written = 0usize;
        while written < buf.len() {
            match stream.write(&buf[written..]) {
                Ok(0) => {
                    return Err((written, RuntimeError::Disconnected { role: to.clone() }));
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if Instant::now() >= deadline {
                        return Err((written, RuntimeError::Timeout { from: to.clone() }));
                    }
                    std::thread::sleep(WAIT_SLICE);
                }
                Err(e) => return Err((written, e.into())),
            }
        }
        Ok(())
    }

    /// The structured error every operation on a poisoned peer returns.
    fn poisoned_error(role: &Role) -> RuntimeError {
        RuntimeError::Codec {
            reason: format!("connection to `{role}` unusable after an aborted mid-frame send"),
        }
    }

    /// Pops a complete frame from a peer's reader, decoded. `Ok(None)` =
    /// need more bytes.
    fn pop_frame(conn: &mut PeerConn) -> Result<Option<(Label, Value)>> {
        match conn.reader.next_frame()? {
            Some(frame) => {
                let message = decode_message(&frame)?;
                Ok(Some((message.label, message.value)))
            }
            None => Ok(None),
        }
    }

    /// Maps an EOF observed by `fill` to the right structured error: a
    /// partial frame in the buffer means the peer vanished mid-frame.
    fn eof_error(conn: &PeerConn, from: &Role) -> RuntimeError {
        if conn.reader.pending_bytes() > 0 {
            RuntimeError::Codec {
                reason: format!(
                    "peer `{from}` disconnected mid-frame ({} bytes buffered)",
                    conn.reader.pending_bytes()
                ),
            }
        } else {
            RuntimeError::Disconnected { role: from.clone() }
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, to: &Role, label: &Label, value: &Value) -> Result<()> {
        let max = self.max_frame_bytes;
        let deadline = Instant::now() + self.recv_timeout;
        let frame = encode_message(&Message::new(label.clone(), value.clone()));
        let mut wire = Vec::with_capacity(4 + frame.len());
        put_frame(&mut wire, &frame, max)?;
        let conn = self.conn_mut(to)?;
        if conn.poisoned {
            return Err(Self::poisoned_error(to));
        }
        if let Err((written, e)) = Self::write_all_deadline(&mut conn.stream, &wire, deadline, to) {
            // Part of the frame is on the wire: the peer's framing can no
            // longer be trusted, so refuse every later use of this peer.
            if written > 0 {
                conn.poisoned = true;
            }
            return Err(e);
        }
        Ok(())
    }

    fn recv(&mut self, from: &Role) -> Result<(Label, Value)> {
        let deadline = Instant::now() + self.recv_timeout;
        let conn = self.conn_mut(from)?;
        if conn.poisoned {
            return Err(Self::poisoned_error(from));
        }
        loop {
            if let Some(message) = Self::pop_frame(conn)? {
                return Ok(message);
            }
            match conn.reader.fill(&mut conn.stream)? {
                FillStatus::Progress => {}
                FillStatus::Eof => {
                    // The close may have arrived right behind complete
                    // frames: drain those before reporting the shutdown.
                    if let Some(message) = Self::pop_frame(conn)? {
                        return Ok(message);
                    }
                    return Err(Self::eof_error(conn, from));
                }
                FillStatus::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(RuntimeError::Timeout { from: from.clone() });
                    }
                    std::thread::sleep(WAIT_SLICE);
                }
            }
        }
    }

    fn try_recv(&mut self, from: &Role) -> Result<Option<(Label, Value)>> {
        let conn = self.conn_mut(from)?;
        if conn.poisoned {
            return Err(Self::poisoned_error(from));
        }
        loop {
            if let Some(message) = Self::pop_frame(conn)? {
                return Ok(Some(message));
            }
            match conn.reader.fill(&mut conn.stream)? {
                // Bytes arrived: loop to see whether they complete a frame.
                FillStatus::Progress => {}
                FillStatus::Eof => {
                    if let Some(message) = Self::pop_frame(conn)? {
                        return Ok(Some(message));
                    }
                    return Err(Self::eof_error(conn, from));
                }
                FillStatus::WouldBlock => return Ok(None),
            }
        }
    }

    fn local_role(&self) -> &Role {
        &self.me
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    /// Builds a connected pair of TCP transports over the loopback interface.
    fn loopback_pair() -> (TcpTransport, TcpTransport) {
        let listener = TcpListener::bind((IpAddr::V4(Ipv4Addr::LOCALHOST), 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let client_side = std::thread::spawn(move || TcpStream::connect(addr).unwrap());
        let (server_stream, _) = listener.accept().unwrap();
        let client_stream = client_side.join().unwrap();

        let mut p_streams = BTreeMap::new();
        p_streams.insert(r("q"), server_stream);
        let mut q_streams = BTreeMap::new();
        q_streams.insert(r("p"), client_stream);
        (
            TcpTransport::from_streams(r("p"), p_streams),
            TcpTransport::from_streams(r("q"), q_streams),
        )
    }

    #[test]
    fn framed_messages_round_trip_over_tcp() {
        let (mut p, mut q) = loopback_pair();
        p.send(&r("q"), &Label::new("l"), &Value::pair(Value::Nat(1), Value::Str("hi".into())))
            .unwrap();
        p.send(&r("q"), &Label::new("m"), &Value::Bool(true)).unwrap();
        assert_eq!(
            q.recv(&r("p")).unwrap(),
            (
                Label::new("l"),
                Value::pair(Value::Nat(1), Value::Str("hi".into()))
            )
        );
        assert_eq!(q.recv(&r("p")).unwrap(), (Label::new("m"), Value::Bool(true)));
        assert_eq!(p.local_role(), &r("p"));
        assert_eq!(q.local_role(), &r("q"));
    }

    #[test]
    fn unknown_peers_are_rejected() {
        let (mut p, _q) = loopback_pair();
        assert!(matches!(
            p.send(&r("nobody"), &Label::new("l"), &Value::Unit),
            Err(RuntimeError::UnknownPeer { .. })
        ));
    }

    #[test]
    fn try_recv_is_nonblocking_and_buffers_partial_frames() {
        let (mut p, mut q) = loopback_pair();

        // Empty socket: returns immediately with None, no parking.
        let start = Instant::now();
        assert!(q.try_recv(&r("p")).unwrap().is_none());
        assert!(start.elapsed() < Duration::from_secs(1));

        // Write a frame in two raw halves with a pause between them: the
        // first try_recv sees only the partial frame and must buffer it.
        let msg = Message::new("l", Value::Str("partial framing".into()));
        let frame = encode_message(&msg);
        let mut wire = (frame.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&frame);
        let (head, tail) = wire.split_at(wire.len() / 2);

        let stream = &mut p.streams.get_mut(&r("q")).unwrap().stream;
        TcpTransport::write_all_deadline(
            stream,
            head,
            Instant::now() + Duration::from_secs(5),
            &r("q"),
        )
        .unwrap();

        // Wait until the half-frame has actually arrived, then poll: the
        // bytes are consumed into the reader but no frame is ready yet.
        std::thread::sleep(Duration::from_millis(50));
        assert!(q.try_recv(&r("p")).unwrap().is_none());
        assert!(q.streams[&r("p")].reader.pending_bytes() > 0);

        let stream = &mut p.streams.get_mut(&r("q")).unwrap().stream;
        TcpTransport::write_all_deadline(
            stream,
            tail,
            Instant::now() + Duration::from_secs(5),
            &r("q"),
        )
        .unwrap();

        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some((label, value)) = q.try_recv(&r("p")).unwrap() {
                assert_eq!(label, Label::new("l"));
                assert_eq!(value, Value::Str("partial framing".into()));
                break;
            }
            assert!(Instant::now() < deadline, "frame never completed");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn recv_times_out_instead_of_hanging() {
        let (_p, mut q) = loopback_pair();
        q.set_recv_timeout(Duration::from_millis(50));
        let start = Instant::now();
        assert!(matches!(
            q.recv(&r("p")),
            Err(RuntimeError::Timeout { .. })
        ));
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn mid_frame_send_timeout_poisons_the_peer() {
        let (mut p, _q) = loopback_pair();
        p.set_recv_timeout(Duration::from_millis(50));
        // A frame far larger than the loopback socket buffers, sent to a
        // peer that never reads: the deadline fires with part of the frame
        // already on the wire.
        let big = Value::Str("x".repeat(8 * 1024 * 1024));
        let result = p.send(&r("q"), &Label::new("l"), &big);
        assert!(matches!(result, Err(RuntimeError::Timeout { .. })), "{result:?}");
        // The peer connection is poisoned: no operation may touch a stream
        // carrying half a frame.
        assert!(matches!(
            p.send(&r("q"), &Label::new("m"), &Value::Unit),
            Err(RuntimeError::Codec { .. })
        ));
        assert!(matches!(p.recv(&r("q")), Err(RuntimeError::Codec { .. })));
        assert!(matches!(p.try_recv(&r("q")), Err(RuntimeError::Codec { .. })));
    }

    #[test]
    fn oversized_sends_are_refused_locally() {
        let (mut p, _q) = loopback_pair();
        p.set_max_frame_bytes(16);
        assert!(matches!(
            p.send(&r("q"), &Label::new("l"), &Value::Str("x".repeat(64))),
            Err(RuntimeError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn connect_establishes_a_session_between_two_threads() {
        // The server thread binds port 0 itself and reports the real address
        // over a channel — no reserve-drop-rebind race with parallel tests.
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();

        let server = std::thread::spawn(move || {
            let listener = TcpListener::bind((IpAddr::V4(Ipv4Addr::LOCALHOST), 0)).unwrap();
            listener.set_nonblocking(true).unwrap();
            addr_tx.send(listener.local_addr().unwrap()).unwrap();
            // Accept inline (the listener is already bound, so the client
            // cannot miss it), then hand the stream to the transport.
            let deadline = Instant::now() + Duration::from_secs(5);
            let stream = loop {
                match listener.accept() {
                    Ok((stream, _)) => break stream,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        assert!(Instant::now() < deadline, "client never connected");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("accept failed: {e}"),
                }
            };
            let mut streams = BTreeMap::new();
            streams.insert(r("q"), stream);
            let mut transport = TcpTransport::from_streams(r("p"), streams);
            transport
                .send(&r("q"), &Label::new("hello"), &Value::Nat(99))
                .unwrap();
            transport.recv(&r("q")).unwrap()
        });
        let addr = addr_rx.recv().unwrap();
        let client = std::thread::spawn(move || {
            let descs = [ConnDesc::client(r("p"), addr)];
            let mut transport =
                TcpTransport::connect(r("q"), &descs, Duration::from_secs(5)).unwrap();
            let received = transport.recv(&r("p")).unwrap();
            transport
                .send(&r("p"), &Label::new("ack"), &Value::Unit)
                .unwrap();
            received
        });
        let server_got = server.join().unwrap();
        let client_got = client.join().unwrap();
        assert_eq!(client_got, (Label::new("hello"), Value::Nat(99)));
        assert_eq!(server_got, (Label::new("ack"), Value::Unit));
    }

    #[test]
    fn server_connect_times_out_when_no_peer_arrives() {
        let addr: SocketAddr = (IpAddr::V4(Ipv4Addr::LOCALHOST), 0).into();
        // Bind port 0 via the spec; nobody will ever connect.
        let descs = [ConnDesc::server(r("q"), addr)];
        let start = Instant::now();
        let result = TcpTransport::connect(r("p"), &descs, Duration::from_millis(100));
        assert!(
            matches!(result, Err(RuntimeError::Timeout { ref from }) if *from == r("q")),
            "expected a timeout, got {result:?}"
        );
        assert!(start.elapsed() < Duration::from_secs(5), "accept hung");
    }

    #[test]
    fn conn_desc_constructors() {
        let addr: SocketAddr = "127.0.0.1:7777".parse().unwrap();
        assert_eq!(
            ConnDesc::server(r("q"), addr).spec,
            ConnectionSpec::Server(addr)
        );
        assert_eq!(
            ConnDesc::client(r("q"), addr).spec,
            ConnectionSpec::Client(addr)
        );
    }
}
