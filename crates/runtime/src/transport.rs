//! Transports: how an endpoint exchanges messages with its peers.
//!
//! A [`Transport`] is the communication half of the paper's `ProcessMonad`
//! (Figure 8): the process is written against it and never sees sockets or
//! channels. The [`InMemoryNetwork`] realises the queue environments of §3.3
//! directly — one unbounded FIFO channel per ordered pair of roles — and is
//! what the session harness, the examples and the per-session executors of
//! the differential suites use; [`crate::tcp`] provides the TCP transport of
//! §4.5. The server uses neither: its sessions exchange messages inside the
//! serving engine's columnar batch, and its sockets speak the engine's
//! multiplexed wire protocol.
//!
//! In-process delivery carries `(Label, Value)` frames **directly**: no
//! [`crate::codec`] round-trip, no byte buffers — serialisation is a wire
//! concern and stays on the TCP path (the codec's own property tests keep
//! `decode ∘ encode = id` honest for every value shape). Peers are resolved
//! to **dense indices** (`Vec`s indexed by the sorted position of the peer
//! role) so the fast path of the compiled endpoint executor never walks a
//! `BTreeMap` or compares role strings: resolve once via
//! [`InMemoryTransport::peer_index`], then use the `*_indexed` operations.
//!
//! Nothing in memory waits: every in-memory session is stepped by one
//! scheduler ([`crate::lockstep`]), so a receive on an empty channel fails
//! at once with [`RuntimeError::Timeout`] (and [`Transport::try_recv`]
//! returns `Ok(None)`), while a receive from a dropped peer whose channel
//! is drained reports [`RuntimeError::Disconnected`].

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use zooid_mpst::{Label, Role};
use zooid_proc::Value;

use crate::error::{Result, RuntimeError};

/// A connection from one endpoint to all its peers.
///
/// The executor calls [`Transport::send`] and [`Transport::recv`]; different
/// implementations provide in-memory channels, TCP sockets, or anything else
/// capable of carrying framed messages.
pub trait Transport {
    /// Sends a message to the given peer.
    ///
    /// # Errors
    ///
    /// Fails if the peer is unknown or unreachable.
    fn send(&mut self, to: &Role, label: &Label, value: &Value) -> Result<()>;

    /// Receives the next message from the given peer, waiting for one as
    /// long as the transport waits at all: the TCP transport up to its
    /// receive deadline, the in-memory one not at all.
    ///
    /// # Errors
    ///
    /// Fails if the peer is unknown, disconnected, times out, or sends a
    /// malformed frame.
    fn recv(&mut self, from: &Role) -> Result<(Label, Value)>;

    /// Receives the next message from the given peer if one is already
    /// queued, returning `Ok(None)` instead of waiting when there is none.
    ///
    /// This is what the poll-based executor ([`crate::exec::EndpointTask`])
    /// calls, so that a scheduler multiplexing many endpoints on one thread
    /// never parks on a single session. The default implementation falls
    /// back to the blocking [`Transport::recv`], mapping its timeout to
    /// `Ok(None)`: a last resort for transports that cannot poll, and one
    /// that parks the calling thread for up to the transport's receive
    /// timeout first — schedulers multiplexing many sessions must only be
    /// fed transports with a real non-blocking implementation.
    /// [`InMemoryTransport`] and [`crate::tcp::TcpTransport`] provide one
    /// (the latter buffers partial frames across calls, so a half-received
    /// frame never blocks the scheduler).
    ///
    /// # Errors
    ///
    /// Fails for the same reasons as [`Transport::recv`], except that an
    /// empty channel is `Ok(None)`, never a timeout.
    fn try_recv(&mut self, from: &Role) -> Result<Option<(Label, Value)>> {
        match self.recv(from) {
            Ok(message) => Ok(Some(message)),
            Err(RuntimeError::Timeout { .. }) => Ok(None),
            Err(err) => Err(err),
        }
    }

    /// The role this transport belongs to.
    fn local_role(&self) -> &Role;
}

/// One directed channel: an unbounded FIFO of in-flight `(Label, Value)`
/// frames. Liveness lives per *endpoint* in [`NetCore`], not per channel,
/// so the whole network is one flat allocation.
type Channel = Mutex<VecDeque<(Label, Value)>>;

/// The shared heart of an [`InMemoryNetwork`]: the sorted role table, a flat
/// `n × n` matrix of channels (row = sender, column = receiver, diagonal
/// unused) and one liveness flag per endpoint. Constructing a
/// session's network is a handful of allocations regardless of how many
/// role pairs exist, so an oracle run that builds one network per session
/// (the per-session executor's differential suites and `bench-report`
/// families) measures the executor, not the set-up.
#[derive(Debug)]
struct NetCore {
    roles: Arc<[Role]>,
    channels: Vec<Channel>,
    alive: Vec<AtomicBool>,
}

impl NetCore {
    fn queue(&self, from: usize, to: usize) -> MutexGuard<'_, VecDeque<(Label, Value)>> {
        self.channels[from * self.roles.len() + to]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn is_alive(&self, endpoint: usize) -> bool {
        self.alive[endpoint].load(Ordering::Acquire)
    }

    fn mark_dead(&self, endpoint: usize) {
        self.alive[endpoint].store(false, Ordering::Release);
    }
}

/// An in-memory network connecting a set of roles with one FIFO channel per
/// ordered pair, carrying `(Label, Value)` frames directly (no codec
/// round-trip — encoding is for wires, not function calls).
///
/// # Examples
///
/// ```
/// use zooid_runtime::transport::{InMemoryNetwork, Transport};
/// use zooid_mpst::{Label, Role};
/// use zooid_proc::Value;
///
/// let mut net = InMemoryNetwork::new([Role::new("p"), Role::new("q")]);
/// let mut p = net.take_endpoint(&Role::new("p")).unwrap();
/// let mut q = net.take_endpoint(&Role::new("q")).unwrap();
/// p.send(&Role::new("q"), &Label::new("l"), &Value::Nat(7)).unwrap();
/// assert_eq!(q.recv(&Role::new("p")).unwrap(), (Label::new("l"), Value::Nat(7)));
/// ```
#[derive(Debug)]
pub struct InMemoryNetwork {
    core: Arc<NetCore>,
    taken: Vec<bool>,
}

impl InMemoryNetwork {
    /// Creates a network connecting the given roles.
    pub fn new(roles: impl IntoIterator<Item = Role>) -> Self {
        let mut roles: Vec<Role> = roles.into_iter().collect();
        roles.sort();
        roles.dedup();
        InMemoryNetwork::from_sorted(roles.into())
    }

    /// Creates a network over an already sorted, deduplicated role table —
    /// the table is shared, not copied, so a suite running thousands of
    /// sessions of one protocol allocates it once.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the table is not sorted and deduplicated.
    pub fn from_sorted(roles: Arc<[Role]>) -> Self {
        debug_assert!(roles.windows(2).all(|w| w[0] < w[1]), "roles must be sorted");
        let n = roles.len();
        let mut channels = Vec::with_capacity(n * n);
        channels.resize_with(n * n, Channel::default);
        let alive = (0..n).map(|_| AtomicBool::new(true)).collect();
        InMemoryNetwork {
            core: Arc::new(NetCore {
                roles,
                channels,
                alive,
            }),
            taken: vec![false; n],
        }
    }

    /// Removes and returns the endpoint transport of a role; `None` for a
    /// role outside the network or one already taken.
    pub fn take_endpoint(&mut self, role: &Role) -> Option<InMemoryTransport> {
        let idx = self.core.roles.binary_search(role).ok()?;
        if std::mem::replace(&mut self.taken[idx], true) {
            return None;
        }
        Some(InMemoryTransport {
            core: Arc::clone(&self.core),
            me_idx: idx,
        })
    }
}

impl Drop for InMemoryNetwork {
    fn drop(&mut self) {
        // Endpoints never handed out can never speak: peers receiving from
        // them must observe a disconnection, exactly as if the transport had
        // been taken and dropped.
        for (idx, taken) in self.taken.iter().enumerate() {
            if !taken {
                self.core.mark_dead(idx);
            }
        }
    }
}

/// One endpoint of an [`InMemoryNetwork`].
///
/// Peers are addressable two ways: by [`Role`] through the [`Transport`]
/// trait (a binary search over the sorted role table), or by **dense index**
/// through [`InMemoryTransport::peer_index`] and the `*_indexed` operations —
/// the compiled endpoint executor resolves each peer once and then steps
/// without comparing role strings at all.
pub struct InMemoryTransport {
    core: Arc<NetCore>,
    me_idx: usize,
}

impl Drop for InMemoryTransport {
    fn drop(&mut self) {
        self.core.mark_dead(self.me_idx);
    }
}

impl InMemoryTransport {
    /// The dense index of a peer role, usable with the `*_indexed`
    /// operations. `None` for unknown roles and for the local role itself.
    pub fn peer_index(&self, role: &Role) -> Option<usize> {
        match self.core.roles.binary_search(role) {
            Ok(idx) if idx != self.me_idx => Some(idx),
            _ => None,
        }
    }

    fn check_peer(&self, peer: usize) -> Result<()> {
        if peer >= self.core.roles.len() || peer == self.me_idx {
            return Err(RuntimeError::UnknownPeer {
                role: self.peer_role_or_unknown(peer),
            });
        }
        Ok(())
    }

    /// Sends a `(Label, Value)` frame to the peer at a dense index, taking
    /// ownership — no encoding, no extra clone.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownPeer`] for an invalid index,
    /// [`RuntimeError::Disconnected`] when the peer endpoint was dropped.
    pub fn send_indexed(&mut self, peer: usize, label: Label, value: Value) -> Result<()> {
        self.check_peer(peer)?;
        if !self.core.is_alive(peer) {
            return Err(RuntimeError::Disconnected {
                role: self.core.roles[peer].clone(),
            });
        }
        self.core.queue(self.me_idx, peer).push_back((label, value));
        Ok(())
    }

    /// Receives the next frame from the peer at a dense index if one is
    /// queued.
    ///
    /// # Errors
    ///
    /// Same as [`Transport::try_recv`].
    pub fn try_recv_indexed(&mut self, peer: usize) -> Result<Option<(Label, Value)>> {
        self.check_peer(peer)?;
        // The queue stays locked while liveness is read, so a sender cannot
        // push and drop in between.
        match self.core.queue(peer, self.me_idx).pop_front() {
            Some(frame) => Ok(Some(frame)),
            // Buffered frames drain before a disconnection is reported
            // (mpsc semantics).
            None if self.core.is_alive(peer) => Ok(None),
            None => Err(RuntimeError::Disconnected {
                role: self.core.roles[peer].clone(),
            }),
        }
    }

    /// Receives the next frame from the peer at a dense index; an empty
    /// channel from a live peer is a timeout at once.
    ///
    /// # Errors
    ///
    /// Same as [`Transport::recv`].
    fn recv_indexed(&mut self, peer: usize) -> Result<(Label, Value)> {
        self.try_recv_indexed(peer)?.ok_or_else(|| RuntimeError::Timeout {
            from: self.core.roles[peer].clone(),
        })
    }

    fn peer_role_or_unknown(&self, peer: usize) -> Role {
        self.core
            .roles
            .get(peer)
            .cloned()
            .unwrap_or_else(|| Role::new("<unknown>"))
    }
}

impl fmt::Debug for InMemoryTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let peers: Vec<&Role> = self
            .core
            .roles
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.me_idx)
            .map(|(_, r)| r)
            .collect();
        f.debug_struct("InMemoryTransport")
            .field("role", &self.core.roles[self.me_idx])
            .field("peers", &peers)
            .finish()
    }
}

impl Transport for InMemoryTransport {
    fn send(&mut self, to: &Role, label: &Label, value: &Value) -> Result<()> {
        let peer = self
            .peer_index(to)
            .ok_or_else(|| RuntimeError::UnknownPeer { role: to.clone() })?;
        self.send_indexed(peer, label.clone(), value.clone())
    }

    fn recv(&mut self, from: &Role) -> Result<(Label, Value)> {
        let peer = self
            .peer_index(from)
            .ok_or_else(|| RuntimeError::UnknownPeer { role: from.clone() })?;
        self.recv_indexed(peer)
    }

    fn try_recv(&mut self, from: &Role) -> Result<Option<(Label, Value)>> {
        let peer = self
            .peer_index(from)
            .ok_or_else(|| RuntimeError::UnknownPeer { role: from.clone() })?;
        self.try_recv_indexed(peer)
    }

    fn local_role(&self) -> &Role {
        &self.core.roles[self.me_idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(name: &str) -> Role {
        Role::new(name)
    }
    fn l(name: &str) -> Label {
        Label::new(name)
    }

    #[test]
    fn messages_are_delivered_in_fifo_order() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut p = net.take_endpoint(&r("p")).unwrap();
        let mut q = net.take_endpoint(&r("q")).unwrap();
        p.send(&r("q"), &l("a"), &Value::Nat(1)).unwrap();
        p.send(&r("q"), &l("b"), &Value::Nat(2)).unwrap();
        assert_eq!(q.recv(&r("p")).unwrap(), (l("a"), Value::Nat(1)));
        assert_eq!(q.recv(&r("p")).unwrap(), (l("b"), Value::Nat(2)));
    }

    #[test]
    fn channels_are_per_ordered_pair() {
        let mut net = InMemoryNetwork::new([r("p"), r("q"), r("s")]);
        let mut p = net.take_endpoint(&r("p")).unwrap();
        let mut q = net.take_endpoint(&r("q")).unwrap();
        let mut s = net.take_endpoint(&r("s")).unwrap();
        // p sends to s and q; each receives only its own message.
        p.send(&r("s"), &l("for_s"), &Value::Unit).unwrap();
        p.send(&r("q"), &l("for_q"), &Value::Unit).unwrap();
        assert_eq!(q.recv(&r("p")).unwrap().0, l("for_q"));
        assert_eq!(s.recv(&r("p")).unwrap().0, l("for_s"));
    }

    #[test]
    fn try_recv_is_non_blocking_and_preserves_fifo_order() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut p = net.take_endpoint(&r("p")).unwrap();
        let mut q = net.take_endpoint(&r("q")).unwrap();
        // Empty channel: None immediately, no timeout involved.
        assert_eq!(q.try_recv(&r("p")).unwrap(), None);
        for (label, v) in [("a", 1), ("b", 2), ("c", 3)] {
            p.send(&r("q"), &l(label), &Value::Nat(v)).unwrap();
        }
        // Mixing `recv` and `try_recv` keeps the FIFO order.
        assert_eq!(q.try_recv(&r("p")).unwrap(), Some((l("a"), Value::Nat(1))));
        assert_eq!(q.recv(&r("p")).unwrap(), (l("b"), Value::Nat(2)));
        assert_eq!(q.try_recv(&r("p")).unwrap(), Some((l("c"), Value::Nat(3))));
        assert_eq!(q.try_recv(&r("p")).unwrap(), None);
    }

    #[test]
    fn the_default_try_recv_maps_timeouts_to_none() {
        // A transport that only implements the blocking half: the default
        // `try_recv` must park (up to the transport's own timeout) and then
        // report an empty channel, never a timeout error.
        struct BlockingOnly {
            me: Role,
            queued: Vec<(Label, Value)>,
        }
        impl Transport for BlockingOnly {
            fn send(&mut self, _: &Role, _: &Label, _: &Value) -> Result<()> {
                Ok(())
            }
            fn recv(&mut self, from: &Role) -> Result<(Label, Value)> {
                self.queued.pop().ok_or(RuntimeError::Timeout { from: from.clone() })
            }
            fn local_role(&self) -> &Role {
                &self.me
            }
        }
        let mut t = BlockingOnly {
            me: r("p"),
            queued: vec![(l("a"), Value::Nat(1))],
        };
        assert_eq!(t.try_recv(&r("q")).unwrap(), Some((l("a"), Value::Nat(1))));
        assert_eq!(t.try_recv(&r("q")).unwrap(), None);
    }

    #[test]
    fn try_recv_reports_unknown_and_disconnected_peers() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut p = net.take_endpoint(&r("p")).unwrap();
        assert!(matches!(
            p.try_recv(&r("z")),
            Err(RuntimeError::UnknownPeer { .. })
        ));
        let q = net.take_endpoint(&r("q")).unwrap();
        drop(q);
        assert!(matches!(
            p.try_recv(&r("q")),
            Err(RuntimeError::Disconnected { .. })
        ));
    }

    #[test]
    fn unknown_peers_are_rejected() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut p = net.take_endpoint(&r("p")).unwrap();
        assert!(matches!(
            p.send(&r("z"), &l("l"), &Value::Unit),
            Err(RuntimeError::UnknownPeer { .. })
        ));
        assert!(matches!(
            p.recv(&r("z")),
            Err(RuntimeError::UnknownPeer { .. })
        ));
        assert_eq!(p.local_role(), &r("p"));
    }

    #[test]
    fn receiving_from_a_silent_peer_times_out() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut p = net.take_endpoint(&r("p")).unwrap();
        assert!(matches!(
            p.recv(&r("q")),
            Err(RuntimeError::Timeout { .. })
        ));
    }

    #[test]
    fn receiving_from_a_dropped_peer_reports_disconnection() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut p = net.take_endpoint(&r("p")).unwrap();
        let q = net.take_endpoint(&r("q")).unwrap();
        drop(q);
        assert!(matches!(
            p.recv(&r("q")),
            Err(RuntimeError::Disconnected { .. })
        ));
    }

    #[test]
    fn indexed_operations_mirror_the_role_addressed_ones() {
        let mut net = InMemoryNetwork::new([r("p"), r("q"), r("s")]);
        let mut p = net.take_endpoint(&r("p")).unwrap();
        let mut q = net.take_endpoint(&r("q")).unwrap();
        let qi = p.peer_index(&r("q")).unwrap();
        let pi = q.peer_index(&r("p")).unwrap();
        assert_eq!(p.peer_index(&r("p")), None, "self is not a peer");
        assert_eq!(p.peer_index(&r("zzz")), None);

        p.send_indexed(qi, l("a"), Value::Nat(1)).unwrap();
        p.send(&r("q"), &l("b"), &Value::Nat(2)).unwrap();
        // Indexed and role-addressed receives drain the same FIFO.
        assert_eq!(q.try_recv_indexed(pi).unwrap(), Some((l("a"), Value::Nat(1))));
        assert_eq!(q.recv_indexed(pi).unwrap(), (l("b"), Value::Nat(2)));
        assert_eq!(q.try_recv_indexed(pi).unwrap(), None);

        // Out-of-range indices are unknown peers, not panics.
        assert!(matches!(
            p.send_indexed(99, l("x"), Value::Unit),
            Err(RuntimeError::UnknownPeer { .. })
        ));
        assert!(matches!(
            q.try_recv_indexed(99),
            Err(RuntimeError::UnknownPeer { .. })
        ));
    }

    #[test]
    fn indexed_receive_times_out_and_detects_disconnection() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut p = net.take_endpoint(&r("p")).unwrap();
        let qi = p.peer_index(&r("q")).unwrap();
        assert!(matches!(
            p.recv_indexed(qi),
            Err(RuntimeError::Timeout { .. })
        ));
        let q = net.take_endpoint(&r("q")).unwrap();
        drop(q);
        assert!(matches!(
            p.recv_indexed(qi),
            Err(RuntimeError::Disconnected { .. })
        ));
        assert!(matches!(
            p.try_recv_indexed(qi),
            Err(RuntimeError::Disconnected { .. })
        ));
    }

    #[test]
    fn buffered_frames_survive_a_dropped_sender() {
        // mpsc semantics: frames already in flight are delivered before the
        // disconnection is reported.
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        let mut p = net.take_endpoint(&r("p")).unwrap();
        let mut q = net.take_endpoint(&r("q")).unwrap();
        p.send(&r("q"), &l("a"), &Value::Nat(1)).unwrap();
        drop(p);
        assert_eq!(q.recv(&r("p")).unwrap(), (l("a"), Value::Nat(1)));
        assert!(matches!(
            q.recv(&r("p")),
            Err(RuntimeError::Disconnected { .. })
        ));
    }

    #[test]
    fn an_endpoint_is_taken_once() {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        net.take_endpoint(&r("p")).unwrap();
        assert!(net.take_endpoint(&r("p")).is_none());
        assert!(net.take_endpoint(&r("q")).is_some());
    }
}
