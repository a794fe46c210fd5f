//! Deterministic fault injection: the adversarial half of the hostile-world
//! suite (ROADMAP "Hostile-world suite").
//!
//! Statically certified protocols are only as trustworthy as the runtime's
//! behaviour when the world misbehaves, and hand-written sabotage probes only
//! exercise the failure modes someone thought of. This module manufactures
//! failures *systematically* and *reproducibly*:
//!
//! * [`FaultPlan`] — a seed-driven schedule of transport-level faults
//!   ([`FaultKind`]: delay, drop, duplicate, reorder, truncate, mid-session
//!   disconnect), each site-addressable (send/receive side, optionally a
//!   single peer) and budget-capped;
//! * [`FaultyTransport`] — a wrapper implementing [`Transport`] over any
//!   inner transport (the in-memory network and the TCP transport alike)
//!   that executes the plan and logs every injection as an
//!   [`InjectedFault`], so two runs with the same seed produce the same
//!   schedule byte for byte;
//! * [`FaultReader`] — a wrapper at the [`FrameReader`] seam that corrupts
//!   the *byte stream* below the codec ([`WireFault`]: bit flips, split
//!   deliveries, truncated tails, hostile length prefixes), the faults a
//!   certified process can never cause but a hostile network can.
//!
//! Determinism is the load-bearing property: the PRNG is consulted only on
//! *counted* operations — every send, and every receive that actually
//! produced a message — never on empty polls, so the injected schedule
//! depends only on the endpoint's deterministic program order, not on
//! timing, and is identical across the in-memory and TCP backends.

use std::collections::VecDeque;
use std::io::Read;

use zooid_mpst::{Label, Role};
use zooid_proc::Value;

use crate::error::{Result, RuntimeError};
use crate::transport::Transport;
use crate::wire::{FillStatus, FrameReader};

/// SplitMix64: a tiny, fast, hand-rolled deterministic PRNG (no external
/// crates — the build stays hermetic). Good enough statistical quality for
/// fault scheduling, and trivially reproducible from a single `u64` seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a value uniformly distributed in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    fn chance(&mut self, rate_per_64k: u32) -> bool {
        if rate_per_64k >= 65_536 {
            // An always-firing spec must not consume randomness differently
            // from a probabilistic one, so the draw still happens.
            self.next_u64();
            return true;
        }
        (self.next_u64() & 0xFFFF) < u64::from(rate_per_64k)
    }
}

/// The transport-level fault kinds a [`FaultPlan`] can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Hold a message back for a few operations before delivering it.
    Delay,
    /// Silently discard a message.
    Drop,
    /// Deliver a message twice.
    Duplicate,
    /// Swap a message with the next one on the same site.
    Reorder,
    /// Corrupt a message in flight: the receiver sees a codec error and the
    /// message is lost. Only meaningful on the receive site.
    Truncate,
    /// Sever the transport mid-session; every later operation fails with
    /// [`RuntimeError::Disconnected`]. Sticky.
    Disconnect,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::Delay => "delay",
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::Truncate => "truncate",
            FaultKind::Disconnect => "disconnect",
        };
        f.write_str(s)
    }
}

/// Which side of the transport a fault attaches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Outgoing messages (`Transport::send`).
    Send,
    /// Incoming messages (`recv` / `try_recv` deliveries).
    Recv,
    /// Either side.
    Any,
}

impl FaultSite {
    fn matches(self, dir: FaultDirection) -> bool {
        match (self, dir) {
            (FaultSite::Any, _) => true,
            (FaultSite::Send, FaultDirection::Send) => true,
            (FaultSite::Recv, FaultDirection::Recv) => true,
            _ => false,
        }
    }
}

/// The concrete side an injection happened on (recorded in the schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultDirection {
    /// The fault was injected on an outgoing message.
    Send,
    /// The fault was injected on an incoming message.
    Recv,
}

/// One site-addressable, budget-capped fault specification.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    kind: FaultKind,
    site: FaultSite,
    peer: Option<Role>,
    rate_per_64k: u32,
    budget: u32,
}

impl FaultSpec {
    /// A spec that fires on **every** eligible operation until its budget
    /// (default 1) is spent.
    pub fn new(kind: FaultKind, site: FaultSite) -> Self {
        FaultSpec {
            kind,
            site,
            peer: None,
            rate_per_64k: 65_536,
            budget: 1,
        }
    }

    /// Restricts the spec to operations involving one specific peer.
    #[must_use]
    pub fn peer(mut self, peer: Role) -> Self {
        self.peer = Some(peer);
        self
    }

    /// Sets the firing probability as a rate out of 65 536 per eligible
    /// operation (65 536 = always).
    #[must_use]
    pub fn rate(mut self, rate_per_64k: u32) -> Self {
        self.rate_per_64k = rate_per_64k;
        self
    }

    /// Caps the total number of injections this spec may perform.
    #[must_use]
    pub fn budget(mut self, budget: u32) -> Self {
        self.budget = budget;
        self
    }
}

/// A deterministic, seed-driven schedule of faults.
///
/// The plan is pure data: the same plan (seed + specs) applied to the same
/// endpoint program produces the same [`InjectedFault`] schedule on every
/// run and every backend.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with the given seed: injects nothing, behaviorally a
    /// no-op wrapper.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Adds a fault spec to the plan (builder style).
    #[must_use]
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// One injected fault, as recorded in the deterministic schedule log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The counted-operation index at which the fault fired (1-based).
    pub op: u64,
    /// What was injected.
    pub kind: FaultKind,
    /// Which side it was injected on.
    pub direction: FaultDirection,
    /// The peer involved in the faulted operation.
    pub peer: Role,
    /// The label of the message the fault applied to.
    pub label: Label,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dir = match self.direction {
            FaultDirection::Send => "send",
            FaultDirection::Recv => "recv",
        };
        write!(
            f,
            "op {}: {} on {} `{}` (peer `{}`)",
            self.op, self.kind, dir, self.label, self.peer
        )
    }
}

/// A message held back by a delay or reorder fault, gated on the wrapper's
/// tick counter (which advances on *every* call, so held messages are
/// eventually released even while the endpoint only polls).
#[derive(Debug)]
struct HeldMessage {
    release_tick: u64,
    peer: Role,
    label: Label,
    value: Value,
}

/// A [`Transport`] wrapper that executes a [`FaultPlan`] against an inner
/// transport.
///
/// Works over any `Transport` — the in-memory network and the TCP transport
/// alike — because it only uses the trait surface. With an empty plan it is
/// a behavioral no-op (every call delegates unchanged).
///
/// The wrapper consults its PRNG only on counted operations (sends, and
/// receives that produced a message), so the injected schedule — readable
/// via [`FaultyTransport::schedule`] — is a deterministic function of the
/// seed and the endpoint's program order, independent of timing and
/// backend.
#[derive(Debug)]
pub struct FaultyTransport<T: Transport> {
    inner: T,
    rng: SplitMix64,
    /// `(spec, injections already performed)`.
    specs: Vec<(FaultSpec, u32)>,
    /// Counted operations: sends + receives that yielded a message.
    op: u64,
    /// Every call (including empty polls); gates release of held messages.
    ticks: u64,
    disconnected: bool,
    /// Outgoing messages held back by send-side delay/reorder faults.
    delayed_sends: VecDeque<HeldMessage>,
    /// Incoming messages held back by recv-side delay/duplicate/reorder.
    stashed_recvs: VecDeque<HeldMessage>,
    schedule: Vec<InjectedFault>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: T, plan: &FaultPlan) -> Self {
        FaultyTransport {
            inner,
            rng: SplitMix64::new(plan.seed),
            specs: plan.specs.iter().map(|s| (s.clone(), 0)).collect(),
            op: 0,
            ticks: 0,
            disconnected: false,
            delayed_sends: VecDeque::new(),
            stashed_recvs: VecDeque::new(),
            schedule: Vec::new(),
        }
    }

    /// The inner transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The inner transport, mutably.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwraps the inner transport, discarding any still-held messages.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// The deterministic log of every fault injected so far, in order.
    pub fn schedule(&self) -> &[InjectedFault] {
        &self.schedule
    }

    /// Drains and returns the schedule log.
    pub fn take_schedule(&mut self) -> Vec<InjectedFault> {
        std::mem::take(&mut self.schedule)
    }

    /// Decides whether a fault fires for this counted operation, and if so
    /// which spec (by index) and of what kind. Draws from the PRNG once per
    /// matching spec until one fires, so the stream of draws is a pure
    /// function of the operation sequence.
    fn decide(&mut self, dir: FaultDirection, peer: &Role) -> Option<(usize, FaultKind)> {
        for (index, (spec, used)) in self.specs.iter_mut().enumerate() {
            if *used >= spec.budget {
                continue;
            }
            if !spec.site.matches(dir) {
                continue;
            }
            if let Some(target) = &spec.peer {
                if target != peer {
                    continue;
                }
            }
            // Truncation is a wire-observation fault: it manifests at the
            // receiver as a codec error. A truncate spec never fires on the
            // send side even under `FaultSite::Any`.
            if spec.kind == FaultKind::Truncate && dir == FaultDirection::Send {
                continue;
            }
            if self.rng.chance(spec.rate_per_64k) {
                *used += 1;
                return Some((index, spec.kind));
            }
        }
        None
    }

    fn record(&mut self, kind: FaultKind, dir: FaultDirection, peer: &Role, label: &Label) {
        self.schedule.push(InjectedFault {
            op: self.op,
            kind,
            direction: dir,
            peer: peer.clone(),
            label: label.clone(),
        });
    }

    /// Releases delayed outgoing messages whose gate has passed.
    fn flush_delayed_sends(&mut self) -> Result<()> {
        while let Some(front) = self.delayed_sends.front() {
            if front.release_tick > self.ticks {
                break;
            }
            let m = self.delayed_sends.pop_front().expect("front checked");
            self.inner.send(&m.peer, &m.label, &m.value)?;
        }
        Ok(())
    }

    /// Pops a stashed incoming message for `from` whose gate has passed.
    fn pop_stashed(&mut self, from: &Role) -> Option<(Label, Value)> {
        let idx = self
            .stashed_recvs
            .iter()
            .position(|m| &m.peer == from && m.release_tick <= self.ticks)?;
        let m = self.stashed_recvs.remove(idx).expect("index found");
        Some((m.label, m.value))
    }

    /// True when a stashed message for `from` exists but is still gated.
    fn has_gated_stash(&self, from: &Role) -> bool {
        self.stashed_recvs.iter().any(|m| &m.peer == from)
    }

    fn check_connected(&self, peer: &Role) -> Result<()> {
        if self.disconnected {
            return Err(RuntimeError::Disconnected { role: peer.clone() });
        }
        Ok(())
    }

    /// Applies a recv-side fault decision to a freshly received message.
    /// Returns `Ok(Some(..))` when a message should be delivered now,
    /// `Ok(None)` when it was absorbed (dropped / delayed / reordered away).
    fn apply_recv_fault(
        &mut self,
        from: &Role,
        label: Label,
        value: Value,
    ) -> Result<Option<(Label, Value)>> {
        match self.decide(FaultDirection::Recv, from) {
            None => Ok(Some((label, value))),
            Some((_, FaultKind::Drop)) => {
                self.record(FaultKind::Drop, FaultDirection::Recv, from, &label);
                Ok(None)
            }
            Some((_, FaultKind::Delay)) => {
                self.record(FaultKind::Delay, FaultDirection::Recv, from, &label);
                let delta = 1 + self.rng.below(3);
                self.stashed_recvs.push_back(HeldMessage {
                    release_tick: self.ticks + delta,
                    peer: from.clone(),
                    label,
                    value,
                });
                Ok(None)
            }
            Some((_, FaultKind::Duplicate)) => {
                self.record(FaultKind::Duplicate, FaultDirection::Recv, from, &label);
                self.stashed_recvs.push_back(HeldMessage {
                    release_tick: 0,
                    peer: from.clone(),
                    label: label.clone(),
                    value: value.clone(),
                });
                Ok(Some((label, value)))
            }
            Some((fired, FaultKind::Reorder)) => {
                // Swap with the next already-queued message from the same
                // peer; when there is none the swap is impossible and the
                // message passes through un-faulted (budget refunded).
                match self.inner.try_recv(from)? {
                    Some((next_label, next_value)) => {
                        self.record(FaultKind::Reorder, FaultDirection::Recv, from, &label);
                        self.stashed_recvs.push_back(HeldMessage {
                            release_tick: 0,
                            peer: from.clone(),
                            label,
                            value,
                        });
                        Ok(Some((next_label, next_value)))
                    }
                    None => {
                        self.specs[fired].1 -= 1;
                        Ok(Some((label, value)))
                    }
                }
            }
            Some((_, FaultKind::Truncate)) => {
                self.record(FaultKind::Truncate, FaultDirection::Recv, from, &label);
                Err(RuntimeError::Codec {
                    reason: format!("injected fault: frame `{label}` truncated in flight"),
                })
            }
            Some((_, FaultKind::Disconnect)) => {
                self.record(FaultKind::Disconnect, FaultDirection::Recv, from, &label);
                self.disconnected = true;
                Err(RuntimeError::Disconnected { role: from.clone() })
            }
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, to: &Role, label: &Label, value: &Value) -> Result<()> {
        self.check_connected(to)?;
        self.ticks += 1;
        self.op += 1;
        // Held messages flush *after* the current send, so a reordered
        // message really is overtaken by its successor.
        let result = match self.decide(FaultDirection::Send, to).map(|(_, kind)| kind) {
            None => self.inner.send(to, label, value),
            Some(FaultKind::Drop) => {
                self.record(FaultKind::Drop, FaultDirection::Send, to, label);
                Ok(())
            }
            Some(FaultKind::Duplicate) => {
                self.record(FaultKind::Duplicate, FaultDirection::Send, to, label);
                self.inner.send(to, label, value)?;
                self.inner.send(to, label, value)
            }
            Some(FaultKind::Delay) => {
                self.record(FaultKind::Delay, FaultDirection::Send, to, label);
                let delta = 1 + self.rng.below(3);
                self.delayed_sends.push_back(HeldMessage {
                    release_tick: self.ticks + delta,
                    peer: to.clone(),
                    label: label.clone(),
                    value: value.clone(),
                });
                Ok(())
            }
            Some(FaultKind::Reorder) => {
                self.record(FaultKind::Reorder, FaultDirection::Send, to, label);
                // Held until the next send, which overtakes it.
                self.delayed_sends.push_back(HeldMessage {
                    release_tick: self.ticks + 1,
                    peer: to.clone(),
                    label: label.clone(),
                    value: value.clone(),
                });
                Ok(())
            }
            Some(FaultKind::Truncate) => unreachable!("truncate never fires on the send side"),
            Some(FaultKind::Disconnect) => {
                self.record(FaultKind::Disconnect, FaultDirection::Send, to, label);
                self.disconnected = true;
                Err(RuntimeError::Disconnected { role: to.clone() })
            }
        };
        result?;
        self.flush_delayed_sends()
    }

    fn recv(&mut self, from: &Role) -> Result<(Label, Value)> {
        loop {
            self.check_connected(from)?;
            self.ticks += 1;
            self.flush_delayed_sends()?;
            if let Some(msg) = self.pop_stashed(from) {
                return Ok(msg);
            }
            // A gated stash must not sit behind a blocking recv forever:
            // treat the gate as expired once nothing else can arrive first.
            let (label, value) = match self.inner.try_recv(from)? {
                Some(msg) => msg,
                None => {
                    if self.has_gated_stash(from) {
                        self.ticks += 1;
                        continue;
                    }
                    self.inner.recv(from)?
                }
            };
            self.op += 1;
            match self.apply_recv_fault(from, label, value)? {
                Some(msg) => return Ok(msg),
                None => continue,
            }
        }
    }

    fn try_recv(&mut self, from: &Role) -> Result<Option<(Label, Value)>> {
        self.check_connected(from)?;
        self.ticks += 1;
        self.flush_delayed_sends()?;
        if let Some(msg) = self.pop_stashed(from) {
            return Ok(Some(msg));
        }
        match self.inner.try_recv(from)? {
            None => Ok(None),
            Some((label, value)) => {
                self.op += 1;
                self.apply_recv_fault(from, label, value)
            }
        }
    }

    fn local_role(&self) -> &Role {
        self.inner.local_role()
    }
}

/// The wire-level corruption kinds a [`FaultReader`] can inject, below the
/// codec: these are byte-stream faults a certified process can never cause
/// but a hostile network can.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireFault {
    /// Flip one pseudo-randomly chosen bit in a delivered chunk.
    BitFlip,
    /// Deliver a chunk in two halves across separate extend calls,
    /// exercising partial-frame reassembly. Behaviorally a no-op for a
    /// correct reader.
    Split,
    /// Drop the tail of a chunk: the stream loses bytes mid-frame and every
    /// later byte is misinterpreted.
    TruncateTail,
    /// Overwrite the start of a chunk with an absurd big-endian length
    /// prefix (`u32::MAX`), which must poison the reader, not allocate.
    HostileLength,
}

impl std::fmt::Display for WireFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WireFault::BitFlip => "bit-flip",
            WireFault::Split => "split",
            WireFault::TruncateTail => "truncate-tail",
            WireFault::HostileLength => "hostile-length",
        };
        f.write_str(s)
    }
}

/// One injected wire fault, as recorded in the [`FaultReader`] schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedWireFault {
    /// The 1-based index of the delivered chunk the fault applied to.
    pub chunk: u64,
    /// What was injected.
    pub fault: WireFault,
}

#[derive(Debug)]
struct WireFaultSpec {
    fault: WireFault,
    rate_per_64k: u32,
    budget: u32,
    used: u32,
}

/// A [`FrameReader`] wrapper that corrupts the incoming byte stream before
/// the framing layer sees it.
///
/// Feed bytes with [`FaultReader::extend`] or [`FaultReader::fill`] exactly
/// as with a bare `FrameReader`; corruption is applied per delivered chunk,
/// deterministically from the seed, and logged in
/// [`FaultReader::schedule`].
#[derive(Debug)]
pub struct FaultReader {
    inner: FrameReader,
    rng: SplitMix64,
    specs: Vec<WireFaultSpec>,
    /// Second half of a split chunk, delivered before the next chunk.
    held: Vec<u8>,
    chunk: u64,
    schedule: Vec<InjectedWireFault>,
}

impl FaultReader {
    /// Creates a reader with the given frame-size cap and fault seed.
    pub fn new(max_frame_bytes: usize, seed: u64) -> Self {
        FaultReader {
            inner: FrameReader::new(max_frame_bytes),
            rng: SplitMix64::new(seed),
            specs: Vec::new(),
            held: Vec::new(),
            chunk: 0,
            schedule: Vec::new(),
        }
    }

    /// Adds a wire-fault spec (builder style). `rate_per_64k` of 65 536
    /// fires on every chunk until `budget` injections have happened.
    #[must_use]
    pub fn with(mut self, fault: WireFault, rate_per_64k: u32, budget: u32) -> Self {
        self.specs.push(WireFaultSpec {
            fault,
            rate_per_64k,
            budget,
            used: 0,
        });
        self
    }

    /// The deterministic log of injected wire faults.
    pub fn schedule(&self) -> &[InjectedWireFault] {
        &self.schedule
    }

    /// Bytes buffered but not yet consumed as complete frames, including a
    /// held split-chunk half.
    pub fn pending_bytes(&self) -> usize {
        self.inner.pending_bytes() + self.held.len()
    }

    /// The configured frame-size cap.
    pub fn max_frame_bytes(&self) -> usize {
        self.inner.max_frame_bytes()
    }

    /// Delivers bytes through the corruption layer into the framing buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        if !self.held.is_empty() {
            let held = std::mem::take(&mut self.held);
            self.inner.extend(&held);
        }
        if bytes.is_empty() {
            return;
        }
        self.chunk += 1;
        let mut owned = bytes.to_vec();
        let mut fired: Option<WireFault> = None;
        for spec in &mut self.specs {
            if spec.used >= spec.budget {
                continue;
            }
            if self.rng.chance(spec.rate_per_64k) {
                spec.used += 1;
                fired = Some(spec.fault);
                break;
            }
        }
        let Some(fault) = fired else {
            self.inner.extend(&owned);
            return;
        };
        self.schedule.push(InjectedWireFault {
            chunk: self.chunk,
            fault,
        });
        match fault {
            WireFault::BitFlip => {
                let byte = self.rng.below(owned.len() as u64) as usize;
                let bit = self.rng.below(8) as u8;
                owned[byte] ^= 1 << bit;
                self.inner.extend(&owned);
            }
            WireFault::Split => {
                let cut = 1 + self.rng.below(owned.len() as u64) as usize;
                let cut = cut.min(owned.len());
                self.inner.extend(&owned[..cut]);
                self.held = owned[cut..].to_vec();
            }
            WireFault::TruncateTail => {
                let keep = self.rng.below(owned.len() as u64) as usize;
                self.inner.extend(&owned[..keep]);
            }
            WireFault::HostileLength => {
                let hostile = u32::MAX.to_be_bytes();
                if owned.len() >= 4 {
                    owned[..4].copy_from_slice(&hostile);
                    self.inner.extend(&owned);
                } else {
                    self.inner.extend(&hostile);
                    self.inner.extend(&owned);
                }
            }
        }
    }

    /// Reads available bytes from `reader` through the corruption layer,
    /// mirroring [`FrameReader::fill`]'s contract.
    ///
    /// # Errors
    ///
    /// Propagates transport i/o failures (never `WouldBlock`, which maps to
    /// [`FillStatus::WouldBlock`]).
    pub fn fill(&mut self, reader: &mut impl Read) -> Result<FillStatus> {
        let mut chunk = [0u8; 4096];
        loop {
            match reader.read(&mut chunk) {
                Ok(0) => return Ok(FillStatus::Eof),
                Ok(n) => {
                    self.extend(&chunk[..n]);
                    return Ok(FillStatus::Progress);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(FillStatus::WouldBlock)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(RuntimeError::Io(e)),
            }
        }
    }

    /// Pops the next complete frame, exactly as [`FrameReader::next_frame`].
    ///
    /// # Errors
    ///
    /// Fails when a (possibly injected) length prefix exceeds the cap.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        // A held split half with an otherwise starved buffer must still be
        // parseable: release it if the inner reader cannot make progress.
        match self.inner.next_frame()? {
            Some(frame) => Ok(Some(frame)),
            None => {
                if self.held.is_empty() {
                    return Ok(None);
                }
                let held = std::mem::take(&mut self.held);
                self.inner.extend(&held);
                self.inner.next_frame()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InMemoryNetwork;
    use crate::wire::put_frame;

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    fn l(name: &str) -> Label {
        Label::new(name)
    }

    fn pair() -> (
        crate::transport::InMemoryTransport,
        crate::transport::InMemoryTransport,
    ) {
        let mut net = InMemoryNetwork::new([r("p"), r("q")]);
        (
            net.take_endpoint(&r("p")).unwrap(),
            net.take_endpoint(&r("q")).unwrap(),
        )
    }

    #[test]
    fn splitmix_streams_are_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut c = SplitMix64::new(43);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn empty_plan_is_a_passthrough() {
        let (p, mut q) = pair();
        let mut p = FaultyTransport::new(p, &FaultPlan::new(7));
        for i in 0..10 {
            p.send(&r("q"), &l("m"), &Value::Nat(i)).unwrap();
        }
        for i in 0..10 {
            assert_eq!(q.recv(&r("p")).unwrap(), (l("m"), Value::Nat(i)));
        }
        assert!(p.schedule().is_empty());
    }

    #[test]
    fn drop_discards_exactly_budget_messages() {
        let (p, mut q) = pair();
        let plan =
            FaultPlan::new(1).with(FaultSpec::new(FaultKind::Drop, FaultSite::Send).budget(1));
        let mut p = FaultyTransport::new(p, &plan);
        p.send(&r("q"), &l("a"), &Value::Nat(1)).unwrap();
        p.send(&r("q"), &l("b"), &Value::Nat(2)).unwrap();
        // First send dropped, second delivered.
        assert_eq!(q.recv(&r("p")).unwrap(), (l("b"), Value::Nat(2)));
        assert_eq!(p.schedule().len(), 1);
        assert_eq!(p.schedule()[0].kind, FaultKind::Drop);
        assert_eq!(p.schedule()[0].op, 1);
    }

    #[test]
    fn duplicate_delivers_twice() {
        let (p, mut q) = pair();
        let plan = FaultPlan::new(2).with(FaultSpec::new(FaultKind::Duplicate, FaultSite::Send));
        let mut p = FaultyTransport::new(p, &plan);
        p.send(&r("q"), &l("a"), &Value::Nat(1)).unwrap();
        assert_eq!(q.recv(&r("p")).unwrap(), (l("a"), Value::Nat(1)));
        assert_eq!(q.recv(&r("p")).unwrap(), (l("a"), Value::Nat(1)));
    }

    #[test]
    fn send_reorder_swaps_adjacent_messages() {
        let (p, mut q) = pair();
        let plan = FaultPlan::new(3).with(FaultSpec::new(FaultKind::Reorder, FaultSite::Send));
        let mut p = FaultyTransport::new(p, &plan);
        p.send(&r("q"), &l("first"), &Value::Nat(1)).unwrap();
        p.send(&r("q"), &l("second"), &Value::Nat(2)).unwrap();
        assert_eq!(q.recv(&r("p")).unwrap(), (l("second"), Value::Nat(2)));
        assert_eq!(q.recv(&r("p")).unwrap(), (l("first"), Value::Nat(1)));
    }

    #[test]
    fn an_impossible_recv_reorder_refunds_the_spec_that_fired() {
        let mut net = InMemoryNetwork::new([r("p"), r("q"), r("s")]);
        let q = net.take_endpoint(&r("q")).unwrap();
        let mut s = net.take_endpoint(&r("s")).unwrap();
        let reorder = |peer| FaultSpec::new(FaultKind::Reorder, FaultSite::Recv).peer(r(peer));
        let plan = FaultPlan::new(3).with(reorder("p")).with(reorder("s"));
        let mut q = FaultyTransport::new(q, &plan);
        // A lone message from s: nothing queued behind it to swap with, so
        // it passes through and the s-spec — not the p-spec listed before
        // it — gets its budget back.
        s.send(&r("q"), &l("lone"), &Value::Unit).unwrap();
        assert_eq!(q.recv(&r("s")).unwrap(), (l("lone"), Value::Unit));
        assert!(q.schedule().is_empty());
        s.send(&r("q"), &l("first"), &Value::Nat(1)).unwrap();
        s.send(&r("q"), &l("second"), &Value::Nat(2)).unwrap();
        assert_eq!(q.recv(&r("s")).unwrap(), (l("second"), Value::Nat(2)));
        assert_eq!(q.recv(&r("s")).unwrap(), (l("first"), Value::Nat(1)));
        assert_eq!(q.schedule().len(), 1);
    }

    #[test]
    fn recv_truncate_surfaces_codec_error() {
        let (mut p, q) = pair();
        let plan = FaultPlan::new(4).with(FaultSpec::new(FaultKind::Truncate, FaultSite::Recv));
        let mut q = FaultyTransport::new(q, &plan);
        p.send(&r("q"), &l("a"), &Value::Nat(1)).unwrap();
        match q.recv(&r("p")) {
            Err(RuntimeError::Codec { reason }) => {
                assert!(reason.contains("injected"), "reason: {reason}")
            }
            other => panic!("expected codec error, got {other:?}"),
        }
    }

    #[test]
    fn disconnect_is_sticky_on_both_directions() {
        let (p, _q) = pair();
        let plan = FaultPlan::new(5).with(FaultSpec::new(FaultKind::Disconnect, FaultSite::Send));
        let mut p = FaultyTransport::new(p, &plan);
        assert!(matches!(
            p.send(&r("q"), &l("a"), &Value::Nat(1)),
            Err(RuntimeError::Disconnected { .. })
        ));
        assert!(matches!(
            p.send(&r("q"), &l("b"), &Value::Nat(2)),
            Err(RuntimeError::Disconnected { .. })
        ));
        assert!(matches!(
            p.try_recv(&r("q")),
            Err(RuntimeError::Disconnected { .. })
        ));
    }

    #[test]
    fn recv_delay_holds_then_releases() {
        let (mut p, q) = pair();
        let plan = FaultPlan::new(6).with(FaultSpec::new(FaultKind::Delay, FaultSite::Recv));
        let mut q = FaultyTransport::new(q, &plan);
        p.send(&r("q"), &l("a"), &Value::Nat(1)).unwrap();
        // The delayed message resurfaces after a bounded number of polls.
        let mut polls = 0;
        let msg = loop {
            polls += 1;
            assert!(polls < 32, "delayed message never released");
            if let Some(msg) = q.try_recv(&r("p")).unwrap() {
                break msg;
            }
        };
        assert_eq!(msg, (l("a"), Value::Nat(1)));
        assert!(polls > 1, "delay must hold the message at least one poll");
    }

    #[test]
    fn schedules_are_byte_identical_across_runs() {
        let run = |seed: u64| {
            let (p, mut q) = pair();
            let plan = FaultPlan::new(seed)
                .with(FaultSpec::new(FaultKind::Drop, FaultSite::Send).rate(20_000).budget(3))
                .with(FaultSpec::new(FaultKind::Duplicate, FaultSite::Send).rate(20_000).budget(3));
            let mut p = FaultyTransport::new(p, &plan);
            for i in 0..32 {
                p.send(&r("q"), &l("m"), &Value::Nat(i)).unwrap();
            }
            let mut received = Vec::new();
            while let Some(msg) = q.try_recv(&r("p")).unwrap() {
                received.push(msg);
            }
            (format!("{:?}", p.schedule()), received)
        };
        let (sched_a, recv_a) = run(99);
        let (sched_b, recv_b) = run(99);
        let (sched_c, _) = run(100);
        assert_eq!(sched_a.as_bytes(), sched_b.as_bytes());
        assert_eq!(recv_a, recv_b);
        assert_ne!(sched_a, sched_c, "different seeds must differ");
        assert!(!sched_a.is_empty());
    }

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            put_frame(&mut out, p, 1 << 20).unwrap();
        }
        out
    }

    #[test]
    fn fault_reader_passthrough_without_specs() {
        let bytes = framed(&[b"hello", b"world"]);
        let mut reader = FaultReader::new(1 << 20, 1);
        reader.extend(&bytes);
        assert_eq!(reader.next_frame().unwrap().unwrap(), b"hello");
        assert_eq!(reader.next_frame().unwrap().unwrap(), b"world");
        assert_eq!(reader.next_frame().unwrap(), None);
        assert!(reader.schedule().is_empty());
    }

    #[test]
    fn fault_reader_bit_flip_corrupts_payload() {
        let payload = vec![0u8; 64];
        let bytes = framed(&[&payload]);
        // Skip flipping header bytes by trying seeds until the flip lands in
        // the body; with a 64-byte body vs 4 header bytes most seeds do.
        for seed in 0..16u64 {
            let mut reader = FaultReader::new(1 << 20, seed).with(WireFault::BitFlip, 65_536, 1);
            reader.extend(&bytes);
            match reader.next_frame() {
                Ok(Some(frame)) => {
                    if frame != payload {
                        assert_eq!(reader.schedule().len(), 1);
                        return; // corruption observed below the codec
                    }
                }
                Ok(None) | Err(_) => return, // header flip: also a corruption
            }
        }
        panic!("bit flip never corrupted the stream");
    }

    #[test]
    fn fault_reader_split_is_behavioral_noop() {
        let bytes = framed(&[b"alpha", b"beta", b"gamma"]);
        let mut reader = FaultReader::new(1 << 20, 7).with(WireFault::Split, 65_536, 8);
        // Deliver in small chunks so splits interleave with partial frames.
        for chunk in bytes.chunks(5) {
            reader.extend(chunk);
        }
        let mut frames = Vec::new();
        while let Some(frame) = reader.next_frame().unwrap() {
            frames.push(frame);
        }
        assert_eq!(frames, vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()]);
        assert!(!reader.schedule().is_empty());
    }

    #[test]
    fn fault_reader_hostile_length_poisons_not_allocates() {
        let bytes = framed(&[b"payload"]);
        let mut reader = FaultReader::new(1 << 20, 3).with(WireFault::HostileLength, 65_536, 1);
        reader.extend(&bytes);
        match reader.next_frame() {
            Err(RuntimeError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, 1 << 20);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        // Poisoning is permanent.
        assert!(matches!(
            reader.next_frame(),
            Err(RuntimeError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn fault_reader_truncate_leaves_partial_frame() {
        let bytes = framed(&[b"a-rather-long-payload-so-the-tail-matters"]);
        let mut reader = FaultReader::new(1 << 20, 11).with(WireFault::TruncateTail, 65_536, 1);
        reader.extend(&bytes);
        // The frame can never complete: bytes were lost mid-frame.
        assert_eq!(reader.next_frame().unwrap(), None);
        assert!(reader.pending_bytes() < bytes.len());
        assert_eq!(reader.schedule().len(), 1);
    }

    #[test]
    fn fault_reader_schedule_is_deterministic() {
        let bytes = framed(&[b"one", b"two", b"three", b"four"]);
        let run = |seed: u64| {
            let mut reader = FaultReader::new(1 << 20, seed)
                .with(WireFault::Split, 30_000, 4)
                .with(WireFault::BitFlip, 10_000, 2);
            for chunk in bytes.chunks(3) {
                reader.extend(chunk);
            }
            format!("{:?}", reader.schedule())
        };
        assert_eq!(run(5).as_bytes(), run(5).as_bytes());
    }
}
