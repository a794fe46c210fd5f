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
//!   schedule byte for byte.
//!
//! Determinism is the load-bearing property: the PRNG is consulted only on
//! *counted* operations — every send, and every receive that actually
//! produced a message — never on empty polls, so the injected schedule
//! depends only on the endpoint's deterministic program order, not on
//! timing, and is identical across the in-memory and TCP backends.

use std::collections::VecDeque;

use zooid_mpst::{Label, Role};
use zooid_proc::Value;

use crate::error::{Result, RuntimeError};
use crate::transport::Transport;

/// SplitMix64: a tiny, fast, hand-rolled deterministic PRNG (no external
/// crates — the build stays hermetic). Good enough statistical quality for
/// fault scheduling, and trivially reproducible from a single `u64` seed.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next pseudo-random 64-bit value.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a value uniformly distributed in `0..bound` (`bound > 0`).
    fn below(&mut self, bound: u64) -> u64 {
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
        matches!(
            (self, dir),
            (FaultSite::Any, _)
                | (FaultSite::Send, FaultDirection::Send)
                | (FaultSite::Recv, FaultDirection::Recv)
        )
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InMemoryNetwork;

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
}
