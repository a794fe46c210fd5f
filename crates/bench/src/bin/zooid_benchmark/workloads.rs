//! The frozen constants of each workload, the session decks, and the
//! bookkeeping every workload shares (arguments, the correctness gate, the
//! report).
//!
//! Counts are fixed per second of `--seconds`, not timed: at a given seed
//! and `--seconds` every run submits exactly the same sessions, so counts
//! read from the server repeat exactly. The rates are sized on the 2-core
//! reference box so that a run measures for about `--seconds`.

use std::path::PathBuf;

use crate::fixtures::{self, Fixture, LONG_FIXTURE};
use crate::rng::{zipf_counts, Fingerprint, SplitMix64};
use crate::spec;
use crate::stats::Summary;

/// Shards of every server the benchmark starts: one per core of the
/// reference box, leaving the driver to compete with them as a client on
/// the same machine would.
pub const SHARDS: usize = 2;
/// The measured phase is split into this many repetitions; throughput is
/// their median.
pub const REPETITIONS: usize = 5;
/// Set-up is done this many times per run; `setup_s` is the median.
pub const SETUPS: usize = 5;
/// The traced pass alternates this many untraced and traced closed-loop
/// repetitions, each a fraction of a measured one, and compares their
/// medians: one pair alone reads the box's drift, not the tracer.
pub const TRACE_PAIRS: usize = 3;
/// Share of a sampled repetition's sessions re-run on `SessionHarness`.
pub const HARNESS_SAMPLE_PERCENT: usize = 1;
/// Upper limit of those re-runs: each step-bounded one waits out a receive
/// timeout, and the gate must not outweigh the measurement.
pub const HARNESS_SAMPLE_MAX: usize = 48;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    pub out: Option<PathBuf>,
    pub smoke: bool,
}

impl RunArgs {
    /// Seconds one repetition is sized for.
    pub fn rep_seconds(&self) -> f64 {
        self.seconds / REPETITIONS as f64
    }

    pub fn repetitions(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            REPETITIONS
        }
    }

    pub fn setups(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            SETUPS
        }
    }

    /// `rate` operations per second of a repetition, at least `floor`;
    /// a smoke run does a hundredth.
    pub fn count(&self, rate: f64, floor: usize) -> usize {
        let scale = if self.smoke { 0.01 } else { 1.0 };
        ((rate * self.rep_seconds() * scale).round() as usize).max(floor)
    }
}

/// Counts operations attempted and failed; a failure is any operation that
/// was refused, shed, timed out or ended otherwise than its class says, and
/// any check of the run that did not hold.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(20);
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub gate: Gate,
    pub metrics: Vec<(&'static str, Summary)>,
    /// Lines for the human reader that are not metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, summary: Summary) {
        self.metrics.push((name, summary));
    }

    pub fn value(&mut self, name: &'static str, value: f64) {
        self.set(name, Summary::single(value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.median)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Normal,
    /// `chain3` under [`fixtures::LONG_STEPS`].
    Long,
    /// One role misbehaves; the mutation is drawn when the card is dealt.
    Byzantine,
}

/// One session to submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Card {
    pub fixture: usize,
    pub kind: Kind,
    /// Submit a freshly built, structurally equal cast instead of the
    /// shared handle.
    pub fresh: bool,
    /// `ExecOptions::record_actions`.
    pub record: bool,
}

impl Card {
    const fn plain(fixture: usize) -> Card {
        Card {
            fixture,
            kind: Kind::Normal,
            fresh: false,
            record: true,
        }
    }
}

/// Cards in one `mem_mixed` deck. Every deck holds exactly the same cards,
/// so the work of a repetition does not depend on the seed; the seed deals
/// them in another order.
pub const MIXED_DECK: usize = 2_000;
/// 0.5% of a deck.
const MIXED_LONG: usize = 10;
/// The protocols byzantine sessions run (positions in
/// [`fixtures::mixed`]): terminating skeletons on the batch path.
const BYZANTINE_HOSTS: [usize; 5] = [0, 1, 4, 5, 6];
/// Byzantine cards per host: 20 in all, 1% of a deck.
const BYZANTINE_PER_HOST: usize = 4;

/// An in-memory serving workload.
#[derive(Debug, Clone)]
pub struct MemPlan {
    pub fixtures: Vec<Fixture>,
    pub deck: Vec<Card>,
    pub in_flight: usize,
    /// The closed-loop driver submits when this many of the `in_flight` are
    /// free, all of them at once. Refilling one by one makes every submit
    /// wake a parked shard, and the box then flips from run to run between
    /// a regime of 5 and one of 10 us of CPU per session; refilling by half
    /// the window holds one regime and keeps at least half in flight.
    pub refill: usize,
    /// Closed-loop sessions per second of a repetition.
    pub closed_rate: f64,
    /// Open-loop arrival rate of the traced pass, sessions/s: about a
    /// quarter of the closed-loop throughput of the reference box.
    pub open_rate: f64,
}

/// The plan of a serving workload; `None` for `register`.
pub fn plan(workload: &str) -> Option<MemPlan> {
    match workload {
        spec::MEM_SHORT => Some(mem_short()),
        spec::MEM_LONG => Some(mem_long()),
        spec::MEM_MIXED => Some(mem_mixed()),
        spec::TCP_SHORT => Some(tcp_short()),
        _ => None,
    }
}

fn mem_short() -> MemPlan {
    MemPlan {
        fixtures: vec![fixtures::ring4()],
        deck: vec![Card::plain(0)],
        in_flight: 512,
        refill: 256,
        closed_rate: 200_000.0,
        open_rate: 50_000.0,
    }
}

fn mem_long() -> MemPlan {
    MemPlan {
        fixtures: vec![fixtures::fanout_loop4()],
        deck: vec![Card::plain(0)],
        in_flight: 128,
        refill: 64,
        closed_rate: 400.0,
        open_rate: 100.0,
    }
}

fn mem_mixed() -> MemPlan {
    let fixtures = fixtures::mixed();
    MemPlan {
        deck: mixed_deck(fixtures.len()),
        fixtures,
        in_flight: 512,
        refill: 256,
        closed_rate: 26_000.0,
        open_rate: 6_500.0,
    }
}

/// `tcp_short`: `in_flight` is per connection (under the server's cap of
/// 256) and each `Done` is answered by one `Open`; the rates are over both
/// connections. Closed-loop throughput is in-flight over latency here, not a
/// CPU limit, and the open-loop rate is a fifth of it.
fn tcp_short() -> MemPlan {
    MemPlan {
        fixtures: vec![fixtures::ring4()],
        deck: vec![Card::plain(0)],
        in_flight: 128,
        refill: 1,
        closed_rate: 10_000.0,
        open_rate: 2_000.0,
    }
}

/// The `mem_mixed` deck: protocols by Zipf(1) rank, then within each
/// protocol's cards 30% fresh casts and 20% untraced, by position, so each
/// protocol carries the same shares; 10 of `chain3`'s cards run long and 4
/// cards of each byzantine host misbehave.
pub fn mixed_deck(protocols: usize) -> Vec<Card> {
    let mut deck = Vec::with_capacity(MIXED_DECK);
    for (fixture, count) in zipf_counts(protocols, MIXED_DECK).into_iter().enumerate() {
        for j in 0..count {
            let kind = if fixture == LONG_FIXTURE && j < MIXED_LONG {
                Kind::Long
            } else if BYZANTINE_HOSTS.contains(&fixture) && j >= count - BYZANTINE_PER_HOST {
                Kind::Byzantine
            } else {
                Kind::Normal
            };
            deck.push(Card {
                fixture,
                kind,
                fresh: (j * 3) % 10 < 3,
                record: j % 5 != 4,
            });
        }
    }
    deck
}

/// Deals a plan's deck over and over, reshuffled by the seed each time.
#[derive(Debug)]
pub struct Dealer {
    deck: Vec<Card>,
    next: usize,
    pub rng: SplitMix64,
}

impl Dealer {
    pub fn new(deck: &[Card], seed: u64, phase: &str) -> Self {
        Dealer {
            deck: deck.to_vec(),
            next: deck.len(),
            rng: SplitMix64::stream(seed, phase),
        }
    }

    pub fn deal(&mut self) -> Card {
        if self.next == self.deck.len() {
            self.rng.shuffle(&mut self.deck);
            self.next = 0;
        }
        self.next += 1;
        self.deck[self.next - 1]
    }
}

/// Rounds a session count to whole decks, so every repetition holds the
/// same cards.
pub fn whole_decks(count: usize, deck: usize) -> usize {
    count.div_ceil(deck) * deck
}

/// Seeded Poisson arrivals: offsets in ns from the start of the phase.
pub fn arrivals(seed: u64, phase: &str, rate: f64, count: usize) -> Vec<u64> {
    let mut rng = SplitMix64::stream(seed, phase);
    let mean_ns = 1e9 / rate;
    let mut at = 0u64;
    (0..count)
        .map(|_| {
            at += rng.exp_ns(mean_ns);
            at
        })
        .collect()
}

/// Fingerprint of what a seed generates for a serving plan: the first
/// cards dealt and the first arrivals.
pub fn fingerprint(plan: &MemPlan, seed: u64) -> u64 {
    let mut print = Fingerprint::new();
    let mut dealer = Dealer::new(&plan.deck, seed, "closed/0");
    for _ in 0..plan.deck.len().max(64) {
        let card = dealer.deal();
        print.text(plan.fixtures[card.fixture].name);
        print.word(card.kind as u64 | (u64::from(card.fresh) << 8) | (u64::from(card.record) << 9));
    }
    for due in arrivals(seed, "open", plan.open_rate, 256) {
        print.word(due);
    }
    print.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_deck_holds_the_stated_shares() {
        let deck = mixed_deck(24);
        assert_eq!(deck.len(), MIXED_DECK);
        let share = |pred: &dyn Fn(&Card) -> bool| {
            deck.iter().filter(|c| pred(c)).count() as f64 / deck.len() as f64
        };
        assert_eq!(deck.iter().filter(|c| c.kind == Kind::Long).count(), 10);
        assert_eq!(
            deck.iter().filter(|c| c.kind == Kind::Byzantine).count(),
            20
        );
        assert!((share(&|c| c.fresh) - 0.30).abs() < 0.01);
        assert!((share(&|c| !c.record) - 0.20).abs() < 0.01);
        // Zipf(1): rank 1 is drawn twice as often as rank 2, and every
        // protocol is drawn.
        let of = |fixture| deck.iter().filter(|c| c.fixture == fixture).count();
        assert!((of(0) as f64 / of(1) as f64 - 2.0).abs() < 0.05);
        assert!((0..24).all(|f| of(f) >= 20));
        // The pipeline runs on the slab and must be in every deck.
        let pipeline = fixtures::mixed()
            .iter()
            .position(|f| f.name == "pipeline")
            .unwrap();
        assert!(of(pipeline) > 0);
        assert_eq!(fixtures::mixed()[LONG_FIXTURE].name, "chain3");
    }

    #[test]
    fn a_dealer_deals_whole_decks_in_a_seeded_order() {
        let deck = mixed_deck(24);
        let deal = |seed| {
            let mut dealer = Dealer::new(&deck, seed, "closed/0");
            (0..MIXED_DECK).map(|_| dealer.deal()).collect::<Vec<_>>()
        };
        let (a, b, c) = (deal(1), deal(1), deal(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let count = |cards: &[Card], fixture| cards.iter().filter(|c| c.fixture == fixture).count();
        for fixture in 0..24 {
            assert_eq!(count(&a, fixture), count(&deck, fixture));
            assert_eq!(count(&c, fixture), count(&deck, fixture));
        }
    }

    #[test]
    fn same_seed_same_fingerprint_other_seed_other_fingerprint() {
        for plan in [mem_short(), mem_long(), mem_mixed()] {
            assert_eq!(fingerprint(&plan, 1), fingerprint(&plan, 1));
            assert_ne!(fingerprint(&plan, 1), fingerprint(&plan, 2));
        }
    }

    #[test]
    fn arrivals_keep_the_asked_rate() {
        let due = arrivals(5, "open", 40_000.0, 80_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let seconds = *due.last().unwrap() as f64 / 1e9;
        assert!((seconds - 2.0).abs() < 0.05, "{seconds}");
    }

    #[test]
    fn counts_scale_with_seconds_and_smoke() {
        let mut args = RunArgs {
            workload: "mem_short".into(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            trace_out: None,
            out: None,
            smoke: false,
        };
        assert_eq!(args.count(150_000.0, 1), 300_000);
        assert_eq!(args.repetitions(), REPETITIONS);
        args.smoke = true;
        assert_eq!(args.count(150_000.0, 1), 3_000);
        assert_eq!(args.count(320.0, 8), 8);
        assert_eq!((args.repetitions(), args.setups()), (1, 1));
        assert_eq!(whole_decks(1, 2_000), 2_000);
        assert_eq!(whole_decks(4_000, 2_000), 4_000);
    }
}
