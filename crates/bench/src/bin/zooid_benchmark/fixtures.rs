//! The benchmark's own protocols, endpoint implementations and hand-written
//! expectations. Nothing here comes from `zooid_bench`'s library fixtures:
//! the workloads are frozen with the benchmark, so a later change to those
//! fixtures cannot move a benchmark number.

use zooid_cfsm::Verdict;
use zooid_dsl::builder::{self, BranchAlt, SelectAlt};
use zooid_dsl::{CertifiedProcess, Protocol, WtProc};
use zooid_mpst::generators::{self, RandomProtocol};
use zooid_mpst::global::GlobalType;
use zooid_mpst::local::LocalType;
use zooid_mpst::{Role, Sort};
use zooid_proc::{Expr, Externals, Value};
use zooid_server::synth::skeleton_endpoints;

/// One endpoint cast, as `SessionSpec` takes it.
pub type Cast = Vec<(CertifiedProcess, Externals)>;
/// A cast behind the handle sessions share.
pub type SharedCast = std::sync::Arc<[(CertifiedProcess, Externals)]>;

/// How a session of a fixture is expected to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ending {
    /// Every endpoint finishes; the trace is compliant and complete.
    Terminates,
    /// A recursive protocol under a step limit: compliant, and every
    /// endpoint is at its limit or blocked behind one that is.
    StepBounded,
}

/// One protocol of a serving workload.
#[derive(Debug, Clone)]
pub struct Fixture {
    pub name: &'static str,
    pub global: GlobalType,
    pub max_steps: Option<usize>,
    pub ending: Ending,
    /// Visible actions of one session, summed over its endpoints — written
    /// by hand from the protocol's shape, not computed from a run.
    pub actions: usize,
    /// Whether `SessionHarness` is an oracle for the fixture. It is not for a
    /// step-bounded pipeline: there a receiver reaches its limit and drops
    /// its endpoint while its sender still has messages to send, which the
    /// harness fails as a disconnection and the server, whose endpoints live
    /// until the session closes, does not.
    pub harness_oracle: bool,
    /// `None`: skeleton endpoints synthesised from the projections.
    hand_written: Option<fn(&Protocol) -> Cast>,
}

impl Fixture {
    fn skeleton(name: &'static str, global: GlobalType, actions: usize) -> Self {
        Fixture {
            name,
            global,
            max_steps: None,
            ending: Ending::Terminates,
            actions,
            harness_oracle: true,
            hand_written: None,
        }
    }

    fn pipelined(mut self) -> Self {
        self.harness_oracle = false;
        self
    }

    fn bounded(mut self, max_steps: usize) -> Self {
        self.max_steps = Some(max_steps);
        self.ending = Ending::StepBounded;
        self
    }

    pub fn protocol(&self) -> Protocol {
        Protocol::new(self.name, self.global.clone()).expect("benchmark protocols are well-formed")
    }

    /// Certifies one endpoint per participant.
    pub fn cast(&self, protocol: &Protocol) -> Cast {
        match self.hand_written {
            Some(build) => build(protocol),
            None => skeleton_endpoints(protocol).expect("benchmark protocols have skeletons"),
        }
    }
}

fn r(name: &str) -> Role {
    Role::new(name)
}

/// A recursive fan-out: each round the hub sends one task to every worker,
/// then collects every acknowledgement, forever.
pub fn fanout_loop(workers: usize) -> GlobalType {
    let hub = r("hub");
    let workers: Vec<Role> = (0..workers).map(|i| Role::new(format!("w{i}"))).collect();
    let mut g = GlobalType::var(0);
    for w in workers.iter().rev() {
        g = GlobalType::msg1(w.clone(), hub.clone(), "ack", Sort::Unit, g);
    }
    for w in workers.iter().rev() {
        g = GlobalType::msg1(hub.clone(), w.clone(), "task", Sort::Nat, g);
    }
    GlobalType::rec(g)
}

/// `mem_short` and `tcp_short`: four roles, four messages, eight actions.
pub fn ring4() -> Fixture {
    Fixture::skeleton("ring4", generators::ring_n(4), 8)
}

/// `mem_long`: the hub's 4096 steps are 512 rounds of 4 sends and 4
/// receives; each of the 4 workers does 512 receives and 512 sends and then
/// waits for a task that never comes: 4096 + 4 x 1024.
pub fn fanout_loop4() -> Fixture {
    Fixture::skeleton("fanout_loop4", fanout_loop(4), 8192).bounded(4096)
}

/// Step limit of the recursive chains in `mem_mixed`.
const CHAIN_STEPS: usize = 64;
/// Step limit of a long session in `mem_mixed`.
pub const LONG_STEPS: usize = 4096;
/// A long `chain3` session: the head sends 4096, the middle receives and
/// forwards 2048, the tail receives 2048.
pub const LONG_ACTIONS: usize = 10_240;
/// Position of `chain3`, the protocol long sessions run, in [`mixed`].
pub const LONG_FIXTURE: usize = 2;

/// The 24 protocols of `mem_mixed`, most popular first (rank k is drawn
/// with weight 1/k). The order interleaves the families so that the head of
/// the distribution already mixes layouts, and it is frozen: a seed changes
/// the order sessions arrive in, never which protocols are popular, or two
/// seeds would measure different work.
///
/// Expected actions: a ring of n is n messages; a fan-out of n is n tasks
/// and n acks; `branching(d)` takes the first branch d times, then `done`;
/// a chain of n under a limit of s steps has its head send s, each of the
/// n - 2 middles receive and forward s/2, and its tail receive s/2.
pub fn mixed() -> Vec<Fixture> {
    let chain = |name, n, actions| {
        Fixture::skeleton(name, generators::chain_n(n), actions)
            .bounded(CHAIN_STEPS)
            .pipelined()
    };
    vec![
        Fixture::skeleton("ring4", generators::ring_n(4), 8),
        Fixture::skeleton("fanout3", generators::fanout_n(3), 12),
        chain("chain3", 3, 160),
        Fixture {
            hand_written: Some(two_buyer_cast),
            ..Fixture::skeleton("two_buyer", generators::two_buyer(), 12)
        },
        Fixture::skeleton("ring3", generators::ring_n(3), 6),
        Fixture::skeleton("branching2", generators::branching(2), 6),
        Fixture::skeleton("fanout2", generators::fanout_n(2), 8),
        Fixture::skeleton("ring6", generators::ring_n(6), 12),
        Fixture {
            hand_written: Some(ping_pong_cast),
            ..Fixture::skeleton("ping_pong", generators::ping_pong(), 34)
        },
        chain("chain4", 4, 224),
        Fixture::skeleton("ring5", generators::ring_n(5), 10),
        Fixture {
            hand_written: Some(pipeline_cast),
            ..Fixture::skeleton("pipeline", generators::pipeline(), 500)
                .bounded(200)
                .pipelined()
        },
        Fixture::skeleton("fanout4", generators::fanout_n(4), 16),
        Fixture::skeleton("ring8", generators::ring_n(8), 16),
        Fixture::skeleton("branching3", generators::branching(3), 8),
        chain("chain5", 5, 288),
        Fixture::skeleton("fanout5", generators::fanout_n(5), 20),
        Fixture::skeleton("ring7", generators::ring_n(7), 14),
        chain("chain6", 6, 352),
        Fixture::skeleton("fanout6", generators::fanout_n(6), 24),
        chain("chain7", 7, 416),
        chain("chain8", 8, 480),
        // Two structural twins under other names: they share the registry's
        // compiled tables with their originals but own their program and
        // layout caches.
        Fixture::skeleton("ring4_twin", generators::ring_n(4), 8),
        Fixture::skeleton("fanout3_twin", generators::fanout_n(3), 12),
    ]
}

fn certify(protocol: &Protocol, endpoints: Vec<(&str, WtProc)>, externals: &Externals) -> Cast {
    endpoints
        .into_iter()
        .map(|(role, wt)| {
            let cert = protocol
                .implement(&r(role), wt, externals)
                .expect("benchmark endpoints certify");
            (cert, externals.clone())
        })
        .collect()
}

/// The §5.2 two-buyer protocol, B accepting: ItemId, Quote, Quote, Propose,
/// Accept, Date — six messages.
fn two_buyer_cast(protocol: &Protocol) -> Cast {
    let buyer_a = builder::send(
        r("S"),
        "ItemId",
        Sort::Nat,
        Expr::lit(42u64),
        builder::recv1(
            r("S"),
            "Quote",
            Sort::Nat,
            "quote",
            builder::send(
                r("B"),
                "Propose",
                Sort::Nat,
                Expr::sub(Expr::var("quote"), Expr::lit(220u64)),
                builder::finish(),
            )
            .expect("send"),
        )
        .expect("recv"),
    )
    .expect("send");
    let buyer_b = builder::recv1(
        r("S"),
        "Quote",
        Sort::Nat,
        "x",
        builder::recv1(
            r("A"),
            "Propose",
            Sort::Nat,
            "y",
            builder::select(
                r("S"),
                vec![
                    SelectAlt::case(
                        Expr::le(Expr::var("y"), Expr::div(Expr::var("x"), Expr::lit(3u64))),
                        "Accept",
                        Sort::Nat,
                        Expr::var("y"),
                        builder::recv1(r("S"), "Date", Sort::Nat, "d", builder::finish())
                            .expect("recv"),
                    ),
                    SelectAlt::otherwise("Reject", Sort::Unit, Expr::unit(), builder::finish()),
                ],
            )
            .expect("select"),
        )
        .expect("recv"),
    )
    .expect("recv");
    let seller = builder::recv1(
        r("A"),
        "ItemId",
        Sort::Nat,
        "item",
        builder::send(
            r("A"),
            "Quote",
            Sort::Nat,
            Expr::lit(300u64),
            builder::send(
                r("B"),
                "Quote",
                Sort::Nat,
                Expr::lit(300u64),
                builder::branch(
                    r("B"),
                    vec![
                        BranchAlt::new(
                            "Accept",
                            Sort::Nat,
                            "share",
                            builder::send(
                                r("B"),
                                "Date",
                                Sort::Nat,
                                Expr::lit(7u64),
                                builder::finish(),
                            )
                            .expect("send"),
                        ),
                        BranchAlt::new("Reject", Sort::Unit, "_u", builder::finish()),
                    ],
                )
                .expect("branch"),
            )
            .expect("send"),
        )
        .expect("send"),
    )
    .expect("recv");
    certify(
        protocol,
        vec![("A", buyer_a), ("B", buyer_b), ("S", seller)],
        &Externals::new(),
    )
}

/// The §5.1 ping-pong: Alice pings 0, Bob answers x + 8, Alice pings the
/// answer back until it reaches 64 and then quits. Eight ping/pong pairs and
/// the quit: seventeen messages.
fn ping_pong_cast(protocol: &Protocol) -> Cast {
    let inner = builder::select(
        r("Bob"),
        vec![
            SelectAlt::case(
                Expr::ge(Expr::var("x"), Expr::lit(64u64)),
                "l1",
                Sort::Unit,
                Expr::unit(),
                builder::finish(),
            ),
            SelectAlt::otherwise("l2", Sort::Nat, Expr::var("x"), builder::jump(0)),
        ],
    )
    .expect("select");
    let alice = builder::select(
        r("Bob"),
        vec![
            SelectAlt::skip("l1", Sort::Unit, LocalType::End),
            SelectAlt::otherwise(
                "l2",
                Sort::Nat,
                Expr::lit(0u64),
                builder::loop_(
                    builder::recv1(r("Bob"), "l3", Sort::Nat, "x", inner).expect("recv"),
                )
                .expect("loop"),
            ),
        ],
    )
    .expect("select");
    let bob = builder::loop_(
        builder::branch(
            r("Alice"),
            vec![
                BranchAlt::new("l1", Sort::Unit, "_q", builder::finish()),
                BranchAlt::new(
                    "l2",
                    Sort::Nat,
                    "x",
                    builder::send(
                        r("Alice"),
                        "l3",
                        Sort::Nat,
                        Expr::add(Expr::var("x"), Expr::lit(8u64)),
                        builder::jump(0),
                    )
                    .expect("send"),
                ),
            ],
        )
        .expect("branch"),
    )
    .expect("loop");
    certify(
        protocol,
        vec![("Alice", alice), ("Bob", bob)],
        &Externals::new(),
    )
}

/// The §5.1 pipeline with Bob calling an external `compute` between his
/// receive and his send. A program that calls externals is not
/// batch-eligible, so these sessions run on the per-session slab. Under 200
/// steps Alice sends 200, Bob receives and forwards 100, Carol receives 100.
fn pipeline_cast(protocol: &Protocol) -> Cast {
    let mut externals = Externals::new();
    externals.register_interact("compute", Sort::Nat, Sort::Nat, |v| {
        Value::Nat(v.as_nat().unwrap_or(0) + 1)
    });
    let alice = builder::loop_(
        builder::send(r("Bob"), "l", Sort::Nat, Expr::lit(1u64), builder::jump(0)).expect("send"),
    )
    .expect("loop");
    let bob = builder::loop_(
        builder::recv1(
            r("Alice"),
            "l",
            Sort::Nat,
            "x",
            builder::interact(
                "compute",
                Expr::var("x"),
                "res",
                builder::send(
                    r("Carol"),
                    "l",
                    Sort::Nat,
                    Expr::var("res"),
                    builder::jump(0),
                )
                .expect("send"),
            ),
        )
        .expect("recv"),
    )
    .expect("loop");
    let carol = builder::loop_(
        builder::recv1(r("Bob"), "l", Sort::Nat, "y", builder::jump(0)).expect("recv"),
    )
    .expect("loop");
    certify(
        protocol,
        vec![("Alice", alice), ("Bob", bob), ("Carol", carol)],
        &externals,
    )
}

/// One entry of the `register` workload's list, with the answer the
/// registry must give for it under the default `SafetyBudget`.
#[derive(Debug, Clone)]
pub struct Registration {
    pub name: String,
    pub global: GlobalType,
    pub expected: Expected,
    /// Registers in well under a millisecond: part of set-up's warm-up pass
    /// and of smoke runs.
    pub quick: bool,
}

/// What `ProtocolRegistry::register` must answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    Verdict(Verdict),
    /// Registration is refused: the type does not project onto some role.
    Unprojectable,
}

/// Sizes the scalable families are registered at. Fixed, because the cold
/// time is dominated by the largest members: a seed that drew sizes would
/// measure a different amount of work.
const FAMILY_SIZES: [usize; 11] = [2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64];
const FANOUT_SIZES: [usize; 9] = [2, 3, 4, 5, 6, 7, 8, 9, 10];
const BRANCHING_DEPTHS: [usize; 5] = [2, 3, 4, 5, 6];
/// A recursive chain pipelines: with two messages allowed per channel its
/// reachable configurations multiply with every role, and from 12 roles on
/// the default budget of 50,000 runs out before the search does.
const LARGEST_PROVED_CHAIN: usize = 8;

/// Whether `random_global(seed, RandomProtocol::default())` projects, for
/// seeds 0..40 (those that do are proved safe). A run registers 20 of the
/// 40, chosen by its seed; the generator does not promise projectability,
/// so most entries exercise the refusal path.
pub const RANDOM_POOL: [bool; 40] = {
    let mut projects = [false; 40];
    projects[2] = true;
    projects[6] = true;
    projects[14] = true;
    projects[18] = true;
    projects[22] = true;
    projects[27] = true;
    projects[29] = true;
    projects[36] = true;
    projects
};

/// The fixed part of the registration list. Everything here projects; every
/// verdict is `Safe` but that of the chains too large for the budget.
pub fn registration_families() -> Vec<Registration> {
    let entry = |name: String, global, expected, quick| Registration {
        name,
        global,
        expected: Expected::Verdict(expected),
        quick,
    };
    let mut list = Vec::new();
    for n in FAMILY_SIZES {
        list.push(entry(
            format!("ring{n}"),
            generators::ring_n(n),
            Verdict::Safe,
            n <= 8,
        ));
        let proved = if n <= LARGEST_PROVED_CHAIN {
            Verdict::Safe
        } else {
            Verdict::Inconclusive
        };
        list.push(entry(
            format!("chain{n}"),
            generators::chain_n(n),
            proved,
            n <= 4,
        ));
    }
    for n in FANOUT_SIZES {
        list.push(entry(
            format!("fanout{n}"),
            generators::fanout_n(n),
            Verdict::Safe,
            n <= 5,
        ));
    }
    for d in BRANCHING_DEPTHS {
        list.push(entry(
            format!("branching{d}"),
            generators::branching(d),
            Verdict::Safe,
            true,
        ));
    }
    list.push(entry(
        "ring3_named".into(),
        generators::ring3(),
        Verdict::Safe,
        true,
    ));
    list.push(entry(
        "pipeline".into(),
        generators::pipeline(),
        Verdict::Safe,
        true,
    ));
    list.push(entry(
        "ping_pong".into(),
        generators::ping_pong(),
        Verdict::Safe,
        true,
    ));
    list.push(entry(
        "two_buyer".into(),
        generators::two_buyer(),
        Verdict::Safe,
        true,
    ));
    list
}

/// Entry `index` of the random pool.
pub fn random_registration(index: usize) -> Registration {
    Registration {
        name: format!("random{index}"),
        global: generators::random_global(index as u64, &RandomProtocol::default()),
        expected: if RANDOM_POOL[index] {
            Expected::Verdict(Verdict::Safe)
        } else {
            Expected::Unprojectable
        },
        quick: true,
    }
}
