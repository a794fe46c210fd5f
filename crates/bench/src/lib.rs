//! Shared fixtures for the evaluation harness: the paper's case-study
//! protocols, their DSL endpoint implementations, and the scalable protocol
//! families swept by `bench-report` (see `EXPERIMENTS.md`).

#![forbid(unsafe_code)]

use zooid_dsl::builder::{self, BranchAlt, SelectAlt};
use zooid_dsl::{Protocol, WtProc};
use zooid_mpst::generators;
use zooid_mpst::global::GlobalType;
use zooid_mpst::local::LocalType;
use zooid_mpst::{Role, Sort};
use zooid_proc::{Expr, Externals};

/// One named case study, as evaluated in §5 of the paper: the protocol plus
/// one certified-able endpoint implementation per role.
pub struct CaseStudy {
    /// Short identifier (used as the row name in reports).
    pub name: &'static str,
    /// Which paper section the case study reproduces.
    pub section: &'static str,
    /// The protocol.
    pub protocol: Protocol,
    /// One endpoint implementation per participant.
    pub endpoints: Vec<(Role, WtProc)>,
    /// External actions shared by all endpoints of the case study.
    pub externals: Externals,
    /// Step limit for sessions of non-terminating protocols (`None` for
    /// protocols that terminate by themselves).
    pub max_steps: Option<usize>,
}

fn r(name: &str) -> Role {
    Role::new(name)
}

/// The §2.3 ring.
pub fn ring_case() -> CaseStudy {
    let protocol = Protocol::new("ring", generators::ring3()).expect("well-formed");
    let forward = |from: &str, to: &str| {
        builder::branch(
            r(from),
            vec![BranchAlt::new(
                "l",
                Sort::Nat,
                "x",
                builder::send(r(to), "l", Sort::Nat, Expr::add(Expr::var("x"), Expr::lit(1u64)), builder::finish())
                    .expect("send"),
            )],
        )
        .expect("branch")
    };
    let alice = builder::send(
        r("Bob"),
        "l",
        Sort::Nat,
        Expr::lit(1u64),
        builder::recv1(r("Carol"), "l", Sort::Nat, "y", builder::finish()).expect("recv"),
    )
    .expect("send");
    CaseStudy {
        name: "ring",
        section: "§2.3",
        protocol,
        endpoints: vec![
            (r("Alice"), alice),
            (r("Bob"), forward("Alice", "Carol")),
            (r("Carol"), forward("Bob", "Alice")),
        ],
        externals: Externals::new(),
        max_steps: None,
    }
}

/// The §5.1 recursive pipeline (run with a step limit).
pub fn pipeline_case() -> CaseStudy {
    let protocol = Protocol::new("pipeline", generators::pipeline()).expect("well-formed");
    let mut externals = Externals::new();
    externals.register_interact("compute", Sort::Nat, Sort::Nat, |v| {
        zooid_proc::Value::Nat(v.as_nat().unwrap_or(0) + 1)
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
                builder::send(r("Carol"), "l", Sort::Nat, Expr::var("res"), builder::jump(0))
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
    CaseStudy {
        name: "pipeline",
        section: "§5.1",
        protocol,
        endpoints: vec![(r("Alice"), alice), (r("Bob"), bob), (r("Carol"), carol)],
        externals,
        max_steps: Some(200),
    }
}

/// The §5.1 / §B.1 ping-pong with the `alice4` client (terminates when the
/// reply reaches the threshold).
pub fn ping_pong_case() -> CaseStudy {
    let protocol = Protocol::new("ping-pong", generators::ping_pong()).expect("well-formed");
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
                builder::loop_(builder::recv1(r("Bob"), "l3", Sort::Nat, "x", inner).expect("recv"))
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
    CaseStudy {
        name: "ping-pong/alice4",
        section: "§5.1, §B.1",
        protocol,
        endpoints: vec![(r("Alice"), alice), (r("Bob"), bob)],
        externals: Externals::new(),
        max_steps: None,
    }
}

/// The §5.2 two-buyer protocol (B accepts: A covers most of the price).
pub fn two_buyer_case() -> CaseStudy {
    let protocol = Protocol::new("two-buyer", generators::two_buyer()).expect("well-formed");
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
                            builder::send(r("B"), "Date", Sort::Nat, Expr::lit(7u64), builder::finish())
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
    CaseStudy {
        name: "two-buyer",
        section: "§5.2",
        protocol,
        endpoints: vec![(r("A"), buyer_a), (r("B"), buyer_b), (r("S"), seller)],
        externals: Externals::new(),
        max_steps: None,
    }
}

/// All the case studies, in the order they are reported.
pub fn all_case_studies() -> Vec<CaseStudy> {
    vec![ring_case(), pipeline_case(), ping_pong_case(), two_buyer_case()]
}

/// The scalable protocol families swept by the benchmarks (experiment B1).
pub fn scaling_protocols(sizes: &[usize]) -> Vec<(String, GlobalType)> {
    let mut out = Vec::new();
    for &n in sizes {
        out.push((format!("ring/{n}"), generators::ring_n(n)));
        out.push((format!("chain/{n}"), generators::chain_n(n)));
        out.push((format!("fanout/{n}"), generators::fanout_n(n)));
    }
    for depth in [2usize, 4, 6] {
        out.push((format!("branching/{depth}"), generators::branching(depth)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_case_study_certifies_every_endpoint() {
        for case in all_case_studies() {
            for (role, wt) in &case.endpoints {
                case.protocol
                    .implement(role, wt.clone(), &case.externals)
                    .unwrap_or_else(|e| panic!("{}::{role}: {e}", case.name));
            }
        }
    }

    #[test]
    fn scaling_protocols_are_well_formed() {
        for (name, g) in scaling_protocols(&[2, 4, 8]) {
            assert!(g.well_formed().is_ok(), "{name}");
        }
    }

    /// The on-the-fly trace-equivalence checker must return exactly the
    /// verdict of the seed's set-based checker on every case study and
    /// scaling protocol (PR 1 acceptance criterion).
    #[test]
    fn on_the_fly_checker_matches_set_based_on_all_case_studies() {
        use zooid_mpst::trace_equiv::{
            check_trace_equivalence, check_trace_equivalence_exhaustive,
        };
        let mut protocols: Vec<(String, GlobalType)> = all_case_studies()
            .into_iter()
            .map(|case| (case.name.to_owned(), case.protocol.global().clone()))
            .collect();
        protocols.extend(scaling_protocols(&[2, 4, 8]));
        for (name, g) in protocols {
            for depth in [0usize, 2, 5] {
                let fast = check_trace_equivalence(&g, depth).unwrap();
                let slow = check_trace_equivalence_exhaustive(&g, depth).unwrap();
                assert_eq!(fast.holds, slow.holds, "{name} at depth {depth}");
            }
        }
    }
}
