//! Pins the reduced explorer's expansion order at the registry's default
//! budget (bound 2, 50,000 configurations).
//!
//! A truncated search reports how many configurations it admitted and how
//! many transitions it took before the budget ran out, and both depend on
//! the order configurations are expanded in, which successor is tried
//! first, and which configuration the ample set picks. Registration
//! reports those counts and verdicts, so a change to the explorer's
//! representation must leave every number here as it is.

use zooid_cfsm::{CompiledSystem, System, Verdict};
use zooid_mpst::generators;

const BOUND: usize = 2;
const BUDGET: usize = 50_000;

/// `(name, configurations, transitions, truncated, verdict)` of
/// `explore_por(BOUND, BUDGET)`.
const PINNED: [(&str, usize, usize, bool, Verdict); 9] = [
    ("chain8", 19_712, 33_280, false, Verdict::Safe),
    ("chain12", 50_000, 89_604, true, Verdict::Inconclusive),
    ("chain16", 50_000, 89_331, true, Verdict::Inconclusive),
    ("chain24", 50_000, 88_928, true, Verdict::Inconclusive),
    ("chain32", 50_000, 88_985, true, Verdict::Inconclusive),
    ("chain48", 50_000, 88_985, true, Verdict::Inconclusive),
    ("chain64", 50_000, 88_985, true, Verdict::Inconclusive),
    ("fanout10", 4_604, 12_797, false, Verdict::Safe),
    ("ring64", 129, 128, false, Verdict::Safe),
];

fn compile(name: &str) -> CompiledSystem {
    let g = match name {
        "chain8" => generators::chain_n(8),
        "chain12" => generators::chain_n(12),
        "chain16" => generators::chain_n(16),
        "chain24" => generators::chain_n(24),
        "chain32" => generators::chain_n(32),
        "chain48" => generators::chain_n(48),
        "chain64" => generators::chain_n(64),
        "fanout10" => generators::fanout_n(10),
        "ring64" => generators::ring_n(64),
        _ => unreachable!("{name} is not pinned"),
    };
    System::from_global(&g).expect("projectable").compile()
}

#[test]
fn the_reduced_explorer_visits_the_pinned_counts() {
    for (name, configurations, transitions, truncated, verdict) in PINNED {
        let outcome = compile(name).explore_por(BOUND, BUDGET);
        assert_eq!(outcome.configurations, configurations, "{name}");
        assert_eq!(outcome.transitions, transitions, "{name}");
        assert_eq!(outcome.truncated, truncated, "{name}");
        assert_eq!(outcome.verdict(), verdict, "{name}");
    }
}

#[test]
fn the_parallel_explorer_on_one_thread_agrees_where_the_search_completes() {
    for (name, configurations, transitions, truncated, verdict) in PINNED {
        if truncated {
            continue;
        }
        let outcome = compile(name).explore_parallel(BOUND, BUDGET, 1);
        assert_eq!(outcome.configurations, configurations, "{name}");
        assert_eq!(outcome.transitions, transitions, "{name}");
        assert!(!outcome.truncated, "{name}");
        assert_eq!(outcome.verdict(), verdict, "{name}");
    }
}
