//! `register`: time-to-verdict for the protocol developer. An operation is
//! one registration — `Protocol::new` plus `ProtocolRegistry::register`,
//! which projects, builds and compiles the machines and explores the
//! compiled system under the default `SafetyBudget`.
//!
//! The cold pass registers the seeded list into a fresh registry and gives
//! `ops_per_s` and `cpu_us_per_op`; the warm pass of the traced run
//! re-registers the same types under new names and so reads the cache the
//! cold pass wrote: `server.registry.register_warm_us` and the latency
//! figures.

use std::time::Instant;

use zooid_dsl::Protocol;
use zooid_mpst::global::GlobalType;
use zooid_server::ProtocolRegistry;

use crate::fixtures::{
    random_registration, registration_families, Expected, Registration, RANDOM_POOL,
};
use crate::procstat;
use crate::replay;
use crate::rng::{Fingerprint, SplitMix64};
use crate::serve::{finish_trace, latency_of};
use crate::stats::{lost_share, Summary};
use crate::trace::Tracer;
use crate::workloads::{Gate, Report, RunArgs, TRACE_PAIRS};

/// Random protocols registered per run, drawn by the seed from the pool.
const RANDOMS: usize = 20;
/// Warm re-registrations per second of a repetition: 1000 in a run of 10 s.
const WARM_RATE: f64 = 500.0;
/// Seconds one cold pass takes on the reference box; a repetition does as
/// many passes as fit.
const COLD_PASS_SECONDS: f64 = 0.8;

/// The seeded list: the fixed families and 20 of the random pool, in a
/// seeded order. A smoke run keeps only what registers in microseconds.
pub fn list(seed: u64, smoke: bool) -> Vec<Registration> {
    let mut rng = SplitMix64::stream(seed, "register/list");
    let mut pool: Vec<usize> = (0..RANDOM_POOL.len()).collect();
    rng.shuffle(&mut pool);
    let mut list = registration_families();
    list.extend(pool.into_iter().take(RANDOMS).map(random_registration));
    if smoke {
        list.retain(|r| r.quick);
    }
    rng.shuffle(&mut list);
    list
}

pub fn fingerprint(seed: u64) -> u64 {
    let mut print = Fingerprint::new();
    for registration in list(seed, false) {
        print.text(&registration.name);
    }
    print.finish()
}

/// Registers one entry and holds the answer against the expected verdict.
fn register(
    registry: &mut ProtocolRegistry,
    name: String,
    global: GlobalType,
    expected: Expected,
    gate: &mut Gate,
) {
    let answer = Protocol::new(name, global)
        .map_err(|e| e.to_string())
        .and_then(|protocol| registry.register(protocol).map_err(|e| e.to_string()))
        .map(|id| registry.get(id).expect("just registered").safety_verdict());
    let ok = match (&answer, expected) {
        (Ok(verdict), Expected::Verdict(expected)) => *verdict == expected,
        (Err(reason), Expected::Unprojectable) => reason.contains("not projectable"),
        _ => false,
    };
    gate.check(ok, || {
        format!("registration answered {answer:?}, expected {expected:?}")
    });
}

/// One cold pass: the whole list into a fresh registry. Returns the
/// registry for the warm pass.
fn cold_pass(
    list: &[Registration],
    gate: &mut Gate,
    mut tracer: Option<&mut Tracer>,
) -> ProtocolRegistry {
    let mut registry = ProtocolRegistry::new();
    for entry in list {
        let (name, global) = (entry.name.clone(), entry.global.clone());
        let start = tracer.as_ref().map(|t| t.now());
        register(&mut registry, name, global, entry.expected, gate);
        if let (Some(t), Some(start)) = (tracer.as_deref_mut(), start) {
            let end = t.now();
            t.push("registry.register_cold", 0, None, start, end);
        }
    }
    registry
}

/// `count` re-registrations of the list's types under new names, each timed.
fn warm_pass(
    registry: &mut ProtocolRegistry,
    list: &[Registration],
    count: usize,
    gate: &mut Gate,
    mut tracer: Option<&mut Tracer>,
) -> Vec<u64> {
    let registrable: Vec<&Registration> = list
        .iter()
        .filter(|r| r.expected != Expected::Unprojectable)
        .collect();
    let mut latency_ns = Vec::with_capacity(count);
    for i in 0..count {
        let entry = registrable[i % registrable.len()];
        let (name, global) = (format!("{}~{i}", entry.name), entry.global.clone());
        let traced = tracer.as_ref().map(|t| t.now());
        let start = Instant::now();
        register(registry, name, global, entry.expected, gate);
        latency_ns.push(start.elapsed().as_nanos() as u64);
        if let (Some(t), Some(traced)) = (tracer.as_deref_mut(), traced) {
            let end = t.now();
            t.push("registry.register_warm", 0, None, traced, end);
        }
    }
    latency_ns
}

pub fn run(args: &RunArgs) -> Report {
    let process_start = Instant::now();
    let mut report = Report::default();
    let passes = if args.smoke {
        1
    } else {
        ((args.rep_seconds() / COLD_PASS_SECONDS).round() as usize).max(1)
    };

    // Set-up: generate the list and run it once through both passes, so the
    // allocator and the caches of the machine are as warm as they will be.
    let mut setup_s = Vec::new();
    let mut list = Vec::new();
    for round in 0..args.setups() {
        let begun = if round == 0 {
            process_start
        } else {
            Instant::now()
        };
        list = self::list(args.seed, args.smoke);
        let mut registry = cold_pass(&list, &mut report.gate, None);
        warm_pass(&mut registry, &list, 100, &mut report.gate, None);
        setup_s.push(begun.elapsed().as_secs_f64());
    }
    report.set("setup_s", Summary::of(&setup_s));

    // Cold passes: throughput per repetition, CPU over the whole phase.
    let reps = args.repetitions();
    let registrations = (passes * list.len()) as f64;
    let (mut per_s, mut cold_ms, mut cpu_ns) = (Vec::new(), Vec::new(), 0.0);
    let switches = procstat::involuntary_switches();
    let phase = Instant::now();
    for _ in 0..reps {
        let cpu = procstat::cpu_ns();
        let start = Instant::now();
        for _ in 0..passes {
            cold_pass(&list, &mut report.gate, None);
        }
        let wall_ns = start.elapsed().as_nanos() as f64;
        cpu_ns += (procstat::cpu_ns() - cpu) as f64;
        per_s.push(registrations * 1e9 / wall_ns);
        cold_ms.push(wall_ns / 1e6 / passes as f64);
    }
    let busy = cpu_ns / (phase.elapsed().as_nanos() as f64 * procstat::nproc() as f64);
    let switches = procstat::involuntary_switches().saturating_sub(switches);
    report.set("ops_per_s", Summary::of(&per_s));
    report.value(
        "cpu_us_per_op",
        cpu_ns / 1e3 / (registrations * reps as f64),
    );
    report.notes.push(format!(
        "cold: {} registrations x {passes} passes x {reps}",
        list.len()
    ));

    // The traced pass: a cold pass under the tracer, the warm pass, and the
    // pipeline layer by layer.
    if args.trace {
        let mut tracer = Tracer::new();
        let tracer = &mut tracer;
        let warm_count = args.count(WARM_RATE, 20);
        let (mut plain, mut under) = (Vec::new(), Vec::new());
        let mut registry = ProtocolRegistry::new();
        for _ in 0..TRACE_PAIRS {
            for with_tracer in [false, true] {
                let start = Instant::now();
                let spans = if with_tracer {
                    Some(&mut *tracer)
                } else {
                    None
                };
                registry = cold_pass(&list, &mut report.gate, spans);
                let rates = if with_tracer { &mut under } else { &mut plain };
                rates.push(1.0 / start.elapsed().as_secs_f64());
            }
        }
        let warm = warm_pass(
            &mut registry,
            &list,
            warm_count,
            &mut report.gate,
            Some(tracer),
        );
        report.value("driver.trace_overhead_share", lost_share(&plain, &under));
        report.value("process.cpu_busy_share", busy);
        report.value("process.ctx_switches_invol", switches as f64);
        report.value(
            "server.registry.register_cold_ms",
            Summary::of(&cold_ms).median,
        );
        report.value(
            "server.registry.register_warm_us",
            warm.iter().sum::<u64>() as f64 / 1e3 / warm.len() as f64,
        );
        let (p50_us, tail_us, tail) = latency_of(warm);
        report.value("driver.latency_p50_us", p50_us);
        report.value("driver.latency_tail_us", tail_us);
        report.notes.push(format!(
            "warm: {warm_count} re-registrations; driver.latency_tail_us is their p{tail}"
        ));
        let globals: Vec<(String, GlobalType)> = list
            .iter()
            .map(|r| (r.name.clone(), r.global.clone()))
            .collect();
        replay::registration(&mut report, tracer, &globals);
        finish_trace(args, tracer, &mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_list_is_seeded_and_about_sixty_long() {
        let names = |seed| {
            list(seed, false)
                .into_iter()
                .map(|r| r.name)
                .collect::<Vec<_>>()
        };
        assert_eq!(names(1), names(1));
        assert_ne!(names(1), names(2));
        assert_eq!(names(1).len(), 60);
        assert_eq!(fingerprint(3), fingerprint(3));
        assert_ne!(fingerprint(3), fingerprint(4));
        assert!(list(1, true).len() < 60);
    }

    #[test]
    fn the_quick_part_of_the_list_answers_as_the_table_says() {
        let mut gate = Gate::default();
        let quick = list(1, true);
        let mut registry = cold_pass(&quick, &mut gate, None);
        warm_pass(&mut registry, &quick, 50, &mut gate, None);
        assert_eq!(gate.failed, 0, "{:?}", gate.notes);
        assert_eq!(gate.attempted as usize, quick.len() + 50);
    }
}
