//! `zooid_benchmark` — the repository's end-to-end ruler: registration,
//! in-memory serving and the TCP front door, with a per-layer ledger.
//! See `README.md` beside this file for what is measured and why.
//!
//! ```text
//! zooid_benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one pass
//! zooid_benchmark [--seed N] [--out F] [--trace-out F] [--smoke]  every workload, both passes
//! zooid_benchmark --validate BENCHMARK.json
//! zooid_benchmark --compare A.json B.json
//! ```
//!
//! It uses only the public API of the `zooid-*` library crates and defines
//! its own fixtures.

#![forbid(unsafe_code)]

mod check;
mod fixtures;
mod json;
mod procstat;
mod register;
mod replay;
mod rng;
mod serve;
mod spec;
mod stats;
mod tcp;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use stats::Summary;
use workloads::{Report, RunArgs};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: f64 = 10.0;

enum Mode {
    Run {
        args: RunArgs,
        one_workload: bool,
        both_passes: bool,
    },
    Validate(PathBuf),
    Compare(PathBuf, PathBuf),
}

fn parse(mut words: impl Iterator<Item = String>) -> Result<Mode, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        trace_out: None,
        out: None,
        smoke: false,
    };
    let mut trace_given = false;
    let mut mode = None;
    let value = |words: &mut dyn Iterator<Item = String>, flag: &str| {
        words.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(word) = words.next() {
        match word.as_str() {
            "--workload" => args.workload = value(&mut words, "--workload")?,
            "--seed" => {
                args.seed = value(&mut words, "--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value(&mut words, "--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && *s <= 60.0)
                    .ok_or("--seconds takes a number from 1 to 60")?
            }
            "--trace" => {
                trace_given = true;
                args.trace = match value(&mut words, "--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-out" => args.trace_out = Some(value(&mut words, "--trace-out")?.into()),
            "--out" => args.out = Some(value(&mut words, "--out")?.into()),
            "--smoke" => args.smoke = true,
            "--validate" => mode = Some(Mode::Validate(value(&mut words, "--validate")?.into())),
            "--compare" => {
                let a = value(&mut words, "--compare")?.into();
                mode = Some(Mode::Compare(a, value(&mut words, "--compare")?.into()));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(mode) = mode {
        return Ok(mode);
    }
    let one_workload = !args.workload.is_empty();
    if one_workload && spec::workload(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload `{}`; one of {names:?}",
            args.workload
        ));
    }
    Ok(Mode::Run {
        both_passes: !trace_given,
        one_workload,
        args,
    })
}

fn main() -> ExitCode {
    let mode = match parse(std::env::args().skip(1)) {
        Ok(mode) => mode,
        Err(problem) => {
            eprintln!("zooid_benchmark: {problem}");
            return ExitCode::from(2);
        }
    };
    let ok = match mode {
        Mode::Validate(path) => validate(&path),
        Mode::Compare(a, b) => compare(&a, &b),
        Mode::Run {
            args,
            one_workload: true,
            ..
        } => run_workload(&args),
        Mode::Run {
            args, both_passes, ..
        } => run_all(&args, both_passes),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn validate(path: &Path) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("zooid_benchmark: {}: {e}", path.display());
            return false;
        }
    };
    let root = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    let errors = check::validate(&text, root);
    for error in &errors {
        eprintln!("{}: {error}", path.display());
    }
    if errors.is_empty() {
        println!(
            "{}: {} workloads, {} end-to-end and {} per-layer metrics, as the binary measures them",
            path.display(),
            WORKLOADS.len(),
            END_TO_END.len(),
            PER_LAYER.len()
        );
    }
    errors.is_empty()
}

fn compare(a: &Path, b: &Path) -> bool {
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    match read(a)
        .and_then(|a| Ok((a, read(b)?)))
        .and_then(|(a, b)| check::compare(&a, &b))
    {
        Ok(unresolved) => {
            println!("no regression; {unresolved} unresolved");
            true
        }
        Err(problem) => {
            eprintln!("zooid_benchmark: {problem}");
            false
        }
    }
}

fn metric_json(spec: &MetricSpec, summary: Summary, detail: bool) -> Json {
    let mut fields = vec![
        ("value", Json::Num(summary.median)),
        ("unit", Json::str(spec.unit)),
    ];
    if detail {
        fields.push(("min", Json::Num(summary.min)));
        fields.push(("max", Json::Num(summary.max)));
        fields.push(("samples", Json::Num(summary.samples as f64)));
    }
    Json::obj(fields)
}

/// One workload, one pass, in this process: prints every metric of the
/// pass by name with its unit, then the result object as the last line.
fn run_workload(args: &RunArgs) -> bool {
    let plan = workloads::plan(&args.workload);
    let mut report: Report = match &plan {
        Some(plan) if args.workload == spec::TCP_SHORT => tcp::run(args, plan),
        Some(plan) => serve::run(args, plan),
        None => register::run(args),
    };
    // Fingerprint of the inputs the seed generates.
    let inputs = match &plan {
        Some(plan) => workloads::fingerprint(plan, args.seed),
        None => register::fingerprint(args.seed),
    };
    report.value("peak_rss_mb", procstat::peak_rss_mb());

    println!(
        "# {} seed {} seconds {} trace {} smoke {} nproc {} inputs {:016x}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        procstat::nproc(),
        inputs
    );
    for note in &report.notes {
        println!("# {note}");
    }
    // The untraced pass reports what a user sees; the traced one the layers.
    let table: &[MetricSpec] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    let mut detailed = Vec::new();
    for spec in table {
        let measured = report.metrics.iter().find(|(name, _)| *name == spec.name);
        let applies = spec.workloads.contains(&args.workload.as_str());
        let summary = match measured {
            Some((_, summary)) => *summary,
            None => {
                let missing = applies && !args.smoke;
                report
                    .gate
                    .check(!missing, || format!("{} was not measured", spec.name));
                Summary::single(0.0)
            }
        };
        if measured.is_some() {
            println!(
                "{:<52} {:>16.4} {:<6} min {:.4} max {:.4} n {}",
                spec.name, summary.median, spec.unit, summary.min, summary.max, summary.samples
            );
        }
        metrics.push((spec.name, metric_json(spec, summary, false)));
        detailed.push((spec.name, metric_json(spec, summary, true)));
    }
    let gate = &report.gate;
    for note in &gate.notes {
        println!("FAILED {note}");
    }
    let failed_share = gate.failed as f64 / gate.attempted.max(1) as f64;
    println!(
        "{:<52} {:>16.6} share  {} failed of {} attempted",
        "failed_share", failed_share, gate.failed, gate.attempted
    );
    let correct = gate.failed == 0 && gate.attempted > 0;
    let head = |metrics: Vec<(&str, Json)>| {
        vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(gate.attempted.max(1) as f64)),
            ("failed", Json::Num(gate.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ]
    };
    if let Some(path) = &args.out {
        let mut fields = head(detailed);
        fields.push(("workload", Json::str(&args.workload)));
        fields.push(("trace", Json::Bool(args.trace)));
        if let Err(e) = std::fs::write(path, Json::obj(fields).write() + "\n") {
            eprintln!("zooid_benchmark: {}: {e}", path.display());
            return false;
        }
    }
    println!("{}", Json::obj(head(metrics)).write());
    correct
}

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    name.into()
}

/// Every workload, each pass in a child process of its own (so that
/// `peak_rss_mb` and the server's counters belong to one workload), merged
/// into one report.
fn run_all(args: &RunArgs, both_passes: bool) -> bool {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let passes: &[bool] = match (both_passes, args.trace) {
        (true, _) => &[false, true],
        (false, false) => &[false],
        (false, true) => &[true],
    };
    let mut all_ok = true;
    let mut merged = Vec::new();
    for workload in &WORKLOADS {
        let mut fields = Vec::new();
        for &trace in passes {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                child.arg("--smoke");
            }
            let part = args.out.as_ref().map(|out| {
                with_suffix(out, &format!(".{}.{}.part", workload.name, u8::from(trace)))
            });
            if let Some(part) = &part {
                child.arg("--out").arg(part);
            }
            if let (true, Some(spans)) = (trace, &args.trace_out) {
                child
                    .arg("--trace-out")
                    .arg(with_suffix(spans, &format!(".{}.jsonl", workload.name)));
            }
            // `status` waits for the child to end.
            let ok = child.status().is_ok_and(|status| status.success());
            if !ok {
                eprintln!(
                    "zooid_benchmark: {} (trace {}) failed",
                    workload.name,
                    u8::from(trace)
                );
                all_ok = false;
            }
            let Some(part) = part else { continue };
            let parsed = std::fs::read_to_string(&part)
                .ok()
                .and_then(|text| Json::parse(&text).ok());
            let _ = std::fs::remove_file(&part);
            let Some(parsed) = parsed else { continue };
            let section = if trace { "per_layer" } else { "end_to_end" };
            if !trace || passes.len() == 1 {
                for key in ["correct", "attempted", "failed"] {
                    fields.push((key, parsed.get(key).cloned().unwrap_or(Json::Null)));
                }
            }
            fields.push((
                section,
                parsed.get("metrics").cloned().unwrap_or(Json::Null),
            ));
        }
        merged.push((workload.name, Json::obj(fields)));
    }
    if let Some(out) = &args.out {
        let report = Json::obj(vec![
            ("schema", Json::str("zooid_benchmark/1")),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("smoke", Json::Bool(args.smoke)),
            ("nproc", Json::Num(procstat::nproc() as f64)),
            ("workloads", Json::obj(merged)),
        ]);
        if let Err(e) = std::fs::write(out, report.write() + "\n") {
            eprintln!("zooid_benchmark: {}: {e}", out.display());
            all_ok = false;
        }
    }
    println!(
        "{}",
        if all_ok {
            "all workloads correct"
        } else {
            "FAILED"
        }
    );
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(str::to_owned)
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let Ok(Mode::Run {
            args,
            one_workload,
            both_passes,
        }) = parse(words(
            "--workload tcp_short --seed 7 --seconds 12 --trace 1",
        ))
        else {
            panic!("a run");
        };
        assert!(one_workload && !both_passes && args.trace);
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds),
            ("tcp_short", 7, 12.0)
        );
        assert!(matches!(
            parse(words("--seed 2 --out r.json --smoke")),
            Ok(Mode::Run {
                one_workload: false,
                both_passes: true,
                ..
            })
        ));
        assert!(parse(words("--workload nope")).is_err());
        assert!(parse(words("--trace 2")).is_err());
        assert!(parse(words("--seconds 0")).is_err());
        assert!(parse(words("--frobnicate")).is_err());
        assert!(matches!(
            parse(words("--compare a b")),
            Ok(Mode::Compare(..))
        ));
    }

    #[test]
    fn a_result_line_round_trips_through_the_parser() {
        let line = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            ("failed", Json::Num(0.0)),
            (
                "metrics",
                Json::obj(vec![(
                    "setup_s",
                    metric_json(&END_TO_END[3], Summary::single(0.8127), false),
                )]),
            ),
        ])
        .write();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
        assert_eq!(Json::parse(&line).unwrap().write(), line);
    }
}
