//! `--validate BENCHMARK.json` and `--compare A.json B.json`.

use std::path::Path;

use crate::json::Json;
use crate::spec::{is_name, Better, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};

const KEYS: [&str; 6] = [
    "command",
    "paths",
    "run_seconds",
    "workloads",
    "end_to_end",
    "per_layer",
];

fn exact_keys(value: &Json, keys: &[&str], what: &str, errors: &mut Vec<String>) {
    let Some(fields) = value.as_obj() else {
        errors.push(format!("{what} is not an object"));
        return;
    };
    let mut found: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let mut wanted = keys.to_vec();
    found.sort_unstable();
    wanted.sort_unstable();
    if found != wanted {
        errors.push(format!(
            "{what} has keys {found:?}, wanted exactly {wanted:?}"
        ));
    }
}

fn is_unit(text: &str) -> bool {
    !text.is_empty()
        && text.len() <= 16
        && text
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Holds the metric entries of the file against one of the binary's tables.
fn check_metrics(
    listed: Option<&Json>,
    table: &[MetricSpec],
    what: &str,
    max: usize,
    errors: &mut Vec<String>,
) {
    let Some(listed) = listed.and_then(Json::as_arr) else {
        errors.push(format!("`{what}` is not a list"));
        return;
    };
    if listed.is_empty() || listed.len() > max {
        errors.push(format!(
            "`{what}` lists {} metrics, 1 to {max} allowed",
            listed.len()
        ));
    }
    let bounded = table.iter().any(|m| m.bound.is_some());
    let keys: &[&str] = if bounded {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    for entry in listed {
        let name = entry.get("name").and_then(Json::as_str).unwrap_or("");
        exact_keys(entry, keys, &format!("{what} entry `{name}`"), errors);
        if !is_name(name) {
            errors.push(format!("{what}: `{name}` is not a metric name"));
        }
        let Some(spec) = table.iter().find(|m| m.name == name) else {
            errors.push(format!("{what}: the binary measures no `{name}`"));
            continue;
        };
        let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
        if unit != spec.unit || !is_unit(unit) {
            errors.push(format!(
                "{what} `{name}`: unit `{unit}`, the binary reports `{}`",
                spec.unit
            ));
        }
        if entry.get("better").and_then(Json::as_str) != Some(spec.better.as_str()) {
            errors.push(format!(
                "{what} `{name}`: direction differs from the binary's"
            ));
        }
        if let Some(bound) = spec.bound {
            let listed = entry.get("bound").and_then(Json::as_f64);
            if listed != Some(bound) || !(0.0..=0.25).contains(&bound) {
                errors.push(format!(
                    "{what} `{name}`: bound {listed:?}, the binary holds {bound}"
                ));
            }
        }
        if spec.workloads.is_empty() {
            errors.push(format!("{what} `{name}` applies to no workload"));
        }
    }
    for spec in table {
        if !listed
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some(spec.name))
        {
            errors.push(format!(
                "{what}: `{}` is measured but not listed",
                spec.name
            ));
        }
    }
}

/// Checks a `BENCHMARK.json` against the contract's shape and the binary's
/// own tables; `root` is the directory its `paths` are relative to.
pub fn validate(text: &str, root: &Path) -> Vec<String> {
    let mut errors = Vec::new();
    if text.len() > 64 * 1024 {
        errors.push("the file is larger than 64 KiB".into());
    }
    let file = match Json::parse(text) {
        Ok(file) => file,
        Err(e) => return vec![format!("not JSON: {e}")],
    };
    exact_keys(&file, &KEYS, "the file", &mut errors);

    match file.get("command").and_then(Json::as_arr) {
        Some(command) if !command.is_empty() && command.len() <= 32 => {
            for word in command {
                match word.as_str() {
                    Some(w)
                        if w.len() <= 200
                            && !w.starts_with('/')
                            && !w.split('/').any(|p| p == "..") => {}
                    _ => errors.push(format!(
                        "command word {word:?} is not a short relative string"
                    )),
                }
            }
        }
        _ => errors.push("`command` is not a list of 1 to 32 strings".into()),
    }
    match file.get("paths").and_then(Json::as_arr) {
        Some(paths) if !paths.is_empty() && paths.len() <= 16 => {
            for path in paths {
                let ok = path.as_str().is_some_and(|p| {
                    !p.is_empty()
                        && p.len() <= 200
                        && !p.starts_with('/')
                        && !p.split('/').any(|part| part == ".." || part.is_empty())
                        && p.bytes().all(|b| {
                            b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-' | b'/')
                        })
                });
                if !ok {
                    errors.push(format!("path {path:?} is not a plain relative path"));
                } else if !root.join(path.as_str().unwrap_or("")).is_dir() {
                    errors.push(format!(
                        "path {path:?} is not a directory under {}",
                        root.display()
                    ));
                }
            }
        }
        _ => errors.push("`paths` is not a list of 1 to 16 directories".into()),
    }
    match file.get("run_seconds").and_then(Json::as_f64) {
        Some(s) if s.fract() == 0.0 && (1.0..=60.0).contains(&s) => {
            // 4 + 22 runs per workload, each about run_seconds plus set-up,
            // must fit the driver's 3420 s with its two builds.
            let runs = 4.0 + 22.0 * WORKLOADS.len() as f64;
            if runs * (s + 4.0) > 3420.0 - 400.0 {
                errors.push(format!("{runs} runs of {s} s do not fit 3420 s"));
            }
        }
        other => errors.push(format!(
            "`run_seconds` is {other:?}, not a whole number from 1 to 60"
        )),
    }

    match file.get("workloads").and_then(Json::as_arr) {
        Some(listed) if (2..=8).contains(&listed.len()) => {
            for entry in listed {
                exact_keys(entry, &["name", "why"], "a workload", &mut errors);
                let name = entry.get("name").and_then(Json::as_str).unwrap_or("");
                let why = entry.get("why").and_then(Json::as_str).unwrap_or("");
                if !is_name(name) || why.is_empty() || why.len() > 200 || why.contains('\n') {
                    errors.push(format!("workload `{name}`: bad name or `why`"));
                }
                match WORKLOADS.iter().find(|w| w.name == name) {
                    Some(spec) if spec.why == why => {}
                    Some(_) => errors.push(format!(
                        "workload `{name}`: `why` differs from the binary's"
                    )),
                    None => errors.push(format!("the binary runs no workload `{name}`")),
                }
            }
            for spec in &WORKLOADS {
                if !listed
                    .iter()
                    .any(|e| e.get("name").and_then(Json::as_str) == Some(spec.name))
                {
                    errors.push(format!("workload `{}` is run but not listed", spec.name));
                }
            }
        }
        _ => errors.push("`workloads` is not a list of 2 to 8".into()),
    }

    check_metrics(
        file.get("end_to_end"),
        &END_TO_END,
        "end_to_end",
        16,
        &mut errors,
    );
    check_metrics(
        file.get("per_layer"),
        &PER_LAYER,
        "per_layer",
        128,
        &mut errors,
    );
    errors
}

/// The `BENCHMARK.json` the binary's tables describe.
#[cfg(test)]
pub fn benchmark_json(command: &[&str], paths: &[&str], run_seconds: u32) -> String {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(s)).collect());
    let metric = |m: &MetricSpec| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound", Json::Num(bound)));
        }
        Json::obj(fields)
    };
    let file = Json::obj(vec![
        ("command", strings(command)),
        ("paths", strings(paths)),
        ("run_seconds", Json::Num(f64::from(run_seconds))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ]);
    file.write()
}

/// One (metric, workload) row of a comparison.
#[derive(Debug, PartialEq)]
pub enum Standing {
    Ok,
    Improved,
    /// The medians agree within the bound, but a side's own min–max range is
    /// wider than the bound, so "unchanged" cannot be said.
    Unresolved,
    Regression,
}

#[derive(Debug, Clone, Copy)]
struct Side {
    median: f64,
    min: f64,
    max: f64,
}

fn side(report: &Json, workload: &str, metric: &str) -> Option<Side> {
    let entry = report
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Side {
        median: entry.get("value")?.as_f64()?,
        min: entry.get("min")?.as_f64()?,
        max: entry.get("max")?.as_f64()?,
    })
}

fn judge(a: Side, b: Side, better: Better, bound: f64) -> (f64, Standing) {
    if a.median <= 0.0 || b.median <= 0.0 {
        // Too little was measured to divide by (a smoke run's CPU ticks).
        return (0.0, Standing::Unresolved);
    }
    // Positive: B is worse than A by that share of A's median.
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    };
    let spread = |s: Side| (s.max - s.min) / s.median;
    let b_beats_all_of_a = match better {
        Better::Lower => b.max < a.min,
        Better::Higher => b.min > a.max,
    };
    let standing = if worse_by > bound {
        Standing::Regression
    } else if b_beats_all_of_a && -worse_by > bound {
        Standing::Improved
    } else if spread(a) > bound || spread(b) > bound {
        Standing::Unresolved
    } else {
        Standing::Ok
    };
    (worse_by, standing)
}

/// Prints one row per (end-to-end metric, workload); `Err` on a regression
/// or a metric one side lacks.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    println!(
        "{:<11} {:<16} {:>14} {:>24} {:>14} {:>24} {:>9} {:>6}  standing",
        "workload", "metric", "A median", "A min..max", "B median", "B min..max", "change", "bound"
    );
    let (mut regressions, mut unresolved) = (Vec::new(), 0);
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let (Some(sa), Some(sb)) = (
                side(a, workload.name, metric.name),
                side(b, workload.name, metric.name),
            ) else {
                return Err(format!(
                    "{} on {} is missing from a report",
                    metric.name, workload.name
                ));
            };
            let bound = metric.bound.expect("end-to-end metrics are bounded");
            let (worse_by, standing) = judge(sa, sb, metric.better, bound);
            let signed = match metric.better {
                Better::Lower => worse_by,
                Better::Higher => -worse_by,
            };
            println!(
                "{:<11} {:<16} {:>14.4} {:>24} {:>14.4} {:>24} {:>+8.2}% {:>5.0}%  {}",
                workload.name,
                metric.name,
                sa.median,
                format!("{:.4}..{:.4}", sa.min, sa.max),
                sb.median,
                format!("{:.4}..{:.4}", sb.min, sb.max),
                signed * 100.0,
                bound * 100.0,
                match standing {
                    Standing::Ok => "ok",
                    Standing::Improved => "improved",
                    Standing::Unresolved => "unresolved",
                    Standing::Regression => "REGRESSION",
                }
            );
            match standing {
                Standing::Regression => {
                    regressions.push(format!("{} on {}", metric.name, workload.name))
                }
                Standing::Unresolved => unresolved += 1,
                _ => {}
            }
        }
    }
    if regressions.is_empty() {
        Ok(unresolved)
    } else {
        Err(format!(
            "regressed beyond the bound: {}",
            regressions.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_generated_file_validates_and_tampering_is_caught() {
        let root = std::env::current_dir().unwrap();
        let text = benchmark_json(&["cargo", "run"], &["."], 12);
        assert_eq!(validate(&text, &root), Vec::<String>::new());

        let drifted = text.replace(
            "\"ops_per_s\",\"unit\":\"1/s\"",
            "\"ops_per_s\",\"unit\":\"ops\"",
        );
        assert!(validate(&drifted, &root)
            .iter()
            .any(|e| e.contains("ops_per_s")));
        let dropped = text.replace(
            "{\"name\":\"setup_s\",\"unit\":\"s\",\"better\":\"lower\",\"bound\":0.25}",
            "",
        );
        assert!(!validate(&dropped, &root).is_empty());
        let extra = text.replacen('{', "{\"claim\":null,", 1);
        assert!(validate(&extra, &root).iter().any(|e| e.contains("keys")));
        let missing_dir = benchmark_json(&["cargo"], &["no/such/dir"], 12);
        assert!(validate(&missing_dir, &root)
            .iter()
            .any(|e| e.contains("not a directory")));
        let absolute = benchmark_json(&["/bin/sh"], &["."], 12);
        assert!(validate(&absolute, &root)
            .iter()
            .any(|e| e.contains("command word")));
        let too_long = benchmark_json(&["cargo"], &["."], 60);
        assert!(validate(&too_long, &root)
            .iter()
            .any(|e| e.contains("do not fit")));
    }

    #[test]
    fn comparison_standings() {
        let s = |median: f64, min: f64, max: f64| Side { median, min, max };
        let a = s(100.0, 98.0, 102.0);
        assert_eq!(
            judge(a, s(104.0, 102.0, 106.0), Better::Lower, 0.10).1,
            Standing::Ok
        );
        assert_eq!(
            judge(a, s(112.0, 110.0, 114.0), Better::Lower, 0.10).1,
            Standing::Regression
        );
        assert_eq!(
            judge(a, s(112.0, 110.0, 114.0), Better::Higher, 0.10).1,
            Standing::Improved
        );
        assert_eq!(
            judge(a, s(85.0, 84.0, 86.0), Better::Higher, 0.10).1,
            Standing::Regression
        );
        // Inside the bound at the medians, but B's own runs span 30%.
        assert_eq!(
            judge(a, s(103.0, 90.0, 121.0), Better::Lower, 0.10).1,
            Standing::Unresolved
        );
        let (worse_by, _) = judge(a, s(105.0, 105.0, 105.0), Better::Lower, 0.10);
        assert!((worse_by - 0.05).abs() < 1e-12);
        assert_eq!(
            judge(s(0.0, 0.0, 0.0), a, Better::Lower, 0.10).1,
            Standing::Unresolved
        );
    }
}
