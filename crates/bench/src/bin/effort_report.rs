//! Regenerates the analogue of the paper's §5.3 "Mechanisation effort"
//! summary: lines of code, number of public
//! items and number of tests per crate of this repository.
//!
//! Run with `cargo run -p zooid-bench --bin effort-report` from the workspace
//! root.

use std::fs;
use std::path::{Path, PathBuf};

#[derive(Default)]
struct CrateStats {
    files: usize,
    code_lines: usize,
    doc_lines: usize,
    test_fns: usize,
    property_tests: usize,
    pub_items: usize,
}

fn visit(dir: &Path, stats: &mut CrateStats) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // The benchmark package builds into a `target/` beside its sources.
            if path.file_name().is_some_and(|n| n != "target") {
                visit(&path, stats);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let Ok(content) = fs::read_to_string(&path) else { continue };
            stats.files += 1;
            let mut in_proptest_block = false;
            for line in content.lines() {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                if trimmed.starts_with("///") || trimmed.starts_with("//!") {
                    stats.doc_lines += 1;
                } else {
                    stats.code_lines += 1;
                }
                if trimmed.starts_with("#[test]") {
                    stats.test_fns += 1;
                }
                if trimmed.starts_with("proptest!") {
                    in_proptest_block = true;
                }
                if in_proptest_block && trimmed.starts_with("fn ") {
                    stats.property_tests += 1;
                }
                if trimmed.starts_with("pub fn ")
                    || trimmed.starts_with("pub struct ")
                    || trimmed.starts_with("pub enum ")
                    || trimmed.starts_with("pub trait ")
                    || trimmed.starts_with("pub type ")
                    || trimmed.starts_with("pub mod ")
                {
                    stats.pub_items += 1;
                }
            }
        }
    }
}

fn main() {
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).parent().and_then(Path::parent).map(Path::to_path_buf))
        .ok()
        .flatten()
        .unwrap_or_else(|| PathBuf::from("."));

    // Every crate's sources and tests, found on disk rather than listed, so
    // a new crate or test directory is counted the day it lands.
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .map(|entries| entries.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    crates.sort();
    let mut areas: Vec<(String, PathBuf)> = Vec::new();
    for dir in crates {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        for part in ["src", "tests"] {
            if dir.join(part).is_dir() {
                areas.push((format!("zooid-{name} ({part})"), dir.join(part)));
            }
        }
    }
    for (name, part) in [
        ("facade", "src"),
        ("examples", "examples"),
        ("integration tests", "tests"),
    ] {
        areas.push((name.to_owned(), root.join(part)));
    }

    println!(
        "{:<34} {:>6} {:>9} {:>9} {:>8} {:>8} {:>9}",
        "area", "files", "code loc", "doc loc", "#tests", "#props", "pub items"
    );
    println!("{}", "-".repeat(90));
    let mut total = CrateStats::default();
    for (name, dir) in &areas {
        let mut stats = CrateStats::default();
        visit(dir, &mut stats);
        println!(
            "{:<34} {:>6} {:>9} {:>9} {:>8} {:>8} {:>9}",
            name,
            stats.files,
            stats.code_lines,
            stats.doc_lines,
            stats.test_fns,
            stats.property_tests,
            stats.pub_items
        );
        total.files += stats.files;
        total.code_lines += stats.code_lines;
        total.doc_lines += stats.doc_lines;
        total.test_fns += stats.test_fns;
        total.property_tests += stats.property_tests;
        total.pub_items += stats.pub_items;
    }
    println!("{}", "-".repeat(90));
    println!(
        "{:<34} {:>6} {:>9} {:>9} {:>8} {:>8} {:>9}",
        "total",
        total.files,
        total.code_lines,
        total.doc_lines,
        total.test_fns,
        total.property_tests,
        total.pub_items
    );
    println!();
    println!(
        "paper (§5.3): 7.3 KLOC of Coq + 1.7 KLOC of OCaml, 269 definitions, 396 proved lemmas"
    );
    println!(
        "this repo:    {:.1} KLOC of Rust ({} public items, {} unit/integration tests, {} property tests)",
        total.code_lines as f64 / 1000.0,
        total.pub_items,
        total.test_fns,
        total.property_tests
    );
}
