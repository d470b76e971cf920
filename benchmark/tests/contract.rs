//! Holds the program to `BENCHMARK.json`: every workload runs at a twentieth
//! of its evaluation budget, and the metric names it prints are exactly the
//! declared ones, within the contract's limits.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use volcanoml_benchmark::contract::{self, ParsedResult};
use volcanoml_benchmark::traced;
use volcanoml_benchmark::workloads::WORKLOADS;

fn declared() -> contract::Declared {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    contract::load(&path).expect("BENCHMARK.json loads")
}

/// Runs one workload in both modes at `--scale 0.05`; returns the untraced
/// and the traced result.
fn run_small(workload: &str, home: &Path) -> (ParsedResult, ParsedResult) {
    let output = Command::new(env!("CARGO_BIN_EXE_volcanoml-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--scale",
            "0.05",
        ])
        .arg("--home")
        .arg(home)
        .output()
        .expect("the benchmark program starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} failed its own checks:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut results: Vec<ParsedResult> =
        stdout.lines().filter_map(contract::parse_result).collect();
    assert_eq!(results.len(), 2, "{workload}: one result line per mode");
    let traced = results.pop().unwrap();
    (results.pop().unwrap(), traced)
}

fn names(result: &ParsedResult) -> BTreeSet<String> {
    result.metrics.iter().map(|m| m.0.clone()).collect()
}

fn home(test: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(test)
}

#[test]
fn declared_metrics_are_within_the_contract() {
    let d = declared();
    assert_eq!(d.run_seconds, contract::RUN_SECONDS);
    assert!((2..=8).contains(&d.workloads.len()));
    assert!((1..=16).contains(&d.end_to_end.len()));
    assert!((1..=128).contains(&d.per_layer.len()));
    let valid = |s: &str, extra: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    };
    let mut seen = BTreeSet::new();
    for m in d.end_to_end.iter().chain(&d.per_layer) {
        assert!(
            valid(&m.name, "_.-") && m.name.len() <= 64,
            "name {}",
            m.name
        );
        assert!(
            valid(&m.unit, "_/%.-") && m.unit.len() <= 16,
            "unit {}",
            m.unit
        );
        assert!(seen.insert(m.name.clone()), "{} declared twice", m.name);
    }
    for m in &d.end_to_end {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{} bound {}",
            m.name,
            m.bound
        );
    }
    assert!(d
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better));
    let workload_names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(d.workloads, workload_names);
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let d = declared();
    let end_to_end: BTreeSet<String> = d.end_to_end.iter().map(|m| m.name.clone()).collect();
    let per_layer: BTreeSet<String> = d.per_layer.iter().map(|m| m.name.clone()).collect();
    for w in &WORKLOADS {
        let (untraced, traced) = run_small(w.name, &home("names"));
        assert_eq!(names(&untraced), end_to_end, "{} --trace 0", w.name);
        assert_eq!(names(&traced), per_layer, "{} --trace 1", w.name);
        for (result, declared) in [(&untraced, &d.end_to_end), (&traced, &d.per_layer)] {
            for (name, _, unit) in &result.metrics {
                let want = &declared.iter().find(|m| &m.name == name).unwrap().unit;
                assert_eq!(unit, want, "{}: unit of {name}", w.name);
            }
            assert!(result.correct && result.failed == 0 && result.attempted >= 1);
        }
        assert!(
            home("names")
                .join(format!("out/{}.trace.jsonl", w.name))
                .exists(),
            "{} wrote no trace file",
            w.name
        );
    }
}

#[test]
fn two_serial_runs_at_one_seed_agree_on_every_count() {
    let (_, first) = run_small("joint_small", &home("repeat-a"));
    let (_, second) = run_small("joint_small", &home("repeat-b"));
    let exact = |r: &ParsedResult| -> Vec<(String, u64)> {
        r.metrics
            .iter()
            .filter(|m| traced::EXACT.contains(&m.0.as_str()))
            .map(|m| (m.0.clone(), m.1.to_bits()))
            .collect()
    };
    assert_eq!(exact(&first).len(), traced::EXACT.len());
    assert_eq!(exact(&first), exact(&second));
}
