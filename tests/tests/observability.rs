//! Integration tests for the observability layer: a traced `fit` run must
//! produce a trace whose trial spans join the journal one-to-one, a metrics
//! snapshot with nonzero cache and worker figures, and a report that renders
//! from the three artifacts.

use std::collections::HashMap;
use std::path::PathBuf;

use volcanoml_core::{SpaceTier, VolcanoML, VolcanoMlOptions};
use volcanoml_data::synthetic::{make_classification, ClassificationSpec};
use volcanoml_data::Task;
use volcanoml_obs::json::{parse_object, JsonValue};
use volcanoml_obs::report::render_report;

fn dataset(seed: u64) -> volcanoml_data::Dataset {
    make_classification(
        &ClassificationSpec {
            n_samples: 240,
            n_features: 8,
            n_informative: 5,
            n_redundant: 0,
            n_classes: 2,
            class_sep: 1.2,
            flip_y: 0.04,
            weights: Vec::new(),
        },
        seed,
    )
}

struct RunArtifacts {
    journal: String,
    trace: String,
    metrics: String,
    cache_hits: u64,
    cache_misses: u64,
    bytes_gathered: u64,
    gathers_skipped: u64,
}

/// Runs one traced search and reads back the three files.
fn traced_run(n_workers: usize, seed: u64) -> RunArtifacts {
    let dir = std::env::temp_dir().join("volcanoml-observability-test");
    std::fs::create_dir_all(&dir).unwrap();
    let stem = format!("{}-{}-{}", std::process::id(), n_workers, seed);
    let journal_path: PathBuf = dir.join(format!("journal-{stem}.jsonl"));
    let trace_path: PathBuf = dir.join(format!("trace-{stem}.jsonl"));
    let metrics_path: PathBuf = dir.join(format!("metrics-{stem}.json"));

    let d = dataset(seed);
    let options = VolcanoMlOptions {
        max_evaluations: 14,
        seed,
        n_workers,
        journal_path: Some(journal_path.clone()),
        trace_path: Some(trace_path.clone()),
        metrics_path: Some(metrics_path.clone()),
        ..Default::default()
    };
    let engine = VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options);
    let fitted = engine.fit(&d).unwrap();
    assert!(fitted.report.best_loss.is_finite());

    let out = RunArtifacts {
        journal: std::fs::read_to_string(&journal_path).unwrap(),
        trace: std::fs::read_to_string(&trace_path).unwrap(),
        metrics: std::fs::read_to_string(&metrics_path).unwrap(),
        cache_hits: fitted.report.cache_hits,
        cache_misses: fitted.report.cache_misses,
        bytes_gathered: fitted.report.bytes_gathered,
        gathers_skipped: fitted.report.gathers_skipped,
    };
    std::fs::remove_file(&journal_path).ok();
    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&metrics_path).ok();
    out
}

#[test]
fn every_journal_row_joins_exactly_one_trial_span() {
    let run = traced_run(2, 21);

    // Every trace line parses (no torn lines even with a pool attached).
    let mut trial_spans: HashMap<i64, usize> = HashMap::new();
    for line in run.trace.lines() {
        let obj = parse_object(line).unwrap_or_else(|| panic!("bad trace line {line}"));
        let kind = obj.get("kind").and_then(JsonValue::as_str).unwrap();
        let trial = obj.get("trial").and_then(JsonValue::as_i64).unwrap();
        if kind == "trial" {
            assert!(trial >= 0, "trial span without id: {line}");
            *trial_spans.entry(trial).or_default() += 1;
        }
    }
    assert!(!trial_spans.is_empty(), "trace has no trial spans");

    let mut journal_rows = 0usize;
    for line in run.journal.lines() {
        let obj = parse_object(line).unwrap_or_else(|| panic!("bad journal line {line}"));
        let trial = obj.get("trial").and_then(JsonValue::as_i64).unwrap();
        assert_eq!(
            trial_spans.get(&trial),
            Some(&1),
            "journal trial {trial} does not join exactly one trial span"
        );
        // Satellite: arm/digest join keys present on every row.
        let arm = obj.get("arm").and_then(JsonValue::as_str).unwrap();
        let digest = obj.get("digest").and_then(JsonValue::as_str).unwrap();
        assert!(!arm.is_empty(), "empty arm in {line}");
        assert_eq!(digest.len(), 16, "digest not 16 hex chars in {line}");
        journal_rows += 1;
    }
    assert_eq!(
        journal_rows,
        trial_spans.len(),
        "trial spans without journal rows"
    );
}

#[test]
fn metrics_snapshot_has_nonzero_cache_and_worker_figures() {
    let run = traced_run(2, 22);
    let obj = parse_object(&run.metrics).unwrap();
    let counters = obj.get("counters").and_then(JsonValue::as_obj).unwrap();
    let gauges = obj.get("gauges").and_then(JsonValue::as_obj).unwrap();
    let histograms = obj.get("histograms").and_then(JsonValue::as_obj).unwrap();

    let counter = |name: &str| {
        counters
            .get(name)
            .and_then(JsonValue::as_i64)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    // The search revisits configurations (seeds + promotions), so the result
    // cache sees traffic; misses are every real fit.
    assert!(counter("cache.result.misses") > 0);
    assert_eq!(
        counter("cache.result.hits") as u64 + counter("cache.result.misses") as u64,
        run.cache_hits + run.cache_misses,
    );
    assert!(counter("trial.total") > 0);
    // Work counters are the run's own: the snapshot and the report read the
    // same per-trial sums, and the binned family is published even when no
    // tree was trained (`counter` panics on a missing name).
    assert_eq!(counter("data.bytes_gathered") as u64, run.bytes_gathered);
    assert_eq!(counter("data.gathers_skipped") as u64, run.gathers_skipped);
    assert!(run.gathers_skipped > 0, "full-view borrows must be counted");
    counter("binned.matrices_built");

    // Worker utilization: at least one worker accumulated busy time.
    let busy: f64 = gauges
        .iter()
        .filter(|(k, _)| k.starts_with("worker.") && k.ends_with(".busy_s"))
        .filter_map(|(_, v)| v.as_f64())
        .sum();
    assert!(busy > 0.0, "no worker busy time in gauges: {gauges:?}");
    assert!(gauges.get("run.evaluations").and_then(JsonValue::as_f64).unwrap() > 0.0);

    // Cost histogram observed at least one trial.
    let cost = histograms
        .get("trial.cost_s")
        .and_then(JsonValue::as_obj)
        .unwrap();
    assert!(cost.get("count").and_then(JsonValue::as_i64).unwrap() > 0);
}

#[test]
fn report_renders_from_a_real_run() {
    let run = traced_run(2, 23);
    let report = render_report(&run.trace, Some(&run.journal), Some(&run.metrics)).unwrap();
    assert!(report.contains("Per-arm convergence"), "{report}");
    assert!(report.contains("Budget allocation by block path"), "{report}");
    assert!(report.contains("Cache efficiency"), "{report}");
    assert!(!report.contains("UNMATCHED"), "{report}");
}

#[test]
fn serial_runs_are_traced_too() {
    let run = traced_run(1, 24);
    assert!(run.trace.lines().count() > 0);
    let joined = render_report(&run.trace, Some(&run.journal), Some(&run.metrics)).unwrap();
    assert!(!joined.contains("UNMATCHED"), "{joined}");
}
