//! End-to-end tests for pooled multi-fidelity scheduling: with
//! `--engine mfes-hb --workers 4` the asynchronous bracket machinery must
//! actually exercise sub-1.0 fidelities (the old `suggest_batch` default
//! silently degraded every batch slot after the first to a random
//! full-fidelity draw), every fidelity must sit on the η-ladder, and
//! engine-issued trials must carry `rung`/`bracket` attribution in the
//! journal.

use std::path::PathBuf;

use volcanoml_core::plans::p1_joint;
use volcanoml_core::{EngineKind, SpaceTier, VolcanoML, VolcanoMlOptions};
use volcanoml_data::synthetic::{make_classification, ClassificationSpec};
use volcanoml_data::Task;
use volcanoml_obs::json::{parse_object, JsonValue};

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

struct MfRun {
    journal: Vec<std::collections::BTreeMap<String, JsonValue>>,
    best_loss: f64,
    fidelity_counts: Vec<(f64, usize)>,
}

/// One pooled multi-fidelity run, journal parsed.
fn pooled_run(engine: EngineKind, n_workers: usize, evals: usize, seed: u64) -> MfRun {
    let dir = std::env::temp_dir().join("volcanoml-multifidelity-test");
    std::fs::create_dir_all(&dir).unwrap();
    let stem = format!("{}-{}-{}-{}", std::process::id(), engine.name(), n_workers, seed);
    let journal_path: PathBuf = dir.join(format!("journal-{stem}.jsonl"));

    let d = dataset(seed);
    let options = VolcanoMlOptions {
        plan: p1_joint(engine),
        max_evaluations: evals,
        seed,
        n_workers,
        journal_path: Some(journal_path.clone()),
        ..Default::default()
    };
    let engine = VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options);
    let fitted = engine.fit(&d).unwrap();

    let text = std::fs::read_to_string(&journal_path).unwrap();
    std::fs::remove_file(&journal_path).ok();
    let journal = text
        .lines()
        .map(|l| parse_object(l).unwrap_or_else(|| panic!("bad journal line: {l}")))
        .collect();
    MfRun {
        journal,
        best_loss: fitted.report.best_loss,
        fidelity_counts: fitted.report.fidelity_counts.clone(),
    }
}

fn get_f64(row: &std::collections::BTreeMap<String, JsonValue>, key: &str) -> f64 {
    row.get(key).and_then(JsonValue::as_f64).unwrap()
}

fn get_i64(row: &std::collections::BTreeMap<String, JsonValue>, key: &str) -> i64 {
    row.get(key).and_then(JsonValue::as_i64).unwrap()
}

/// The η=3 ladder the joint block configures: 1/9, 1/3, 1.
const LADDER: [f64; 3] = [1.0 / 9.0, 1.0 / 3.0, 1.0];

fn on_ladder(f: f64) -> bool {
    LADDER.iter().any(|&r| (r - f).abs() < 1e-9)
}

/// The acceptance criterion from the issue: a pooled MFES-HB run shows
/// multiple distinct sub-1.0 fidelities and zero off-ladder (fallback)
/// draws, and the journal carries rung/bracket attribution.
#[test]
fn pooled_mfes_hb_exercises_sub_full_fidelities() {
    let run = pooled_run(EngineKind::MfesHb, 4, 24, 3);
    assert!(run.best_loss.is_finite());
    assert!(!run.journal.is_empty());

    let mut sub_full = std::collections::BTreeSet::new();
    for row in &run.journal {
        let fidelity = get_f64(row, "fidelity");
        assert!(
            on_ladder(fidelity),
            "off-ladder fidelity {fidelity} — the random full-fidelity fallback is back"
        );
        if fidelity < 1.0 - 1e-9 {
            sub_full.insert(fidelity.to_bits());
        }
        let rung = get_i64(row, "rung");
        let bracket = get_i64(row, "bracket");
        // Engine-issued trials carry both attributions; seeds carry neither.
        assert_eq!(
            rung >= 0,
            bracket >= 0,
            "rung/bracket must be set together: {row:?}"
        );
        if rung >= 0 {
            assert!(
                (LADDER[rung as usize] - fidelity).abs() < 1e-9,
                "rung {rung} journaled at fidelity {fidelity}"
            );
        }
    }
    assert!(
        sub_full.len() >= 2,
        "expected ≥2 distinct sub-1.0 fidelities, journal saw {}",
        sub_full.len()
    );
    assert!(
        run.journal.iter().any(|r| get_i64(r, "rung") >= 0),
        "no bracket-attributed trials in the journal"
    );
    // The report's fidelity mix mirrors the journal.
    assert!(run.fidelity_counts.len() >= 3, "{:?}", run.fidelity_counts);
}

/// Pooled SH and Hyperband also fill batches from their brackets.
#[test]
fn pooled_sh_and_hyperband_follow_the_ladder() {
    for engine in [EngineKind::SuccessiveHalving, EngineKind::Hyperband] {
        let run = pooled_run(engine, 4, 20, 9);
        let mut saw_sub_full = false;
        for row in &run.journal {
            let fidelity = get_f64(row, "fidelity");
            assert!(on_ladder(fidelity), "{}: off-ladder {fidelity}", engine.name());
            saw_sub_full |= fidelity < 1.0 - 1e-9;
        }
        assert!(saw_sub_full, "{}: no sub-1.0 fidelity exercised", engine.name());
    }
}

/// Pooled MFES-HB reaches a best loss comparable to the serial run on the
/// same data and seed (asynchronous promotion reorders observations, so
/// exact equality is not expected — but pooling must not degrade search to
/// random full-fidelity draws).
#[test]
fn pooled_mfes_hb_matches_serial_quality() {
    let serial = pooled_run(EngineKind::MfesHb, 1, 24, 17);
    let pooled = pooled_run(EngineKind::MfesHb, 4, 24, 17);
    assert!(serial.best_loss.is_finite() && pooled.best_loss.is_finite());
    assert!(
        (serial.best_loss - pooled.best_loss).abs() < 0.15,
        "serial {} vs pooled {}",
        serial.best_loss,
        pooled.best_loss
    );
}
