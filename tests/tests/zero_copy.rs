//! Gather-counter assertions for the zero-copy dataset-view trial path.
//!
//! Every evaluator sums the gather tallies of its own trials, so each test
//! reads exact byte counts off its own evaluator whatever runs beside it.

use volcanoml_core::{Evaluator, SpaceDef, SpaceTier, ValidationStrategy};
use volcanoml_data::synthetic::{make_classification, ClassificationSpec};
use volcanoml_data::view::stats;
use volcanoml_data::{Dataset, Metric, Task};

/// `(bytes_gathered, gathers_skipped)` over all of `ev`'s trials so far.
fn gathered(ev: &Evaluator) -> (u64, u64) {
    let c = ev.run_counters();
    (c.bytes_gathered, c.gathers_skipped)
}

fn dataset() -> Dataset {
    make_classification(
        &ClassificationSpec {
            n_samples: 240,
            n_features: 8,
            n_informative: 5,
            n_redundant: 0,
            n_classes: 2,
            class_sep: 1.8,
            flip_y: 0.0,
            weights: Vec::new(),
        },
        11,
    )
}

/// Regression test for the CV constructor's old throwaway
/// `data.subset(&[0])` placeholder: building a CV evaluator must perform no
/// row gathers at all — the validation slot is an empty view over the
/// shared storage.
#[test]
fn cv_setup_performs_no_row_gathers() {
    let data = dataset();
    let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
    stats::take();
    let ev = Evaluator::with_strategy(
        space,
        &data,
        Metric::BalancedAccuracy,
        ValidationStrategy::CrossValidation { folds: 3 },
        0,
    )
    .unwrap();
    // Setup runs on this thread, outside any trial: read the thread's tally.
    assert_eq!(stats::take(), (0, 0), "CV setup gathered rows or touched view features");
    assert_eq!(gathered(&ev), (0, 0));
}

/// Acceptance check: a full-fidelity holdout trial whose FE-cache entry is
/// warm copies zero dataset bytes. (With materialized holdout splits even
/// the *cold* full-fidelity trial borrows rather than gathers.)
#[test]
fn warm_fe_full_fidelity_holdout_copies_zero_bytes() {
    let data = dataset();
    let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
    let ev = Evaluator::new(space, &data, Metric::BalancedAccuracy, 0).unwrap();
    let defaults = ev.space().defaults();

    // Cold full-fidelity trial: full views borrow — still zero bytes.
    let cold = ev.evaluate(&defaults, 1.0);
    let (bytes1, skips1) = gathered(&ev);
    assert!(!cold.fe_cached && !cold.cached);
    assert_eq!(bytes1, 0, "cold full-fidelity holdout gathered");
    // One borrow of the train view, one of the validation view.
    assert_eq!(skips1, 2, "full-view borrows should count skipped gathers");

    // Warm-FE trial (different algorithm, same FE sub-assignment): the FE
    // cache hit means no view access at all — zero bytes, zero gathers.
    let mut other = defaults.clone();
    other.insert("algorithm".to_string(), 1.0);
    let warm = ev.evaluate(&other, 1.0);
    assert!(warm.fe_cached, "second trial should hit the FE cache");
    assert_eq!(gathered(&ev), (0, 2), "warm-FE trial touched the views");
}

/// Sub-full fidelities are index views: they gather (once, on FE miss) and
/// the gathered byte count matches rows × cols × 8.
#[test]
fn subsampled_trials_gather_exactly_once_per_fe_miss() {
    let data = dataset();
    let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
    let ev = Evaluator::new(space, &data, Metric::BalancedAccuracy, 0).unwrap();
    let defaults = ev.space().defaults();

    let out = ev.evaluate(&defaults, 0.5);
    assert!(out.loss.is_finite());
    // 240 samples × 0.75 train split × 0.5 fidelity = 90 rows, 8 features.
    let cold = gathered(&ev);
    assert_eq!(cold.0, 90 * 8 * 8, "unexpected gather volume");

    // Result-cache hit: zero additional bytes.
    let repeat = ev.evaluate(&defaults, 0.5);
    assert!(repeat.cached);
    assert_eq!(gathered(&ev), cold, "result-cache hit touched the views");

    // FE-cache hit at the same fidelity: zero additional bytes.
    let mut other = defaults.clone();
    other.insert("algorithm".to_string(), 1.0);
    let warm = ev.evaluate(&other, 0.5);
    assert!(warm.fe_cached);
    assert_eq!(gathered(&ev), cold, "warm-FE sub-fidelity trial touched the views");
}

/// CV evaluation gathers each fold's train/valid subsets on the cold pass
/// and nothing once the FE cache is warm.
#[test]
fn cv_trials_stop_gathering_once_fe_cache_is_warm() {
    let data = dataset();
    let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
    let ev = Evaluator::with_strategy(
        space,
        &data,
        Metric::BalancedAccuracy,
        ValidationStrategy::CrossValidation { folds: 3 },
        0,
    )
    .unwrap();
    let defaults = ev.space().defaults();

    let cold = ev.evaluate(&defaults, 1.0);
    assert!(cold.loss.is_finite());
    // 3 folds × (train 160 + valid 80 rows) × 8 features × 8 bytes.
    assert_eq!(gathered(&ev), (3 * 240 * 8 * 8, 0), "unexpected CV gather volume");

    let mut other = defaults.clone();
    other.insert("algorithm".to_string(), 1.0);
    let warm = ev.evaluate(&other, 1.0);
    assert!(warm.fe_cached, "CV folds should all hit the FE cache");
    assert_eq!(gathered(&ev), (3 * 240 * 8 * 8, 0), "warm-FE CV trial gathered rows");
}
