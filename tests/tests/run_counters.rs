//! A study's counters are its own: `binned.*` / `data.*` in the metrics
//! snapshot and the gather/cache figures in `AutoMlReport` are summed from
//! per-trial tallies taken on whichever thread ran each trial, so they do
//! not depend on what else the process is doing.

use std::sync::{Arc, Barrier};

use volcanoml_core::plans::p1_joint;
use volcanoml_core::{
    AutoMlReport, EngineKind, SpaceTier, ValidationStrategy, VolcanoML, VolcanoMlOptions,
};
use volcanoml_data::synthetic::{
    make_classification, make_regression, ClassificationSpec, RegressionSpec,
};
use volcanoml_data::Dataset;
use volcanoml_obs::MetricsRegistry;

/// Counters whose value is a function of the trial sequence alone.
/// (`binned.arena_reuses` also depends on what the running thread's slab
/// pool held before the trial, so it is exact only when one study owns the
/// threads — pinned below, not compared across concurrent runs.)
const SCHEDULE_INDEPENDENT: [&str; 7] = [
    "binned.matrices_built",
    "binned.cells_encoded",
    "binned.hist_node_scans",
    "binned.hist_bytes_scanned",
    "binned.slab_cells_swept",
    "data.bytes_gathered",
    "data.gathers_skipped",
];

fn cls_data() -> Dataset {
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
        31,
    )
}

fn reg_data() -> Dataset {
    make_regression(
        &RegressionSpec {
            n_samples: 200,
            n_features: 6,
            n_informative: 4,
            noise: 0.1,
            nonlinear: true,
        },
        32,
    )
}

/// The paper's plan with BO leaves on the small tier, holdout validation.
fn volcano_bo(n_workers: usize) -> VolcanoMlOptions {
    VolcanoMlOptions {
        max_evaluations: 24,
        seed: 7,
        n_workers,
        ..Default::default()
    }
}

/// One MFES-HB history over the whole space with 3-fold CV: sub-full
/// fidelities and fold views, so index gathers actually happen.
fn mfes_cv() -> VolcanoMlOptions {
    VolcanoMlOptions {
        plan: p1_joint(EngineKind::MfesHb),
        validation: ValidationStrategy::CrossValidation { folds: 3 },
        max_evaluations: 30,
        seed: 9,
        ..Default::default()
    }
}

fn fit(data: &Dataset, mut options: VolcanoMlOptions) -> (AutoMlReport, Arc<MetricsRegistry>) {
    let registry = Arc::new(MetricsRegistry::new());
    options.shared_metrics = Some(Arc::clone(&registry));
    let engine = VolcanoML::with_tier(data.task, SpaceTier::Small, options);
    (engine.fit(data).unwrap().report, registry)
}

/// Every per-run counter, in one fixed order: the six `binned.*` and two
/// `data.*` registry counters, then the report's gather and cache fields.
fn all_counters(report: &AutoMlReport, m: &MetricsRegistry) -> [u64; 14] {
    [
        m.counter("binned.matrices_built"),
        m.counter("binned.cells_encoded"),
        m.counter("binned.hist_node_scans"),
        m.counter("binned.hist_bytes_scanned"),
        m.counter("binned.arena_reuses"),
        m.counter("binned.feature_parallel_merges"),
        m.counter("data.bytes_gathered"),
        m.counter("data.gathers_skipped"),
        report.bytes_gathered,
        report.gathers_skipped,
        report.cache_hits,
        report.cache_misses,
        report.fe_cache_hits,
        report.fe_cache_misses,
    ]
}

/// The values the parent commit (process-global counters diffed against a
/// start-of-run baseline) reported for these two fits when each ran alone in
/// its process. Per-trial tallies must add up to exactly the same numbers.
#[test]
fn serial_fit_counters_equal_the_values_recorded_before_the_move() {
    let (report, m) = fit(&cls_data(), volcano_bo(1));
    assert_eq!(
        all_counters(&report, &m),
        [2, 2880, 820, 109800, 819, 0, 0, 40, 0, 40, 8, 24, 4, 20],
        "volcano plan / BO / small tier"
    );
    let (report, m) = fit(&reg_data(), mfes_cv());
    assert_eq!(
        all_counters(&report, &m),
        [15, 1860, 1261, 34383, 1258, 0, 207936, 0, 207936, 0, 0, 30, 27, 63],
        "MFES-HB / 3-fold CV"
    );
}

/// One SMAC history over the whole small space, serial: every suggestion
/// past the initial design is a model-based pick against one surrogate.
fn joint_bo() -> VolcanoMlOptions {
    VolcanoMlOptions {
        plan: p1_joint(EngineKind::Bo),
        max_evaluations: 150,
        seed: 5,
        n_workers: 1,
        ..Default::default()
    }
}

/// The suggest path's surrogate work, `[fits, rows]`, next to every other
/// counter of a serial 150-evaluation joint-BO study. Past 50 observations
/// `Smac` refits on a schedule, so the rows fitted grow about linearly with
/// the history; the other counters pin the trials that search chose.
#[test]
fn joint_bo_surrogate_work_is_pinned() {
    let (report, m) = fit(&cls_data(), joint_bo());
    assert_eq!(
        [m.counter("work.surrogate.fits"), m.counter("work.surrogate.rows")],
        [71, 4414],
        "surrogate fits and rows"
    );
    assert_eq!(
        all_counters(&report, &m),
        [13, 19584, 2181, 485068, 2177, 0, 0, 72, 0, 72, 3, 150, 114, 36],
        "every other counter"
    );
}

fn schedule_independent(m: &MetricsRegistry) -> Vec<u64> {
    SCHEDULE_INDEPENDENT.iter().map(|name| m.counter(name)).collect()
}

/// Two identical fits released together by a barrier, each with its own
/// registry: both must read exactly what the same fit reads alone. With
/// process-global counters each run also read (part of) the other's work.
#[test]
fn concurrent_fits_each_report_only_their_own_work() {
    let data = cls_data();
    for n_workers in [1, 2] {
        let (solo_report, solo_registry) = fit(&data, volcano_bo(n_workers));
        let solo = schedule_independent(&solo_registry);
        assert!(solo[1] > 0 && solo[3] > 0, "fit trained no binned trees: {solo:?}");
        let barrier = Barrier::new(2);
        let pair: Vec<(AutoMlReport, Arc<MetricsRegistry>)> = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        fit(&data, volcano_bo(n_workers))
                    })
                })
                .collect();
            runs.into_iter().map(|r| r.join().unwrap()).collect()
        });
        for (report, registry) in &pair {
            assert_eq!(
                schedule_independent(registry),
                solo,
                "n_workers={n_workers}: a concurrent fit read someone else's work"
            );
            assert_eq!(report.bytes_gathered, solo_report.bytes_gathered);
            assert_eq!(report.gathers_skipped, solo_report.gathers_skipped);
        }
    }
}
