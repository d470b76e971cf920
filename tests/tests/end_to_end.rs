//! Cross-crate integration tests: the full AutoML stack end to end.

use volcanoml_core::plans::p3_volcano;
use volcanoml_core::{EngineKind, SpaceTier, VolcanoML, VolcanoMlOptions};
use volcanoml_data::synthetic::{
    inject_missing, make_categorical, make_classification, make_moons, make_regression,
    ClassificationSpec, RegressionSpec,
};
use volcanoml_data::{train_test_split, Metric, Task};

fn options(n: usize, seed: u64) -> VolcanoMlOptions {
    VolcanoMlOptions {
        max_evaluations: n,
        seed,
        ..Default::default()
    }
}

#[test]
fn classification_pipeline_beats_chance_comfortably() {
    let d = make_classification(
        &ClassificationSpec {
            n_samples: 400,
            n_features: 10,
            n_informative: 6,
            n_redundant: 2,
            n_classes: 3,
            class_sep: 1.2,
            flip_y: 0.02,
            weights: Vec::new(),
        },
        1,
    );
    let (train, test) = train_test_split(&d, 0.2, 0).unwrap();
    let engine = VolcanoML::with_tier(Task::Classification, SpaceTier::Medium, options(30, 0));
    let fitted = engine.fit(&train).unwrap();
    let acc = fitted.score(&test, Metric::BalancedAccuracy).unwrap();
    assert!(acc > 0.7, "balanced accuracy {acc}");
}

#[test]
fn nonlinear_task_selects_a_nonlinear_model() {
    // On moons with noise features, linear models cap out; the search should
    // find something better than logistic regression's ceiling.
    let d = make_moons(500, 0.15, 2, 3);
    let (train, test) = train_test_split(&d, 0.2, 0).unwrap();
    let engine = VolcanoML::with_tier(Task::Classification, SpaceTier::Medium, options(40, 1));
    let fitted = engine.fit(&train).unwrap();
    let acc = fitted.score(&test, Metric::BalancedAccuracy).unwrap();
    assert!(acc > 0.85, "balanced accuracy {acc}");
}

#[test]
fn regression_stack_works() {
    let d = make_regression(
        &RegressionSpec {
            n_samples: 350,
            n_features: 8,
            n_informative: 5,
            noise: 0.4,
            nonlinear: true,
        },
        5,
    );
    let (train, test) = train_test_split(&d, 0.2, 0).unwrap();
    let engine = VolcanoML::with_tier(Task::Regression, SpaceTier::Medium, options(30, 2));
    let fitted = engine.fit(&train).unwrap();
    let r2 = fitted.score(&test, Metric::R2).unwrap();
    assert!(r2 > 0.5, "R² {r2}");
}

#[test]
fn missing_values_and_categoricals_flow_through() {
    let d = inject_missing(&make_categorical(400, 3, 4, 4, 0.05, 7), 0.1, 8);
    assert!(d.has_missing());
    let (train, test) = train_test_split(&d, 0.2, 0).unwrap();
    let engine = VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options(20, 3));
    let fitted = engine.fit(&train).unwrap();
    let acc = fitted.score(&test, Metric::BalancedAccuracy).unwrap();
    assert!(acc > 0.6, "balanced accuracy {acc}");
}

#[test]
fn all_engines_complete_on_the_same_plan() {
    let d = make_classification(&ClassificationSpec::default(), 9);
    for engine_kind in [
        EngineKind::Bo,
        EngineKind::Random,
        EngineKind::SuccessiveHalving,
        EngineKind::Hyperband,
        EngineKind::MfesHb,
    ] {
        let engine = VolcanoML::with_tier(
            Task::Classification,
            SpaceTier::Small,
            VolcanoMlOptions {
                plan: p3_volcano(engine_kind),
                max_evaluations: 25,
                seed: 4,
                ..Default::default()
            },
        );
        let fitted = engine
            .fit(&d)
            .unwrap_or_else(|e| panic!("{}: {e}", engine_kind.name()));
        assert!(
            fitted.report.best_loss.is_finite(),
            "{} produced no finite best",
            engine_kind.name()
        );
    }
}

#[test]
fn reports_are_internally_consistent() {
    let d = make_classification(&ClassificationSpec::default(), 11);
    let engine = VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options(20, 5));
    let fitted = engine.fit(&d).unwrap();
    let r = &fitted.report;
    // The trajectory's final best equals the reported best loss.
    assert_eq!(r.trajectory.last().unwrap().2, r.best_loss);
    // Incumbent steps are strictly improving.
    assert!(r
        .incumbent_steps
        .windows(2)
        .all(|w| w[1].2 < w[0].2));
    // The best assignment is the last incumbent.
    let last = &r.incumbent_steps.last().unwrap().3;
    assert_eq!(last, &r.best_assignment);
    // Top assignments are sorted by loss.
    assert!(r
        .top_assignments
        .windows(2)
        .all(|w| w[0].1 <= w[1].1));
}

#[test]
fn per_dataset_search_is_reproducible_across_processes() {
    // Byte-level determinism of the whole stack given fixed seeds.
    let d = make_classification(&ClassificationSpec::default(), 13);
    let run = |seed| {
        let engine =
            VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options(15, seed));
        let fitted = engine.fit(&d).unwrap();
        (
            fitted.report.best_loss,
            fitted.report.n_evaluations,
            fitted.report.best_assignment.len(),
        )
    };
    assert_eq!(run(7), run(7));
    // And different seeds explore differently.
    let a = run(7);
    let b = run(8);
    assert!(a != b || a.0 == b.0);
}
