//! Pins the single trial path: a `fit` must search identically whether its
//! trials run inline on the calling thread or through a worker pool, and
//! identically to the commit that still had separate serial and batch code.
//!
//! The golden digests below were recorded on the parent of the commit that
//! folded the serial/batch twins (blocks, engines, evaluator) into one
//! `k`-trial pull; they are FNV-1a hashes of the cost-stripped `StudyState`,
//! so any change to RNG draws, arm order, elimination points or losses
//! moves them.

use std::time::Duration;

use volcanoml_core::block::explain;
use volcanoml_core::plans::{p1_joint, p3_volcano};
use volcanoml_core::{
    BlockOptions, EngineKind, Evaluator, FittedVolcanoML, PlanSpec, SpaceDef, SpaceTier,
    StudyState, ValidationStrategy, VolcanoML, VolcanoMlOptions,
};
use volcanoml_data::synthetic::make_moons;
use volcanoml_data::{Metric, Task};
use volcanoml_integration::fnv1a;

/// `StudyState` lines without their wall-clock `cost=<16 hex digits>` field
/// (evaluator log and joint history rows) — the only part of a cost-blind
/// search's state that differs between two live runs.
fn strip_costs(state: &StudyState) -> Vec<String> {
    state
        .lines
        .iter()
        .map(|l| match l.find(" cost=") {
            Some(i) => format!("{}{}", &l[..i], &l[i + " cost=".len() + 16..]),
            None => l.clone(),
        })
        .collect()
}

fn fit(
    plan: PlanSpec,
    validation: ValidationStrategy,
    workers: usize,
    deadline: Option<Duration>,
) -> FittedVolcanoML {
    let data = make_moons(160, 0.2, 1, 5);
    let options = VolcanoMlOptions {
        plan,
        validation,
        max_evaluations: 30,
        seed: 7,
        n_workers: workers,
        trial_deadline: deadline,
        ..Default::default()
    };
    VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options)
        .fit(&data)
        .unwrap()
}

type PlanFn = fn(EngineKind) -> PlanSpec;

const HOLDOUT: ValidationStrategy = ValidationStrategy::Holdout { fraction: 0.25 };
const CV3: ValidationStrategy = ValidationStrategy::CrossValidation { folds: 3 };

/// The first four rows predate the single trial path; the `sh` and
/// `hyperband` rows were recorded on 7d783c6, the parent of the commit that
/// folded the three bracket-engine structs into one `BracketEngine`; the
/// `cv3` row on 937dcd3, the parent of the commit that made a pooled trial
/// one job per validation pair (folds run inline on the caller, or as pool
/// jobs on the worker).
const SERIAL_CASES: [(&str, PlanFn, EngineKind, ValidationStrategy, u64); 8] = [
    ("p1_joint/bo", p1_joint, EngineKind::Bo, HOLDOUT, 0xebcf_18c0_2a6d_9fec),
    ("p1_joint/mfes-hb", p1_joint, EngineKind::MfesHb, HOLDOUT, 0xc782_7ead_c714_98b8),
    ("p3_volcano/bo", p3_volcano, EngineKind::Bo, HOLDOUT, 0x3631_f545_d3ff_9bc6),
    ("p3_volcano/mfes-hb", p3_volcano, EngineKind::MfesHb, HOLDOUT, 0xf281_73aa_b67e_30fe),
    ("p1_joint/sh", p1_joint, EngineKind::SuccessiveHalving, HOLDOUT, 0x3414_8123_c6a5_637e),
    ("p1_joint/hyperband", p1_joint, EngineKind::Hyperband, HOLDOUT, 0x4628_e5a8_73a9_0aa9),
    ("p3_volcano/hyperband", p3_volcano, EngineKind::Hyperband, HOLDOUT, 0xc663_eba2_830c_b762),
    ("p1_joint/mfes-hb/cv3", p1_joint, EngineKind::MfesHb, CV3, 0xeb8a_85bc_d0b4_6780),
];

/// No pool at all and a one-worker pool (which a generous `trial_deadline`
/// forces) are the same search.
#[test]
fn inline_fit_equals_one_worker_pool_fit() {
    for (name, plan, engine, validation, _) in SERIAL_CASES {
        let inline = fit(plan(engine), validation, 1, None);
        let pooled = fit(plan(engine), validation, 1, Some(Duration::from_secs(600)));
        assert_eq!(
            strip_costs(&inline.study_state),
            strip_costs(&pooled.study_state),
            "{name}: inline and 1-worker-pool study states differ"
        );
        assert_eq!(
            inline.report.best_loss.to_bits(),
            pooled.report.best_loss.to_bits(),
            "{name}: best loss differs"
        );
    }
}

#[test]
fn serial_fits_match_parent_recorded_digests() {
    let moved: Vec<String> = SERIAL_CASES
        .iter()
        .filter_map(|(name, plan, engine, validation, golden)| {
            let got = fnv1a(&strip_costs(
                &fit(plan(*engine), *validation, 1, None).study_state,
            ));
            (got != *golden).then(|| format!("{name}: digest {got:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "{moved:#?}");
}

#[test]
fn four_worker_mfes_fit_matches_parent_recorded_digest() {
    let fitted = fit(p1_joint(EngineKind::MfesHb), HOLDOUT, 4, None);
    let got = fnv1a(&strip_costs(&fitted.study_state));
    assert_eq!(
        got, 0xe375_39e0_c65f_50de,
        "p1_joint/mfes-hb x4: digest {got:#018x}"
    );
}

/// `compile` is `compile_with` under the default `BlockOptions`: both build
/// the P3 tree that explains and searches identically over 20 pulls.
#[test]
fn compile_equals_compile_with_default_options() {
    let data = make_moons(160, 0.2, 1, 5);
    let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
    for engine in [EngineKind::Bo, EngineKind::MfesHb] {
        let plan = p3_volcano(engine);
        let trees = [
            plan.compile(&space, 7).unwrap(),
            plan.compile_with(&space, 7, &BlockOptions::default()).unwrap(),
        ];
        let [compiled, with_defaults] = trees.map(|mut root| {
            let evaluator =
                Evaluator::new(space.clone(), &data, Metric::BalancedAccuracy, 7).unwrap();
            for _ in 0..20 {
                root.pull(&evaluator, None, 1).unwrap();
            }
            let state = StudyState::capture(root.as_ref(), &evaluator);
            (explain(root.as_ref()), strip_costs(&state))
        });
        assert_eq!(compiled, with_defaults, "p3_volcano/{}", engine.name());
    }
}
