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
use volcanoml_core::plans::{
    p1_joint, p3_volcano, p4_alternating_joint, p5_alternating_conditioning,
};
use volcanoml_core::{
    BlockOptions, EngineKind, Evaluator, FittedVolcanoML, PlanSpec, SpaceDef, SpaceGrowth,
    SpaceTier, StudyState, ValidationStrategy, VolcanoML, VolcanoMlOptions,
};
use volcanoml_data::synthetic::make_moons;
use volcanoml_data::{Metric, Task};
use volcanoml_integration::{fnv1a, strip_costs};

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

/// `(name, plan, engine, max_evaluations, golden)` under
/// `SpaceGrowth::Incremental { eui_threshold: 10.0 }`: a threshold every
/// finite EUI is under, so the plateau window fires as soon as each arm has a
/// trajectory. Recorded on 7a2e128, the parent of the commit that made growth
/// re-run the plan compiler's layout; each budget is one at which the row
/// expands at least once there. The rows cover growth through a conditioning
/// block, an alternating block with and without one, and open-bracket remaps.
const GROWTH_CASES: [(&str, PlanFn, EngineKind, usize, u64); 4] = [
    ("p3_volcano/bo", p3_volcano, EngineKind::Bo, 30, 0xc959_9875_c4bc_2df2),
    ("p4_alternating_joint/bo", p4_alternating_joint, EngineKind::Bo, 30, 0x489e_327c_694b_5db0),
    ("p5_alternating_conditioning/bo", p5_alternating_conditioning, EngineKind::Bo, 30, 0xd98a_1b75_352f_a47c),
    ("p1_joint/mfes-hb", p1_joint, EngineKind::MfesHb, 30, 0x7d2a_6f81_374b_bde0),
];

/// The expansions a fit applied, read from its `growth stage=N` state line.
fn growth_stage(state: &StudyState) -> usize {
    let line = state
        .lines
        .iter()
        .find_map(|l| l.strip_prefix("growth stage="))
        .expect("incremental fit has a growth line");
    line.split(' ').next().unwrap().parse().unwrap()
}

#[test]
fn grown_fits_match_parent_recorded_digests() {
    let data = make_moons(160, 0.2, 1, 5);
    let moved: Vec<String> = GROWTH_CASES
        .iter()
        .filter_map(|(name, plan, engine, budget, golden)| {
            let options = VolcanoMlOptions {
                plan: plan(*engine),
                max_evaluations: *budget,
                seed: 7,
                space_growth: SpaceGrowth::Incremental { eui_threshold: 10.0 },
                ..Default::default()
            };
            let fitted = VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options)
                .fit(&data)
                .unwrap();
            let stage = growth_stage(&fitted.study_state);
            assert!(stage >= 1, "{name}: no expansion within {budget} evaluations");
            let got = fnv1a(&strip_costs(&fitted.study_state));
            (got != *golden).then(|| format!("{name}: digest {got:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "{moved:#?}");
}

/// A tree compiled on the incremental seed space and grown through the whole
/// expansion ladder is the tree compiled directly on the fully expanded
/// space: equal `explain` before and after 36 pulls, and equal cost-stripped
/// `StudyState`s after them. Round-robin scheduling with no elimination
/// gives every joint leaf at least two trials (its default configuration,
/// then a random draw), so each leaf's `ConfigSpace` — names, domains,
/// conditions and their order — shows in its history rows and in the
/// evaluator log's assignment digests.
#[test]
fn grown_tree_matches_tree_compiled_on_grown_space() {
    use volcanoml_core::growth::incremental_seed;
    use volcanoml_fe::space::fe_expansions;

    let data = make_moons(80, 0.2, 1, 5);
    let options = BlockOptions {
        arm_elimination: false,
        eui_scheduling: false,
        ..BlockOptions::default()
    };
    let plans: [(&str, PlanFn); 3] = [
        ("p3_volcano", p3_volcano),
        ("p4_alternating_joint", p4_alternating_joint),
        ("p5_alternating_conditioning", p5_alternating_conditioning),
    ];
    for tier in [SpaceTier::Small, SpaceTier::Medium] {
        let full = SpaceDef::tiered(Task::Classification, tier);
        let seed_space = incremental_seed(&full).unwrap();
        for (name, plan) in plans {
            let plan = plan(EngineKind::Bo);
            let mut space = seed_space.clone();
            let mut grown = plan.compile_with(&space, 7, &options).unwrap();
            for expansion in fe_expansions(space.task, &space.fe_options) {
                space.apply_fe_expansion(&expansion).unwrap();
                grown.grow(&space, &space.var_names()).unwrap();
            }
            let direct = plan.compile_with(&space, 7, &options).unwrap();
            let case = format!("{name} on {}", tier.name());
            assert_eq!(explain(grown.as_ref()), explain(direct.as_ref()), "{case}");
            let [grown, direct] = [grown, direct].map(|mut root| {
                let evaluator =
                    Evaluator::new(space.clone(), &data, Metric::BalancedAccuracy, 7).unwrap();
                for _ in 0..36 {
                    root.pull(&evaluator, None, 1).unwrap();
                }
                let state = StudyState::capture(root.as_ref(), &evaluator);
                (explain(root.as_ref()), strip_costs(&state))
            });
            assert_eq!(grown, direct, "{case}");
        }
    }
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
