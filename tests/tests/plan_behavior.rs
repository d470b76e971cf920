//! Integration tests for execution-plan behavior across crates: the
//! decomposition claims that motivate the paper.

use volcanoml_core::evaluator::Evaluator;
use volcanoml_core::plans::{enumerate_coarse_plans, p1_joint, p3_volcano};
use volcanoml_core::{EngineKind, SpaceDef, SpaceTier};
use volcanoml_data::synthetic::{make_classification, ClassificationSpec};
use volcanoml_data::{Metric, Task};

fn dataset(seed: u64) -> volcanoml_data::Dataset {
    make_classification(
        &ClassificationSpec {
            n_samples: 300,
            n_features: 10,
            n_informative: 6,
            n_redundant: 0,
            n_classes: 2,
            class_sep: 1.0,
            flip_y: 0.05,
            weights: Vec::new(),
        },
        seed,
    )
}

#[test]
fn every_coarse_plan_runs_on_the_large_space() {
    let space = SpaceDef::tiered(Task::Classification, SpaceTier::Large);
    let d = dataset(1);
    for (name, plan) in enumerate_coarse_plans(EngineKind::Bo) {
        let evaluator =
            Evaluator::new(space.clone(), &d, Metric::BalancedAccuracy, 0).unwrap();
        let mut root = plan.compile(&space, 0).unwrap_or_else(|e| panic!("{name}: {e}"));
        for _ in 0..15 {
            root.pull(&evaluator, None, 1).unwrap();
        }
        let best = root
            .current_best()
            .unwrap_or_else(|| panic!("{name} found nothing"));
        assert!(best.loss.is_finite(), "{name}");
        // Every plan's winner must be a *complete* pipeline description.
        assert!(best.assignment.contains_key("algorithm"), "{name}");
    }
}

#[test]
fn conditioning_block_eventually_focuses_budget() {
    // On a dataset where one algorithm family clearly dominates, elimination
    // should retire at least one arm within a moderate budget.
    let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
    let d = volcanoml_data::synthetic::make_circles(350, 0.05, 0.5, 5);
    let evaluator = Evaluator::new(space.clone(), &d, Metric::BalancedAccuracy, 0).unwrap();
    let mut root = p3_volcano(EngineKind::Bo).compile(&space, 0).unwrap();
    for _ in 0..45 {
        root.pull(&evaluator, None, 1).unwrap();
    }
    let description = volcanoml_core::block::explain(root.as_ref());
    // kNN (index 2) dominates circles; logistic cannot exceed chance.
    // At minimum the search must have found a strong pipeline.
    let best = root.current_best().unwrap();
    assert!(best.loss < 0.2, "loss {} on circles\n{description}", best.loss);
}

#[test]
fn deeper_decomposition_is_no_worse_on_large_space() {
    // The paper's scalability claim, in miniature: on the large space with a
    // modest budget, the Figure 2 plan should not lose badly to a single
    // joint block. (Run over 3 datasets to damp noise.)
    let space = SpaceDef::tiered(Task::Classification, SpaceTier::Large);
    let budget = 45;
    let mut volcano_total = 0.0;
    let mut joint_total = 0.0;
    for seed in 0..3u64 {
        let d = dataset(20 + seed);
        let ev1 =
            Evaluator::new(space.clone(), &d, Metric::BalancedAccuracy, seed).unwrap();
        let mut volcano = p3_volcano(EngineKind::Bo).compile(&space, seed).unwrap();
        while ev1.evaluations() < budget {
            volcano.pull(&ev1, None, 1).unwrap();
        }
        volcano_total += volcano.current_best().unwrap().loss;

        let ev2 =
            Evaluator::new(space.clone(), &d, Metric::BalancedAccuracy, seed).unwrap();
        let mut joint = p1_joint(EngineKind::Bo).compile(&space, seed).unwrap();
        while ev2.evaluations() < budget {
            joint.pull(&ev2, None, 1).unwrap();
        }
        joint_total += joint.current_best().unwrap().loss;
    }
    assert!(
        volcano_total <= joint_total + 0.15,
        "volcano {volcano_total} vs joint {joint_total}"
    );
}
