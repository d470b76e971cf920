//! Composing custom execution plans — the paper's headline abstraction.
//!
//! This example builds three different decompositions of the *same* search
//! space (Figure 1 of the paper), runs each under an identical evaluation
//! budget, and prints their plan trees and results side by side.
//!
//! ```bash
//! cargo run --release --example custom_plan
//! ```

use volcanoml_core::plans::{p1_joint, p3_volcano};
use volcanoml_core::{
    EngineKind, PlanSpec, SpaceDef, SpaceTier, VarFilter, VolcanoML, VolcanoMlOptions,
};
use volcanoml_data::synthetic::{make_classification, ClassificationSpec};
use volcanoml_data::{train_test_split, Metric, Task};

fn main() {
    let dataset = make_classification(
        &ClassificationSpec {
            n_samples: 500,
            n_features: 10,
            n_informative: 5,
            n_redundant: 2,
            n_classes: 2,
            class_sep: 0.9,
            flip_y: 0.05,
            weights: Vec::new(),
        },
        5,
    );
    let (train, test) = train_test_split(&dataset, 0.2, 0).expect("split");
    let space = SpaceDef::tiered(Task::Classification, SpaceTier::Medium);
    println!(
        "space: {} hyper-parameters, {} algorithms\n",
        space.len(),
        space.algorithms.len()
    );

    // Plan A — what auto-sklearn does: one joint BO block over everything.
    let plan_a = p1_joint(EngineKind::Bo);

    // Plan B — the paper's Figure 2 plan.
    let plan_b = p3_volcano(EngineKind::Bo);

    // Plan C — a hand-rolled alternative: alternate the FE subspace against
    // a conditioning block over algorithms (each arm explored jointly).
    let plan_c = PlanSpec::Alternating {
        left_filter: VarFilter::Fe,
        left: Box::new(PlanSpec::Joint(EngineKind::Bo)),
        right: Box::new(PlanSpec::Conditioning {
            on: "algorithm".to_string(),
            child: Box::new(PlanSpec::Joint(EngineKind::Bo)),
        }),
    };

    for (name, plan) in [("A: joint (auto-sklearn style)", plan_a), ("B: Figure 2 (VolcanoML default)", plan_b), ("C: alternating FE | conditioning", plan_c)] {
        let engine = VolcanoML::new(
            space.clone(),
            VolcanoMlOptions {
                plan: plan.clone(),
                max_evaluations: 35,
                seed: 1,
                ..Default::default()
            },
        );
        let fitted = engine.fit(&train).expect("search succeeds");
        let acc = fitted
            .score(&test, Metric::BalancedAccuracy)
            .expect("score");
        println!("== Plan {name} ==");
        println!("  spec: {}", plan.render());
        println!(
            "  best validation loss {:.4} | test balanced accuracy {acc:.4}",
            fitted.report.best_loss
        );
        println!("  executed tree:\n{}", indent(&fitted.report.plan_explain, 4));
    }
}

fn indent(s: &str, by: usize) -> String {
    s.lines()
        .map(|l| format!("{}{l}", " ".repeat(by)))
        .collect::<Vec<_>>()
        .join("\n")
}
