//! Building-block design ablations (the design choices DESIGN.md calls out):
//!
//! 1. **EUI scheduling** in the alternating block (Algorithm 3) vs naive
//!    round-robin (Algorithm 2 forever);
//! 2. **Rising-bandit arm elimination** in the conditioning block
//!    (Algorithm 1) vs a plain round-robin MAB;
//! 3. **Joint-leaf engine**: BO vs random vs MFES-HB.
//!
//! All variants compile the plan `fit` runs by default (P3, Figure 2) with
//! different [`BlockOptions`], on a slice of the classification suite;
//! reported numbers are mean test losses.

use volcanoml_bench::{maybe_truncate, print_table, quick, scaled, write_csv};
use volcanoml_core::evaluator::refit_assignment;
use volcanoml_core::plans::p3_volcano;
use volcanoml_core::{BlockOptions, EngineKind, Evaluator, SpaceDef};
use volcanoml_data::rand_util::derive_seed;
use volcanoml_data::repository::medium_classification_suite;
use volcanoml_data::{train_test_split, Dataset, Metric, Task};

/// Runs the P3 tree compiled with `options` and returns its test loss.
fn run_tree(
    space: &SpaceDef,
    dataset: &Dataset,
    engine: EngineKind,
    options: &BlockOptions,
    budget: usize,
    seed: u64,
) -> Option<f64> {
    let (train, test) = train_test_split(dataset, 0.2, derive_seed(seed, 0xdead)).ok()?;
    let metric = Metric::BalancedAccuracy;
    let evaluator = Evaluator::new(space.clone(), &train, metric, seed).ok()?;
    let mut root = p3_volcano(engine).compile_with(space, seed, options).ok()?;
    while evaluator.evaluations() < budget {
        root.pull(&evaluator, None, 1).ok()?;
    }
    let best = root.current_best()?;
    let (pipeline, model) = refit_assignment(space, &best.assignment, &train, seed).ok()?;
    let xt = pipeline.transform(&test.x).ok()?;
    let preds = volcanoml_models::Estimator::predict(&model, &xt).ok()?;
    Some(metric.loss(&test.y, &preds))
}

fn main() {
    let budget = scaled(25, 10);
    let datasets = maybe_truncate(
        medium_classification_suite()
            .into_iter()
            .step_by(6)
            .collect(),
        2,
    );
    let space = SpaceDef::auto_sklearn_equivalent(Task::Classification);
    eprintln!(
        "Blocks ablation: {} datasets, budget {budget}, quick={}",
        datasets.len(),
        quick()
    );

    let full = BlockOptions::default();
    let ablated = |eui_scheduling, arm_elimination| BlockOptions {
        eui_scheduling,
        arm_elimination,
        ..full
    };
    let variants: Vec<(&str, EngineKind, BlockOptions)> = vec![
        ("full (EUI+elim, BO)", EngineKind::Bo, full),
        ("no EUI (round-robin alt)", EngineKind::Bo, ablated(false, true)),
        ("no elimination", EngineKind::Bo, ablated(true, false)),
        ("neither", EngineKind::Bo, ablated(false, false)),
        ("random leaves", EngineKind::Random, full),
        ("mfes-hb leaves", EngineKind::MfesHb, full),
    ];

    let headers: Vec<String> = std::iter::once("dataset".to_string())
        .chain(variants.iter().map(|(n, ..)| n.to_string()))
        .collect();
    let mut rows = Vec::new();
    let mut sums = vec![0.0; variants.len()];
    let mut counts = vec![0usize; variants.len()];
    for (di, dataset) in datasets.iter().enumerate() {
        let mut row = vec![dataset.name.clone()];
        for (vi, (name, engine, options)) in variants.iter().enumerate() {
            let seed = derive_seed(derive_seed(53, di as u64), vi as u64);
            match run_tree(&space, dataset, *engine, options, budget, seed) {
                Some(loss) => {
                    sums[vi] += loss;
                    counts[vi] += 1;
                    row.push(format!("{loss:.4}"));
                }
                None => {
                    eprintln!("  {name} failed on {}", dataset.name);
                    row.push("fail".to_string());
                }
            }
        }
        eprintln!("  {} done ({}/{})", dataset.name, di + 1, datasets.len());
        rows.push(row);
    }
    let mut mean_row = vec!["MEAN".to_string()];
    for (s, c) in sums.iter().zip(counts.iter()) {
        mean_row.push(if *c > 0 {
            format!("{:.4}", s / *c as f64)
        } else {
            "fail".to_string()
        });
    }
    rows.push(mean_row);

    print_table(
        "Blocks ablation: test loss (1 - balanced accuracy), lower is better",
        &headers,
        &rows,
    );
    write_csv("blocks_ablation.csv", &headers, &rows);
}
