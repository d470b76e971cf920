//! Parallel-scaling study for the trial-execution engine (`volcanoml-exec`).
//!
//! Part 1 (the headline claim): a *fixed* pre-sampled trial set is evaluated
//! through `Evaluator::evaluate_trials` on pools of 1, 2 and 4 workers, with a
//! constant per-trial latency injected through the evaluator's fault hook
//! (modeling the data-loading / dispatch wait every distributed executor
//! hides). Latency overlaps across workers regardless of core count, so the
//! speedup is machine-independent; the trial set — and therefore the best
//! loss — is identical by construction at equal seeds, which the bench
//! asserts.
//!
//! Part 2: the same fixed trial set with no injected latency — pure
//! CPU-bound scaling, which tops out at the host's available parallelism
//! (printed alongside).
//!
//! Part 3: end-to-end `VolcanoML::fit` with `n_workers` 1 vs 4 on the same
//! dataset and seed. The 4-worker run uses constant-liar batch suggestion,
//! so losses may differ slightly; the table reports both.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use volcanoml_bench::{print_table, quick, scaled, write_csv};
use volcanoml_core::evaluator::{EvalOutcome, Evaluator, Fault, Trial};
use volcanoml_core::{SpaceDef, SpaceTier, TrialTag, VolcanoML, VolcanoMlOptions};
use volcanoml_data::synthetic::{make_classification, ClassificationSpec};
use volcanoml_data::{Metric, Task};
use volcanoml_exec::ExecPool;

fn dataset(seed: u64) -> volcanoml_data::Dataset {
    make_classification(
        &ClassificationSpec {
            n_samples: if quick() { 300 } else { 600 },
            n_features: 12,
            n_informative: 7,
            n_redundant: 2,
            n_classes: 2,
            class_sep: 1.0,
            flip_y: 0.05,
            weights: Vec::new(),
        },
        seed,
    )
}

fn sample_trials(space: &SpaceDef, n: usize, seed: u64) -> Vec<Trial> {
    let compiled = space
        .compile_subspace(&space.var_names(), &HashMap::new())
        .unwrap();
    let mut rng = volcanoml_data::rand_util::rng_from_seed(seed);
    (0..n)
        .map(|_| (compiled.to_map(&compiled.sample(&mut rng)), 1.0, TrialTag::NONE))
        .collect()
}

fn best_loss(outcomes: &[EvalOutcome]) -> f64 {
    outcomes
        .iter()
        .map(|o| o.loss)
        .fold(f64::INFINITY, f64::min)
}

/// Evaluates the fixed trial set on a fresh evaluator with `workers`
/// threads, optionally injecting a per-trial stall. Returns (wall, best).
fn run_once(
    space: &SpaceDef,
    d: &volcanoml_data::Dataset,
    trials: &[Trial],
    workers: usize,
    stall: Option<Duration>,
) -> (f64, f64) {
    let ev = Evaluator::new(space.clone(), d, Metric::BalancedAccuracy, 9).unwrap();
    if let Some(lat) = stall {
        ev.set_fault_hook(Arc::new(move |_a, _f| Some(Fault::Stall(lat))));
    }
    let pool = ExecPool::with_workers(workers);
    let start = Instant::now();
    let outcomes = ev.evaluate_trials(Some(&pool), trials);
    (start.elapsed().as_secs_f64(), best_loss(&outcomes))
}

fn scaling_table(
    title: &str,
    csv: &str,
    space: &SpaceDef,
    d: &volcanoml_data::Dataset,
    trials: &[Trial],
    stall: Option<Duration>,
) {
    let headers: Vec<String> = ["workers", "wall_s", "speedup", "best_loss"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    let mut base_wall = None;
    let mut base_best = None;
    for workers in [1usize, 2, 4] {
        let (wall, best) = run_once(space, d, trials, workers, stall);
        let base = *base_wall.get_or_insert(wall);
        let reference = *base_best.get_or_insert(best);
        assert_eq!(
            best, reference,
            "best loss must be identical across worker counts on a fixed trial set"
        );
        rows.push(vec![
            workers.to_string(),
            format!("{wall:.3}"),
            format!("{:.2}x", base / wall),
            format!("{best:.4}"),
        ]);
        eprintln!("  workers={workers}: {wall:.3}s, best loss {best:.4}");
    }
    print_table(title, &headers, &rows);
    write_csv(csv, &headers, &rows);
}

fn main() {
    let d = dataset(17);
    let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
    let n_trials = scaled(24, 12);
    let trials = sample_trials(&space, n_trials, 23);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "Parallel scaling: {} fixed trials, {cores} core(s) available, quick={}",
        trials.len(),
        quick()
    );

    // Part 1: latency-bound scaling (machine-independent overlap).
    let stall = Duration::from_millis(if quick() { 40 } else { 80 });
    scaling_table(
        &format!(
            "Executor scaling, {}ms injected per-trial latency (identical best loss)",
            stall.as_millis()
        ),
        "parallel_scaling.csv",
        &space,
        &d,
        &trials,
        Some(stall),
    );

    // Part 2: CPU-bound scaling (bounded by available cores).
    scaling_table(
        &format!("Executor scaling, CPU-bound trials ({cores} core(s) on this host)"),
        "parallel_scaling_cpu.csv",
        &space,
        &d,
        &trials,
        None,
    );

    // Part 3: end-to-end fit, serial vs 4-worker batch search.
    let budget = scaled(24, 10);
    let mut fit_rows = Vec::new();
    for workers in [1usize, 4] {
        let options = VolcanoMlOptions {
            max_evaluations: budget,
            seed: 31,
            n_workers: workers,
            ..Default::default()
        };
        let engine = VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options);
        let start = Instant::now();
        let fitted = engine.fit(&d).expect("fit failed");
        let wall = start.elapsed().as_secs_f64();
        fit_rows.push(vec![
            workers.to_string(),
            format!("{wall:.3}"),
            format!("{:.4}", fitted.report.best_loss),
            fitted.report.n_evaluations.to_string(),
        ]);
        eprintln!(
            "  fit workers={workers}: {wall:.3}s, best loss {:.4}",
            fitted.report.best_loss
        );
    }
    let fit_headers: Vec<String> = ["workers", "wall_s", "best_loss", "evaluations"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    print_table(
        "End-to-end fit, serial vs batch search (constant-liar suggestions)",
        &fit_headers,
        &fit_rows,
    );
    write_csv("parallel_scaling_fit.csv", &fit_headers, &fit_rows);
}
