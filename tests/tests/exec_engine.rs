//! Integration tests for the parallel trial-execution engine: determinism
//! across worker counts, crash isolation, per-trial deadlines, and the
//! end-to-end `--workers`/journal path through `VolcanoML::fit`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use volcanoml_core::evaluator::{Evaluator, Fault, Trial, TrialOrigin};
use volcanoml_core::plans::{p1_joint, p3_volcano};
use volcanoml_core::{
    assignment_digest, EngineKind, PlanSpec, SpaceDef, SpaceTier, TrialTag, ValidationStrategy,
    VolcanoML, VolcanoMlOptions,
};
use volcanoml_data::synthetic::{make_classification, make_moons, ClassificationSpec};
use volcanoml_data::{train_test_split, Dataset, Metric, Task};
use volcanoml_exec::{ExecPool, Journal, PoolConfig};
use volcanoml_integration::strip_costs;
use volcanoml_obs::MetricsRegistry;

const CV3: ValidationStrategy = ValidationStrategy::CrossValidation { folds: 3 };

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

/// Pre-samples `n` full-fidelity trials from the composite space.
fn sample_trials(space: &SpaceDef, n: usize, seed: u64) -> Vec<Trial> {
    let compiled = space
        .compile_subspace(&space.var_names(), &HashMap::new())
        .unwrap();
    let mut rng = volcanoml_data::rand_util::rng_from_seed(seed);
    (0..n)
        .map(|_| (compiled.to_map(&compiled.sample(&mut rng)), 1.0, TrialTag::NONE))
        .collect()
}

fn evaluator(space: &SpaceDef, data_seed: u64, eval_seed: u64) -> Evaluator {
    let d = dataset(data_seed);
    Evaluator::new(space.clone(), &d, Metric::BalancedAccuracy, eval_seed).unwrap()
}

#[test]
fn batch_losses_are_identical_across_worker_counts() {
    let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
    let trials = sample_trials(&space, 10, 7);

    let ev1 = evaluator(&space, 5, 3);
    let pool1 = ExecPool::with_workers(1);
    let serial: Vec<f64> = ev1
        .evaluate_trials(Some(&pool1), &trials, &TrialOrigin::default())
        .iter()
        .map(|o| o.loss)
        .collect();

    let ev4 = evaluator(&space, 5, 3);
    let pool4 = ExecPool::with_workers(4);
    let parallel: Vec<f64> = ev4
        .evaluate_trials(Some(&pool4), &trials, &TrialOrigin::default())
        .iter()
        .map(|o| o.loss)
        .collect();

    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(parallel.iter()).enumerate() {
        assert_eq!(a, b, "trial {i}: serial loss {a} != parallel loss {b}");
    }
    assert!(serial.iter().any(|l| l.is_finite()));
}

#[test]
fn panicking_trial_is_isolated_and_journaled() {
    let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
    let trials = sample_trials(&space, 6, 11);
    let bad_alg = trials[2].0["algorithm"];

    let ev = evaluator(&space, 6, 0);
    let journal = Arc::new(Journal::in_memory());
    ev.attach_journal(Arc::clone(&journal));
    ev.set_fault_hook(Arc::new(move |assignment, _fidelity| {
        (assignment["algorithm"] == bad_alg).then_some(Fault::Panic)
    }));

    let pool = ExecPool::with_workers(4);
    let outcomes = ev.evaluate_trials(Some(&pool), &trials, &TrialOrigin::default());

    assert_eq!(outcomes.len(), trials.len());
    for (i, (trial, out)) in trials.iter().zip(outcomes.iter()).enumerate() {
        if trial.0["algorithm"] == bad_alg {
            assert!(out.panicked, "trial {i} should have panicked");
            assert!(out.loss.is_infinite());
        }
    }
    assert!(outcomes.iter().any(|o| o.loss.is_finite() && !o.panicked));

    // Every trial is journaled exactly once, with the panic flag set on the
    // faulted ones.
    let records = journal.records();
    assert_eq!(records.len(), trials.len());
    assert!(records.iter().any(|r| r.panicked && r.loss.is_infinite()));
    assert!(records.iter().any(|r| !r.panicked && r.loss.is_finite()));

    // The evaluator (and its pool) survive: a clean follow-up trial works.
    let ok = trials
        .iter()
        .find(|t| t.0["algorithm"] != bad_alg)
        .unwrap();
    let after = ev.evaluate(&ok.0, 1.0);
    assert!(!after.panicked);
}

/// The deadline has headroom (2 s against a 60 s stall), so no ordinary
/// trial can miss it on a busy machine: what is asserted is which trials
/// timed out, what the journal says, and that the pool runs the next batch —
/// never how fast the other trials were.
#[test]
fn stalled_trial_hits_the_deadline_and_pool_survives() {
    let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
    let trials = sample_trials(&space, 5, 13);
    let slow_alg = trials[1].0["algorithm"];
    let is_slow = |t: &Trial| t.0["algorithm"] == slow_alg;

    let ev = evaluator(&space, 7, 0);
    let journal = Arc::new(Journal::in_memory());
    ev.attach_journal(Arc::clone(&journal));
    ev.set_fault_hook(Arc::new(move |assignment, _fidelity| {
        (assignment["algorithm"] == slow_alg).then_some(Fault::Stall(Duration::from_secs(60)))
    }));

    let pool = ExecPool::new(PoolConfig {
        workers: 4,
        trial_deadline: Some(Duration::from_secs(2)),
    });
    let outcomes = ev.evaluate_trials(Some(&pool), &trials, &TrialOrigin::default());

    assert_eq!(outcomes.len(), trials.len());
    for (i, (trial, out)) in trials.iter().zip(&outcomes).enumerate() {
        assert_eq!(out.timed_out, is_slow(trial), "trial {i}");
        assert_eq!(
            out.loss.is_finite(),
            !is_slow(trial),
            "trial {i}: loss {}",
            out.loss
        );
    }

    // One journal row per trial in submission order, flagged exactly where
    // the trial timed out (from the pool's view of the run).
    let rows = journal.records();
    assert_eq!(rows.len(), trials.len());
    for (trial, row) in trials.iter().zip(&rows) {
        assert_eq!(row.digest, format!("{:016x}", assignment_digest(&trial.0)));
        assert_eq!(row.timed_out, is_slow(trial));
    }

    // The same pool runs the next batch: with the fault lifted the stalled
    // trials (never cached) are fresh fits, the others cache hits.
    ev.set_fault_hook(Arc::new(|_, _| None));
    let again = ev.evaluate_trials(Some(&pool), &trials, &TrialOrigin::default());
    for (trial, out) in trials.iter().zip(&again) {
        assert!(!out.timed_out && out.loss.is_finite());
        assert_eq!(out.cached, !is_slow(trial));
    }
}

/// The deadline bounds each `(trial, fold)` job; a CV trial is timed out if
/// any of its jobs is — here only the first fold stalls, the other two
/// finish on the second worker.
#[test]
fn stalled_cv_fold_times_out_its_trial_and_pool_survives() {
    let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
    let ev = Evaluator::with_strategy(space.clone(), &dataset(8), Metric::BalancedAccuracy, CV3, 0)
        .unwrap();
    let journal = Arc::new(Journal::in_memory());
    ev.attach_journal(Arc::clone(&journal));
    let trials = sample_trials(&space, 3, 17);
    let slow = trials[0].0.clone();
    let slow_digest = format!("{:016x}", assignment_digest(&slow));
    ev.set_fault_hook(Arc::new(move |assignment, _fidelity| {
        (*assignment == slow).then_some(Fault::Stall(Duration::from_secs(60)))
    }));
    let pool = ExecPool::new(PoolConfig {
        workers: 2,
        trial_deadline: Some(Duration::from_secs(2)),
    });
    let outcomes = ev.evaluate_trials(Some(&pool), &trials, &TrialOrigin::default());
    assert!(outcomes[0].timed_out && outcomes[0].loss.is_infinite());
    assert!(outcomes[1..].iter().all(|o| !o.timed_out));

    // One journal row, flagged and free; no cache or log entry.
    let rows = journal.records();
    assert_eq!(rows.len(), trials.len());
    let slow_rows: Vec<_> = rows.iter().filter(|r| r.digest == slow_digest).collect();
    assert_eq!(slow_rows.len(), 1);
    assert!(slow_rows[0].timed_out && slow_rows[0].cost == 0.0);
    assert!(ev
        .log()
        .iter()
        .all(|e| format!("{:016x}", assignment_digest(&e.assignment)) != slow_digest));
    assert_eq!(ev.evaluations(), trials.len() - 1);

    // The pool serves the next batch: the same trial, fault lifted, is a
    // fresh fit rather than a cache hit.
    ev.set_fault_hook(Arc::new(|_, _| None));
    let again = ev.evaluate_trials(Some(&pool), &trials[..1], &TrialOrigin::default());
    assert!(!again[0].timed_out && !again[0].cached);
    assert_eq!(ev.evaluations(), trials.len());
}

/// A CV trial's folds may run on different workers; each fold's seconds go
/// to the worker that ran it, so `worker.N.busy_s` adds up to the study's
/// fresh-trial cost instead of billing one worker for the whole trial.
#[test]
fn pooled_cv_fit_bills_each_fold_to_the_worker_that_ran_it() {
    let registry = Arc::new(MetricsRegistry::new());
    let options = VolcanoMlOptions {
        plan: p1_joint(EngineKind::MfesHb),
        validation: CV3,
        max_evaluations: 24,
        seed: 5,
        n_workers: 2,
        shared_metrics: Some(Arc::clone(&registry)),
        ..Default::default()
    };
    let fitted = VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options)
        .fit(&dataset(14))
        .unwrap();
    let busy: Vec<f64> = (0..2)
        .map(|w| registry.gauge(&format!("worker.{w}.busy_s")).unwrap_or(0.0))
        .collect();
    assert!(
        busy.iter().all(|&b| b > 0.0),
        "a worker ran no fold: {busy:?}"
    );
    let billed: f64 = busy.iter().sum();
    let cost = fitted.report.total_cost;
    assert!(
        (billed - cost).abs() <= 0.05 * cost,
        "workers billed {billed}s for {cost}s of fresh trials"
    );
}

/// Loss ties break by submission order, not by which trial finished first:
/// the evaluator's log — which picks the incumbent (first strictly lower
/// loss) and orders `top_assignments` (stable sort) — is written in the
/// order trials were asked for. The same 3-worker fit, run five times,
/// agrees on all of it and on the held-out predictions.
#[test]
fn pooled_fit_breaks_loss_ties_by_submission_order() {
    type Sorted = std::collections::BTreeMap<String, u64>;
    let sorted = |a: &HashMap<String, f64>| -> Sorted {
        a.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect()
    };
    // Long enough for arms to be eliminated, so the surviving arm pulls
    // three trials per batch; on the parent commit six such fits gave 4
    // (holdout) and 3 (CV) distinct `top_assignments` orders.
    let data = make_moons(240, 0.25, 1, 11);
    let (train, test) = train_test_split(&data, 0.25, 1).unwrap();
    for validation in [ValidationStrategy::default(), CV3] {
        let run = || {
            let options = VolcanoMlOptions {
                plan: p3_volcano(EngineKind::MfesHb),
                validation,
                max_evaluations: 160,
                seed: 11,
                n_workers: 3,
                ..Default::default()
            };
            let fitted = VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options)
                .fit(&train)
                .unwrap();
            let top: Vec<(Sorted, u64)> = fitted
                .report
                .top_assignments
                .iter()
                .map(|(a, loss)| (sorted(a), loss.to_bits()))
                .collect();
            let predictions: Vec<u64> = fitted
                .predict(&test.x)
                .unwrap()
                .iter()
                .map(|p| p.to_bits())
                .collect();
            (sorted(&fitted.report.best_assignment), top, predictions)
        };
        let first = run();
        for attempt in 1..5 {
            assert!(
                run() == first,
                "{validation:?}: run {attempt} differs from run 0"
            );
        }
    }
}

/// One serve tenant's fit: on the shared `pool`, each step capped to its
/// fair share of the pool's workers among the `active` studies, as
/// `volcanoml serve` drives it. Returns the cost-stripped `StudyState`.
fn tenant_fit(
    plan: &PlanSpec,
    seed: u64,
    data: &Dataset,
    pool: &Arc<ExecPool>,
    active: &Arc<AtomicUsize>,
) -> Vec<String> {
    let workers = pool.workers();
    let options = VolcanoMlOptions {
        plan: plan.clone(),
        max_evaluations: 24,
        seed,
        n_workers: workers,
        shared_pool: Some(Arc::clone(pool)),
        ..Default::default()
    };
    let engine = VolcanoML::with_tier(data.task, SpaceTier::Small, options);
    let mut study = engine.open(data).unwrap();
    while !study.done() {
        let share = (workers / active.load(Ordering::SeqCst).max(1)).max(1);
        study.step(study.batch_size().min(share)).unwrap();
    }
    strip_costs(&study.finish().unwrap().study_state)
}

/// Two studies sharing one 1-worker pool, released together, each search
/// exactly as when it has the pool to itself: their trial batches
/// interleave on the worker, and nothing of one reaches the other's state.
#[test]
fn co_tenant_fits_on_a_shared_pool_match_their_solo_runs() {
    let pool = Arc::new(ExecPool::with_workers(1));
    let tenants = [
        (p3_volcano(EngineKind::Bo), 3, dataset(21)),
        (
            p1_joint(EngineKind::MfesHb),
            4,
            make_moons(200, 0.25, 1, 22),
        ),
    ];
    let solo: Vec<Vec<String>> = tenants
        .iter()
        .map(|(plan, seed, data)| {
            tenant_fit(plan, *seed, data, &pool, &Arc::new(AtomicUsize::new(1)))
        })
        .collect();
    let active = Arc::new(AtomicUsize::new(2));
    let barrier = Barrier::new(2);
    let together: Vec<Vec<String>> = std::thread::scope(|scope| {
        let runs: Vec<_> = tenants
            .iter()
            .map(|(plan, seed, data)| {
                let (pool, active, barrier) = (&pool, &active, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    tenant_fit(plan, *seed, data, pool, active)
                })
            })
            .collect();
        runs.into_iter().map(|r| r.join().unwrap()).collect()
    });
    for (i, (alone, shared)) in solo.iter().zip(&together).enumerate() {
        assert_eq!(
            alone, shared,
            "tenant {i}: co-tenant state differs from its solo run"
        );
    }
}

#[test]
fn search_survives_periodic_injected_panics() {
    let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
    let ev = evaluator(&space, 9, 1);
    let journal = Arc::new(Journal::in_memory());
    ev.attach_journal(Arc::clone(&journal));
    let calls = AtomicUsize::new(0);
    ev.set_fault_hook(Arc::new(move |_assignment, _fidelity| {
        (calls.fetch_add(1, Ordering::SeqCst) % 4 == 3).then_some(Fault::Panic)
    }));

    let mut root = p3_volcano(EngineKind::Bo).compile(&space, 1).unwrap();
    let pool = ExecPool::with_workers(4);
    while ev.evaluations() < 24 {
        root.pull(&ev, Some(&pool), 4).unwrap();
    }

    let best = root.current_best().expect("search found nothing");
    assert!(best.loss.is_finite(), "best loss {}", best.loss);
    assert!(journal.records().iter().any(|r| r.panicked));
    assert!(journal.records().iter().any(|r| r.loss.is_finite()));
}

#[test]
fn fit_with_workers_writes_a_journal_file() {
    let d = dataset(12);
    let dir = std::env::temp_dir().join("volcanoml-exec-engine-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("fit-journal-{}.jsonl", std::process::id()));

    let options = VolcanoMlOptions {
        max_evaluations: 12,
        seed: 4,
        n_workers: 4,
        journal_path: Some(path.clone()),
        ..Default::default()
    };
    let engine = VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options);
    let fitted = engine.fit(&d).unwrap();
    assert!(fitted.report.best_loss.is_finite());
    assert!(fitted.report.n_evaluations <= 12);

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "journal file is empty");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "bad line {line}");
        for key in ["\"trial\":", "\"worker\":", "\"loss\":", "\"fidelity\":"] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
    std::fs::remove_file(&path).ok();
}
