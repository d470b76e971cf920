//! Validation strategies and the view-based trial data path.
//!
//! Everything here operates on [`DatasetView`]s: fidelity subsampling and
//! fold splits are index arithmetic over the evaluator's shared storage, and
//! feature rows are materialized (one pooled gather) only inside the FE
//! pipeline, *after* the FE-cache lookup misses. Result-cache and FE-cache
//! hits therefore copy zero dataset bytes.
//!
//! A trial has one shape whatever the strategy: the coordinator looks up
//! the fidelity's *validation plan* — a list of `(train, valid)` view pairs,
//! one under holdout and `k` under CV, built once per fidelity — and turns
//! the trial into one [`PairJob`] per pair. A job fits on its pair's train
//! view and scores on its valid view, on whichever thread runs it (a pool
//! worker, or the caller when there is no pool); the evaluator then averages
//! the pair losses in plan order on the coordinator. [`ValidationStrategy`]
//! is consulted only where a plan is built.

use super::fe_cache::FeTransformed;
use super::{interpret, EvalShared, Evaluator, Fault, ParsedAssignment};
use crate::{CoreError, Result};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use volcanoml_data::split::{subsample_view, KFold, StratifiedKFold};
use volcanoml_data::{train_test_split, view, Dataset, DatasetView, Task};
use volcanoml_fe::FePipeline;
use volcanoml_models::{binned, AlgorithmKind, Estimator};

/// A fidelity's validation plan: the `(train, valid)` view pairs every
/// trial at that fidelity fits and scores on.
pub(super) type Plan = Arc<Vec<(DatasetView, DatasetView)>>;

/// One `(trial, validation pair)` job — the unit of work a trial hands to
/// the pool, or runs on the calling thread when there is none.
pub(super) struct PairJob {
    ev: Evaluator,
    /// `None` when the assignment or its plan failed to build: the trial is
    /// then this one job, which fails after any injected fault.
    pair: Option<Pair>,
    fault: Option<Fault>,
}

/// The pair a [`PairJob`] fits and scores.
struct Pair {
    parsed: Arc<ParsedAssignment>,
    plan: Plan,
    index: usize,
    /// Identifies the pair's exact training rows (fidelity and position in
    /// the plan) for the FE cache.
    data_key: u64,
}

/// What a [`PairJob`] hands back to the coordinator.
pub(super) struct PairRun {
    /// `(loss, fe_cached, per-row inference seconds)`; `None` when the fit
    /// failed or panicked.
    pub(super) score: Option<(f64, bool, f64)>,
    pub(super) panicked: bool,
    /// Wall-clock seconds the job took.
    pub(super) seconds: f64,
    /// Work the running thread tallied during the job.
    pub(super) binned: binned::stats::Tally,
    /// `(bytes_gathered, gathers_skipped)`, tallied the same way.
    pub(super) gathered: (u64, u64),
}

impl PairJob {
    /// Fits and scores the job's pair under `catch_unwind`, so a panicking
    /// pipeline yields `panicked` instead of tearing down the thread.
    pub(super) fn run(self) -> PairRun {
        let start = Instant::now();
        // Work tallies are per thread, not per job: drop whatever this
        // thread did before, so what is taken after the fit is this job's.
        binned::stats::take();
        view::stats::take();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            match self.fault {
                Some(Fault::Panic) => panic!("injected trial fault"),
                Some(Fault::Stall(d)) => std::thread::sleep(d),
                None => {}
            }
            let pair = self.pair.as_ref()?;
            let (alg, model_params, fe_params) = &*pair.parsed;
            let (train, valid) = &pair.plan[pair.index];
            self.ev
                .fit_and_score(*alg, model_params, fe_params, train, valid, pair.data_key)
                .ok()
        }));
        // Outside `catch_unwind`, so a panicked job's work still counts.
        let binned = binned::stats::take();
        let gathered = view::stats::take();
        PairRun {
            panicked: caught.is_err(),
            score: caught.ok().flatten(),
            seconds: start.elapsed().as_secs_f64(),
            binned,
            gathered,
        }
    }
}

/// How an assignment's quality is measured during search (§5.1 lets users
/// pick validation accuracy or cross-validation accuracy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValidationStrategy {
    /// Single split: `fraction` of the search data held out for scoring.
    Holdout {
        /// Validation fraction in (0, 1).
        fraction: f64,
    },
    /// k-fold cross-validation (stratified for classification); the loss is
    /// the mean across folds. Roughly `k×` the evaluation cost of holdout.
    CrossValidation {
        /// Number of folds (≥ 2).
        folds: usize,
    },
}

impl Default for ValidationStrategy {
    fn default() -> Self {
        ValidationStrategy::Holdout { fraction: 0.25 }
    }
}

/// Builds the `(fit, valid)` views the evaluator stores.
///
/// Holdout materializes the split once at construction and wraps each half
/// as a full view, so full-fidelity trials borrow rows without copying —
/// even on an FE-cache miss. CV keeps the whole dataset behind one `Arc`;
/// folds are drawn per evaluation as index views, and `valid` is an empty
/// view over the same storage: CV setup performs no row gathers.
pub(super) fn build_validation_views(
    strategy: ValidationStrategy,
    data: &Dataset,
    seed: u64,
) -> Result<(DatasetView, DatasetView)> {
    match strategy {
        ValidationStrategy::Holdout { fraction } => {
            if !(fraction > 0.0 && fraction < 1.0) {
                return Err(CoreError::Invalid(format!(
                    "holdout fraction {fraction} must be in (0, 1)"
                )));
            }
            let (train, valid) = train_test_split(data, fraction, seed)?;
            Ok((DatasetView::of(train), DatasetView::of(valid)))
        }
        ValidationStrategy::CrossValidation { folds } => {
            if folds < 2 {
                return Err(CoreError::Invalid(format!(
                    "cross-validation needs at least 2 folds, got {folds}"
                )));
            }
            if folds > data.n_samples() {
                return Err(CoreError::Invalid(format!(
                    "cross-validation with {folds} folds needs at least {folds} rows, got {}",
                    data.n_samples()
                )));
            }
            let storage = Arc::new(data.clone());
            Ok((
                DatasetView::full(Arc::clone(&storage)),
                DatasetView::empty(storage),
            ))
        }
    }
}

impl Evaluator {
    /// One fresh trial's jobs: one per pair of the fidelity's validation
    /// plan, in plan order, or a single failing job when the assignment or
    /// the plan does not build. An injected `fault` fires in the first job
    /// only, so a faulted trial does the same work inline and on a pool.
    pub(super) fn pair_jobs(
        &self,
        assignment: &HashMap<String, f64>,
        fidelity: f64,
        fault: Option<Fault>,
    ) -> Vec<PairJob> {
        let built = self
            .interpret(assignment)
            .and_then(|parsed| Ok((Arc::new(parsed), self.validation_plan(fidelity)?)));
        let Ok((parsed, plan)) = built else {
            return vec![PairJob {
                ev: self.clone(),
                pair: None,
                fault,
            }];
        };
        (0..plan.len())
            .map(|index| PairJob {
                ev: self.clone(),
                pair: Some(Pair {
                    parsed: Arc::clone(&parsed),
                    plan: Arc::clone(&plan),
                    index,
                    data_key: fidelity
                        .to_bits()
                        .wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                }),
                fault: if index == 0 { fault } else { None },
            })
            .collect()
    }

    /// The validation plan for one fidelity — the `(train, valid)` view pairs
    /// every trial at that fidelity fits and scores on: holdout's one pair
    /// (the subsampled train split against the fixed validation split) or
    /// CV's `k` folds of the subsampled search data. Subsample (index-only)
    /// and split once, cache the views keyed by `fidelity.to_bits()`: both
    /// are deterministic in `(data, strategy, seed)`, so recomputing them per
    /// trial is pure waste. Plans are built on the coordinator only.
    fn validation_plan(&self, fidelity: f64) -> Result<Plan> {
        let key = fidelity.to_bits();
        if let Some(plan) = self.state().plans.get(&key) {
            return Ok(Arc::clone(plan));
        }
        let shared: &EvalShared = &self.shared;
        let data = if fidelity >= 1.0 - 1e-9 {
            // Full fidelity: an Arc bump onto the shared storage, no rows
            // touched.
            shared.fit_data.clone()
        } else {
            subsample_view(&shared.fit_data, fidelity, shared.seed ^ 0xf1de)
        };
        let plan = match shared.strategy {
            ValidationStrategy::Holdout { .. } => vec![(data, shared.valid_data.clone())],
            ValidationStrategy::CrossValidation { folds } => {
                let splits: Vec<(Vec<usize>, Vec<usize>)> =
                    if shared.space.task == Task::Classification {
                        StratifiedKFold::from_view(&data, folds, shared.seed)?
                            .splits()
                            .collect()
                    } else {
                        KFold::new(data.n_samples(), folds, shared.seed)?
                            .splits()
                            .collect()
                    };
                splits
                    .iter()
                    .map(|(ti, vi)| (data.select(ti), data.select(vi)))
                    .collect()
            }
        };
        let plan = Arc::new(plan);
        self.state().plans.insert(key, Arc::clone(&plan));
        Ok(plan)
    }

    /// Fits one pipeline+model on `train` and scores on `valid`, returning
    /// `(loss, fe_cached, per-row inference seconds)` — the inference time
    /// is the validation `predict` wall time divided by the number of rows
    /// scored, so it is comparable across fidelities and validation
    /// strategies. `data_key` identifies the exact training subset
    /// (fidelity and position in the validation plan) so the FE cache never
    /// conflates transforms fitted on different rows. On an FE-cache hit no dataset
    /// rows are touched at all; on a miss, index views are gathered exactly
    /// once inside the FE pipeline's view entry points.
    pub(super) fn fit_and_score(
        &self,
        alg: AlgorithmKind,
        model_params: &HashMap<String, f64>,
        fe_params: &HashMap<String, f64>,
        train: &DatasetView,
        valid: &DatasetView,
        data_key: u64,
    ) -> Result<(f64, bool, f64)> {
        let fe_key = (interpret::assignment_key(fe_params), data_key);
        let cached = self.state().fe_cache.get(&fe_key);
        let (fe_out, fe_cached) = match cached {
            Some(arc) => (arc, true),
            None => {
                let mut pipeline = FePipeline::from_values(
                    self.shared.space.task,
                    train.feature_types(),
                    fe_params,
                    &self.shared.space.fe_options,
                    self.shared.seed,
                )
                .map_err(|e| CoreError::Substrate(e.to_string()))?;
                let (x_train, y_train) = pipeline
                    .fit_transform_train_view(train)
                    .map_err(|e| CoreError::Substrate(e.to_string()))?;
                let x_valid = pipeline
                    .transform_view(valid)
                    .map_err(|e| CoreError::Substrate(e.to_string()))?;
                let y_valid = valid.targets().into_owned();
                let arc = Arc::new(FeTransformed {
                    x_train,
                    y_train,
                    x_valid,
                    y_valid,
                });
                self.state().fe_cache.insert(fe_key, Arc::clone(&arc));
                (arc, false)
            }
        };
        let n_jobs = self.shared.model_n_jobs.load(Ordering::Relaxed);
        let mut model = if n_jobs > 1 {
            let mut with_exec = model_params.clone();
            with_exec.insert("n_jobs".to_string(), n_jobs as f64);
            alg.build(&with_exec, self.shared.seed)
        } else {
            alg.build(model_params, self.shared.seed)
        };
        model
            .fit(&fe_out.x_train, &fe_out.y_train)
            .map_err(|e| CoreError::Substrate(e.to_string()))?;
        let infer_start = std::time::Instant::now();
        let preds = model
            .predict(&fe_out.x_valid)
            .map_err(|e| CoreError::Substrate(e.to_string()))?;
        let n_scored = fe_out.y_valid.len().max(1) as f64;
        let infer_s = infer_start.elapsed().as_secs_f64() / n_scored;
        Ok((
            self.shared.metric.loss(&fe_out.y_valid, &preds),
            fe_cached,
            infer_s,
        ))
    }
}
