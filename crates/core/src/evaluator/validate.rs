//! Validation strategies and the view-based trial data path.
//!
//! Everything here operates on [`DatasetView`]s: fidelity subsampling and
//! fold splits are index arithmetic over the evaluator's shared storage, and
//! feature rows are materialized (one pooled gather) only inside the FE
//! pipeline, *after* the FE-cache lookup misses. Result-cache and FE-cache
//! hits therefore copy zero dataset bytes.
//!
//! A trial has one shape whatever the strategy: look up the fidelity's
//! *validation plan* — a list of `(train, valid)` view pairs, one under
//! holdout and `k` under CV, built once per fidelity — fit and score each
//! pair, and average. [`ValidationStrategy`] is consulted only where a plan
//! is built.

use super::fe_cache::FeTransformed;
use super::{interpret, EvalShared, Evaluator};
use crate::{CoreError, Result};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use volcanoml_data::split::{subsample_view, KFold, StratifiedKFold};
use volcanoml_data::{train_test_split, Dataset, DatasetView, Task};
use volcanoml_fe::FePipeline;
use volcanoml_models::{AlgorithmKind, Estimator};

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
            let storage = Arc::new(data.clone());
            Ok((
                DatasetView::full(Arc::clone(&storage)),
                DatasetView::empty(storage),
            ))
        }
    }
}

impl Evaluator {
    /// Returns `(loss, fe_cached, per-row inference seconds)` — the last
    /// measured over the validation-side `predict` so cost-sensitive
    /// objectives can penalize slow-at-serving pipelines. One loop over the
    /// fidelity's validation plan, whatever the strategy: each number is the
    /// mean over the plan's `(train, valid)` pairs, and a one-pair plan's
    /// mean is the pair's own value bit for bit.
    pub(super) fn evaluate_uncached(
        &self,
        assignment: &HashMap<String, f64>,
        fidelity: f64,
    ) -> Result<(f64, bool, f64)> {
        let (alg, model_params, fe_params) = self.interpret(assignment)?;
        let plan = self.validation_plan(fidelity)?;
        let mut total = 0.0;
        let mut total_infer = 0.0;
        let mut all_fe_cached = true;
        for (pair, (train, valid)) in plan.iter().enumerate() {
            let data_key = fidelity
                .to_bits()
                .wrapping_add((pair as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let (loss, fe_cached, infer_s) =
                self.fit_and_score(alg, &model_params, &fe_params, train, valid, data_key)?;
            total += loss;
            total_infer += infer_s;
            all_fe_cached &= fe_cached;
        }
        let k = plan.len() as f64;
        Ok((total / k, all_fe_cached, total_infer / k))
    }

    /// The validation plan for one fidelity — the `(train, valid)` view pairs
    /// every trial at that fidelity fits and scores on: holdout's one pair
    /// (the subsampled train split against the fixed validation split) or
    /// CV's `k` folds of the subsampled search data. Subsample (index-only)
    /// and split once, cache the views keyed by `fidelity.to_bits()`: both
    /// are deterministic in `(data, strategy, seed)`, so recomputing them per
    /// trial is pure waste. Concurrent misses may build the plan twice; both
    /// builds are identical and the last insert wins.
    fn validation_plan(&self, fidelity: f64) -> Result<Arc<Vec<(DatasetView, DatasetView)>>> {
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
