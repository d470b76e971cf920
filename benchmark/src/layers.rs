//! The only file of the benchmark that calls into the workspace crates.
//!
//! Everything the harness needs from `data`, `fe`, `models`, `bo`, `core`,
//! `exec` and `obs` goes through a function here, so a change that renames
//! or collapses a workspace API needs a follow-up in this one file. The
//! functions are grouped by the layer they call into; README.md lists them.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub use volcanoml_core::evaluator::LogEntry;
pub use volcanoml_core::{BuildingBlock, Evaluator, FittedVolcanoML, SpaceDef};
pub use volcanoml_data::{Dataset, DatasetView, Task};
pub use volcanoml_exec::{ExecPool, Journal, TrialRecord};
pub use volcanoml_obs::MetricsRegistry;

use volcanoml_bo::acquisition::{maximize_acquisition, AcquisitionScore};
use volcanoml_bo::surrogate::RandomForestSurrogate;
use volcanoml_bo::{ConfigSpace, Smac, Suggest};
use volcanoml_core::evaluator::{parse_assignment, DEFAULT_FE_CACHE_CAPACITY};
use volcanoml_core::plans::{p1_joint, p3_volcano};
use volcanoml_core::{
    assignment_digest, PlanSpec, ValidationStrategy, VolcanoML, VolcanoMlOptions,
};
use volcanoml_data::rand_util::rng_from_seed;
use volcanoml_data::split::{subsample_view, KFold, StratifiedKFold};
use volcanoml_data::synthetic::{
    make_classification, make_regression, ClassificationSpec, RegressionSpec,
};
use volcanoml_data::{train_test_split, Metric};
use volcanoml_exec::{JournalRow, PoolConfig};
use volcanoml_fe::FePipeline;
use volcanoml_linalg::Matrix;
use volcanoml_models::{AlgorithmKind, Estimator};
use volcanoml_obs::Tracer;

/// The workspace's flat-JSON reader and writer (`volcanoml_obs::json`).
pub mod json {
    pub use volcanoml_obs::json::{escape, num, parse_object, JsonValue};
}

/// Cores this process may use; pool workers are capped at it.
pub fn n_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Harness error: a message naming the call that failed.
pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------- data

/// Generators the workloads draw their studies from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataKind {
    /// `make_regression`, linear response: linear models win decisively, so
    /// the configurations a search exploits are cheap ones on every seed.
    LinearReg,
    /// `make_classification`, 3 Gaussian classes on hypercube corners with
    /// label noise; no family wins outright.
    Hypercube,
}

/// One study's dataset shape.
#[derive(Debug, Clone, Copy)]
pub struct DataSpec {
    pub kind: DataKind,
    /// Rows handed to `fit` (the search data).
    pub rows: usize,
    pub features: usize,
}

/// `rand_util::derive_seed`: the one way the harness derives a seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    volcanoml_data::rand_util::derive_seed(seed, stream)
}

/// Generates `spec.rows + test_rows` rows in one call, so the held-out rows
/// come from the same draw of the generator's structure as the search rows.
pub fn generate(spec: &DataSpec, test_rows: usize, seed: u64) -> Dataset {
    let n = spec.rows + test_rows;
    let d = spec.features;
    match spec.kind {
        DataKind::LinearReg => make_regression(
            &RegressionSpec {
                n_samples: n,
                n_features: d,
                n_informative: d / 2,
                noise: 0.5,
                nonlinear: false,
            },
            seed,
        ),
        DataKind::Hypercube => make_classification(
            &ClassificationSpec {
                n_samples: n,
                n_features: d,
                n_informative: d / 2,
                n_redundant: d / 10,
                n_classes: 3,
                class_sep: 0.6,
                flip_y: 0.08,
                weights: Vec::new(),
            },
            seed,
        ),
    }
}

/// The harness's own held-out split (`train_test_split`): `(search, test)`.
pub fn split_test(data: &Dataset, test_rows: usize, seed: u64) -> Res<(Dataset, Dataset)> {
    let fraction = test_rows as f64 / data.n_samples() as f64;
    train_test_split(data, fraction, seed).map_err(err("train_test_split"))
}

/// Loss of `predictions` under the task's default metric (balanced-accuracy
/// loss or MSE), the metric `fit` minimises.
pub fn default_loss(task: Task, truth: &[f64], predictions: &[f64]) -> f64 {
    Metric::default_for(task).loss(truth, predictions)
}

/// Loss of the majority-class (classification) or mean (regression)
/// predictor fitted on `train_y`, scored on `test_y`.
pub fn trivial_loss(task: Task, train_y: &[f64], test_y: &[f64]) -> f64 {
    let constant = match task {
        Task::Classification => {
            let mut counts: HashMap<u64, usize> = HashMap::new();
            for y in train_y {
                *counts.entry(y.to_bits()).or_default() += 1;
            }
            // Ties break on the smaller label so the result is repeatable.
            counts
                .into_iter()
                .map(|(bits, c)| (c, f64::from_bits(bits)))
                .max_by(|a, b| a.0.cmp(&b.0).then(b.1.total_cmp(&a.1)))
                .map_or(0.0, |(_, label)| label)
        }
        Task::Regression => train_y.iter().sum::<f64>() / train_y.len().max(1) as f64,
    };
    default_loss(task, test_y, &vec![constant; test_y.len()])
}

/// One model fit of a trial: the key of its training rows, then the
/// training and validation views.
pub type FitViews = (u64, DatasetView, DatasetView);

/// The views `Evaluator::with_strategy` builds internally, rebuilt from the
/// same public calls so the layer replay fits on the rows the search used.
pub struct ReplayViews {
    strategy: ValidationStrategy,
    task: Task,
    seed: u64,
    fit: DatasetView,
    valid: DatasetView,
    folds: HashMap<u64, Arc<Vec<(DatasetView, DatasetView)>>>,
}

impl ReplayViews {
    pub fn new(study: &StudyConfig, search: &Dataset) -> Res<ReplayViews> {
        let strategy = study.validation();
        let (fit, valid) = match strategy {
            ValidationStrategy::Holdout { fraction } => {
                let (train, valid) = train_test_split(search, fraction, study.search_seed)
                    .map_err(err("train_test_split"))?;
                (DatasetView::of(train), DatasetView::of(valid))
            }
            ValidationStrategy::CrossValidation { .. } => {
                let storage = Arc::new(search.clone());
                (
                    DatasetView::full(Arc::clone(&storage)),
                    DatasetView::empty(storage),
                )
            }
        };
        Ok(ReplayViews {
            strategy,
            task: search.task,
            seed: study.search_seed,
            fit,
            valid,
            folds: HashMap::new(),
        })
    }

    /// `(data key, train, valid)` for every fit the evaluator runs for one
    /// trial at `fidelity`: one pair under holdout, one per fold under CV.
    /// Returns the seconds spent in `subsample_view` and fold planning.
    pub fn trial_views(&mut self, fidelity: f64) -> Res<(Vec<FitViews>, f64)> {
        let start = Instant::now();
        let sub = |fit: &DatasetView, seed: u64| {
            if fidelity >= 1.0 - 1e-9 {
                fit.clone()
            } else {
                subsample_view(fit, fidelity, seed ^ 0xf1de)
            }
        };
        let views = match self.strategy {
            ValidationStrategy::Holdout { .. } => vec![(
                fidelity.to_bits(),
                sub(&self.fit, self.seed),
                self.valid.clone(),
            )],
            ValidationStrategy::CrossValidation { folds } => {
                let key = fidelity.to_bits();
                if !self.folds.contains_key(&key) {
                    let data = sub(&self.fit, self.seed);
                    let splits: Vec<(Vec<usize>, Vec<usize>)> = match self.task {
                        Task::Classification => StratifiedKFold::from_view(&data, folds, self.seed)
                            .map_err(err("StratifiedKFold::from_view"))?
                            .splits()
                            .collect(),
                        Task::Regression => KFold::new(data.n_samples(), folds, self.seed)
                            .map_err(err("KFold::new"))?
                            .splits()
                            .collect(),
                    };
                    let plan = splits
                        .iter()
                        .map(|(t, v)| (data.select(t), data.select(v)))
                        .collect();
                    self.folds.insert(key, Arc::new(plan));
                }
                self.folds[&key]
                    .iter()
                    .enumerate()
                    .map(|(fold, (t, v))| {
                        let data_key =
                            key.wrapping_add((fold as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                        (data_key, t.clone(), v.clone())
                    })
                    .collect()
            }
        };
        Ok((views, start.elapsed().as_secs_f64()))
    }
}

// ------------------------------------------------------------ fe, models

/// Coarse model families the replay buckets fit time by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    TreeEnsembles,
    Linear,
    Kernel,
    Other,
}

fn family(alg: AlgorithmKind) -> Family {
    use AlgorithmKind::*;
    match alg {
        RandomForest | ExtraTrees | GradientBoosting | AdaBoost | RandomForestReg
        | ExtraTreesReg | GradientBoostingReg => Family::TreeEnsembles,
        Logistic | LinearSvm | Lda | Ridge | Lasso | ElasticNet | SgdRegressor | HuberReg => {
            Family::Linear
        }
        KernelSvm | SvmReg => Family::Kernel,
        _ => Family::Other,
    }
}

/// Time one replayed trial spent in each layer call.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCost {
    pub pipelines_fit: u64,
    pub fe_fit_transform_s: f64,
    pub fe_transform_valid_s: f64,
    pub fe_failures: u64,
    pub model_fits: u64,
    pub model_fit_s: f64,
    pub model_predict_s: f64,
    pub model_failures: u64,
    pub subsample_s: f64,
    pub family: Option<Family>,
}

struct FeOutput {
    x_train: Matrix,
    y_train: Vec<f64>,
    x_valid: Matrix,
}

/// Re-runs logged trials through `parse_assignment` → `FePipeline` →
/// `AlgorithmKind::build` → `Estimator::{fit, predict}`, memoising fitted FE
/// output by `(FE sub-assignment, training rows)` in a FIFO of the
/// evaluator's own capacity, as the evaluator's FE cache does.
pub struct LayerReplay {
    space: SpaceDef,
    seed: u64,
    views: ReplayViews,
    fe_memo: HashMap<(u64, u64), Arc<FeOutput>>,
    fe_order: VecDeque<(u64, u64)>,
}

impl LayerReplay {
    pub fn new(study: &StudyConfig, search: &Dataset) -> Res<LayerReplay> {
        Ok(LayerReplay {
            space: study.space(search.task),
            seed: study.search_seed,
            views: ReplayViews::new(study, search)?,
            fe_memo: HashMap::new(),
            fe_order: VecDeque::new(),
        })
    }

    pub fn replay(&mut self, entry: &LogEntry) -> Res<ReplayCost> {
        let mut cost = ReplayCost::default();
        let (alg, model_params, fe_params) =
            parse_assignment(&self.space, &entry.assignment).map_err(err("parse_assignment"))?;
        cost.family = Some(family(alg));
        let (views, subsample_s) = self.views.trial_views(entry.fidelity)?;
        cost.subsample_s = subsample_s;
        for (data_key, train, valid) in views {
            let key = (assignment_digest(&fe_params), data_key);
            let fe = match self.fe_memo.get(&key) {
                Some(hit) => Arc::clone(hit),
                None => {
                    cost.pipelines_fit += 1;
                    let built = FePipeline::from_values(
                        self.space.task,
                        train.feature_types(),
                        &fe_params,
                        &self.space.fe_options,
                        self.seed,
                    );
                    let start = Instant::now();
                    let fitted = built.and_then(|mut p| {
                        let (x_train, y_train) = p.fit_transform_train_view(&train)?;
                        Ok((p, x_train, y_train))
                    });
                    cost.fe_fit_transform_s += start.elapsed().as_secs_f64();
                    let Ok((pipeline, x_train, y_train)) = fitted else {
                        cost.fe_failures += 1;
                        return Ok(cost);
                    };
                    let start = Instant::now();
                    let x_valid = pipeline.transform_view(&valid);
                    cost.fe_transform_valid_s += start.elapsed().as_secs_f64();
                    let Ok(x_valid) = x_valid else {
                        cost.fe_failures += 1;
                        return Ok(cost);
                    };
                    let out = Arc::new(FeOutput {
                        x_train,
                        y_train,
                        x_valid,
                    });
                    self.fe_memo.insert(key, Arc::clone(&out));
                    self.fe_order.push_back(key);
                    while self.fe_memo.len() > DEFAULT_FE_CACHE_CAPACITY {
                        match self.fe_order.pop_front() {
                            Some(old) => self.fe_memo.remove(&old),
                            None => break,
                        };
                    }
                    out
                }
            };
            cost.model_fits += 1;
            let mut model = alg.build(&model_params, self.seed);
            let start = Instant::now();
            let fitted = model.fit(&fe.x_train, &fe.y_train);
            cost.model_fit_s += start.elapsed().as_secs_f64();
            if fitted.is_err() {
                cost.model_failures += 1;
                return Ok(cost);
            }
            let start = Instant::now();
            let predicted = model.predict(&fe.x_valid);
            cost.model_predict_s += start.elapsed().as_secs_f64();
            if predicted.is_err() {
                cost.model_failures += 1;
                return Ok(cost);
            }
            std::hint::black_box(predicted.ok());
        }
        Ok(cost)
    }
}

/// Seconds a 40-tree forest takes to fit on `data` with `n_jobs` threads.
pub fn forest_fit_s(data: &Dataset, n_jobs: usize, seed: u64) -> Res<f64> {
    let alg = match data.task {
        Task::Classification => AlgorithmKind::RandomForest,
        Task::Regression => AlgorithmKind::RandomForestReg,
    };
    let params = HashMap::from([
        ("n_estimators".to_string(), 40.0),
        ("n_jobs".to_string(), n_jobs as f64),
    ]);
    let mut model = alg.build(&params, seed);
    let start = Instant::now();
    model.fit(&data.x, &data.y).map_err(err("Estimator::fit"))?;
    let seconds = start.elapsed().as_secs_f64();
    std::hint::black_box(&model);
    Ok(seconds)
}

// -------------------------------------------------------------------- bo

/// A study's logged history encoded for the surrogate.
pub struct EncodedHistory {
    space: ConfigSpace,
    configs: Vec<volcanoml_bo::Configuration>,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
}

/// Encodes the finite full-fidelity entries of `log` over the whole space
/// (`SpaceDef::compile_subspace`, `ConfigSpace::{from_map, encode}`), cycled
/// to `n` rows when the study logged fewer.
pub fn encode_history(space: &SpaceDef, log: &[LogEntry], n: usize) -> Res<EncodedHistory> {
    let cs = space
        .compile_subspace(&space.var_names(), &HashMap::new())
        .map_err(err("SpaceDef::compile_subspace"))?;
    let usable: Vec<&LogEntry> = log.iter().filter(|e| e.loss.is_finite()).collect();
    if usable.is_empty() {
        return Err("encode_history: the study logged no finite loss".into());
    }
    let mut configs = Vec::with_capacity(n);
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for entry in usable.iter().cycle().take(n) {
        let config = cs.from_map(&entry.assignment);
        xs.push(cs.encode(&config));
        ys.push(entry.loss);
        configs.push(config);
    }
    Ok(EncodedHistory {
        space: cs,
        configs,
        xs,
        ys,
    })
}

/// Seconds of one `RandomForestSurrogate::fit` on the history.
pub fn surrogate_fit_s(history: &EncodedHistory, seed: u64) -> f64 {
    let mut rng = rng_from_seed(seed);
    let mut surrogate = RandomForestSurrogate::new();
    let start = Instant::now();
    surrogate.fit(&history.xs, &history.ys, &mut rng);
    let seconds = start.elapsed().as_secs_f64();
    std::hint::black_box(&surrogate);
    seconds
}

/// Seconds of one `maximize_acquisition` (SMAC's 300 random + 20 local
/// candidates) against a surrogate fitted on the history.
pub fn acquisition_s(history: &EncodedHistory, seed: u64) -> f64 {
    let mut rng = rng_from_seed(seed);
    let mut surrogate = RandomForestSurrogate::new();
    surrogate.fit(&history.xs, &history.ys, &mut rng);
    let best = history.ys.iter().copied().fold(f64::INFINITY, f64::min);
    let incumbent = history
        .ys
        .iter()
        .position(|&y| y == best)
        .map(|i| &history.configs[i]);
    let start = Instant::now();
    let picked = maximize_acquisition(
        &history.space,
        &surrogate,
        incumbent,
        best,
        300,
        20,
        AcquisitionScore::Ei,
        &mut rng,
    );
    let seconds = start.elapsed().as_secs_f64();
    std::hint::black_box(picked);
    seconds
}

/// Seconds of the first model-based `Smac::suggest` (surrogate refit plus
/// acquisition) after the history was fed through `Smac::observe`.
pub fn smac_suggest_s(history: &EncodedHistory, seed: u64) -> f64 {
    let mut smac = Smac::new(history.space.clone(), seed);
    // The first suggestion is always the default configuration.
    std::hint::black_box(smac.suggest());
    for (config, &loss) in history.configs.iter().zip(&history.ys) {
        smac.observe(config.clone(), 1.0, loss, 0.0);
    }
    let start = Instant::now();
    let suggestion = smac.suggest();
    let seconds = start.elapsed().as_secs_f64();
    std::hint::black_box(suggestion);
    seconds
}

// ------------------------------------------------------------------ core

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// `plans::p1_joint`: one joint block over the whole space.
    Joint,
    /// `plans::p3_volcano`: conditioning on the algorithm, alternating FE/HP.
    Volcano,
}

/// The search engine of a plan's leaves (`Bo`, `MfesHb`, …).
pub use volcanoml_core::EngineKind as Engine;
/// The tiered search spaces (`Medium`, `Large`, …).
pub use volcanoml_core::SpaceTier as Tier;

/// Everything that configures one `fit` besides its data and output paths.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    pub plan: Plan,
    pub engine: Engine,
    pub tier: Tier,
    /// 0 = 25% holdout, otherwise k-fold cross-validation.
    pub folds: usize,
    pub workers: usize,
    pub evaluations: usize,
    pub search_seed: u64,
}

/// Files a `fit` writes. `trace` and `metrics` are set only for studies run
/// the way `volcanoml-serve` runs them.
#[derive(Debug, Clone, Default)]
pub struct FitPaths {
    pub journal: Option<std::path::PathBuf>,
    pub trace: Option<std::path::PathBuf>,
    pub metrics: Option<std::path::PathBuf>,
}

impl StudyConfig {
    pub fn space(&self, task: Task) -> SpaceDef {
        SpaceDef::tiered(task, self.tier)
    }

    fn plan_spec(&self) -> PlanSpec {
        match self.plan {
            Plan::Joint => p1_joint(self.engine),
            Plan::Volcano => p3_volcano(self.engine),
        }
    }

    fn validation(&self) -> ValidationStrategy {
        if self.folds > 1 {
            ValidationStrategy::CrossValidation { folds: self.folds }
        } else {
            ValidationStrategy::default()
        }
    }

    fn options(&self, paths: &FitPaths, resume: bool) -> VolcanoMlOptions {
        VolcanoMlOptions {
            plan: self.plan_spec(),
            max_evaluations: self.evaluations,
            seed: self.search_seed,
            validation: self.validation(),
            n_workers: self.workers,
            journal_path: paths.journal.clone(),
            trace_path: paths.trace.clone(),
            metrics_path: paths.metrics.clone(),
            model_n_jobs: 1,
            resume,
            ..Default::default()
        }
    }
}

/// The figures the harness reads from an `AutoMlReport`.
#[derive(Debug, Clone, Copy)]
pub struct FitSummary {
    pub best_loss: f64,
    pub evaluations: usize,
    pub result_cache_hits: u64,
    pub result_cache_misses: u64,
    pub fe_cache_hits: u64,
    pub fe_cache_misses: u64,
}

/// What the harness keeps from one `VolcanoML::fit`.
pub struct FitResult {
    pub fitted: FittedVolcanoML,
    pub summary: FitSummary,
    /// Wall time of the `fit` call: search plus refit.
    pub wall_s: f64,
}

fn timed_fit(engine: &VolcanoML, search: &Dataset) -> Res<FitResult> {
    let start = Instant::now();
    let fitted = engine.fit(search).map_err(err("VolcanoML::fit"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let r = &fitted.report;
    let summary = FitSummary {
        best_loss: r.best_loss,
        evaluations: r.n_evaluations,
        result_cache_hits: r.cache_hits,
        result_cache_misses: r.cache_misses,
        fe_cache_hits: r.fe_cache_hits,
        fe_cache_misses: r.fe_cache_misses,
    };
    Ok(FitResult {
        fitted,
        summary,
        wall_s,
    })
}

/// The user-facing call every end-to-end metric is measured through.
pub fn fit(
    study: &StudyConfig,
    search: &Dataset,
    paths: &FitPaths,
    resume: bool,
) -> Res<FitResult> {
    let engine = VolcanoML::new(study.space(search.task), study.options(paths, resume));
    timed_fit(&engine, search)
}

/// Held-out loss of `FittedVolcanoML::predict`.
pub fn test_loss(fitted: &FittedVolcanoML, test: &Dataset) -> Res<f64> {
    let predictions = fitted
        .predict(&test.x)
        .map_err(err("FittedVolcanoML::predict"))?;
    Ok(default_loss(test.task, &test.y, &predictions))
}

/// The pre-search calls `fit` makes: `Evaluator::with_strategy` and
/// `PlanSpec::compile`.
pub fn presearch(
    study: &StudyConfig,
    search: &Dataset,
) -> Res<(Evaluator, Box<dyn BuildingBlock>)> {
    let space = study.space(search.task);
    let evaluator = Evaluator::with_strategy(
        space.clone(),
        search,
        Metric::default_for(search.task),
        study.validation(),
        study.search_seed,
    )
    .map_err(err("Evaluator::with_strategy"))?;
    evaluator.set_model_n_jobs(1);
    let root = study
        .plan_spec()
        .compile(&space, study.search_seed)
        .map_err(err("PlanSpec::compile"))?;
    Ok((evaluator, root))
}

/// Validation loss of `SpaceDef::defaults()` at full fidelity: the `L0` the
/// time-to-target thresholds are relative to.
pub fn default_config_loss(evaluator: &Evaluator) -> f64 {
    let defaults = evaluator.space().defaults();
    evaluator.evaluate(&defaults, 1.0).loss
}

/// One pull on the plan's root, as `fit`'s loop makes it.
pub fn pull(
    root: &mut dyn BuildingBlock,
    evaluator: &Evaluator,
    pool: Option<&ExecPool>,
    k: usize,
) -> Res<()> {
    match pool {
        Some(pool) => root.do_next_batch(evaluator, pool, k),
        None => root.do_next(evaluator),
    }
    .map_err(err("BuildingBlock::do_next"))
}

/// The evaluator counters `fit`'s loop steers by, read in one call.
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    pub evaluations: usize,
    pub consecutive_cached: usize,
    /// Seconds spent inside fresh evaluations, summed over workers.
    pub busy_s: f64,
}

pub fn progress(evaluator: &Evaluator) -> Progress {
    Progress {
        evaluations: evaluator.evaluations(),
        consecutive_cached: evaluator.consecutive_cached(),
        busy_s: evaluator.total_cost(),
    }
}

/// What `fit` does between its loop and the refit: promote the best
/// low-fidelity configuration when a multi-fidelity engine never reached
/// full fidelity, then pick the first best full-fidelity entry of the log.
/// Returns the log and the index of the winner.
pub fn finish_search(evaluator: &Evaluator) -> Res<(Vec<LogEntry>, usize)> {
    let full = |e: &LogEntry| e.fidelity >= 1.0 - 1e-9;
    let mut log = evaluator.log();
    if !log.iter().any(|e| full(e) && e.loss.is_finite()) {
        let best_low = log
            .iter()
            .filter(|e| e.loss.is_finite())
            .min_by(|a, b| a.loss.total_cmp(&b.loss))
            .map(|e| e.assignment.clone());
        if let Some(assignment) = best_low {
            evaluator.evaluate(&assignment, 1.0);
            log = evaluator.log();
        }
    }
    let mut best: Option<usize> = None;
    for (i, e) in log.iter().enumerate() {
        if full(e) && e.loss < best.map_or(f64::INFINITY, |b| log[b].loss) {
            best = Some(i);
        }
    }
    let best = best.ok_or("finish_search: no successful full-fidelity evaluation")?;
    Ok((log, best))
}

/// `Evaluator::refit`: the winner retrained on all the search data.
pub fn refit(evaluator: &Evaluator, best: &HashMap<String, f64>, search: &Dataset) -> Res<()> {
    let refitted = evaluator
        .refit(best, search)
        .map_err(err("Evaluator::refit"))?;
    std::hint::black_box(&refitted);
    Ok(())
}

/// Attaches what `fit` attaches when its journal, trace and metrics paths
/// are set: a file-backed journal always, a file-backed tracer and a
/// registry for observed studies.
pub fn attach_sinks(
    evaluator: &Evaluator,
    paths: &FitPaths,
) -> Res<(Arc<Journal>, Option<Arc<MetricsRegistry>>)> {
    let journal_path = paths
        .journal
        .as_deref()
        .ok_or("attach_sinks: no journal path")?;
    let journal = Arc::new(Journal::to_path(journal_path).map_err(err("Journal::to_path"))?);
    evaluator.attach_journal(Arc::clone(&journal));
    if let Some(path) = &paths.trace {
        let tracer = Tracer::to_path(path).map_err(err("Tracer::to_path"))?;
        evaluator.set_tracer(Arc::new(tracer));
    }
    let registry = paths.metrics.as_ref().map(|_| {
        let registry = Arc::new(MetricsRegistry::new());
        evaluator.set_metrics(Arc::clone(&registry));
        registry
    });
    Ok((journal, registry))
}

/// Flushes the sinks `attach_sinks` attached, as the end of `fit` does.
pub fn flush_sinks(evaluator: &Evaluator, journal: &Journal) {
    evaluator.tracer().flush();
    journal.flush();
}

// ------------------------------------------------------------------ exec

pub fn new_pool(workers: usize) -> ExecPool {
    ExecPool::new(PoolConfig::with_workers(workers))
}

/// Median seconds `ExecPool::run_batch` takes for one batch of no-op jobs,
/// one job per worker.
pub fn pool_dispatch_s(pool: &ExecPool, batches: usize) -> f64 {
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let jobs: Vec<_> = (0..pool.workers()).map(|i| move || i).collect();
            let start = Instant::now();
            let runs = pool.run_batch(jobs);
            let seconds = start.elapsed().as_secs_f64();
            std::hint::black_box(runs);
            seconds
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The trial rows a live journal holds.
pub fn journal_rows(journal: &Journal) -> Vec<TrialRecord> {
    journal.records()
}

/// The trial rows of a journal file, parsed with `JournalRow::from_json`.
pub fn read_journal(path: &Path) -> Res<Vec<TrialRecord>> {
    let text = std::fs::read_to_string(path).map_err(err("read journal"))?;
    let mut rows = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        if let JournalRow::Trial(rec) = JournalRow::from_json(line).map_err(err("JournalRow"))? {
            rows.push(rec);
        }
    }
    Ok(rows)
}

/// Seconds to write `rows` through `Journal::to_path` and flush them.
pub fn journal_write_s(rows: &[TrialRecord], path: &Path) -> Res<f64> {
    let start = Instant::now();
    let journal = Journal::to_path(path).map_err(err("Journal::to_path"))?;
    for row in rows {
        journal.record(row.clone());
    }
    journal.flush();
    Ok(start.elapsed().as_secs_f64())
}

/// Seconds `Journal::resume_from_path` takes to reopen a finished journal.
pub fn journal_resume_s(path: &Path) -> Res<f64> {
    let start = Instant::now();
    let journal = Journal::resume_from_path(path).map_err(err("Journal::resume_from_path"))?;
    let seconds = start.elapsed().as_secs_f64();
    std::hint::black_box(journal.len());
    Ok(seconds)
}

// ------------------------------------------------------------------- obs

/// Counter and histogram sums the harness reads from a metrics registry.
pub struct RegistryReadout {
    pub cells_encoded: u64,
    pub hist_bytes_scanned: u64,
    pub bytes_gathered: u64,
    pub gathers_skipped: u64,
    pub self_overhead_s: f64,
    pub trial_cost_s: f64,
    pub queue_wait_s: f64,
}

pub fn read_registry(registry: &MetricsRegistry) -> RegistryReadout {
    let snapshot = registry.snapshot();
    let sum = |name: &str| snapshot.histograms.get(name).map_or(0.0, |h| h.sum);
    RegistryReadout {
        cells_encoded: registry.counter("binned.cells_encoded"),
        hist_bytes_scanned: registry.counter("binned.hist_bytes_scanned"),
        bytes_gathered: registry.counter("data.bytes_gathered"),
        gathers_skipped: registry.counter("data.gathers_skipped"),
        self_overhead_s: sum("obs.self_overhead_s"),
        trial_cost_s: sum("trial.cost_s"),
        queue_wait_s: sum("exec.queue_wait_s"),
    }
}

/// A `fit` with a harness-owned registry attached (`shared_metrics`), for
/// the counters the engine only publishes through the registry.
pub fn fit_with_registry(
    study: &StudyConfig,
    search: &Dataset,
    paths: &FitPaths,
) -> Res<(FitResult, RegistryReadout)> {
    let registry = Arc::new(MetricsRegistry::new());
    let mut options = study.options(paths, false);
    options.shared_metrics = Some(Arc::clone(&registry));
    let engine = VolcanoML::new(study.space(search.task), options);
    let result = timed_fit(&engine, search)?;
    Ok((result, read_registry(&registry)))
}
