//! The user-facing AutoML engine: configure a space + plan + budget, call
//! `fit`, get back a trained pipeline (or ensemble) and a search report.

use crate::block::{Assignment, BlockOptions, BuildingBlock};
use crate::ensemble::Ensemble;
use crate::evaluator::{Evaluator, RunCounters, ValidationStrategy};
use crate::growth::{incremental_seed, GrowthController, SpaceGrowth, DEFAULT_PLATEAU_WINDOW};
use crate::metalearn::MetaBase;
use crate::objective::Objective;
use crate::plan::{EngineKind, PlanSpec};
use crate::plans::p3_volcano;
use crate::spaces::{SpaceDef, SpaceTier};
use crate::study::StudyState;
use crate::{CoreError, Result};
use std::sync::Arc;
use std::time::Duration;
use volcanoml_bo::surrogate::stats as surrogate_stats;
use volcanoml_data::{train_test_split, Dataset, Metric, Task};
use volcanoml_exec::{ExecPool, Journal, PoolConfig};
use volcanoml_fe::FePipeline;
use volcanoml_linalg::Matrix;
use volcanoml_models::{Estimator, Model};
use volcanoml_obs::{MetricsRegistry, Tracer};

/// Engine options.
#[derive(Clone)]
pub struct VolcanoMlOptions {
    /// Execution plan (defaults to the paper's Figure 2 plan with BO leaves).
    pub plan: PlanSpec,
    /// Utility metric; `None` uses the paper's defaults (balanced accuracy /
    /// MSE).
    pub metric: Option<Metric>,
    /// Maximum number of pipeline evaluations.
    pub max_evaluations: usize,
    /// Master seed.
    pub seed: u64,
    /// Warm-start assignments evaluated before the plan runs (meta-learning
    /// initial design).
    pub warm_start: Vec<Assignment>,
    /// When > 1, build a greedy ensemble of up to this many distinct members
    /// instead of refitting only the single best pipeline.
    pub ensemble_size: usize,
    /// How pipeline quality is measured during search.
    pub validation: ValidationStrategy,
    /// Feed measured trial cost back into the engines (the plan is compiled
    /// with [`BlockOptions::cost_aware`]): BO leaves switch to
    /// EI-per-second acquisition (backed by a cost surrogate over observed
    /// wall times), and multi-fidelity leaves promote by loss-improvement
    /// per second and calibrate bracket floors from measured per-fidelity
    /// costs. Search *results* stay loss-optimal; cost only reorders which
    /// candidates get evaluated first.
    pub cost_aware: bool,
    /// What the search minimizes: plain validation loss, or a scalarized
    /// loss + weighted inference-latency trade-off
    /// ([`Objective::LossAndCost`]). The scalarized value is what engines
    /// observe and journals record, so resume replay stays bitwise; the
    /// report additionally extracts the `(loss, inference_cost)` Pareto
    /// front.
    pub objective: Objective,
    /// Worker threads for trial execution. With `n_workers > 1` each pull
    /// on the plan asks for one trial per worker and runs them concurrently
    /// on an [`ExecPool`], one job per trial and validation pair (so a CV
    /// trial's folds also run side by side).
    pub n_workers: usize,
    /// Optional wall-clock deadline per pool job — one job per trial under
    /// holdout, one per fold under CV. Trials then run on a pool even at
    /// `n_workers = 1`; a trial any of whose jobs exceeds it is abandoned
    /// with infinite loss.
    pub trial_deadline: Option<Duration>,
    /// When set, every trial is appended to a JSONL journal at this path.
    pub journal_path: Option<std::path::PathBuf>,
    /// When set, parent-linked span events (block pulls, BO suggest cycles,
    /// trials, arm eliminations) are appended as JSONL at this path. Trial
    /// spans share the journal's trial ids, so the two files join.
    pub trace_path: Option<std::path::PathBuf>,
    /// When set, a metrics snapshot (cache hit/miss counters, trial cost
    /// histograms, per-worker busy-time gauges, binned-tree training
    /// counters) is written as JSON to this path at end of run.
    pub metrics_path: Option<std::path::PathBuf>,
    /// Threads used *inside* a single model fit (tree ensembles). Fits are
    /// bit-identical across thread counts, so this only affects wall time.
    /// Orthogonal to `n_workers`, which parallelizes across trials.
    pub model_n_jobs: usize,
    /// Crash-resume: when set (requires `journal_path`), the journal is
    /// opened with [`Journal::resume_from_path`] and its rows are loaded
    /// into the evaluator's replay table. The search then re-drives the
    /// same plan from the same seed; journaled trials are answered bitwise
    /// from the table (no re-training, no duplicate trial ids) and fresh
    /// trials continue the interrupted run's id sequence and clock.
    pub resume: bool,
    /// Externally owned worker pool. When set, trials run on this pool
    /// instead of a run-private one — how a multi-tenant server shares one
    /// pool across concurrent studies. `n_workers` still bounds this run's
    /// batch size.
    pub shared_pool: Option<Arc<ExecPool>>,
    /// Externally owned metrics registry (e.g. a server streaming progress
    /// while the run is live). Takes precedence over the run-private
    /// registry `metrics_path` would create; the end-of-run snapshot is
    /// still written to `metrics_path` when both are set.
    pub shared_metrics: Option<Arc<MetricsRegistry>>,
    /// Externally owned live event bus. Trial completions, arm
    /// eliminations, rung promotions, and worker stalls are published as
    /// typed events (via the tracer hooks) for subscribers to stream —
    /// independent of whether archival tracing (`trace_path`) is on.
    pub event_bus: Option<Arc<volcanoml_obs::EventBus>>,
    /// How the search space is constructed. [`SpaceGrowth::Fixed`] (the
    /// default) searches the full space from trial one — byte-identical to
    /// the engine before incremental construction existed.
    /// [`SpaceGrowth::Incremental`] starts from the minimal pipeline and
    /// applies the FE expansion ladder whenever the block tree's plateau
    /// EUI stays below the threshold for
    /// [`DEFAULT_PLATEAU_WINDOW`] consecutive pulls; every applied
    /// expansion is journaled and published as
    /// [`volcanoml_obs::ObsEvent::SpaceExpanded`].
    pub space_growth: SpaceGrowth,
}

impl Default for VolcanoMlOptions {
    fn default() -> Self {
        VolcanoMlOptions {
            plan: p3_volcano(EngineKind::Bo),
            metric: None,
            max_evaluations: 60,
            seed: 0,
            warm_start: Vec::new(),
            ensemble_size: 1,
            validation: ValidationStrategy::default(),
            cost_aware: false,
            objective: Objective::Loss,
            n_workers: 1,
            trial_deadline: None,
            journal_path: None,
            trace_path: None,
            metrics_path: None,
            model_n_jobs: 1,
            resume: false,
            shared_pool: None,
            shared_metrics: None,
            event_bus: None,
            space_growth: SpaceGrowth::Fixed,
        }
    }
}

/// The VolcanoML AutoML engine.
pub struct VolcanoML {
    space: SpaceDef,
    options: VolcanoMlOptions,
}

/// Search statistics returned alongside the fitted model.
#[derive(Debug, Clone)]
pub struct AutoMlReport {
    /// Best validation loss reached.
    pub best_loss: f64,
    /// Best assignment.
    pub best_assignment: Assignment,
    /// `(evaluation_index, cumulative_cost_seconds, best_loss_so_far)` after
    /// every full-fidelity evaluation — the raw series behind the paper's
    /// time-vs-error figures.
    pub trajectory: Vec<(usize, f64, f64)>,
    /// `(evaluation_index, cumulative_cost_seconds, loss, assignment)` at
    /// every incumbent *change* — enough to reconstruct test-error-vs-time
    /// curves without storing every evaluation.
    pub incumbent_steps: Vec<(usize, f64, f64, Assignment)>,
    /// Total pipeline evaluations executed.
    pub n_evaluations: usize,
    /// Total evaluation wall-time in seconds.
    pub total_cost: f64,
    /// Rendered block tree after the run (the plan "EXPLAIN").
    pub plan_explain: String,
    /// Top distinct assignments (best first) — meta-learning records these.
    pub top_assignments: Vec<(Assignment, f64)>,
    /// Result-cache hits (identical `(assignment, fidelity)` re-evaluations
    /// answered without refitting).
    pub cache_hits: u64,
    /// Result-cache misses (actual pipeline fits executed).
    pub cache_misses: u64,
    /// Feature-engineering cache hits (transform reused across trials).
    pub fe_cache_hits: u64,
    /// Feature-engineering cache misses.
    pub fe_cache_misses: u64,
    /// `(fidelity, evaluation_count)` pairs in ascending fidelity order —
    /// the multi-fidelity mix actually exercised by the run. A single
    /// `(1.0, n)` entry means the engine never used sub-full fidelities.
    pub fidelity_counts: Vec<(f64, usize)>,
    /// Feature bytes copied by dataset-view row gathers during the search
    /// (index views materialized on FE-cache misses).
    pub bytes_gathered: u64,
    /// Feature-matrix accesses served zero-copy by a full dataset view.
    pub gathers_skipped: u64,
    /// Non-dominated `(assignment, loss, inference_seconds)` points over
    /// the distinct full-fidelity pipelines the search evaluated — the
    /// loss-vs-serving-latency trade-offs none of which is strictly better
    /// than another. Under [`Objective::LossAndCost`] the loss coordinate
    /// is the scalarized value the search minimized. Journal-replayed
    /// trials carry inference cost 0 (the decomposition is not journaled),
    /// so resumed studies under-report the latency coordinate for
    /// pre-crash trials.
    pub pareto_front: Vec<(Assignment, f64, f64)>,
}

/// The fitted artifact: single pipeline or ensemble, plus the report.
pub struct FittedVolcanoML {
    single: Option<(FePipeline, Model)>,
    ensemble: Option<Ensemble>,
    /// Search report.
    pub report: AutoMlReport,
    /// Bitwise snapshot of the search's final scheduling state (block tree
    /// and evaluator), captured right after the search loop. Crash-resume
    /// tests compare this across interrupted/uninterrupted runs.
    pub study_state: StudyState,
    task: Task,
}

impl VolcanoML {
    /// Engine over an explicit space definition.
    pub fn new(space: SpaceDef, options: VolcanoMlOptions) -> VolcanoML {
        VolcanoML { space, options }
    }

    /// Engine over one of the paper's tiered spaces.
    pub fn with_tier(task: Task, tier: SpaceTier, options: VolcanoMlOptions) -> VolcanoML {
        VolcanoML::new(SpaceDef::tiered(task, tier), options)
    }

    /// The space being searched.
    pub fn space(&self) -> &SpaceDef {
        &self.space
    }

    /// Populates `options.warm_start` from a meta-base (k-NN over dataset
    /// meta-features). Returns the number of configurations added.
    pub fn warm_start_from(&mut self, meta_base: &MetaBase, dataset: &Dataset) -> usize {
        let recs = meta_base.recommend(dataset, 3, 5);
        let n = recs.len();
        self.options.warm_start.extend(recs);
        n
    }

    /// Runs the search and refits the winner on the full training data:
    /// [`VolcanoML::open`], [`Study::step`] until [`Study::done`], then
    /// [`Study::finish`].
    pub fn fit(&self, data: &Dataset) -> Result<FittedVolcanoML> {
        let mut study = self.open(data)?;
        while !study.done() {
            study.step(study.batch_size())?;
        }
        study.finish()
    }

    /// Opens a search on `data`: builds the evaluator and its sinks
    /// (journal or resume replay, tracer and bus, metrics), the worker pool,
    /// the growth controller and the compiled plan root, then evaluates the
    /// warm starts. The caller drives the returned [`Study`].
    pub fn open<'a>(&'a self, data: &'a Dataset) -> Result<Study<'a>> {
        if self.options.max_evaluations == 0 {
            return Err(CoreError::Invalid("max_evaluations must be at least 1".into()));
        }
        if data.task != self.space.task {
            return Err(CoreError::Invalid(format!(
                "dataset task {:?} does not match space task {:?}",
                data.task, self.space.task
            )));
        }
        let metric = self
            .options
            .metric
            .unwrap_or_else(|| Metric::default_for(data.task));
        let evaluator = Evaluator::with_strategy(
            self.space.clone(),
            data,
            metric,
            self.options.validation,
            self.options.seed,
        )?;
        if let Some(path) = &self.options.journal_path {
            let journal = if self.options.resume {
                let journal = Journal::resume_from_path(path)
                    .map_err(|e| CoreError::Invalid(format!("cannot resume journal: {e}")))?;
                evaluator.attach_replay(&journal.records());
                journal
            } else {
                Journal::to_path(path)
                    .map_err(|e| CoreError::Invalid(format!("cannot open journal: {e}")))?
            };
            evaluator.attach_journal(Arc::new(journal));
        } else if self.options.resume {
            return Err(CoreError::Invalid(
                "resume requires a journal_path to replay from".into(),
            ));
        }
        if self.options.trace_path.is_some() || self.options.event_bus.is_some() {
            // Without an archival trace a disabled tracer still carries the
            // bus, so live subscribers see events without trace I/O.
            let mut tracer = match &self.options.trace_path {
                Some(path) => Tracer::to_path(path)
                    .map_err(|e| CoreError::Invalid(format!("cannot open trace: {e}")))?,
                None => Tracer::disabled(),
            };
            if let Some(bus) = &self.options.event_bus {
                tracer.set_bus(Arc::clone(bus));
            }
            evaluator.set_tracer(Arc::new(tracer));
        }
        if let Some(m) = &self.options.shared_metrics {
            evaluator.set_metrics(Arc::clone(m));
        } else if self.options.metrics_path.is_some() {
            evaluator.set_metrics(Arc::new(MetricsRegistry::new()));
        }
        evaluator.set_model_n_jobs(self.options.model_n_jobs);
        evaluator.set_objective(self.options.objective);
        let pool: Option<Arc<ExecPool>> = if let Some(pool) = &self.options.shared_pool {
            Some(Arc::clone(pool))
        } else if self.options.n_workers > 1 || self.options.trial_deadline.is_some() {
            let mut config = PoolConfig::with_workers(self.options.n_workers.max(1));
            config.trial_deadline = self.options.trial_deadline;
            Some(Arc::new(ExecPool::new(config)))
        } else {
            None
        };
        // Incremental mode compiles the plan against the minimal stage-0
        // space and grows it on plateau evidence. The evaluator keeps the
        // full space either way: assignments are interpreted by prefix and
        // digested as maps, so stage-0 configs hash and evaluate identically
        // under both modes (and stay cache-valid across expansions).
        let growth: Option<GrowthController> = match self.options.space_growth {
            SpaceGrowth::Fixed => None,
            SpaceGrowth::Incremental { eui_threshold } => Some(GrowthController::new(
                incremental_seed(&self.space)?,
                eui_threshold,
                DEFAULT_PLATEAU_WINDOW,
            )),
        };
        let space = growth.as_ref().map_or(&self.space, GrowthController::space);
        let block_options = BlockOptions {
            cost_aware: self.options.cost_aware,
            ..BlockOptions::default()
        };
        let root = self.options.plan.compile_with(space, self.options.seed, &block_options)?;
        let study = Study {
            options: &self.options,
            data,
            evaluator,
            pool,
            root,
            growth,
        };

        // Meta-learning initial design: evaluate warm starts first. They both
        // seed the global best and prime the evaluator cache.
        for assignment in &self.options.warm_start {
            if study.done() {
                break;
            }
            // Complete partial assignments with defaults.
            let mut full = self.space.defaults();
            full.extend(assignment.clone());
            study.evaluator.evaluate(&full, 1.0);
        }
        Ok(study)
    }
}

/// One search in progress, opened by [`VolcanoML::open`]. Like every plan
/// node it is a pull-based iterator: [`Study::step`] pulls one batch of
/// trials from the plan root, [`Study::done`] says when the budget is
/// spent, and [`Study::finish`] turns the evaluated trials into a
/// [`FittedVolcanoML`]. The caller owns the loop, so it chooses each
/// batch's size and may stop between batches (`volcanoml serve` does both
/// for fair sharing and cancellation).
pub struct Study<'a> {
    options: &'a VolcanoMlOptions,
    data: &'a Dataset,
    evaluator: Evaluator,
    pool: Option<Arc<ExecPool>>,
    root: Box<dyn BuildingBlock>,
    growth: Option<GrowthController>,
}

impl Study<'_> {
    /// The batch [`VolcanoML::fit`] pulls: one trial per worker (the pool's,
    /// bounded by `n_workers`; 1 without a pool), capped by the remaining
    /// budget, and at least one.
    pub fn batch_size(&self) -> usize {
        let pool_workers = self.pool.as_ref().map_or(1, |p| p.workers());
        let workers = pool_workers.min(self.options.n_workers.max(1));
        let (budget, spent) = (self.options.max_evaluations, self.evaluator.evaluations());
        workers.min(budget.saturating_sub(spent)).max(1)
    }

    /// Whether the search is over: the evaluation budget is spent or the
    /// space is saturated.
    pub fn done(&self) -> bool {
        // Saturation guard: `evaluations()` counts only non-cached trials,
        // so on a space whose distinct configs run out before the budget
        // does, an engine would draw cached duplicates forever without
        // ever advancing the counter. A long unbroken run of cache hits
        // (comfortably above any engine's legitimate duplicate rate, and
        // scaled with batch width so one pooled pull can't trip it) means
        // there is nothing fresh left to draw — treat it as out of budget.
        let saturation_limit = 16usize.max(2 * self.options.n_workers.max(1));
        self.evaluator.evaluations() >= self.options.max_evaluations
            || self.evaluator.consecutive_cached() >= saturation_limit
    }

    /// Pulls at most `k` (at least one) trials from the plan root, then
    /// runs the plateau check: the batch just pulled is fully observed,
    /// which is the only point where engine histories may be remapped into
    /// a grown space — laid out as a fresh compile on it would be.
    pub fn step(&mut self, k: usize) -> Result<()> {
        let evaluator = &self.evaluator;
        // Suggestions (and so surrogate fits) run on this thread: whatever
        // it tallied before belongs to someone else, what it tallies during
        // the pull is this study's.
        surrogate_stats::take();
        let pulled = self.root.pull(evaluator, self.pool.as_deref(), k.max(1));
        evaluator.add_surrogate_work(&surrogate_stats::take());
        pulled?;
        let Some(g) = &mut self.growth else {
            return Ok(());
        };
        let Some(ev) = g.check(self.root.plateau_eui())? else {
            return Ok(());
        };
        self.root.grow(g.space(), &g.space().var_names())?;
        let (stage, name, trigger_eui) = (ev.stage as u64, ev.name, ev.trigger_eui);
        // The journal's row count, with or without a journal attached.
        let trial = evaluator.trials() as u64;
        // An interrupted run's expansions are journaled already: resume
        // re-derives them from the same losses and must not repeat them.
        if let Some(journal) = evaluator.journal() {
            if stage > journal.expansions().len() as u64 {
                journal.record_expansion(volcanoml_exec::ExpansionRecord {
                    stage,
                    name: name.clone(),
                    trigger_eui,
                    trial,
                });
            }
        }
        let tracer = evaluator.tracer();
        if let Some(bus) = tracer.bus() {
            bus.publish(volcanoml_obs::ObsEvent::SpaceExpanded {
                stage,
                name: name.clone(),
                trigger_eui,
                trial,
            });
        }
        tracer.event(
            "expansion",
            volcanoml_obs::EventFields {
                detail: format!("stage {stage} {name} trigger_eui={trigger_eui}"),
                ..Default::default()
            },
        );
        Ok(())
    }

    /// Ends the search: captures its [`StudyState`], derives the report,
    /// writes the metrics snapshot and flushes the journal and trace, then
    /// refits the best pipeline on the full data (or selects an ensemble).
    pub fn finish(self) -> Result<FittedVolcanoML> {
        let (options, evaluator, root) = (self.options, &self.evaluator, &self.root);
        // Multi-fidelity engines may exhaust a small budget before promoting
        // anything to full fidelity; promote the best low-fidelity candidate
        // with one final full evaluation so `fit` always yields a pipeline.
        let log = evaluator.log();
        if !log.iter().any(|e| e.fidelity >= 1.0 - 1e-9 && e.loss.is_finite()) {
            let best_low = log
                .iter()
                .filter(|e| e.loss.is_finite())
                .min_by(|a, b| a.loss.partial_cmp(&b.loss).unwrap_or(std::cmp::Ordering::Equal));
            if let Some(e) = best_low {
                evaluator.evaluate(&e.assignment, 1.0);
            }
        }

        // Snapshot the scheduling state before any post-search work
        // (ensembling, refit) — this is the state a resumed run must
        // reproduce bitwise. In incremental mode the growth controller's
        // ladder position joins the snapshot: two runs that will expand
        // differently in the future must not compare equal.
        let mut study_state = StudyState::capture(root.as_ref(), evaluator);
        if let Some(g) = &self.growth {
            g.capture_state(&mut study_state.lines);
        }
        let counters = evaluator.run_counters();
        let report = search_report(evaluator, &counters, crate::block::explain(root.as_ref()))?;

        // End-of-run observability: sample run-level figures into the
        // registry, write the snapshot, and flush the append-only files.
        if let Some(m) = evaluator.metrics() {
            for (name, count) in [
                ("cache.result.hits", counters.cache_hits),
                ("cache.result.misses", counters.cache_misses),
                ("cache.fe.hits", counters.fe_cache_hits),
                ("cache.fe.misses", counters.fe_cache_misses),
                ("binned.matrices_built", counters.binned.matrices_built),
                ("binned.cells_encoded", counters.binned.cells_encoded),
                ("binned.hist_node_scans", counters.binned.hist_node_scans),
                ("binned.hist_bytes_scanned", counters.binned.hist_bytes_scanned),
                ("binned.arena_reuses", counters.binned.arena_reuses),
                ("binned.feature_parallel_merges", counters.binned.feature_parallel_merges),
                ("binned.slab_cells_swept", counters.binned.slab_cells_swept),
                ("data.bytes_gathered", counters.bytes_gathered),
                ("data.gathers_skipped", counters.gathers_skipped),
                ("work.surrogate.fits", counters.surrogate.fits),
                ("work.surrogate.rows", counters.surrogate.rows),
            ] {
                m.inc_counter(name, count);
            }
            m.set_gauge("run.evaluations", report.n_evaluations as f64);
            m.set_gauge("run.total_cost_s", report.total_cost);
            m.set_gauge("run.workers", options.n_workers as f64);
            m.set_gauge("run.best_loss", report.best_loss);
            if let Some(path) = &options.metrics_path {
                m.write_to(path)
                    .map_err(|e| CoreError::Invalid(format!("cannot write metrics: {e}")))?;
            }
        }
        evaluator.tracer().flush();
        if let Some(journal) = evaluator.journal() {
            journal.flush();
        }

        // Final artifact.
        let top = &report.top_assignments;
        let (single, ensemble) = if options.ensemble_size > 1 && top.len() > 1 {
            // Internal split for greedy selection.
            let (ens_train, ens_valid) = train_test_split(self.data, 0.25, options.seed ^ 0xe5e)?;
            let ensemble = Ensemble::select(
                evaluator,
                top,
                &ens_train,
                &ens_valid,
                evaluator.metric(),
                options.ensemble_size,
                options.ensemble_size * 2,
            )?;
            (None, Some(ensemble))
        } else {
            let best = evaluator.refit(&report.best_assignment, self.data)?;
            (Some(best), None)
        };
        Ok(FittedVolcanoML {
            single,
            ensemble,
            report,
            study_state,
            task: self.data.task,
        })
    }
}

/// The search report, derived from the evaluator's log (warm starts, every
/// block's trials and the final promotion) and its run counters.
fn search_report(
    evaluator: &Evaluator,
    counters: &RunCounters,
    plan_explain: String,
) -> Result<AutoMlReport> {
    let log = evaluator.log();
    let mut best_loss = f64::INFINITY;
    let mut best_assignment: Option<Assignment> = None;
    let mut trajectory = Vec::new();
    let mut incumbent_steps = Vec::new();
    let mut cum_cost = 0.0;
    for (i, entry) in log.iter().enumerate() {
        cum_cost += entry.cost;
        if entry.fidelity >= 1.0 - 1e-9 && entry.loss < best_loss {
            best_loss = entry.loss;
            best_assignment = Some(entry.assignment.clone());
            incumbent_steps.push((i + 1, cum_cost, best_loss, entry.assignment.clone()));
        }
        if entry.fidelity >= 1.0 - 1e-9 && best_loss.is_finite() {
            trajectory.push((i + 1, cum_cost, best_loss));
        }
    }
    let best_assignment = best_assignment.ok_or_else(|| {
        CoreError::Invalid("no successful full-fidelity evaluation within budget".into())
    })?;

    // The distinct finite full-fidelity pipelines, best first (an
    // assignment evaluated twice keeps its better loss), told apart by the
    // digest the result cache keys on.
    let mut seen = std::collections::HashSet::new();
    let mut distinct: Vec<_> = log
        .iter()
        .filter(|e| e.fidelity >= 1.0 - 1e-9 && e.loss.is_finite())
        .collect();
    distinct.sort_by(|a, b| a.loss.total_cmp(&b.loss));
    distinct.retain(|e| seen.insert(crate::evaluator::assignment_digest(&e.assignment)));

    // Pareto front over the same pipelines: scalarization drives the
    // search to one number, the front recovers the (loss, inference
    // latency) trade-offs it collapsed.
    let points: Vec<(f64, f64)> = distinct.iter().map(|e| (e.loss, e.infer_cost)).collect();
    let pareto_front = crate::objective::pareto_front(&points)
        .into_iter()
        .map(|i| (distinct[i].assignment.clone(), distinct[i].loss, distinct[i].infer_cost))
        .collect();

    // The fidelity mix exercised by the run (ascending): a multi-fidelity
    // engine that degraded to full-fidelity-only shows up immediately as
    // a single (1.0, n) entry here.
    let mut fid_counts: std::collections::BTreeMap<u64, (f64, usize)> =
        std::collections::BTreeMap::new();
    for e in &log {
        let entry = fid_counts.entry(e.fidelity.to_bits()).or_insert((e.fidelity, 0));
        entry.1 += 1;
    }
    // Positive floats order by their bits, so the map is already ascending.
    let fidelity_counts = fid_counts.into_values().collect();

    Ok(AutoMlReport {
        best_loss,
        best_assignment,
        trajectory,
        incumbent_steps,
        n_evaluations: evaluator.evaluations(),
        total_cost: evaluator.total_cost(),
        plan_explain,
        // Top assignments for ensembling / meta-learning.
        top_assignments: distinct
            .iter()
            .take(10)
            .map(|e| (e.assignment.clone(), e.loss))
            .collect(),
        cache_hits: counters.cache_hits,
        cache_misses: counters.cache_misses,
        fe_cache_hits: counters.fe_cache_hits,
        fe_cache_misses: counters.fe_cache_misses,
        fidelity_counts,
        bytes_gathered: counters.bytes_gathered,
        gathers_skipped: counters.gathers_skipped,
        pareto_front,
    })
}

impl FittedVolcanoML {
    /// Predicts targets (class indices or regression values) for new data.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        if let Some((pipeline, model)) = &self.single {
            let xt = pipeline
                .transform(x)
                .map_err(|e| CoreError::Substrate(e.to_string()))?;
            return model
                .predict(&xt)
                .map_err(|e| CoreError::Substrate(e.to_string()));
        }
        if let Some(ensemble) = &self.ensemble {
            return ensemble.predict(x);
        }
        Err(CoreError::Invalid("fitted artifact is empty".into()))
    }

    /// Scores the fitted artifact on a held-out dataset with `metric`.
    pub fn score(&self, data: &Dataset, metric: Metric) -> Result<f64> {
        if data.task != self.task {
            return Err(CoreError::Invalid("task mismatch in score".into()));
        }
        let preds = self.predict(&data.x)?;
        Ok(metric.score(&data.y, &preds))
    }

    /// Whether the artifact is an ensemble.
    pub fn is_ensemble(&self) -> bool {
        self.ensemble.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcanoml_data::synthetic::{
        make_classification, make_regression, ClassificationSpec, RegressionSpec,
    };

    fn cls_data(seed: u64) -> Dataset {
        make_classification(
            &ClassificationSpec {
                n_samples: 300,
                n_features: 8,
                n_informative: 5,
                n_redundant: 1,
                n_classes: 2,
                class_sep: 1.2,
                flip_y: 0.03,
                weights: Vec::new(),
            },
            seed,
        )
    }

    fn quick_options(n: usize) -> VolcanoMlOptions {
        VolcanoMlOptions {
            max_evaluations: n,
            ..Default::default()
        }
    }

    #[test]
    fn end_to_end_classification() {
        let d = cls_data(1);
        let (train, test) = train_test_split(&d, 0.2, 0).unwrap();
        let engine =
            VolcanoML::with_tier(Task::Classification, SpaceTier::Small, quick_options(25));
        let fitted = engine.fit(&train).unwrap();
        assert!(fitted.report.best_loss < 0.5);
        assert!(fitted.report.n_evaluations <= 25);
        let acc = fitted.score(&test, Metric::BalancedAccuracy).unwrap();
        assert!(acc > 0.6, "test balanced accuracy {acc}");
        assert!(fitted.report.plan_explain.contains("Conditioning"));
    }

    #[test]
    fn end_to_end_regression() {
        let d = make_regression(
            &RegressionSpec {
                n_samples: 260,
                n_features: 6,
                n_informative: 4,
                noise: 0.3,
                nonlinear: false,
            },
            2,
        );
        let (train, test) = train_test_split(&d, 0.2, 0).unwrap();
        let engine = VolcanoML::with_tier(Task::Regression, SpaceTier::Small, quick_options(20));
        let fitted = engine.fit(&train).unwrap();
        let r2 = fitted.score(&test, Metric::R2).unwrap();
        assert!(r2 > 0.5, "test R² {r2}");
    }

    #[test]
    fn budget_is_respected() {
        let d = cls_data(3);
        let engine =
            VolcanoML::with_tier(Task::Classification, SpaceTier::Small, quick_options(10));
        let fitted = engine.fit(&d).unwrap();
        assert!(fitted.report.n_evaluations <= 10);
    }

    #[test]
    fn trajectory_is_monotone_with_increasing_cost() {
        let d = cls_data(4);
        let engine =
            VolcanoML::with_tier(Task::Classification, SpaceTier::Small, quick_options(20));
        let fitted = engine.fit(&d).unwrap();
        let t = &fitted.report.trajectory;
        assert!(!t.is_empty());
        assert!(t.windows(2).all(|w| w[1].2 <= w[0].2 + 1e-12));
        assert!(t.windows(2).all(|w| w[1].1 >= w[0].1));
    }

    #[test]
    fn warm_start_is_used() {
        let d = cls_data(5);
        let mut options = quick_options(8);
        let mut good = Assignment::new();
        good.insert("algorithm".to_string(), 1.0);
        options.warm_start = vec![good];
        let engine = VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options);
        let fitted = engine.fit(&d).unwrap();
        // The warm start counts toward the budget and appears in the log.
        assert!(fitted.report.n_evaluations >= 1);
    }

    #[test]
    fn ensemble_mode_produces_ensemble() {
        let d = cls_data(6);
        let mut options = quick_options(20);
        options.ensemble_size = 3;
        let engine = VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options);
        let fitted = engine.fit(&d).unwrap();
        assert!(fitted.is_ensemble());
        let preds = fitted.predict(&d.x).unwrap();
        assert_eq!(preds.len(), d.n_samples());
    }

    #[test]
    fn zero_budget_is_rejected_before_any_sink_is_created() {
        let d = cls_data(8);
        let journal = std::env::temp_dir().join(format!(
            "volcanoml-automl-zero-budget-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&journal);
        let mut options = quick_options(0);
        options.journal_path = Some(journal.clone());
        let engine = VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options);
        let Err(err) = engine.open(&d) else {
            panic!("a zero budget opened a study");
        };
        assert!(err.to_string().contains("max_evaluations"), "{err}");
        assert!(!journal.exists(), "journal created before the budget check");
    }

    #[test]
    fn task_mismatch_is_rejected() {
        let d = cls_data(7);
        let engine = VolcanoML::with_tier(Task::Regression, SpaceTier::Small, quick_options(5));
        assert!(engine.fit(&d).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let d = cls_data(8);
        let run = || {
            let engine =
                VolcanoML::with_tier(Task::Classification, SpaceTier::Small, quick_options(15));
            engine.fit(&d).unwrap().report.best_loss
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn model_n_jobs_does_not_change_search_results() {
        let d = cls_data(11);
        let run = |jobs: usize| {
            let mut options = quick_options(12);
            options.model_n_jobs = jobs;
            let engine = VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options);
            engine.fit(&d).unwrap().report.best_loss
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn cost_aware_search_is_deterministic_and_finds_a_model() {
        let d = cls_data(12);
        let run = || {
            let mut options = quick_options(15);
            options.cost_aware = true;
            let engine = VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options);
            engine.fit(&d).unwrap().report.best_loss
        };
        let loss = run();
        assert!(loss.is_finite() && loss < 0.5, "cost-aware best loss {loss}");
        assert_eq!(loss, run());
    }

    #[test]
    fn incremental_space_expands_and_is_deterministic() {
        let d = cls_data(15);
        let run = || {
            let bus = Arc::new(volcanoml_obs::EventBus::new());
            let mut options = quick_options(40);
            // A permissive threshold so the plateau window fires as soon as
            // every arm has a finite EUI — the test exercises the growth
            // path, not the plateau heuristic.
            options.space_growth = SpaceGrowth::Incremental { eui_threshold: 10.0 };
            options.event_bus = Some(Arc::clone(&bus));
            let engine = VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options);
            let fitted = engine.fit(&d).unwrap();
            let expansions: Vec<(u64, String)> = bus
                .read_after(None)
                .into_iter()
                .filter_map(|e| match e.event {
                    volcanoml_obs::ObsEvent::SpaceExpanded { stage, name, .. } => {
                        Some((stage, name))
                    }
                    _ => None,
                })
                .collect();
            (
                fitted.report.best_loss,
                expansions,
                fitted.study_state.render(),
            )
        };
        let (loss, expansions, state) = run();
        assert!(loss.is_finite() && loss < 0.5, "incremental best loss {loss}");
        assert!(!expansions.is_empty(), "no expansion fired within budget");
        assert_eq!(expansions[0], (1, "transform_stage".to_string()));
        assert!(state.contains("growth stage="), "snapshot lacks growth line");
        let (loss2, expansions2, state2) = run();
        assert_eq!(loss, loss2);
        assert_eq!(expansions, expansions2);
        // Full snapshots embed measured wall-clock costs, so two live runs
        // never compare bitwise (only replayed runs do — covered by the
        // resume tests). The growth line, however, is cost-free.
        let growth_line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("growth "))
                .map(str::to_string)
        };
        assert_eq!(growth_line(&state), growth_line(&state2));
    }

    #[test]
    fn space_expanded_trial_is_the_same_with_or_without_a_journal() {
        let d = cls_data(15);
        let path = std::env::temp_dir().join(format!(
            "volcanoml-automl-expansions-{}.jsonl",
            std::process::id()
        ));
        let run = |journal_path: Option<std::path::PathBuf>| {
            let bus = Arc::new(volcanoml_obs::EventBus::new());
            let mut options = quick_options(40);
            options.space_growth = SpaceGrowth::Incremental {
                eui_threshold: 10.0,
            };
            options.event_bus = Some(Arc::clone(&bus));
            options.journal_path = journal_path;
            let engine = VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options);
            engine.fit(&d).unwrap();
            bus.read_after(None)
                .into_iter()
                .filter_map(|e| match e.event {
                    volcanoml_obs::ObsEvent::SpaceExpanded { stage, trial, .. } => {
                        Some((stage, trial))
                    }
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let journaled = run(Some(path.clone()));
        let rows: Vec<(u64, u64)> = Journal::resume_from_path(&path)
            .unwrap()
            .expansions()
            .iter()
            .map(|r| (r.stage, r.trial))
            .collect();
        let _ = std::fs::remove_file(&path);
        assert!(!journaled.is_empty(), "no expansion fired within budget");
        assert_eq!(journaled, rows, "published and journaled trials differ");
        assert_eq!(run(None), journaled, "the journal changed the trials");
    }

    #[test]
    fn fixed_mode_snapshot_has_no_growth_line() {
        let d = cls_data(16);
        let engine =
            VolcanoML::with_tier(Task::Classification, SpaceTier::Small, quick_options(10));
        let fitted = engine.fit(&d).unwrap();
        assert!(
            !fitted.study_state.render().contains("growth "),
            "fixed mode must not add growth lines to the snapshot"
        );
    }

    #[test]
    fn loss_and_cost_objective_yields_pareto_front() {
        let d = cls_data(13);
        let mut options = quick_options(15);
        options.objective = Objective::LossAndCost { latency_weight: 10.0 };
        let engine = VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options);
        let fitted = engine.fit(&d).unwrap();
        let front = &fitted.report.pareto_front;
        assert!(!front.is_empty());
        for (_, loss, infer) in front {
            assert!(loss.is_finite() && infer.is_finite() && *infer >= 0.0);
        }
        // No front member dominates another.
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i != j {
                    let dom = a.1 <= b.1 && a.2 <= b.2 && (a.1 < b.1 || a.2 < b.2);
                    assert!(!dom, "front member {i} dominates {j}");
                }
            }
        }
        // The incumbent's (scalarized) loss appears on the front: nothing
        // can strictly beat the minimum of the loss coordinate.
        assert!(front.iter().any(|(_, l, _)| *l == fitted.report.best_loss));
    }

    #[test]
    fn exhausted_tiny_space_terminates_instead_of_spinning() {
        // A space with exactly two distinct configs (the algorithm choice is
        // the only variable) against a budget of 50: `evaluations()` only
        // counts non-cached trials, so without the consecutive-cache
        // saturation guard the random engine spins forever re-drawing the
        // two cached configs. Run in a thread so a regression fails the
        // test instead of hanging CI.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let space = SpaceDef {
                task: Task::Classification,
                algorithms: vec![
                    volcanoml_models::AlgorithmKind::Logistic,
                    volcanoml_models::AlgorithmKind::Knn,
                ],
                vars: vec![crate::spaces::VarDef {
                    name: "algorithm".to_string(),
                    domain: volcanoml_bo::Domain::Cat { n: 2 },
                    default: 0.0,
                    condition: None,
                    group: crate::spaces::VarGroup::Algorithm,
                }],
                fe_options: volcanoml_fe::pipeline::FeSpaceOptions::default(),
            };
            let options = VolcanoMlOptions {
                plan: crate::plans::p1_joint(EngineKind::Random),
                max_evaluations: 50,
                ..Default::default()
            };
            let engine = VolcanoML::new(space, options);
            let fitted = engine.fit(&cls_data(14)).unwrap();
            tx.send(fitted.report.n_evaluations).unwrap();
        });
        let n = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("saturated search did not terminate");
        assert!(n <= 3, "expected ~2 distinct evaluations, got {n}");
    }

    #[test]
    fn metalearn_roundtrip_via_engine() {
        let d1 = cls_data(9);
        let d2 = cls_data(10);
        let engine =
            VolcanoML::with_tier(Task::Classification, SpaceTier::Small, quick_options(12));
        let fitted = engine.fit(&d1).unwrap();
        let mut base = MetaBase::new();
        base.record(
            &d1,
            fitted
                .report
                .top_assignments
                .iter()
                .map(|(a, _)| a.clone())
                .take(3)
                .collect(),
        );
        let mut engine2 =
            VolcanoML::with_tier(Task::Classification, SpaceTier::Small, quick_options(12));
        let added = engine2.warm_start_from(&base, &d2);
        assert!(added > 0);
        let fitted2 = engine2.fit(&d2).unwrap();
        assert!(fitted2.report.best_loss.is_finite());
    }
}
