//! The pipeline evaluator: turns a full variable assignment into a trained
//! FE pipeline + model, returning the validation loss.
//!
//! This is the expensive black-box `f(x; D)` of the paper. The evaluator
//! owns an internal train/validation split of the search data, a bounded
//! result cache keyed on (assignment, fidelity), cost accounting (measured
//! wall time), and the subsampling fidelity axis used by multi-fidelity
//! engines and by blocks that probe on data subsets.
//!
//! Trial data travels as zero-copy [`DatasetView`]s: the search data lives
//! behind one shared `Arc<Dataset>`, fidelity subsampling and CV folds are
//! row-index views over it, and feature rows are materialized (one pooled
//! gather) only when the FE cache misses — see [`validate`]'s module docs.
//!
//! All mutable state (cache, counters, log) lives behind an `Arc` so that
//! [`Evaluator::clone`] yields a *shared handle*: clones see the same cache
//! and log, and [`Evaluator::evaluate`] takes `&self`. That is what lets
//! [`Evaluator::evaluate_trials`] ship work to an [`ExecPool`] of worker
//! threads — which all share the one `Arc<Dataset>` instead of per-handle
//! copies. The unit of that work is one `(trial, validation pair)` job, so
//! a CV trial's folds spread over every idle worker; the trial's
//! bookkeeping stays on the coordinator, in submission order. Every job
//! runs under `catch_unwind`, so a panicking pipeline yields
//! `loss = INFINITY` instead of tearing down the search — with or without a
//! pool.

mod cache;
mod fe_cache;
mod interpret;
mod validate;

pub use interpret::{parse_assignment, refit_assignment, ParsedAssignment};
pub use validate::ValidationStrategy;
pub use volcanoml_bo::TrialTag;

/// Stable, order-insensitive digest of a full assignment — the value
/// journaled (as 16 hex digits) and traced with every trial, and the key
/// the crash-resume replay table matches journal rows back to trials with.
pub fn assignment_digest(assignment: &std::collections::HashMap<String, f64>) -> u64 {
    interpret::assignment_key(assignment)
}

use crate::spaces::SpaceDef;
use crate::{CoreError, Result};
use cache::BoundedCache;
use fe_cache::FeTransformed;
use interpret::assignment_key;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use validate::{PairJob, PairRun, Plan};
use volcanoml_bo::surrogate::stats as surrogate_stats;
use volcanoml_data::{Dataset, DatasetView, Metric};
use volcanoml_exec::{current_worker, ExecPool, Journal, TrialRecord, TrialRun, TrialStatus};
use volcanoml_fe::FePipeline;
use volcanoml_models::{binned, Model};
pub use volcanoml_obs::TrialOrigin;
use volcanoml_obs::{MetricsRegistry, Tracer};

/// Default bound on the evaluator's result cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Default bound on the cross-trial FE-transform cache. Entries hold full
/// transformed matrices, so the bound is much tighter than the result
/// cache's.
pub const DEFAULT_FE_CACHE_CAPACITY: usize = 64;

/// One entry of the evaluator's chronological log.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// The evaluated assignment.
    pub assignment: HashMap<String, f64>,
    /// Fidelity the evaluation ran at.
    pub fidelity: f64,
    /// Observed loss. Under a cost-sensitive [`Objective`] this is the
    /// *scalarized* value (validation loss + weighted inference latency) —
    /// the number every engine, journal row, and resume replay sees.
    pub loss: f64,
    /// Wall-clock cost in seconds.
    pub cost: f64,
    /// Measured per-row inference seconds on the validation split (0.0 for
    /// failed trials and journal-replayed rows, where the decomposition is
    /// not recoverable). Lets reports extract a `(loss, inference_cost)`
    /// Pareto front without unscalarizing.
    pub infer_cost: f64,
}

/// Result of one pipeline evaluation.
#[derive(Debug, Clone, Copy)]
pub struct EvalOutcome {
    /// Validation loss (lower is better; `INFINITY` on training failure).
    pub loss: f64,
    /// Wall-clock cost in seconds.
    pub cost: f64,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// Whether the fitted FE transform was reused from the cross-trial FE
    /// cache (always `false` on a full result-cache hit, where no FE work
    /// happens at all).
    pub fe_cached: bool,
    /// Whether the trial panicked (caught; loss is `INFINITY`).
    pub panicked: bool,
    /// Whether the trial exceeded a pool deadline and was abandoned.
    pub timed_out: bool,
    /// Whether the result was answered from a crash-resume replay table
    /// (a journaled outcome from the interrupted run) rather than a fresh
    /// evaluation or a live cache hit. Replayed trials are never journaled
    /// again, so resume produces no duplicate trial ids.
    pub replayed: bool,
}

impl EvalOutcome {
    fn hit(loss: f64, cost: f64) -> EvalOutcome {
        EvalOutcome {
            loss,
            cost,
            cached: true,
            fe_cached: false,
            panicked: false,
            timed_out: false,
            replayed: false,
        }
    }

    fn failed(timed_out: bool, panicked: bool) -> EvalOutcome {
        EvalOutcome {
            loss: f64::INFINITY,
            cost: 0.0,
            cached: false,
            fe_cached: false,
            panicked,
            timed_out,
            replayed: false,
        }
    }
}

/// One trial as the issuing block describes it: the full assignment, the
/// fidelity, and the scheduling attribution journaled with it.
pub type Trial = (HashMap<String, f64>, f64, TrialTag);

/// The run record of one trial: where it ran, when on the journal clock, and
/// with what outcome. `worker` and `queue_wait_s` (dispatch-to-start
/// latency, set only for pooled trials) are those of the trial's first job;
/// `start_s`/`end_s` span its jobs; `busy` holds each job's worker and
/// seconds. A trial that ran no job (cache hit, replay row) is stamped on the
/// coordinator at dispatch, with no busy time.
struct RunRecord {
    worker: usize,
    start_s: f64,
    end_s: f64,
    queue_wait_s: Option<f64>,
    busy: Vec<(usize, f64)>,
    outcome: EvalOutcome,
}

/// How one trial of a batch is answered, decided on the coordinator before
/// any job runs.
enum Prepared {
    /// A crash-resume replay row or a result-cache hit: nothing runs.
    /// `entry` is the log entry a replayed fresh row re-enters.
    Answered {
        outcome: EvalOutcome,
        entry: Option<LogEntry>,
    },
    /// The same `(assignment, fidelity)` as the fresh trial at this batch
    /// index: a result-cache hit on what that trial inserts.
    Duplicate(usize),
    /// A fresh evaluation: its pair jobs, at these positions of the batch's
    /// job list.
    Fresh(Range<usize>),
}

/// What a run's trials added up to: cache traffic, the work the model and
/// data layers tallied on whichever threads ran the fresh fits, and the
/// surrogate fits its suggest path did on the coordinator. Summed trial by
/// trial (and step by step), so two evaluators in one process never see
/// each other's work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses (fresh fits).
    pub cache_misses: u64,
    /// FE-transform cache hits.
    pub fe_cache_hits: u64,
    /// FE-transform cache misses.
    pub fe_cache_misses: u64,
    /// Binned-tree training work.
    pub binned: binned::stats::Tally,
    /// Feature bytes copied by dataset-view row gathers.
    pub bytes_gathered: u64,
    /// Feature-matrix accesses a full view served without copying.
    pub gathers_skipped: u64,
    /// Surrogate fits and the rows they fitted, on the suggest path.
    pub surrogate: surrogate_stats::Tally,
}

/// A fault injected into an evaluation — used by crash-isolation and
/// deadline tests to simulate misbehaving training code.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// Panic inside the trial (exercises `catch_unwind` isolation).
    Panic,
    /// Sleep for the given duration before evaluating (exercises per-trial
    /// deadlines on the pool).
    Stall(Duration),
}

/// Hook deciding whether a given `(assignment, fidelity)` trial should
/// misbehave. `None` means evaluate normally.
pub type FaultHook = Arc<dyn Fn(&HashMap<String, f64>, f64) -> Option<Fault> + Send + Sync>;

/// Mutable evaluator state, shared across handles behind one mutex. The
/// lock is only held for bookkeeping — never across a pipeline fit — so
/// worker threads serialize on microseconds, not on training time.
struct EvalState {
    cache: BoundedCache<(f64, f64)>,
    fe_cache: BoundedCache<Arc<FeTransformed>>,
    /// Per-fidelity validation plans: `fidelity.to_bits()` → the
    /// `(train, valid)` index views every trial at that fidelity uses (one
    /// pair under holdout, `k` under CV), computed once. Views make this
    /// affordable — each plan is index arrays only (at most `k × n_samples`
    /// usizes), where caching owned subsets would pin extra copies of the
    /// dataset. Bounded in practice by the handful of distinct fidelities a
    /// search schedules.
    plans: HashMap<u64, Plan>,
    /// Cache hits since the last non-cached evaluation (replayed rows
    /// mirror their original kind). Small spaces saturate: once every
    /// distinct config is cached, an engine drawing against a
    /// `max_evaluations` budget that only counts fresh trials would spin
    /// forever — the budget check reads this to detect saturation.
    consecutive_cached: usize,
    /// Trials answered so far, cached and replayed ones included: a
    /// journaled run's row count, whether or not a journal is attached.
    trials: usize,
    /// Sum of the per-trial work tallies of every fresh fit.
    binned: binned::stats::Tally,
    /// `(bytes_gathered, gathers_skipped)`, summed the same way.
    gathered: (u64, u64),
    /// Surrogate-fit work of the study's suggest path, step by step.
    surrogate: surrogate_stats::Tally,
    log: Vec<LogEntry>,
    /// Crash-resume replay table: `(assignment digest, fidelity bits)` →
    /// the journaled outcomes of the interrupted run, in journal order.
    /// [`Evaluator::evaluate`] consumes matching rows from here *before*
    /// touching the cache, so a resumed search re-observes the interrupted
    /// run's exact losses/costs without re-training or re-journaling.
    replay: HashMap<(u64, u64), std::collections::VecDeque<TrialRecord>>,
}

struct EvalShared {
    space: SpaceDef,
    metric: Metric,
    strategy: ValidationStrategy,
    /// Training-side view: holdout wraps its materialized train split as a
    /// full view; CV is a full view over the whole search data.
    fit_data: DatasetView,
    /// Validation-side view: holdout's materialized validation split; under
    /// CV an *empty* view over the same storage (folds are drawn per
    /// evaluation).
    valid_data: DatasetView,
    seed: u64,
    /// Threads handed to models that support intra-fit parallelism (tree
    /// ensembles); injected as an `n_jobs` parameter at build time. Model
    /// fits are thread-count independent, so this never affects losses.
    model_n_jobs: AtomicUsize,
    /// What trials minimize: plain validation loss, or a scalarized loss +
    /// inference-latency trade-off. Must be set before the first
    /// evaluation — the scalarized value is what gets cached, journaled,
    /// and observed, so switching mid-run would mix incomparable scales.
    objective: Mutex<crate::objective::Objective>,
    state: Mutex<EvalState>,
    journal: Mutex<Option<Arc<Journal>>>,
    /// Always present (disabled by default) so blocks can open spans
    /// unconditionally; only enabled tracers record anything.
    tracer: Mutex<Arc<Tracer>>,
    metrics: Mutex<Option<Arc<MetricsRegistry>>>,
    fault_hook: Mutex<Option<FaultHook>>,
}

/// The black-box objective for all building blocks. `Clone` is cheap and
/// yields a handle onto the *same* cache, log, and counters.
#[derive(Clone)]
pub struct Evaluator {
    shared: Arc<EvalShared>,
}

impl Evaluator {
    /// Creates an evaluator over the search data. An internal 75/25
    /// train/validation split is drawn with `seed`.
    pub fn new(space: SpaceDef, data: &Dataset, metric: Metric, seed: u64) -> Result<Evaluator> {
        Evaluator::with_strategy(space, data, metric, ValidationStrategy::default(), seed)
    }

    /// Creates an evaluator with an explicit validation strategy.
    pub fn with_strategy(
        space: SpaceDef,
        data: &Dataset,
        metric: Metric,
        strategy: ValidationStrategy,
        seed: u64,
    ) -> Result<Evaluator> {
        if !metric.applies_to(space.task) {
            return Err(CoreError::Invalid(format!(
                "metric {} does not apply to {:?}",
                metric.name(),
                space.task
            )));
        }
        if data.task != space.task {
            return Err(CoreError::Invalid(
                "dataset task does not match space task".into(),
            ));
        }
        let (fit_data, valid_data) = validate::build_validation_views(strategy, data, seed)?;
        Ok(Evaluator {
            shared: Arc::new(EvalShared {
                space,
                metric,
                strategy,
                fit_data,
                valid_data,
                seed,
                model_n_jobs: AtomicUsize::new(1),
                objective: Mutex::new(crate::objective::Objective::Loss),
                state: Mutex::new(EvalState {
                    cache: BoundedCache::new(DEFAULT_CACHE_CAPACITY),
                    fe_cache: BoundedCache::new(DEFAULT_FE_CACHE_CAPACITY),
                    plans: HashMap::new(),
                    consecutive_cached: 0,
                    trials: 0,
                    binned: binned::stats::Tally::default(),
                    gathered: (0, 0),
                    surrogate: surrogate_stats::Tally::default(),
                    log: Vec::new(),
                    replay: HashMap::new(),
                }),
                journal: Mutex::new(None),
                tracer: Mutex::new(Arc::new(Tracer::disabled())),
                metrics: Mutex::new(None),
                fault_hook: Mutex::new(None),
            }),
        })
    }

    /// The space definition this evaluator interprets.
    pub fn space(&self) -> &SpaceDef {
        &self.shared.space
    }

    /// The evaluation metric.
    pub fn metric(&self) -> Metric {
        self.shared.metric
    }

    /// Total number of (non-cached) evaluations performed: the log's length.
    pub fn evaluations(&self) -> usize {
        self.state().log.len()
    }

    /// Trials answered so far, cached and replayed ones included.
    pub(crate) fn trials(&self) -> usize {
        self.state().trials
    }

    /// Adds surrogate-fit work the study's suggest path tallied.
    pub(crate) fn add_surrogate_work(&self, work: &surrogate_stats::Tally) {
        self.state().surrogate.add(work);
    }

    /// Cache hits since the last non-cached evaluation. A persistently
    /// large value means the search keeps re-drawing already-evaluated
    /// configs — on small spaces this signals budget saturation (there is
    /// nothing fresh left to draw), which [`crate::automl`] treats as
    /// out-of-budget instead of spinning forever.
    pub fn consecutive_cached(&self) -> usize {
        self.state().consecutive_cached
    }

    /// Sets the search objective. Must be called before the first
    /// evaluation: the scalarized value is what gets cached, journaled,
    /// and fed to the engines.
    pub fn set_objective(&self, objective: crate::objective::Objective) {
        *self.shared.objective.lock().expect("objective poisoned") = objective;
    }

    /// The active search objective.
    pub fn objective(&self) -> crate::objective::Objective {
        *self.shared.objective.lock().expect("objective poisoned")
    }

    /// Total wall-clock seconds spent in non-cached evaluations: the log's
    /// costs summed in log order.
    pub fn total_cost(&self) -> f64 {
        self.state().log.iter().fold(0.0, |total, e| total + e.cost)
    }

    /// Snapshot of the chronological evaluation log — consumed by the
    /// AutoML report, ensemble selection, and meta-learning.
    pub fn log(&self) -> Vec<LogEntry> {
        self.state().log.clone()
    }

    /// Attaches a trial journal; every evaluation from now on appends one
    /// JSONL record.
    pub fn attach_journal(&self, journal: Arc<Journal>) {
        *self.shared.journal.lock().expect("journal slot poisoned") = Some(journal);
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<Arc<Journal>> {
        self.shared
            .journal
            .lock()
            .expect("journal slot poisoned")
            .clone()
    }

    /// Attaches a span tracer; every trial from now on emits one
    /// `kind:"trial"` span (parented to the pull span issuing it) whose
    /// `trial` id matches the journal record.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        *self.shared.tracer.lock().expect("tracer slot poisoned") = tracer;
    }

    /// The attached tracer (a disabled one when none was attached — blocks
    /// open spans through it unconditionally).
    pub fn tracer(&self) -> Arc<Tracer> {
        self.shared
            .tracer
            .lock()
            .expect("tracer slot poisoned")
            .clone()
    }

    /// Attaches a metrics registry; per-trial counters, cost histograms,
    /// and per-worker busy-time gauges are recorded into it.
    pub fn set_metrics(&self, metrics: Arc<MetricsRegistry>) {
        *self.shared.metrics.lock().expect("metrics slot poisoned") = Some(metrics);
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.shared
            .metrics
            .lock()
            .expect("metrics slot poisoned")
            .clone()
    }

    /// The run's counters as of now (typically read once, at end of run).
    pub fn run_counters(&self) -> RunCounters {
        let s = self.state();
        RunCounters {
            cache_hits: s.cache.hits,
            cache_misses: s.cache.misses,
            fe_cache_hits: s.fe_cache.hits,
            fe_cache_misses: s.fe_cache.misses,
            binned: s.binned,
            bytes_gathered: s.gathered.0,
            gathers_skipped: s.gathered.1,
            surrogate: s.surrogate,
        }
    }

    /// Installs a fault-injection hook (testing/chaos only).
    pub fn set_fault_hook(&self, hook: FaultHook) {
        *self.shared.fault_hook.lock().expect("hook poisoned") = Some(hook);
    }

    /// Loads journaled trial records from an interrupted run into the
    /// crash-resume replay table. Because every engine's schedule is a
    /// deterministic function of its seed and the observed losses, re-driving
    /// the search re-requests exactly the journaled trials, in order per
    /// `(assignment, fidelity)` key — each one is answered instantly from
    /// this table (bitwise-identical loss/cost, no re-training, no
    /// re-journaling) until the table drains and fresh evaluation resumes.
    ///
    /// Rows synthesized for abandoned trials (timeouts, escaped panics)
    /// replay as failures without counting an evaluation, matching the
    /// original run's accounting.
    pub fn attach_replay(&self, records: &[TrialRecord]) {
        let mut state = self.state();
        for rec in records {
            let Ok(digest) = u64::from_str_radix(&rec.digest, 16) else {
                continue; // unknown digest: cannot be matched to a trial
            };
            state
                .replay
                .entry((digest, rec.fidelity.to_bits()))
                .or_default()
                .push_back(rec.clone());
        }
    }

    /// Appends canonical, bitwise-stable lines describing the evaluator's
    /// observed work to `out` — the evaluator's contribution to a
    /// `StudyState` snapshot. The log multiset is sorted so serial and
    /// pooled runs of the same schedule dump identically.
    pub fn capture_state(&self, out: &mut Vec<String>) {
        let s = self.state();
        out.push(format!("evaluator.evaluations={}", s.log.len()));
        let mut rows: Vec<String> = s
            .log
            .iter()
            .map(|e| {
                format!(
                    "evaluator.log digest={:016x} fidelity={:016x} loss={:016x} cost={:016x}",
                    assignment_key(&e.assignment),
                    e.fidelity.to_bits(),
                    e.loss.to_bits(),
                    e.cost.to_bits(),
                )
            })
            .collect();
        rows.sort();
        out.append(&mut rows);
    }

    fn state(&self) -> std::sync::MutexGuard<'_, EvalState> {
        self.shared.state.lock().expect("evaluator state poisoned")
    }

    /// Extracts `(algorithm, model-params, fe-params)` from an assignment.
    fn interpret(&self, assignment: &HashMap<String, f64>) -> Result<ParsedAssignment> {
        parse_assignment(&self.shared.space, assignment)
    }

    /// Records one completed trial to every attached sink: one
    /// [`TrialRecord`] (arm + digest join keys included) goes to the journal
    /// and to the span tracer (one `kind:"trial"` span at `origin`'s path,
    /// parented to its pull span), and the metrics registry is updated.
    fn record_trial(
        &self,
        journal: Option<&Arc<Journal>>,
        trial: &Trial,
        run: &RunRecord,
        origin: &TrialOrigin,
    ) {
        let tracer = self.tracer();
        let metrics = self.metrics();
        if journal.is_none() && !tracer.enabled() && !tracer.has_bus() && metrics.is_none() {
            return;
        }
        // Self-overhead accounting: everything below (journal append,
        // trace emit, bus publish, metric updates) is observability work,
        // timed into its own histogram so the layer can prove it stays
        // well under 1% of trial wall time.
        let obs_start = std::time::Instant::now();
        let (assignment, fidelity, tag) = trial;
        let RunRecord {
            worker,
            start_s,
            end_s,
            queue_wait_s,
            ref busy,
            outcome,
        } = *run;
        let rec = TrialRecord {
            trial_id: match journal {
                Some(j) => j.next_trial_id(),
                None => tracer.next_trial_id(),
            },
            worker,
            start_s,
            end_s,
            fidelity: fidelity.clamp(0.01, 1.0),
            rung: tag.rung,
            bracket: tag.bracket,
            loss: outcome.loss,
            cost: if outcome.cached { 0.0 } else { outcome.cost },
            cached: outcome.cached,
            fe_cached: outcome.fe_cached,
            panicked: outcome.panicked,
            timed_out: outcome.timed_out,
            arm: origin.arm.to_string(),
            digest: format!("{:016x}", assignment_key(assignment)),
        };
        if let Some(j) = journal {
            j.record(rec.clone());
        }
        tracer.trial(&rec, origin);
        if let Some(m) = &metrics {
            m.inc_counter("trial.total", 1);
            if outcome.cached {
                m.inc_counter("trial.result_cache_hit", 1);
            }
            if outcome.fe_cached {
                m.inc_counter("trial.fe_cache_hit", 1);
            }
            if outcome.panicked {
                m.inc_counter("exec.panics", 1);
            }
            if outcome.timed_out {
                m.inc_counter("exec.timeouts", 1);
            }
            if !outcome.cached {
                m.observe("trial.cost_s", outcome.cost);
            }
            // Each job's seconds go to the worker that ran it: a CV trial's
            // folds may span workers.
            for &(job_worker, seconds) in busy {
                m.add_to_gauge(&format!("worker.{job_worker}.busy_s"), seconds.max(0.0));
            }
            if let Some(wait) = queue_wait_s {
                m.observe("exec.queue_wait_s", wait.max(0.0));
            }
            // Journal flush latency, drained from the journal's bounded
            // buffer (the journal itself stays metrics-agnostic).
            if let Some(j) = journal {
                for flush_s in j.take_flush_observations() {
                    m.observe_with("journal.flush_s", flush_s, &volcanoml_obs::metrics::FINE_BUCKETS);
                }
            }
            m.observe_with(
                "obs.self_overhead_s",
                obs_start.elapsed().as_secs_f64(),
                &volcanoml_obs::metrics::FINE_BUCKETS,
            );
        }
    }

    /// Evaluates an assignment at the given fidelity (training-set fraction
    /// in `(0, 1]`) on the calling thread, outside any bracket schedule —
    /// warm starts, final promotion, baselines. Results are cached; failures
    /// and panics yield `loss = INFINITY`.
    pub fn evaluate(&self, assignment: &HashMap<String, f64>, fidelity: f64) -> EvalOutcome {
        let trial = (assignment.clone(), fidelity, TrialTag::NONE);
        self.evaluate_trials(None, &[trial], &TrialOrigin::default())
            .pop()
            .expect("one outcome per trial")
    }

    /// Evaluates `trials` and returns their outcomes in submission order, in
    /// three steps:
    ///
    /// 1. *prepare*, on the coordinator: replay-table and result-cache
    ///    lookups, the fault hook, and the fresh trials' validation plans,
    ///    each turned into one job per `(train, valid)` pair;
    /// 2. *run*: all jobs of the batch as one [`ExecPool::run_batch`] when
    ///    `pool` is given, one after another on the calling thread when not;
    /// 3. *reduce*, on the coordinator: each fresh trial's pair losses are
    ///    averaged in plan order, then cache, log, counters and tallies are
    ///    updated and every trial is journaled/traced/metered — all in
    ///    submission order, so the log order is the order trials were asked
    ///    for, never the order they finished in.
    ///
    /// Each trial's [`TrialTag`] is journaled/traced as its `rung`/`bracket`,
    /// and `origin` — the issuing block's path, arm and pull span — as its
    /// attribution. A trial is panicked (or timed out) if any of its jobs
    /// was; a timed-out trial reports infinite loss and leaves no cache or
    /// log entry (its abandoned jobs may still fill FE-cache entries later).
    pub fn evaluate_trials(
        &self,
        pool: Option<&ExecPool>,
        trials: &[Trial],
        origin: &TrialOrigin,
    ) -> Vec<EvalOutcome> {
        let (prepared, jobs) = self.prepare(trials);
        let journal = self.journal();
        let epoch_s = journal.as_ref().map_or(0.0, |j| j.elapsed_s());
        let runs = match pool {
            Some(pool) => pool.run_batch(jobs.into_iter().map(|job| move || job.run()).collect()),
            None => run_inline(jobs),
        };
        let records = self.reduce(trials, prepared, &runs, epoch_s, pool.is_some());
        for (trial, run) in trials.iter().zip(&records) {
            // Replayed trials were journaled by the interrupted run;
            // journaling them again would duplicate their trial ids.
            if !run.outcome.replayed {
                self.record_trial(journal.as_ref(), trial, run, origin);
            }
        }
        records.into_iter().map(|run| run.outcome).collect()
    }

    /// Step 1 of [`Evaluator::evaluate_trials`]: answers what needs no fit
    /// and returns the batch's pair jobs. Crash-resume replay comes *before*
    /// the cache: the replay queue for a key holds the interrupted run's
    /// outcomes in journal order (first fresh, later ones cache hits), and a
    /// live cache lookup must never consume — or bypass — a row that belongs
    /// to an earlier journaled trial.
    fn prepare(&self, trials: &[Trial]) -> (Vec<Prepared>, Vec<PairJob>) {
        let hook = self
            .shared
            .fault_hook
            .lock()
            .expect("hook poisoned")
            .clone();
        let mut jobs = Vec::new();
        let mut fresh: HashMap<(u64, u64), usize> = HashMap::new();
        let prepared = trials
            .iter()
            .enumerate()
            .map(|(index, (assignment, fidelity, _))| {
                let fidelity = fidelity.clamp(0.01, 1.0);
                let key = (assignment_key(assignment), fidelity.to_bits());
                {
                    let mut state = self.state();
                    if let Some(row) = state.replay.get_mut(&key).and_then(|q| q.pop_front()) {
                        return replay_row(&mut state, assignment, fidelity, key, row);
                    }
                    if let Some(&first) = fresh.get(&key) {
                        return Prepared::Duplicate(first);
                    }
                    if let Some((loss, cost)) = state.cache.get(&key) {
                        return Prepared::Answered {
                            outcome: EvalOutcome::hit(loss, cost),
                            entry: None,
                        };
                    }
                }
                fresh.insert(key, index);
                let fault = hook.as_ref().and_then(|hook| hook(assignment, fidelity));
                let first = jobs.len();
                jobs.extend(self.pair_jobs(assignment, fidelity, fault));
                Prepared::Fresh(first..jobs.len())
            })
            .collect();
        (prepared, jobs)
    }

    /// Step 3 of [`Evaluator::evaluate_trials`]: folds the jobs' runs back
    /// into one run record per trial and does the batch's bookkeeping, in
    /// submission order.
    fn reduce(
        &self,
        trials: &[Trial],
        prepared: Vec<Prepared>,
        runs: &[TrialRun<PairRun>],
        epoch_s: f64,
        pooled: bool,
    ) -> Vec<RunRecord> {
        let objective = self.objective();
        let coordinator = current_worker().unwrap_or(0);
        let mut state = self.state();
        let mut records: Vec<RunRecord> = Vec::with_capacity(trials.len());
        state.trials += trials.len();
        for ((assignment, fidelity, _), prep) in trials.iter().zip(prepared) {
            let fidelity = fidelity.clamp(0.01, 1.0);
            let key = (assignment_key(assignment), fidelity.to_bits());
            let mut record = RunRecord {
                worker: coordinator,
                start_s: epoch_s,
                end_s: epoch_s,
                queue_wait_s: None,
                busy: Vec::new(),
                outcome: EvalOutcome::failed(false, false),
            };
            let entry = match prep {
                Prepared::Answered { outcome, entry } => {
                    record.outcome = outcome;
                    entry
                }
                Prepared::Duplicate(first) => {
                    // The first trial inserted the key unless it was
                    // abandoned; then the duplicate shares its fate.
                    record.outcome = if state.cache.map.contains_key(&key) {
                        let (loss, cost) = state.cache.get(&key).expect("entry just seen");
                        EvalOutcome::hit(loss, cost)
                    } else {
                        records[first].outcome
                    };
                    None
                }
                Prepared::Fresh(jobs) => {
                    let jobs = &runs[jobs];
                    let first = &jobs[0];
                    record.worker = first.worker;
                    record.queue_wait_s = pooled.then_some(first.started_s);
                    record.start_s = epoch_s
                        + jobs
                            .iter()
                            .map(|r| r.started_s)
                            .fold(f64::INFINITY, f64::min);
                    record.end_s = epoch_s + jobs.iter().map(|r| r.ended_s).fold(0.0, f64::max);
                    record.busy = jobs
                        .iter()
                        .map(|r| (r.worker, r.ended_s - r.started_s))
                        .collect();
                    let (outcome, entry) = settle_fresh(objective, assignment, fidelity, jobs);
                    record.outcome = outcome;
                    entry
                }
            };
            if record.outcome.cached {
                state.consecutive_cached += 1;
            } else if let Some(entry) = entry {
                state.cache.insert(key, (entry.loss, entry.cost));
                state.consecutive_cached = 0;
                state.log.push(entry);
            }
            records.push(record);
        }
        // Every finished job's work counts, abandoned trials' included.
        for run in runs {
            if let TrialStatus::Done(pair) = &run.status {
                state.binned.add(&pair.binned);
                state.gathered.0 += pair.gathered.0;
                state.gathered.1 += pair.gathered.1;
            }
        }
        records
    }

    /// Trains the final pipeline+model from an assignment on a complete
    /// dataset (used after search finishes, on the full training split).
    pub fn refit(
        &self,
        assignment: &HashMap<String, f64>,
        data: &Dataset,
    ) -> Result<(FePipeline, Model)> {
        refit_assignment(&self.shared.space, assignment, data, self.shared.seed)
    }

    /// Sets the thread count injected into models that support intra-fit
    /// parallelism (`n_jobs`). Fits are bit-identical across thread counts,
    /// so this changes wall time, never losses.
    pub fn set_model_n_jobs(&self, n_jobs: usize) {
        self.shared
            .model_n_jobs
            .store(n_jobs.max(1), Ordering::Relaxed);
    }
}

/// Step 2 of [`Evaluator::evaluate_trials`] without a pool: the jobs one
/// after another on the calling thread, timed like a pool batch.
fn run_inline(jobs: Vec<PairJob>) -> Vec<TrialRun<PairRun>> {
    let epoch = Instant::now();
    let worker = current_worker().unwrap_or(0);
    jobs.into_iter()
        .enumerate()
        .map(|(index, job)| {
            let started_s = epoch.elapsed().as_secs_f64();
            let status = TrialStatus::Done(job.run());
            TrialRun {
                index,
                worker,
                started_s,
                ended_s: epoch.elapsed().as_secs_f64(),
                status,
            }
        })
        .collect()
}

/// Folds a fresh trial's job runs into its outcome and the log entry it adds
/// (none when a job was abandoned). The pair losses are summed in plan order
/// and divided once, so the mean is the pair's own value bit for bit under
/// holdout; `cost` is the sum of the jobs' seconds.
fn settle_fresh(
    objective: crate::objective::Objective,
    assignment: &HashMap<String, f64>,
    fidelity: f64,
    jobs: &[TrialRun<PairRun>],
) -> (EvalOutcome, Option<LogEntry>) {
    let mut pairs = Vec::with_capacity(jobs.len());
    for run in jobs {
        match &run.status {
            TrialStatus::Done(pair) => pairs.push(pair),
            TrialStatus::TimedOut => return (EvalOutcome::failed(true, false), None),
            TrialStatus::Panicked(_) => return (EvalOutcome::failed(false, true), None),
        }
    }
    let cost = pairs.iter().map(|pair| pair.seconds).sum();
    let scores: Option<Vec<(f64, bool, f64)>> = pairs.iter().map(|pair| pair.score).collect();
    let (raw_loss, fe_cached, infer_cost) = match scores {
        Some(scores) => {
            let k = scores.len() as f64;
            let (loss, infer_s, fe_cached) = scores
                .iter()
                .fold((0.0, 0.0, true), |(loss, infer_s, all_fe), s| {
                    (loss + s.0, infer_s + s.2, all_fe && s.1)
                });
            (loss / k, fe_cached, infer_s / k)
        }
        None => (f64::INFINITY, false, 0.0),
    };
    // Scalarize before anything downstream sees the number: the cache, the
    // journal, and the engines all observe the same scalar, which is what
    // keeps cost-sensitive resume replay bitwise.
    let loss = objective.scalarize(raw_loss, infer_cost);
    let outcome = EvalOutcome {
        loss,
        cost,
        cached: false,
        fe_cached,
        panicked: pairs.iter().any(|pair| pair.panicked),
        timed_out: false,
        replayed: false,
    };
    let entry = LogEntry {
        assignment: assignment.clone(),
        fidelity,
        loss,
        cost,
        infer_cost,
    };
    (outcome, Some(entry))
}

/// Answers a trial from one replay-table row, reproducing the interrupted
/// run's accounting: a journaled fresh evaluation re-enters the
/// cache/log/counters (even failures — the fresh path inserts
/// unconditionally), a journaled cache hit counts nothing (the entry is
/// already back in the cache from its fresh row), and a journaled abandoned
/// trial (timeout, escaped panic — both journaled with zero cost) never
/// reached the accounting at all.
///
/// Cached rows journal cost 0 (accounting convention: a hit spends no wall
/// time), but the *live* run handed the engine the memoized true cost — so
/// the replayed outcome recovers it from the cache entry the earlier fresh
/// row re-inserted. Without this, every replayed hit would poison the cost
/// surrogate with zero-cost observations and break the bitwise-resume
/// guarantee for cost-aware studies.
fn replay_row(
    state: &mut EvalState,
    assignment: &HashMap<String, f64>,
    fidelity: f64,
    key: (u64, u64),
    row: TrialRecord,
) -> Prepared {
    let abandoned = row.timed_out || (row.panicked && row.cost == 0.0);
    let mut cost = row.cost;
    let mut entry = None;
    if row.cached {
        // Direct map access: recovering the memoized cost is not a lookup
        // the live run performed twice, so hit/miss counters stay untouched.
        if let Some(&(_, memoized)) = state.cache.map.get(&key) {
            cost = memoized;
        }
    } else if !abandoned {
        // Inserted here rather than at reduce, so later trials of the same
        // batch find it as the live run's did.
        state.cache.insert(key, (row.loss, row.cost));
        entry = Some(LogEntry {
            assignment: assignment.clone(),
            fidelity,
            loss: row.loss,
            cost: row.cost,
            infer_cost: 0.0,
        });
    }
    Prepared::Answered {
        outcome: EvalOutcome {
            loss: row.loss,
            cost,
            cached: row.cached,
            fe_cached: row.fe_cached,
            panicked: row.panicked,
            timed_out: row.timed_out,
            replayed: true,
        },
        entry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spaces::SpaceTier;
    use volcanoml_data::synthetic::{make_classification, ClassificationSpec};
    use volcanoml_data::Task;
    use volcanoml_models::Estimator;

    fn dataset() -> Dataset {
        make_classification(
            &ClassificationSpec {
                n_samples: 240,
                n_features: 8,
                n_informative: 5,
                n_redundant: 0,
                n_classes: 2,
                class_sep: 1.8,
                flip_y: 0.0,
                weights: Vec::new(),
            },
            11,
        )
    }

    fn evaluator() -> Evaluator {
        let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
        Evaluator::new(space, &dataset(), Metric::BalancedAccuracy, 0).unwrap()
    }

    #[test]
    fn default_assignment_evaluates() {
        let ev = evaluator();
        let defaults = ev.space().defaults();
        let out = ev.evaluate(&defaults, 1.0);
        assert!(out.loss.is_finite());
        assert!(out.loss < 0.4, "loss {}", out.loss);
        assert!(!out.cached);
        assert!(!out.panicked && !out.timed_out);
        assert_eq!(ev.evaluations(), 1);
    }

    #[test]
    fn cache_hits_on_repeat() {
        let ev = evaluator();
        let defaults = ev.space().defaults();
        let first = ev.evaluate(&defaults, 1.0);
        let second = ev.evaluate(&defaults, 1.0);
        assert!(!first.cached);
        assert!(second.cached);
        assert_eq!(first.loss, second.loss);
        assert_eq!(ev.evaluations(), 1);
        let counters = ev.run_counters();
        assert_eq!((counters.cache_hits, counters.cache_misses), (1, 1));
    }

    #[test]
    fn different_fidelities_are_distinct_cache_entries() {
        let ev = evaluator();
        let defaults = ev.space().defaults();
        ev.evaluate(&defaults, 1.0);
        assert!(!ev.evaluate(&defaults, 0.5).cached);
        assert!(ev.evaluate(&defaults, 0.5).cached);
        assert_eq!(ev.evaluations(), 2);
    }

    #[test]
    fn clones_share_cache_and_log() {
        let ev = evaluator();
        let handle = ev.clone();
        let defaults = ev.space().defaults();
        ev.evaluate(&defaults, 1.0);
        let out = handle.evaluate(&defaults, 1.0);
        assert!(out.cached);
        assert_eq!(handle.evaluations(), 1);
        assert_eq!(handle.log().len(), 1);
    }

    #[test]
    fn panic_in_trial_is_isolated() {
        let ev = evaluator();
        ev.set_fault_hook(Arc::new(|a, _| {
            if a.get("algorithm").copied() == Some(77.0) {
                Some(Fault::Panic)
            } else {
                None
            }
        }));
        let mut bad = ev.space().defaults();
        bad.insert("algorithm".to_string(), 77.0);
        let out = ev.evaluate(&bad, 1.0);
        assert!(out.panicked);
        assert!(out.loss.is_infinite());
        // The evaluator is still usable after the panic.
        let good = ev.evaluate(&ev.space().defaults(), 1.0);
        assert!(good.loss.is_finite());
    }

    #[test]
    fn batch_evaluation_matches_serial() {
        let ev = evaluator();
        let serial = evaluator();
        let mut trials = Vec::new();
        for idx in 0..3 {
            let mut a = ev.space().defaults();
            a.insert("algorithm".to_string(), idx as f64);
            trials.push((a, 1.0, TrialTag::NONE));
        }
        let pool = ExecPool::with_workers(2);
        let batch = ev.evaluate_trials(Some(&pool), &trials, &TrialOrigin::default());
        assert_eq!(batch.len(), 3);
        for (i, (a, f, _)) in trials.iter().enumerate() {
            let s = serial.evaluate(a, *f);
            assert_eq!(s.loss, batch[i].loss, "trial {i}");
        }
        assert_eq!(ev.evaluations(), 3);
    }

    /// Per-trial `(loss bits, cached, fe_cached, panicked)`, the log in
    /// order, and the run counters.
    type Observed = (Vec<(u64, bool, bool, bool)>, Vec<String>, RunCounters);

    /// Everything two batches of CV trials leave behind, run inline or as
    /// fold jobs on a pool. `binned.arena_reuses` depends on what the
    /// running thread's slab pool held, so it is left out.
    fn cv_batches(pool: Option<&ExecPool>) -> Observed {
        let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
        let ev = Evaluator::with_strategy(
            space,
            &dataset(),
            Metric::BalancedAccuracy,
            ValidationStrategy::CrossValidation { folds: 3 },
            0,
        )
        .unwrap();
        ev.set_fault_hook(Arc::new(|a, _| {
            (a["fe:rescaler"] == 3.0).then_some(Fault::Panic)
        }));
        let trial = |algorithm: f64, rescaler: f64, fidelity: f64| {
            let mut a = ev.space().defaults();
            a.insert("algorithm".to_string(), algorithm);
            a.insert("fe:rescaler".to_string(), rescaler);
            (a, fidelity, TrialTag::NONE)
        };
        // Within one batch no two fresh trials share an FE sub-assignment at
        // one fidelity: which of two concurrent jobs fills a shared FE-cache
        // entry first is a timing question, and it moves `fe_cached`, never
        // a loss. Across batches the sharing is deterministic.
        let first = vec![
            trial(0.0, 1.0, 1.0),
            trial(1.0, 2.0, 1.0),
            trial(0.0, 1.0, 0.5),
            trial(2.0, 3.0, 0.5), // injected panic in its first fold
            trial(1.0, 2.0, 1.0), // duplicate of the second trial
        ];
        let second = vec![
            trial(2.0, 1.0, 1.0), // FE-cache hit on the first trial's folds
            trial(0.0, 1.0, 1.0), // result-cache hit
            trial(1.0, 2.0, 0.5),
        ];
        let mut flags = Vec::new();
        for batch in [first, second] {
            for out in ev.evaluate_trials(pool, &batch, &TrialOrigin::default()) {
                flags.push((out.loss.to_bits(), out.cached, out.fe_cached, out.panicked));
            }
        }
        let log = ev
            .log()
            .iter()
            .map(|e| {
                format!(
                    "{:016x} {} {:016x}",
                    assignment_key(&e.assignment),
                    e.fidelity,
                    e.loss.to_bits()
                )
            })
            .collect();
        let mut counters = ev.run_counters();
        counters.binned.arena_reuses = 0;
        (flags, log, counters)
    }

    #[test]
    fn cv_fold_jobs_on_a_pool_match_the_inline_batch() {
        let inline = cv_batches(None);
        let flags = &inline.0;
        assert!(
            flags[3].3 && f64::from_bits(flags[3].0).is_infinite(),
            "{flags:?}"
        );
        assert!(
            flags[4].1 && flags[4].0 == flags[1].0,
            "duplicate is a cache hit"
        );
        assert!(flags[5].2 && flags[6].1, "{flags:?}");
        // Six fresh trials, logged in the order they were asked for; the
        // pooled runs must log them in this same order.
        assert_eq!(inline.1.len(), 6);
        for workers in [2, 3] {
            let pool = ExecPool::with_workers(workers);
            assert_eq!(cv_batches(Some(&pool)), inline, "{workers} workers");
        }
    }

    #[test]
    fn journal_records_serial_and_batch_trials() {
        let ev = evaluator();
        let journal = Arc::new(Journal::in_memory());
        ev.attach_journal(Arc::clone(&journal));
        let defaults = ev.space().defaults();
        ev.evaluate(&defaults, 1.0);
        ev.evaluate(&defaults, 1.0); // cache hit
        let pool = ExecPool::with_workers(2);
        let mut other = defaults.clone();
        other.insert("algorithm".to_string(), 1.0);
        let trials = [(other, 1.0, TrialTag::NONE)];
        ev.evaluate_trials(Some(&pool), &trials, &TrialOrigin::default());
        let records = journal.records();
        assert_eq!(records.len(), 3);
        assert!(!records[0].cached && records[1].cached);
        assert!(records.iter().all(|r| !r.panicked && !r.timed_out));
    }

    #[test]
    fn every_algorithm_in_tier_evaluates() {
        let ev = evaluator();
        let n_algs = ev.space().algorithms.len();
        for idx in 0..n_algs {
            let mut a = ev.space().defaults();
            a.insert("algorithm".to_string(), idx as f64);
            let out = ev.evaluate(&a, 1.0);
            assert!(out.loss.is_finite(), "algorithm {idx} failed");
        }
    }

    #[test]
    fn bad_algorithm_index_is_infinite_loss() {
        let ev = evaluator();
        let mut a = ev.space().defaults();
        a.insert("algorithm".to_string(), 99.0);
        let out = ev.evaluate(&a, 1.0);
        assert!(out.loss.is_infinite());
    }

    #[test]
    fn metric_task_mismatch_rejected() {
        let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
        let r = Evaluator::new(space, &dataset(), Metric::Mse, 0);
        assert!(r.is_err());
    }

    #[test]
    fn refit_produces_working_model() {
        let ev = evaluator();
        let d = dataset();
        let (pipeline, model) = ev.refit(&ev.space().defaults(), &d).unwrap();
        let x = pipeline.transform(&d.x).unwrap();
        let preds = model.predict(&x).unwrap();
        let acc = volcanoml_data::metrics::accuracy(&d.y, &preds);
        assert!(acc > 0.7, "refit accuracy {acc}");
    }

    #[test]
    fn cross_validation_strategy_evaluates() {
        let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
        let ev = Evaluator::with_strategy(
            space,
            &dataset(),
            Metric::BalancedAccuracy,
            ValidationStrategy::CrossValidation { folds: 3 },
            0,
        )
        .unwrap();
        let defaults = ev.space().defaults();
        let out = ev.evaluate(&defaults, 1.0);
        assert!(out.loss.is_finite());
        assert!(out.loss < 0.4, "CV loss {}", out.loss);
    }

    #[test]
    fn cv_loss_is_less_noisy_than_holdout_across_seeds() {
        // Not a strict guarantee, but with 3 folds the CV estimate should
        // have visibly lower spread across evaluator seeds.
        let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
        let d = dataset();
        let spread = |strategy: ValidationStrategy| {
            let losses: Vec<f64> = (0..6u64)
                .map(|seed| {
                    let ev = Evaluator::with_strategy(
                        space.clone(),
                        &d,
                        Metric::BalancedAccuracy,
                        strategy,
                        seed,
                    )
                    .unwrap();
                    let defaults = ev.space().defaults();
                    ev.evaluate(&defaults, 1.0).loss
                })
                .collect();
            volcanoml_linalg::stats::std_dev(&losses)
        };
        let holdout = spread(ValidationStrategy::Holdout { fraction: 0.25 });
        let cv = spread(ValidationStrategy::CrossValidation { folds: 3 });
        assert!(cv <= holdout + 0.05, "cv {cv} vs holdout {holdout}");
    }

    #[test]
    fn invalid_strategies_are_rejected() {
        let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
        assert!(Evaluator::with_strategy(
            space.clone(),
            &dataset(),
            Metric::BalancedAccuracy,
            ValidationStrategy::Holdout { fraction: 1.5 },
            0,
        )
        .is_err());
        assert!(Evaluator::with_strategy(
            space.clone(),
            &dataset(),
            Metric::BalancedAccuracy,
            ValidationStrategy::CrossValidation { folds: 1 },
            0,
        )
        .is_err());
        let rows = dataset().n_samples();
        let Err(err) = Evaluator::with_strategy(
            space,
            &dataset(),
            Metric::BalancedAccuracy,
            ValidationStrategy::CrossValidation { folds: rows + 1 },
            0,
        ) else {
            panic!("{} folds over {rows} rows were accepted", rows + 1);
        };
        assert!(
            err.to_string().contains(&format!("{} folds", rows + 1))
                && err.to_string().contains(&format!("got {rows}")),
            "{err}"
        );
    }

    #[test]
    fn fe_cache_hits_across_trials_sharing_fe_config() {
        let ev = evaluator();
        let defaults = ev.space().defaults();
        // Two different algorithms with identical FE sub-assignments: the
        // second trial must reuse the fitted FE transform.
        let first = ev.evaluate(&defaults, 1.0);
        let mut other = defaults.clone();
        other.insert("algorithm".to_string(), 1.0);
        let second = ev.evaluate(&other, 1.0);
        assert!(!first.fe_cached);
        assert!(second.fe_cached, "second trial should reuse the FE output");
        let counters = ev.run_counters();
        assert_eq!((counters.fe_cache_hits, counters.fe_cache_misses), (1, 1));
        // A result-cache hit reports fe_cached = false (no FE work at all).
        let repeat = ev.evaluate(&defaults, 1.0);
        assert!(repeat.cached && !repeat.fe_cached);
    }

    #[test]
    fn fe_cache_distinguishes_fidelity_and_fe_params() {
        let ev = evaluator();
        let defaults = ev.space().defaults();
        ev.evaluate(&defaults, 1.0);
        // Different fidelity → different training rows → FE miss.
        let half = ev.evaluate(&defaults, 0.5);
        assert!(!half.fe_cached);
        // Different FE sub-assignment → FE miss.
        let mut scaled = defaults.clone();
        let rescaler = scaled.get_mut("fe:rescaler").expect("rescaler param");
        *rescaler = if *rescaler == 1.0 { 2.0 } else { 1.0 };
        let rescaled = ev.evaluate(&scaled, 1.0);
        assert!(!rescaled.fe_cached);
        assert!(rescaled.loss.is_finite());
        let counters = ev.run_counters();
        assert_eq!((counters.fe_cache_hits, counters.fe_cache_misses), (0, 3));
    }

    #[test]
    fn model_n_jobs_does_not_change_losses() {
        let serial = evaluator();
        let threaded = evaluator();
        threaded.set_model_n_jobs(4);
        // The forest is the n_jobs-sensitive algorithm in the small tier.
        let mut a = serial.space().defaults();
        a.insert("algorithm".to_string(), 1.0);
        let s = serial.evaluate(&a, 1.0);
        let t = threaded.evaluate(&a, 1.0);
        assert_eq!(s.loss, t.loss, "fits must be thread-count independent");
    }

    #[test]
    fn fidelity_subsampling_is_cheaper_or_equal() {
        let ev = evaluator();
        let defaults = ev.space().defaults();
        // Use the forest (more data-sensitive cost) for a stable signal.
        let mut a = defaults.clone();
        a.insert("algorithm".to_string(), 1.0);
        a.insert("alg:random_forest:n_estimators".to_string(), 80.0);
        let full = ev.evaluate(&a, 1.0);
        let cheap = ev.evaluate(&a, 0.25);
        assert!(cheap.loss.is_finite());
        // Wall-time comparisons are flaky in CI; assert the subsample ran and
        // produced a (possibly worse) finite loss instead.
        assert!(full.loss.is_finite());
    }
}
