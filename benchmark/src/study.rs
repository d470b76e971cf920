//! One study slot: its generated inputs, its set-up, and its `fit` through
//! the user-facing engine. Both run modes start from here.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::layers::{self, Dataset, Engine, FitPaths, FitSummary, Res, StudyConfig, TrialRecord};
use crate::report::{median, RunOutput};
use crate::workloads::{Target, Workload, TEST_ROWS};

/// A slot's generated inputs and what setting it up cost.
pub struct Slot {
    pub index: usize,
    pub config: StudyConfig,
    pub search: Dataset,
    pub test: Dataset,
    /// Validation loss of the space's default configuration.
    pub l0: f64,
    pub generate_s: f64,
    pub split_s: f64,
    /// `Evaluator::with_strategy` plus `PlanSpec::compile`.
    pub presearch_s: f64,
    /// One evaluation of `SpaceDef::defaults()`.
    pub default_eval_s: f64,
    /// Generation, split, pre-search calls and the default evaluation.
    pub setup_s: f64,
}

pub fn prepare(w: &Workload, index: usize, seed: u64, scale: f64, n_cpus: usize) -> Res<Slot> {
    let config = w.study(index, scale, n_cpus);
    let data_seed = w.data_seed(seed, index);
    let start = Instant::now();
    let data = layers::generate(&w.data, TEST_ROWS, data_seed);
    let generate_s = start.elapsed().as_secs_f64();
    let (search, test) = layers::split_test(&data, TEST_ROWS, data_seed)?;
    let split_s = start.elapsed().as_secs_f64() - generate_s;
    let (evaluator, root) = layers::presearch(&config, &search)?;
    let presearch_s = start.elapsed().as_secs_f64() - generate_s - split_s;
    drop(root);
    let l0 = layers::default_config_loss(&evaluator);
    let setup_s = start.elapsed().as_secs_f64();
    Ok(Slot {
        index,
        config,
        search,
        test,
        l0,
        generate_s,
        split_s,
        presearch_s,
        default_eval_s: setup_s - generate_s - split_s - presearch_s,
        setup_s,
    })
}

/// Where a slot's `fit` writes; `tag` separates the fits of one slot.
pub fn paths(out: &Path, w: &Workload, slot: usize, tag: &str, observed: bool) -> FitPaths {
    let file = |kind: &str, ext: &str| -> PathBuf {
        out.join(format!("{}.slot{slot}.{tag}.{kind}.{ext}", w.name))
    };
    FitPaths {
        journal: Some(file("journal", "jsonl")),
        trace: observed.then(|| file("program-trace", "jsonl")),
        metrics: observed.then(|| file("metrics", "json")),
    }
}

/// One `fit` and everything read back from it.
pub struct Fitted {
    pub summary: FitSummary,
    pub wall_s: f64,
    pub rows: Vec<TrialRecord>,
    /// Last journal `end_s`: when the search, as opposed to the refit, ended.
    pub search_s: f64,
    /// Held-out loss of the fitted pipeline under the task's default metric.
    pub test_loss: f64,
    /// Held-out loss of the mean / majority-class predictor.
    pub trivial_loss: f64,
    /// Journal `end_s` of the first full-fidelity trial at or under the
    /// target; the whole search wall when no trial got there.
    pub time_to_target_s: f64,
    pub hit_target: bool,
}

impl Fitted {
    /// Trials that ran, as opposed to answered from the result cache.
    pub fn fresh(&self) -> usize {
        self.rows.iter().filter(|r| !r.cached).count()
    }
}

/// Fits a slot and applies the per-study output checks.
pub fn fit_checked(
    w: &Workload,
    slot: &Slot,
    paths: &FitPaths,
    out: &mut RunOutput,
) -> Res<Fitted> {
    let i = slot.index;
    let result = layers::fit(&slot.config, &slot.search, paths, false);
    out.check(result.is_ok(), || format!("slot {i}: fit failed"));
    let result = result?;
    let journal = paths.journal.as_deref().expect("every fit is journaled");
    let rows = layers::read_journal(journal)?;
    let summary = result.summary;
    // A multi-fidelity search that never reached full fidelity within its
    // budget is promoted by `fit` with one extra evaluation.
    let budget = slot.config.evaluations;
    let promoted = slot.config.engine == Engine::MfesHb && summary.evaluations == budget + 1;
    out.check(summary.evaluations == budget || promoted, || {
        format!(
            "slot {i}: {} evaluations, budget {budget}",
            summary.evaluations
        )
    });
    let expected_rows = summary.evaluations as u64 + summary.result_cache_hits;
    out.check(rows.len() as u64 == expected_rows, || {
        format!(
            "slot {i}: {} journal rows, {expected_rows} fresh + cached trials",
            rows.len()
        )
    });
    let test_loss = layers::test_loss(&result.fitted, &slot.test)?;
    let trivial = layers::trivial_loss(slot.test.task, &slot.search.y, &slot.test.y);
    let search_s = rows.iter().map(|r| r.end_s).fold(0.0, f64::max);
    let target = match w.target {
        Target::Loss(loss) => loss,
        Target::ShareOfDefault(share) => share * slot.l0,
    };
    let hit = rows
        .iter()
        .find(|r| r.fidelity >= 1.0 - 1e-9 && r.loss <= target)
        .map(|r| r.end_s);
    Ok(Fitted {
        wall_s: result.wall_s,
        summary,
        rows,
        search_s,
        test_loss,
        trivial_loss: trivial,
        time_to_target_s: hit.unwrap_or(search_s),
        hit_target: hit.is_some(),
    })
}

/// The median over a panel's fits of one per-study figure.
pub fn median_over(fits: &[Fitted], figure: fn(&Fitted) -> f64) -> f64 {
    median(&fits.iter().map(figure).collect::<Vec<f64>>())
}

/// The panel's quality check: its median study must beat the median trivial
/// predictor. A single study may not — on 120 rows a search now and then
/// picks a pipeline that generalises worse than the mean — and that is the
/// engine's result, not a failed operation. A fraction of the budget
/// (`--scale`) is not the workload and owes nothing.
pub fn check_quality(fits: &[Fitted], scale: f64, out: &mut RunOutput) {
    if scale < 1.0 {
        return;
    }
    let test = median_over(fits, |f| f.test_loss);
    let trivial = median_over(fits, |f| f.trivial_loss);
    out.check(test < trivial, || {
        format!("median held-out loss {test} does not beat the trivial predictor's {trivial}")
    });
}

/// Trials that did not complete: non-finite loss, panic or timeout.
pub fn failed_trials(rows: &[TrialRecord]) -> usize {
    rows.iter()
        .filter(|r| !r.loss.is_finite() || r.panicked || r.timed_out)
        .count()
}
