//! The traced run: the per-layer time account.
//!
//! For each traced slot the harness (1) fits through `VolcanoML::fit` for
//! reference, (2) repeats the same search with a loop of its own — the same
//! calls `fit` makes, one span per pull — and (3) replays every logged trial
//! through the `fe` and `models` calls the evaluator makes. The first slot
//! also carries the measurements that need no search of their own.

use crate::layers::{self, Family, FitPaths, Res, TrialRecord};
use crate::report::{median, tail, RunOutput};
use crate::spans::Recorder;
use crate::study::{check_quality, failed_trials, fit_checked, paths, prepare, Fitted, Slot};
use crate::workloads::Workload;
use std::path::Path;

/// Per-layer metrics that repeat exactly when a serial workload is run twice
/// at one seed: counts the search decides, never timings.
pub const EXACT: [&str; 20] = [
    "core.pulls",
    "core.trials_fresh",
    "core.trials_cached",
    "core.trials_failed",
    "core.result_cache_hit_ratio",
    "core.fe_cache_hit_ratio",
    "core.best_valid_loss",
    "core.target_hit_share",
    "fe.pipelines_fit",
    "fe.failures",
    "models.fits",
    "models.failures",
    "models.binned.cells_encoded",
    "models.binned.hist_bytes_scanned",
    "data.bytes_gathered",
    "data.gathers_skipped",
    "exec.journal.rows",
    "obs.tracer.spans",
    "trace.mirror_ok",
    "trace.spans",
];

/// A traced slot costs about three fits (reference, mirrored search, layer
/// replay), so the traced panel is a third of the untraced one.
const TRACED_SHARE: f64 = 1.0 / 3.0;

/// Sums over the traced slots.
#[derive(Default)]
struct Account {
    setup_s: f64,
    generate_s: f64,
    split_s: f64,
    search_wall_s: f64,
    reference_search_s: f64,
    pull_ms: Vec<f64>,
    suggest_overhead_s: f64,
    busy_s: f64,
    fresh: usize,
    cached: usize,
    failed: usize,
    result_hits: u64,
    result_lookups: u64,
    fe_hits: u64,
    fe_lookups: u64,
    refit_s: f64,
    best_valid_loss: Vec<f64>,
    time_to_target_s: Vec<f64>,
    target_hits: usize,
    mirror_ok: bool,
    replay: layers::ReplayCost,
    fit_s_by_family: [f64; 4],
    surrogate_ms: [Vec<f64>; 3],
    acquisition_ms: Vec<f64>,
    smac_ms: [Vec<f64>; 3],
    pool: PoolAccount,
}

#[derive(Default)]
struct PoolAccount {
    batches: usize,
    batch_wall_s: f64,
    busy_s: f64,
    queue_wait_s: f64,
}

/// What one mirrored search produced.
struct Mirror {
    search_s: f64,
    best_loss: f64,
    evaluations: usize,
    rows: Vec<TrialRecord>,
    log: Vec<layers::LogEntry>,
}

const HISTORY_SIZES: [usize; 3] = [50, 200, 500];

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
    n_cpus: usize,
    out_dir: &Path,
) -> Res<RunOutput> {
    let mut out = RunOutput::default();
    let mut rec = Recorder::start();
    let mut acc = Account {
        mirror_ok: true,
        ..Account::default()
    };
    let slots = w.slots(seconds * TRACED_SHARE);
    let workers = w.study(0, scale, n_cpus).workers;
    let mut first: Option<FirstSlot> = None;
    let mut references = Vec::with_capacity(slots);
    for index in 0..slots {
        rec.set_study(index);
        let study_span = rec.enter("harness", "study");
        let slot = prepare(w, index, seed, scale, n_cpus)?;
        rec.add_sequence(&[
            ("data", "generate", slot.generate_s),
            ("data", "split", slot.split_s),
            ("core", "presearch", slot.presearch_s),
            ("core", "default_evaluation", slot.default_eval_s),
        ]);
        acc.generate_s += slot.generate_s;
        acc.split_s += slot.split_s;
        acc.setup_s += slot.presearch_s;

        let span = rec.enter("core", "fit");
        let reference = fit_checked(
            w,
            &slot,
            &paths(out_dir, w, index, "fit", w.observed),
            &mut out,
        )?;
        rec.exit(span);
        acc.reference_search_s += reference.search_s;
        acc.result_hits += reference.summary.result_cache_hits;
        acc.result_lookups +=
            reference.summary.result_cache_hits + reference.summary.result_cache_misses;
        acc.fe_hits += reference.summary.fe_cache_hits;
        acc.fe_lookups += reference.summary.fe_cache_hits + reference.summary.fe_cache_misses;
        acc.best_valid_loss.push(reference.summary.best_loss);
        acc.time_to_target_s.push(reference.time_to_target_s);
        acc.target_hits += reference.hit_target as usize;

        let mirror_paths = paths(out_dir, w, index, "mirror", w.observed);
        let mirror = mirrored_search(&slot, &mirror_paths, &mut rec, &mut acc)?;
        // A serial search is a function of its seed and data alone, so the
        // harness's loop must land on the reference fit's result bit for
        // bit; a pooled one only has to spend the same budget.
        let same = mirror.evaluations == reference.summary.evaluations
            && (workers > 1 || mirror.best_loss.to_bits() == reference.summary.best_loss.to_bits());
        acc.mirror_ok &= same;
        out.check(same, || {
            format!(
                "slot {index}: mirrored search ended at loss {} after {} evaluations, fit at {} after {}",
                mirror.best_loss,
                mirror.evaluations,
                reference.summary.best_loss,
                reference.summary.evaluations
            )
        });
        acc.search_wall_s += mirror.search_s;
        acc.fresh += mirror.rows.iter().filter(|r| !r.cached).count();
        acc.cached += mirror.rows.iter().filter(|r| r.cached).count();
        acc.failed += failed_trials(&mirror.rows);
        if workers > 1 {
            pool_account(&mirror.rows, &mut acc.pool);
        }

        layer_replay(&slot, &mirror.log, &mut rec, &mut acc)?;
        bo_account(&slot, &mirror.log, &mut rec, &mut acc)?;
        if index == 0 {
            first = Some(first_slot(
                w, &slot, &reference, n_cpus, out_dir, &mut rec, &mut out,
            )?);
        }
        references.push(reference);
        rec.exit(study_span);
    }
    let first = first.expect("a panel has at least one slot");
    check_quality(&references, scale, &mut out);

    let attributed = acc.replay.fe_fit_transform_s
        + acc.replay.fe_transform_valid_s
        + acc.replay.model_fit_s
        + acc.replay.model_predict_s;
    let unattributed = 1.0 - attributed / acc.busy_s;
    // At a twentieth of the budget (`--scale 0.05`) the whole account is a few
    // milliseconds and the share is noise.
    if workers == 1 && acc.busy_s >= 0.5 {
        out.check(unattributed.abs() <= UNATTRIBUTED_LIMIT, || {
            format!(
                "the layer replay accounts for {attributed:.3} s of {:.3} s inside trials (unattributed share {unattributed:.3})",
                acc.busy_s
            )
        });
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let (tail_pct, tail_ms) = tail(&acc.pull_ms);

    out.push("core.setup_s", acc.setup_s, "s");
    out.push("core.search_wall_s", acc.search_wall_s, "s");
    out.push("core.pulls", acc.pull_ms.len() as f64, "count");
    out.push("core.pull_ms_p50", median(&acc.pull_ms), "ms");
    out.push("core.pull_ms_tail", tail_ms, "ms");
    out.push("core.pull_tail_pct", tail_pct, "%");
    out.push("core.suggest_overhead_s", acc.suggest_overhead_s, "s");
    out.push(
        "core.suggest_share",
        acc.suggest_overhead_s / acc.search_wall_s,
        "ratio",
    );
    out.push("core.evaluate_busy_s", acc.busy_s, "s");
    out.push("core.trials_fresh", acc.fresh as f64, "count");
    out.push("core.trials_cached", acc.cached as f64, "count");
    out.push("core.trials_failed", acc.failed as f64, "count");
    out.push(
        "core.result_cache_hit_ratio",
        ratio(acc.result_hits, acc.result_lookups),
        "ratio",
    );
    out.push(
        "core.fe_cache_hit_ratio",
        ratio(acc.fe_hits, acc.fe_lookups),
        "ratio",
    );
    out.push("core.refit_s", acc.refit_s, "s");
    out.push("core.unattributed_share", unattributed, "ratio");
    out.push("core.best_valid_loss", median(&acc.best_valid_loss), "loss");
    out.push("core.time_to_target_s", median(&acc.time_to_target_s), "s");
    out.push(
        "core.target_hit_share",
        acc.target_hits as f64 / slots as f64,
        "ratio",
    );
    for (i, name) in [
        "bo.surrogate.fit_ms_n50",
        "bo.surrogate.fit_ms_n200",
        "bo.surrogate.fit_ms_n500",
    ]
    .into_iter()
    .enumerate()
    {
        out.push(name, median(&acc.surrogate_ms[i]), "ms");
    }
    out.push(
        "bo.acquisition.maximize_ms_n200",
        median(&acc.acquisition_ms),
        "ms",
    );
    for (i, name) in [
        "bo.smac.suggest_ms_n50",
        "bo.smac.suggest_ms_n200",
        "bo.smac.suggest_ms_n500",
    ]
    .into_iter()
    .enumerate()
    {
        out.push(name, median(&acc.smac_ms[i]), "ms");
    }
    out.push("fe.pipelines_fit", acc.replay.pipelines_fit as f64, "count");
    out.push("fe.fit_transform_s", acc.replay.fe_fit_transform_s, "s");
    out.push("fe.transform_valid_s", acc.replay.fe_transform_valid_s, "s");
    out.push("fe.failures", acc.replay.fe_failures as f64, "count");
    out.push("models.fits", acc.replay.model_fits as f64, "count");
    out.push("models.fit_s", acc.replay.model_fit_s, "s");
    out.push("models.predict_s", acc.replay.model_predict_s, "s");
    out.push("models.failures", acc.replay.model_failures as f64, "count");
    out.push("models.fit_s.tree_ensembles", acc.fit_s_by_family[0], "s");
    out.push("models.fit_s.linear", acc.fit_s_by_family[1], "s");
    out.push("models.fit_s.kernel", acc.fit_s_by_family[2], "s");
    out.push("models.fit_s.other", acc.fit_s_by_family[3], "s");
    out.push(
        "models.binned.cells_encoded",
        first.registry.cells_encoded as f64,
        "count",
    );
    out.push(
        "models.binned.hist_bytes_scanned",
        first.registry.hist_bytes_scanned as f64,
        "bytes",
    );
    out.push(
        "models.forest.n_jobs_speedup",
        first.forest_speedup,
        "ratio",
    );
    out.push(
        "data.bytes_gathered",
        first.registry.bytes_gathered as f64,
        "bytes",
    );
    out.push(
        "data.gathers_skipped",
        first.registry.gathers_skipped as f64,
        "count",
    );
    out.push("data.generate_s", acc.generate_s, "s");
    out.push("data.split_s", acc.split_s, "s");
    out.push("data.subsample_s", acc.replay.subsample_s, "s");
    out.push("exec.pool.batches", acc.pool.batches as f64, "count");
    out.push("exec.pool.batch_wall_s", acc.pool.batch_wall_s, "s");
    out.push("exec.pool.busy_s", acc.pool.busy_s, "s");
    out.push(
        "exec.pool.utilisation",
        if acc.pool.batch_wall_s > 0.0 {
            acc.pool.busy_s / (workers as f64 * acc.pool.batch_wall_s)
        } else {
            0.0
        },
        "ratio",
    );
    out.push("exec.pool.queue_wait_s", acc.pool.queue_wait_s, "s");
    out.push("exec.pool.dispatch_us", first.dispatch_s * 1e6, "us");
    out.push("exec.journal.rows", first.journal_rows as f64, "count");
    out.push("exec.journal.bytes", first.journal_bytes as f64, "bytes");
    out.push("exec.journal.write_s", first.journal_write_s, "s");
    out.push("exec.journal.resume_s", first.journal_resume_s, "s");
    out.push("exec.journal.replay_fit_s", first.replay_fit_s, "s");
    out.push(
        "obs.tracer.spans",
        first.program_trace_spans as f64,
        "count",
    );
    out.push(
        "obs.tracer.bytes",
        first.program_trace_bytes as f64,
        "bytes",
    );
    out.push(
        "obs.self_overhead_share",
        if first.registry.trial_cost_s > 0.0 {
            first.registry.self_overhead_s / first.registry.trial_cost_s
        } else {
            0.0
        },
        "ratio",
    );
    out.push(
        "obs.traced_fit_overhead_share",
        first.observed_overhead_share,
        "ratio",
    );
    out.push("trace.mirror_ok", acc.mirror_ok as u8 as f64, "count");
    out.push(
        "trace.harness_overhead_share",
        acc.search_wall_s / acc.reference_search_s - 1.0,
        "ratio",
    );
    out.push("trace.spans", rec.span_count() as f64, "count");
    out.push("trace.studies", slots as f64, "count");
    out.push("trace.n_cpus", n_cpus as f64, "count");
    out.push("trace.pool_workers", workers as f64, "count");

    rec.write_jsonl(&out_dir.join(format!("{}.trace.jsonl", w.name)))
        .map_err(|e| format!("write trace: {e}"))?;
    Ok(out)
}

/// How far the layer replay may be from the time the search spent inside
/// trials before the account counts as wrong (serial workloads). Replaying
/// millisecond trials is itself only good to about a tenth (`joint_small`
/// lands between -0.10 and 0.0), so the limit sits well clear of that.
const UNATTRIBUTED_LIMIT: f64 = 0.25;

/// The loop of `VolcanoML::fit`, made by the harness: pull on the root until
/// the evaluation budget is spent, then refit the winner. One span per pull;
/// what a pull spends outside trials is suggest overhead.
fn mirrored_search(
    slot: &Slot,
    fit_paths: &FitPaths,
    rec: &mut Recorder,
    acc: &mut Account,
) -> Res<Mirror> {
    let config = &slot.config;
    let span = rec.enter("core", "presearch");
    let (evaluator, mut root) = layers::presearch(config, &slot.search)?;
    rec.exit(span);
    let (journal, registry) = layers::attach_sinks(&evaluator, fit_paths)?;
    let pool = (config.workers > 1).then(|| layers::new_pool(config.workers));
    // `fit` stops on a long unbroken run of cache hits as well as on the
    // budget; the limit is its own.
    let saturation = 16usize.max(2 * config.workers);

    let search_span = rec.enter("core", "search");
    let mut rows_seen = 0usize;
    loop {
        let before = layers::progress(&evaluator);
        if before.evaluations >= config.evaluations || before.consecutive_cached >= saturation {
            break;
        }
        let k = config
            .workers
            .min(config.evaluations - before.evaluations)
            .max(1);
        let span = rec.enter("core", "pull");
        layers::pull(root.as_mut(), &evaluator, pool.as_ref(), k)?;
        let pull_s = rec.exit(span);
        acc.pull_ms.push(pull_s * 1e3);
        let busy_s = if pool.is_some() {
            // Workers overlap, so the time a pooled pull spends inside
            // trials is the union of its rows' intervals.
            let rows = layers::journal_rows(&journal);
            let union = busy_union(&rows[rows_seen..])
                .iter()
                .map(|(a, b)| b - a)
                .sum::<f64>();
            rows_seen = rows.len();
            union
        } else {
            layers::progress(&evaluator).busy_s - before.busy_s
        };
        acc.suggest_overhead_s += (pull_s - busy_s).max(0.0);
    }
    let (log, best) = layers::finish_search(&evaluator)?;
    rec.exit(search_span);
    acc.busy_s += layers::progress(&evaluator).busy_s;

    let span = rec.enter("core", "refit");
    layers::refit(&evaluator, &log[best].assignment, &slot.search)?;
    acc.refit_s += rec.exit(span);
    layers::flush_sinks(&evaluator, &journal);
    if let Some(registry) = &registry {
        acc.pool.queue_wait_s += layers::read_registry(registry).queue_wait_s;
    }
    let rows = layers::journal_rows(&journal);
    Ok(Mirror {
        search_s: rows.iter().map(|r| r.end_s).fold(0.0, f64::max),
        best_loss: log[best].loss,
        evaluations: layers::progress(&evaluator).evaluations,
        rows,
        log,
    })
}

/// The disjoint intervals during which at least one of `rows` was running.
fn busy_union(rows: &[TrialRecord]) -> Vec<(f64, f64)> {
    let mut intervals: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| !r.cached && r.end_s > r.start_s)
        .map(|r| (r.start_s, r.end_s))
        .collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut union: Vec<(f64, f64)> = Vec::new();
    for (start, end) in intervals {
        match union.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => union.push((start, end)),
        }
    }
    union
}

/// Pool figures from the journal: a batch is a stretch during which some
/// worker was busy; utilisation is worker-busy time over workers × that.
fn pool_account(rows: &[TrialRecord], pool: &mut PoolAccount) {
    let union = busy_union(rows);
    pool.batches += union.len();
    pool.batch_wall_s += union.iter().map(|(a, b)| b - a).sum::<f64>();
    pool.busy_s += rows
        .iter()
        .filter(|r| !r.cached)
        .map(|r| (r.end_s - r.start_s).max(0.0))
        .sum::<f64>();
}

fn layer_replay(
    slot: &Slot,
    log: &[layers::LogEntry],
    rec: &mut Recorder,
    acc: &mut Account,
) -> Res<()> {
    let span = rec.enter("harness", "layer_replay");
    let mut replay = layers::LayerReplay::new(&slot.config, &slot.search)?;
    for entry in log {
        let trial = rec.enter("core", "trial");
        let cost = replay.replay(entry)?;
        rec.add_sequence(&[
            ("fe", "fit_transform", cost.fe_fit_transform_s),
            ("fe", "transform_valid", cost.fe_transform_valid_s),
            ("models", "fit", cost.model_fit_s),
            ("models", "predict", cost.model_predict_s),
        ]);
        rec.exit(trial);
        let total = &mut acc.replay;
        total.pipelines_fit += cost.pipelines_fit;
        total.fe_fit_transform_s += cost.fe_fit_transform_s;
        total.fe_transform_valid_s += cost.fe_transform_valid_s;
        total.fe_failures += cost.fe_failures;
        total.model_fits += cost.model_fits;
        total.model_fit_s += cost.model_fit_s;
        total.model_predict_s += cost.model_predict_s;
        total.model_failures += cost.model_failures;
        total.subsample_s += cost.subsample_s;
        let bucket = match cost.family {
            Some(Family::TreeEnsembles) => 0,
            Some(Family::Linear) => 1,
            Some(Family::Kernel) => 2,
            Some(Family::Other) | None => 3,
        };
        acc.fit_s_by_family[bucket] += cost.model_fit_s;
    }
    rec.exit(span);
    Ok(())
}

/// Surrogate fit, acquisition and a whole model-based suggestion on the
/// study's own history at three history lengths; each the median of three.
fn bo_account(
    slot: &Slot,
    log: &[layers::LogEntry],
    rec: &mut Recorder,
    acc: &mut Account,
) -> Res<()> {
    let span = rec.enter("harness", "bo_account");
    let space = slot.config.space(slot.search.task);
    let seed = slot.config.search_seed;
    let thrice = |f: &dyn Fn(u64) -> f64| median(&[f(seed), f(seed + 1), f(seed + 2)]);
    for (i, n) in HISTORY_SIZES.into_iter().enumerate() {
        let history = layers::encode_history(&space, log, n)?;
        let fit_s = thrice(&|s| layers::surrogate_fit_s(&history, s));
        acc.surrogate_ms[i].push(fit_s * 1e3);
        let suggest_s = thrice(&|s| layers::smac_suggest_s(&history, s));
        acc.smac_ms[i].push(suggest_s * 1e3);
        if n == 200 {
            let acquisition_s = thrice(&|s| layers::acquisition_s(&history, s));
            acc.acquisition_ms.push(acquisition_s * 1e3);
        }
    }
    rec.exit(span);
    Ok(())
}

/// Measurements made once per run, on the first slot's data.
struct FirstSlot {
    registry: layers::RegistryReadout,
    program_trace_spans: usize,
    program_trace_bytes: u64,
    observed_overhead_share: f64,
    journal_rows: usize,
    journal_bytes: u64,
    journal_write_s: f64,
    journal_resume_s: f64,
    replay_fit_s: f64,
    dispatch_s: f64,
    forest_speedup: f64,
}

fn first_slot(
    w: &Workload,
    slot: &Slot,
    reference: &Fitted,
    n_cpus: usize,
    out_dir: &Path,
    rec: &mut Recorder,
    out: &mut RunOutput,
) -> Res<FirstSlot> {
    let index = slot.index;
    // One fit with journal, trace and metrics on and a registry the harness
    // can read; against a fit with only the journal on, the difference is
    // what the program's own observability costs.
    let span = rec.enter("obs", "observed_fit");
    let observed_paths = paths(out_dir, w, index, "observed", true);
    let (observed, registry) =
        layers::fit_with_registry(&slot.config, &slot.search, &observed_paths)?;
    rec.exit(span);
    out.attempted += 1;
    let plain_wall_s = if w.observed {
        let span = rec.enter("obs", "plain_fit");
        let plain = layers::fit(
            &slot.config,
            &slot.search,
            &paths(out_dir, w, index, "plain", false),
            false,
        )?;
        rec.exit(span);
        out.attempted += 1;
        plain.wall_s
    } else {
        reference.wall_s
    };
    if slot.config.workers == 1 {
        let same = observed.summary.best_loss.to_bits() == reference.summary.best_loss.to_bits()
            && observed.summary.evaluations == reference.summary.evaluations;
        out.check(same, || {
            format!(
                "slot {index}: two serial fits at one seed differ ({} after {} vs {} after {})",
                observed.summary.best_loss,
                observed.summary.evaluations,
                reference.summary.best_loss,
                reference.summary.evaluations
            )
        });
    }
    let program_trace = std::fs::read_to_string(
        observed_paths
            .trace
            .as_deref()
            .expect("observed fits are traced"),
    )
    .map_err(|e| format!("read program trace: {e}"))?;

    let span = rec.enter("exec", "journal");
    let copy = out_dir.join(format!("{}.slot{index}.rewrite.journal.jsonl", w.name));
    let journal_write_s = layers::journal_write_s(&reference.rows, &copy)?;
    let journal_bytes = std::fs::metadata(&copy)
        .map_err(|e| format!("stat journal: {e}"))?
        .len();
    let journal_resume_s = layers::journal_resume_s(&copy)?;
    // Resuming a finished study answers every trial from the journal, so the
    // fit that remains is the suggest path and the refit: crash-recovery
    // time. Only the workload that runs like the service measures it.
    let replay_fit_s = if w.observed {
        let resume_paths = FitPaths {
            journal: Some(copy),
            ..FitPaths::default()
        };
        out.attempted += 1;
        layers::fit(&slot.config, &slot.search, &resume_paths, true)?.wall_s
    } else {
        0.0
    };
    rec.exit(span);

    let span = rec.enter("exec", "pool_dispatch");
    let dispatch_s = layers::pool_dispatch_s(&layers::new_pool(slot.config.workers), 200);
    rec.exit(span);

    // The multi-core path inside one model fit is off in every workload
    // (`model_n_jobs = 1`); this records what it would buy on the large data.
    let forest_speedup = if w.tier == layers::Tier::Large {
        let span = rec.enter("models", "forest_n_jobs");
        let seed = slot.config.search_seed;
        let serial = layers::forest_fit_s(&slot.search, 1, seed)?;
        let parallel = layers::forest_fit_s(&slot.search, n_cpus, seed)?;
        rec.exit(span);
        serial / parallel
    } else {
        0.0
    };

    Ok(FirstSlot {
        registry,
        program_trace_spans: program_trace.lines().count(),
        program_trace_bytes: program_trace.len() as u64,
        observed_overhead_share: observed.wall_s / plain_wall_s - 1.0,
        journal_rows: reference.rows.len(),
        journal_bytes,
        journal_write_s,
        journal_resume_s,
        replay_fit_s,
        dispatch_s,
        forest_speedup,
    })
}
