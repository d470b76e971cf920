//! Run-report rendering: joins the trace stream (and optionally the trial
//! journal and a metrics snapshot) into a human-readable summary.
//!
//! The report is computed from the trace alone — `kind:"trial"` spans carry
//! arm, path, worker, timing, and loss. Supplying the journal additionally
//! verifies the join invariant (every journal row matches exactly one trial
//! span via the `trial` id); supplying the metrics snapshot adds the
//! cache-efficiency and histogram summaries.

use crate::json::{parse_object, JsonValue};
use std::collections::BTreeMap;

/// One parsed JSONL line.
pub type Row = BTreeMap<String, JsonValue>;

/// Parses a JSONL document; fails on the first torn/corrupt line.
pub fn parse_jsonl(text: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_object(line) {
            Some(row) => rows.push(row),
            None => return Err(format!("line {}: unparseable JSON: {line}", i + 1)),
        }
    }
    Ok(rows)
}

/// Parses a JSONL document from a *live* (possibly still-growing) stream.
/// An unparseable final line that lacks its trailing newline is a writer
/// caught mid-append: it is skipped and counted in the returned tally.
/// Corruption anywhere else is still an error.
pub fn parse_jsonl_live(text: &str) -> Result<(Vec<Row>, usize), String> {
    let terminated = text.ends_with('\n');
    let lines: Vec<&str> = text.lines().collect();
    let mut rows = Vec::new();
    let mut skipped = 0usize;
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_object(line) {
            Some(row) => rows.push(row),
            None if i + 1 == lines.len() && !terminated => skipped += 1,
            None => return Err(format!("line {}: unparseable JSON: {line}", i + 1)),
        }
    }
    Ok((rows, skipped))
}

fn get_str<'a>(row: &'a Row, key: &str) -> &'a str {
    row.get(key).and_then(|v| v.as_str()).unwrap_or("")
}

fn get_f64(row: &Row, key: &str) -> f64 {
    row.get(key).and_then(|v| v.as_f64()).unwrap_or(f64::NAN)
}

fn get_i64(row: &Row, key: &str) -> i64 {
    row.get(key).and_then(|v| v.as_i64()).unwrap_or(-1)
}

fn fmt_loss(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:.4}")
    }
}

#[derive(Default)]
struct ArmStats {
    trials: usize,
    cost: f64,
    best: f64,
    last: f64,
    eliminated: bool,
}

/// Renders the full run report. `trace_text` is required; `journal_text`
/// and `metrics_text` unlock the join check and cache sections. Parsing is
/// strict: any torn line is an error (a completed run's files must be
/// whole). For a run still in progress use [`render_live_report`].
pub fn render_report(
    trace_text: &str,
    journal_text: Option<&str>,
    metrics_text: Option<&str>,
) -> Result<String, String> {
    let events = parse_jsonl(trace_text).map_err(|e| format!("trace: {e}"))?;
    let journal = journal_text
        .map(|t| parse_jsonl(t).map_err(|e| format!("journal: {e}")))
        .transpose()?;
    render_rows(&events, journal.as_deref(), metrics_text, None)
}

/// Renders a report over a possibly-live run: torn final lines in the trace
/// and journal are tolerated (the run's writer may be mid-append), and a
/// status header marks the run `running` or `complete` — what a service's
/// progress endpoint serves while a study executes.
pub fn render_live_report(
    trace_text: &str,
    journal_text: Option<&str>,
    metrics_text: Option<&str>,
    complete: bool,
) -> Result<String, String> {
    let (events, torn_trace) =
        parse_jsonl_live(trace_text).map_err(|e| format!("trace: {e}"))?;
    let mut torn = torn_trace;
    let journal = match journal_text {
        Some(t) => {
            let (rows, torn_journal) =
                parse_jsonl_live(t).map_err(|e| format!("journal: {e}"))?;
            torn += torn_journal;
            Some(rows)
        }
        None => None,
    };
    let mut status = format!(
        "status: {}",
        if complete { "complete" } else { "running (partial)" }
    );
    if torn > 0 {
        status.push_str(&format!("  ({torn} in-flight line(s) skipped)"));
    }
    render_rows(&events, journal.as_deref(), metrics_text, Some(status))
}

/// Shared rendering over pre-parsed rows; `status` prepends a run-status
/// header (live reports only).
fn render_rows(
    events: &[Row],
    journal: Option<&[Row]>,
    metrics_text: Option<&str>,
    status: Option<String>,
) -> Result<String, String> {
    let trials: Vec<&Row> = events
        .iter()
        .filter(|e| get_str(e, "kind") == "trial")
        .collect();
    let eliminations: Vec<&Row> = events
        .iter()
        .filter(|e| get_str(e, "kind") == "eliminate")
        .collect();

    let mut out = String::new();
    out.push_str("VolcanoML run report\n");
    out.push_str("====================\n\n");
    if let Some(status) = &status {
        out.push_str(status);
        out.push_str("\n\n");
    }
    let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
    for e in events {
        *kinds.entry(get_str(e, "kind")).or_insert(0) += 1;
    }
    out.push_str(&format!("trace events: {}", events.len()));
    if !kinds.is_empty() {
        let parts: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
        out.push_str(&format!("  ({})", parts.join(", ")));
    }
    out.push('\n');

    // ── Journal ↔ trace join check ──────────────────────────────────────
    // Schema-v2 journals interleave event rows (space expansions) with
    // trial rows; only trial rows (no "event" key) participate in the join.
    if let Some(journal) = journal {
        let trial_rows: Vec<&Row> = journal
            .iter()
            .filter(|r| !r.contains_key("event"))
            .collect();
        let mut span_trials: BTreeMap<i64, usize> = BTreeMap::new();
        for t in &trials {
            *span_trials.entry(get_i64(t, "trial")).or_insert(0) += 1;
        }
        let mut joined = 0usize;
        let mut orphans = Vec::new();
        let mut dupes = Vec::new();
        for row in &trial_rows {
            let id = get_i64(row, "trial");
            match span_trials.get(&id) {
                Some(1) => joined += 1,
                Some(_) => dupes.push(id),
                None => orphans.push(id),
            }
        }
        out.push_str(&format!(
            "journal rows: {}  joined to trace: {}",
            trial_rows.len(),
            joined
        ));
        if !orphans.is_empty() {
            out.push_str(&format!("  UNMATCHED: {orphans:?}"));
        }
        if !dupes.is_empty() {
            out.push_str(&format!("  DUPLICATE SPANS: {dupes:?}"));
        }
        out.push('\n');
    }
    out.push('\n');

    // ── Space growth ────────────────────────────────────────────────────
    // Expansion timeline plus trials-per-stage, from the journal's
    // "event":"expansion" rows (incremental space construction only).
    if let Some(journal) = journal {
        let expansions: Vec<&Row> = journal
            .iter()
            .filter(|r| get_str(r, "event") == "expansion")
            .collect();
        if !expansions.is_empty() {
            let trial_ids: Vec<i64> = journal
                .iter()
                .filter(|r| !r.contains_key("event"))
                .map(|r| get_i64(r, "trial"))
                .collect();
            out.push_str("Space growth\n");
            out.push_str("------------\n");
            let mut prev_boundary: i64 = 0;
            for e in &expansions {
                let boundary = get_i64(e, "trial");
                let stage_trials = trial_ids
                    .iter()
                    .filter(|&&id| id >= prev_boundary && id < boundary)
                    .count();
                out.push_str(&format!(
                    "stage {} <- {:<20} at trial {:>4}  trigger_eui={:.6}  ({} trials in stage {})\n",
                    get_i64(e, "stage"),
                    get_str(e, "name"),
                    boundary,
                    get_f64(e, "trigger_eui"),
                    stage_trials,
                    get_i64(e, "stage") - 1,
                ));
                prev_boundary = boundary;
            }
            let final_stage = expansions
                .last()
                .map(|e| get_i64(e, "stage"))
                .unwrap_or(0);
            let tail = trial_ids.iter().filter(|&&id| id >= prev_boundary).count();
            out.push_str(&format!(
                "final stage {final_stage}: {tail} trials\n"
            ));
            out.push('\n');
        }
    }

    // ── Per-arm convergence ─────────────────────────────────────────────
    let mut arms: BTreeMap<String, ArmStats> = BTreeMap::new();
    for t in &trials {
        let arm = get_str(t, "arm");
        let key = if arm.is_empty() { "(root)" } else { arm };
        let s = arms.entry(key.to_string()).or_default();
        let loss = get_f64(t, "loss");
        let cost = get_f64(t, "cost");
        s.trials += 1;
        if cost.is_finite() {
            s.cost += cost;
        }
        if loss.is_finite() {
            s.last = loss;
            if s.trials == 1 || !s.best.is_finite() || loss < s.best {
                s.best = loss;
            }
        } else if s.trials == 1 {
            s.best = f64::NAN;
            s.last = f64::NAN;
        }
    }
    for e in &eliminations {
        if let Some(s) = arms.get_mut(get_str(e, "arm")) {
            s.eliminated = true;
        }
    }
    out.push_str("Per-arm convergence\n");
    out.push_str("-------------------\n");
    if arms.is_empty() {
        out.push_str("(no trial spans)\n");
    } else {
        out.push_str(&format!(
            "{:<28} {:>7} {:>10} {:>10} {:>10}  status\n",
            "arm", "trials", "cost_s", "best", "last"
        ));
        for (arm, s) in &arms {
            out.push_str(&format!(
                "{:<28} {:>7} {:>10.3} {:>10} {:>10}  {}\n",
                arm,
                s.trials,
                s.cost,
                fmt_loss(s.best),
                fmt_loss(s.last),
                if s.eliminated { "eliminated" } else { "active" }
            ));
        }
    }
    out.push('\n');

    // ── Budget allocation by block-tree path ────────────────────────────
    let mut by_path: BTreeMap<String, (usize, f64)> = BTreeMap::new();
    let mut total_cost = 0.0f64;
    for t in &trials {
        let path = get_str(t, "path");
        let key = if path.is_empty() { "(unknown)" } else { path };
        let cost = get_f64(t, "cost");
        let e = by_path.entry(key.to_string()).or_insert((0, 0.0));
        e.0 += 1;
        if cost.is_finite() {
            e.1 += cost;
            total_cost += cost;
        }
    }
    out.push_str("Budget allocation by block path\n");
    out.push_str("-------------------------------\n");
    if by_path.is_empty() {
        out.push_str("(no trial spans)\n");
    } else {
        out.push_str(&format!(
            "{:<44} {:>7} {:>10} {:>6}\n",
            "path", "trials", "cost_s", "share"
        ));
        for (path, (n, cost)) in &by_path {
            let share = if total_cost > 0.0 {
                100.0 * cost / total_cost
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<44} {:>7} {:>10.3} {:>5.1}%\n",
                path, n, cost, share
            ));
        }
        out.push_str(&format!(
            "{:<44} {:>7} {:>10.3} 100.0%\n",
            "TOTAL",
            trials.len(),
            total_cost
        ));
    }
    out.push('\n');

    // ── Cost efficiency ─────────────────────────────────────────────────
    // How much of the run's trial compute actually bought improvement: an
    // incumbent walk in span-start order tells us when the final best loss
    // was reached and how much cost was sunk after it (exploration tail),
    // plus how much went to failed (non-finite-loss) trials.
    out.push_str("Cost efficiency\n");
    out.push_str("---------------\n");
    if trials.is_empty() {
        out.push_str("(no trial spans)\n");
    } else {
        let mut ordered: Vec<&&Row> = trials.iter().collect();
        ordered.sort_by(|a, b| {
            let (ta, tb) = (get_f64(a, "t_s"), get_f64(b, "t_s"));
            ta.partial_cmp(&tb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(get_i64(a, "trial").cmp(&get_i64(b, "trial")))
        });
        let mut cum = 0.0f64;
        let mut best = f64::INFINITY;
        let mut cost_to_best = 0.0f64;
        let mut failed = 0usize;
        let mut failed_cost = 0.0f64;
        for t in &ordered {
            let loss = get_f64(t, "loss");
            let cost = get_f64(t, "cost");
            if cost.is_finite() && cost > 0.0 {
                cum += cost;
            }
            if loss.is_finite() {
                if loss < best {
                    best = loss;
                    cost_to_best = cum;
                }
            } else {
                failed += 1;
                if cost.is_finite() && cost > 0.0 {
                    failed_cost += cost;
                }
            }
        }
        if best.is_finite() && cum > 0.0 {
            out.push_str(&format!(
                "best loss {} reached after {:.3}s of trial compute ({:.1}% of {:.3}s total)\n",
                fmt_loss(best),
                cost_to_best,
                100.0 * cost_to_best / cum,
                cum
            ));
            out.push_str(&format!(
                "cost after last improvement: {:.3}s ({:.1}%)\n",
                cum - cost_to_best,
                100.0 * (cum - cost_to_best) / cum
            ));
            out.push_str(&format!(
                "mean trial cost: {:.3}s over {} trials\n",
                cum / ordered.len() as f64,
                ordered.len()
            ));
        } else {
            out.push_str("(no finite-loss trials with positive cost)\n");
        }
        if failed > 0 {
            out.push_str(&format!(
                "failed trials: {failed} costing {failed_cost:.3}s\n"
            ));
        }
    }
    out.push('\n');

    // ── Pareto front: loss vs. training cost ────────────────────────────
    // The non-dominated configurations over (loss, per-trial training
    // cost): the trade-off curve a cost-sensitive deployment picks from.
    // Distinct configurations are keyed by assignment digest (min loss,
    // then min cost, wins per digest); non-finite points are excluded.
    {
        let mut by_digest: BTreeMap<String, (f64, f64, String)> = BTreeMap::new();
        for t in &trials {
            let loss = get_f64(t, "loss");
            let cost = get_f64(t, "cost");
            if !loss.is_finite() || !cost.is_finite() || cost < 0.0 {
                continue;
            }
            let digest = get_str(t, "digest");
            if digest.is_empty() {
                continue;
            }
            let arm = get_str(t, "arm").to_string();
            by_digest
                .entry(digest.to_string())
                .and_modify(|e| {
                    if loss < e.0 || (loss == e.0 && cost < e.1) {
                        *e = (loss, cost, arm.clone());
                    }
                })
                .or_insert((loss, cost, arm));
        }
        let mut points: Vec<(&String, &(f64, f64, String))> = by_digest.iter().collect();
        points.sort_by(|a, b| {
            a.1 .0
                .partial_cmp(&b.1 .0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1 .1.partial_cmp(&b.1 .1).unwrap_or(std::cmp::Ordering::Equal))
        });
        let front: Vec<&(&String, &(f64, f64, String))> = points
            .iter()
            .filter(|(_, a)| {
                !points.iter().any(|(_, b)| {
                    b.0 <= a.0 && b.1 <= a.1 && (b.0 < a.0 || b.1 < a.1)
                })
            })
            .collect();
        if !front.is_empty() {
            out.push_str("Pareto front (loss vs training cost)\n");
            out.push_str("------------------------------------\n");
            out.push_str(&format!(
                "{:<18} {:>10} {:>10}  arm\n",
                "digest", "loss", "cost_s"
            ));
            const MAX_ROWS: usize = 12;
            for (digest, (loss, cost, arm)) in front.iter().take(MAX_ROWS) {
                out.push_str(&format!(
                    "{:<18} {:>10} {:>10.3}  {}\n",
                    digest,
                    fmt_loss(*loss),
                    cost,
                    if arm.is_empty() { "(root)" } else { arm.as_str() }
                ));
            }
            if front.len() > MAX_ROWS {
                out.push_str(&format!("({} more not shown)\n", front.len() - MAX_ROWS));
            }
            out.push_str(&format!(
                "{} of {} distinct configurations are non-dominated\n",
                front.len(),
                points.len()
            ));
            out.push('\n');
        }
    }

    // ── Elimination decisions ───────────────────────────────────────────
    out.push_str("Arm eliminations (EU interval dominance)\n");
    out.push_str("----------------------------------------\n");
    if eliminations.is_empty() {
        out.push_str("(none)\n");
    } else {
        for e in &eliminations {
            out.push_str(&format!(
                "t={:>8.3}s  {:<24} eu=[{}, {}]  {}\n",
                get_f64(e, "t_s"),
                get_str(e, "arm"),
                fmt_loss(get_f64(e, "eu_opt")),
                fmt_loss(get_f64(e, "eu_pess")),
                get_str(e, "detail")
            ));
        }
    }
    out.push('\n');

    // ── Rung occupancy (multi-fidelity schedulers) ──────────────────────
    // Rendered only when at least one trial carries scheduling attribution
    // (`rung >= 0`): full-fidelity engines leave the section out entirely.
    let rung_trials: Vec<&&Row> = trials.iter().filter(|t| get_i64(t, "rung") >= 0).collect();
    if !rung_trials.is_empty() {
        #[derive(Default)]
        struct RungStats {
            fidelity: f64,
            trials: usize,
            brackets: std::collections::BTreeSet<i64>,
            best: f64,
        }
        let mut rungs: BTreeMap<i64, RungStats> = BTreeMap::new();
        for t in &rung_trials {
            let s = rungs.entry(get_i64(t, "rung")).or_default();
            s.fidelity = get_f64(t, "fidelity");
            s.trials += 1;
            s.brackets.insert(get_i64(t, "bracket"));
            let loss = get_f64(t, "loss");
            if loss.is_finite() && (s.trials == 1 || !s.best.is_finite() || loss < s.best) {
                s.best = loss;
            } else if s.trials == 1 && !loss.is_finite() {
                s.best = f64::NAN;
            }
        }
        out.push_str("Rung occupancy (multi-fidelity)\n");
        out.push_str("-------------------------------\n");
        out.push_str(&format!(
            "{:<6} {:>9} {:>7} {:>9} {:>10}\n",
            "rung", "fidelity", "trials", "brackets", "best"
        ));
        for (rung, s) in &rungs {
            out.push_str(&format!(
                "{:<6} {:>9.4} {:>7} {:>9} {:>10}\n",
                rung,
                s.fidelity,
                s.trials,
                s.brackets.len(),
                fmt_loss(s.best)
            ));
        }
        let untagged = trials.len() - rung_trials.len();
        if untagged > 0 {
            out.push_str(&format!(
                "({untagged} trials outside the bracket schedule: seeds/warm starts)\n"
            ));
        }
        out.push('\n');
    }

    // ── Worker utilization timeline ─────────────────────────────────────
    out.push_str("Worker utilization\n");
    out.push_str("------------------\n");
    let mut workers: BTreeMap<i64, Vec<(f64, f64)>> = BTreeMap::new();
    let mut t_max = 0.0f64;
    for t in &trials {
        let w = get_i64(t, "worker");
        if w < 0 {
            continue;
        }
        let start = get_f64(t, "t_s");
        let dur = get_f64(t, "dur_s").max(0.0);
        if start.is_finite() {
            workers.entry(w).or_default().push((start, dur));
            t_max = t_max.max(start + dur);
        }
    }
    if workers.is_empty() || t_max <= 0.0 {
        out.push_str("(no worker-attributed trials)\n");
    } else {
        const COLS: usize = 60;
        for (w, windows) in &workers {
            let busy: f64 = windows.iter().map(|(_, d)| d).sum();
            let mut lane = vec![b'.'; COLS];
            for (start, dur) in windows {
                let a = ((start / t_max) * COLS as f64) as usize;
                let b = (((start + dur) / t_max) * COLS as f64).ceil() as usize;
                for c in lane.iter_mut().take(b.min(COLS)).skip(a.min(COLS - 1)) {
                    *c = b'#';
                }
            }
            out.push_str(&format!(
                "worker {w:>2} [{}] busy {:>5.1}%  ({} trials, {:.3}s)\n",
                String::from_utf8_lossy(&lane),
                100.0 * busy / t_max,
                windows.len(),
                busy
            ));
        }
        out.push_str(&format!("timeline spans 0..{t_max:.3}s, '#' = busy\n"));
    }
    out.push('\n');

    // ── Cache efficiency ────────────────────────────────────────────────
    out.push_str("Cache efficiency\n");
    out.push_str("----------------\n");
    let mut wrote_cache = false;
    if let Some(metrics_text) = metrics_text {
        let doc = parse_object(metrics_text)
            .ok_or_else(|| "metrics: unparseable JSON".to_string())?;
        if let Some(counters) = doc.get("counters").and_then(|v| v.as_obj()) {
            for (label, hits_key, miss_key) in [
                ("result cache", "cache.result.hits", "cache.result.misses"),
                ("fe cache", "cache.fe.hits", "cache.fe.misses"),
            ] {
                let hits = counters.get(hits_key).and_then(|v| v.as_i64()).unwrap_or(0);
                let misses = counters.get(miss_key).and_then(|v| v.as_i64()).unwrap_or(0);
                let total = hits + misses;
                if total > 0 {
                    out.push_str(&format!(
                        "{label:<13} {hits:>6} hits / {total:>6} lookups  ({:.1}% hit rate)\n",
                        100.0 * hits as f64 / total as f64
                    ));
                    wrote_cache = true;
                }
            }
            // Zero-copy dataset views: how much gather traffic the run's
            // trials avoided (full-view borrows) vs. paid (index-view
            // materializations on FE-cache misses).
            let skipped = counters
                .get("data.gathers_skipped")
                .and_then(|v| v.as_i64())
                .unwrap_or(0);
            let bytes = counters
                .get("data.bytes_gathered")
                .and_then(|v| v.as_i64())
                .unwrap_or(0);
            if skipped > 0 || bytes > 0 {
                out.push_str(&format!(
                    "zero-copy     {skipped:>6} gathers skipped, {:.2} MiB gathered\n",
                    bytes as f64 / (1024.0 * 1024.0)
                ));
                wrote_cache = true;
            }
            // Histogram-kernel bandwidth: bin-code bytes the per-node fills
            // actually read, and how often the flat arenas / feature-
            // parallel merge paths were exercised.
            let hist_bytes = counters
                .get("binned.hist_bytes_scanned")
                .and_then(|v| v.as_i64())
                .unwrap_or(0);
            let reuses = counters
                .get("binned.arena_reuses")
                .and_then(|v| v.as_i64())
                .unwrap_or(0);
            let merges = counters
                .get("binned.feature_parallel_merges")
                .and_then(|v| v.as_i64())
                .unwrap_or(0);
            if hist_bytes > 0 || reuses > 0 {
                out.push_str(&format!(
                    "hist kernel   {:.2} MiB codes scanned, {reuses} arena reuses, \
                     {merges} feature-parallel merges\n",
                    hist_bytes as f64 / (1024.0 * 1024.0)
                ));
                wrote_cache = true;
            }
        }
    }
    if !wrote_cache {
        // Fall back to the cached/fe_cached flags on trial spans.
        let cached = trials
            .iter()
            .filter(|t| get_str(t, "detail").contains("cached"))
            .count();
        if trials.is_empty() {
            out.push_str("(no data)\n");
        } else {
            out.push_str(&format!(
                "trial-level: {cached} of {} trials hit a cache ({:.1}%)\n",
                trials.len(),
                100.0 * cached as f64 / trials.len() as f64
            ));
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::SpanEvent;

    fn trial_line(trial_id: u64, arm: &str, path: &str, worker: usize, loss: f64, cost: f64) -> String {
        let mut e = SpanEvent::new("trial", path);
        e.span_id = 100 + trial_id;
        e.arm = arm.to_string();
        e.t_s = trial_id as f64 * 0.1;
        e.dur_s = cost;
        e.trial_id = trial_id as i64;
        e.digest = format!("{:016x}", trial_id * 7919);
        e.loss = loss;
        e.cost = cost;
        e.worker = worker as i64;
        e.to_json()
    }

    fn sample_trace() -> String {
        let mut lines = vec![
            trial_line(0, "algorithm=0", "root/algorithm=0", 0, 0.5, 0.2),
            trial_line(1, "algorithm=1", "root/algorithm=1", 1, 0.3, 0.4),
            trial_line(2, "algorithm=0", "root/algorithm=0", 0, 0.45, 0.2),
        ];
        let mut e = SpanEvent::new("eliminate", "root");
        e.span_id = 999;
        e.arm = "algorithm=0".to_string();
        e.t_s = 1.0;
        e.eu_optimistic = 0.4;
        e.eu_pessimistic = 0.6;
        e.detail = "dominated by algorithm=1".to_string();
        lines.push(e.to_json());
        lines.join("\n")
    }

    #[test]
    fn report_sections_render_from_trace() {
        let report = render_report(&sample_trace(), None, None).unwrap();
        assert!(report.contains("Per-arm convergence"));
        assert!(report.contains("algorithm=0"));
        assert!(report.contains("eliminated"));
        assert!(report.contains("algorithm=1"));
        assert!(report.contains("Budget allocation by block path"));
        assert!(report.contains("root/algorithm=1"));
        assert!(report.contains("Worker utilization"));
        assert!(report.contains("worker  0"));
        assert!(report.contains("dominated by algorithm=1"));
    }

    #[test]
    fn rung_occupancy_renders_only_for_bracket_scheduled_trials() {
        // No rung-tagged trials → no section.
        let report = render_report(&sample_trace(), None, None).unwrap();
        assert!(!report.contains("Rung occupancy"));

        // Mixed run: two rung-0 trials from two brackets, one rung-1
        // promotion, one untagged seed.
        let mut lines = Vec::new();
        for (id, rung, bracket, fid, loss) in [
            (0i64, 0i64, 0i64, 1.0 / 9.0, 0.5),
            (1, 0, 1, 1.0 / 9.0, 0.4),
            (2, 1, 0, 1.0 / 3.0, 0.3),
            (3, -1, -1, 1.0, 0.25),
        ] {
            let mut e = SpanEvent::new("trial", "root");
            e.span_id = 100 + id as u64;
            e.trial_id = id;
            e.fidelity = fid;
            e.rung = rung;
            e.bracket = bracket;
            e.loss = loss;
            e.cost = 0.1;
            e.worker = 0;
            lines.push(e.to_json());
        }
        let report = render_report(&lines.join("\n"), None, None).unwrap();
        assert!(report.contains("Rung occupancy (multi-fidelity)"));
        // Rung 0 saw 2 trials across 2 brackets; rung 1 saw the promotion.
        let rung0 = report
            .lines()
            .find(|l| l.starts_with("0 "))
            .expect("rung 0 row");
        assert!(rung0.contains('2'), "{rung0}");
        assert!(report.contains("(1 trials outside the bracket schedule"));
    }

    #[test]
    fn cost_efficiency_section_tracks_incumbent_walk() {
        // Spans start at t_s = 0.0, 0.1, 0.2 → incumbent walk visits them
        // in id order. Best loss 0.3 lands on trial 1, so the cost sunk
        // after the last improvement is trial 2's 0.2s.
        let report = render_report(&sample_trace(), None, None).unwrap();
        assert!(report.contains("Cost efficiency"), "{report}");
        assert!(
            report.contains("best loss 0.3000 reached after 0.600s"),
            "{report}"
        );
        assert!(
            report.contains("cost after last improvement: 0.200s"),
            "{report}"
        );
        assert!(report.contains("mean trial cost"), "{report}");
        assert!(!report.contains("failed trials:"), "{report}");

        // A NaN-loss trial is counted (with its cost) as failed.
        let text = format!(
            "{}\n{}",
            sample_trace(),
            trial_line(7, "algorithm=0", "root/algorithm=0", 0, f64::NAN, 0.5)
        );
        let report = render_report(&text, None, None).unwrap();
        assert!(report.contains("failed trials: 1 costing 0.500s"), "{report}");
    }

    #[test]
    fn pareto_front_keeps_only_non_dominated_configs() {
        // trial 0: loss 0.5 cost 0.2 — dominated by trial 2 (0.45 @ 0.2).
        // trial 1: loss 0.3 cost 0.4 — on the front (best loss).
        // trial 2: loss 0.45 cost 0.2 — on the front (cheapest).
        let report = render_report(&sample_trace(), None, None).unwrap();
        assert!(report.contains("Pareto front (loss vs training cost)"), "{report}");
        assert!(
            report.contains("2 of 3 distinct configurations are non-dominated"),
            "{report}"
        );
        let front_block = report
            .split("Pareto front")
            .nth(1)
            .unwrap()
            .split("\n\n")
            .next()
            .unwrap();
        assert!(front_block.contains("0.3000"), "{front_block}");
        assert!(front_block.contains("0.4500"), "{front_block}");
        assert!(!front_block.contains("0.5000"), "{front_block}");
    }

    #[test]
    fn pareto_front_dedups_repeat_digests_and_skips_nonfinite() {
        // Two spans share a digest (a cache-hit re-evaluation): only the
        // best (loss, cost) per digest enters the front computation. A
        // NaN-loss span never does.
        let mk = |id: u64, digest: u64, loss: f64, cost: f64| {
            let mut e = SpanEvent::new("trial", "root");
            e.span_id = 100 + id;
            e.trial_id = id as i64;
            e.digest = format!("{digest:016x}");
            e.loss = loss;
            e.cost = cost;
            e.worker = 0;
            e.to_json()
        };
        let text = [
            mk(0, 0xaaaa, 0.4, 0.3),
            mk(1, 0xaaaa, 0.4, 0.1), // same config, cheaper rerun wins
            mk(2, 0xbbbb, f64::NAN, 0.2),
            mk(3, 0xcccc, 0.2, 0.5),
        ]
        .join("\n");
        let report = render_report(&text, None, None).unwrap();
        assert!(
            report.contains("2 of 2 distinct configurations are non-dominated"),
            "{report}"
        );
        assert!(report.contains("0.100"), "{report}");
        assert!(!report.contains("0.300  "), "{report}");
    }

    #[test]
    fn journal_join_check_counts_matches_and_orphans() {
        let journal = "\
{\"trial\":0,\"loss\":0.5}\n{\"trial\":1,\"loss\":0.3}\n{\"trial\":9,\"loss\":0.1}";
        let report = render_report(&sample_trace(), Some(journal), None).unwrap();
        assert!(report.contains("journal rows: 3  joined to trace: 2"));
        assert!(report.contains("UNMATCHED: [9]"));
    }

    #[test]
    fn space_growth_section_renders_timeline_and_stage_counts() {
        // Two trial rows in stage 0, then an expansion, then one more trial.
        // Expansion rows must be excluded from the join check and rendered
        // in their own section with trials-per-stage tallies.
        let journal = "\
{\"trial\":0,\"loss\":0.5}\n\
{\"trial\":1,\"loss\":0.3}\n\
{\"schema\":2,\"event\":\"expansion\",\"stage\":1,\"name\":\"transform_stage\",\
\"trigger_eui\":0.0004,\"trial\":2}\n\
{\"trial\":9,\"loss\":0.1}";
        let report = render_report(&sample_trace(), Some(journal), None).unwrap();
        assert!(report.contains("journal rows: 3  joined to trace: 2"), "{report}");
        assert!(report.contains("Space growth"), "{report}");
        assert!(report.contains("transform_stage"), "{report}");
        assert!(report.contains("(2 trials in stage 0)"), "{report}");
        assert!(report.contains("final stage 1: 1 trials"), "{report}");
    }

    #[test]
    fn fixed_space_report_has_no_growth_section() {
        let journal = "{\"trial\":0,\"loss\":0.5}";
        let report = render_report(&sample_trace(), Some(journal), None).unwrap();
        assert!(!report.contains("Space growth"), "{report}");
    }

    #[test]
    fn metrics_section_reports_hit_rates() {
        let metrics = "{\"counters\":{\"cache.result.hits\":3,\"cache.result.misses\":1},\
                       \"gauges\":{},\"histograms\":{}}";
        let report = render_report(&sample_trace(), None, Some(metrics)).unwrap();
        assert!(report.contains("result cache"));
        assert!(report.contains("75.0% hit rate"));
    }

    #[test]
    fn metrics_section_reports_zero_copy_gathers() {
        let metrics = "{\"counters\":{\"data.gathers_skipped\":42,\
                       \"data.bytes_gathered\":1048576},\
                       \"gauges\":{},\"histograms\":{}}";
        let report = render_report(&sample_trace(), None, Some(metrics)).unwrap();
        assert!(report.contains("zero-copy"), "{report}");
        assert!(report.contains("42 gathers skipped"), "{report}");
        assert!(report.contains("1.00 MiB gathered"), "{report}");
    }

    #[test]
    fn torn_trace_line_is_an_error() {
        let text = format!("{}\n{{\"span\":12,\"kin", sample_trace());
        let err = render_report(&text, None, None).unwrap_err();
        assert!(err.contains("unparseable"), "{err}");
    }

    #[test]
    fn live_report_tolerates_torn_tail_and_marks_running() {
        let text = format!("{}\n{{\"span\":12,\"kin", sample_trace());
        let report = render_live_report(&text, None, None, false).unwrap();
        assert!(report.contains("status: running (partial)"), "{report}");
        assert!(report.contains("1 in-flight line(s) skipped"), "{report}");
        assert!(report.contains("Per-arm convergence"));
        assert!(report.contains("algorithm=1"));

        let done = render_live_report(&sample_trace(), None, None, true).unwrap();
        assert!(done.contains("status: complete"), "{done}");
        assert!(!done.contains("skipped"), "{done}");
    }

    #[test]
    fn live_report_still_rejects_midfile_corruption() {
        let text = format!("{{\"span\":12,\"kin\n{}", sample_trace());
        let err = render_live_report(&text, None, None, false).err().unwrap();
        assert!(err.contains("unparseable"), "{err}");
    }

    #[test]
    fn live_report_joins_torn_journal() {
        let journal = "{\"trial\":0,\"loss\":0.5}\n{\"trial\":1,\"lo";
        let report =
            render_live_report(&sample_trace(), Some(journal), None, false).unwrap();
        assert!(report.contains("journal rows: 1  joined to trace: 1"), "{report}");
    }
}
