//! Crash-resume property tests: replay-by-redrive must reproduce the
//! uninterrupted run's scheduling state bitwise.
//!
//! Engine schedules are deterministic functions of the seed and the observed
//! trial outcomes — losses always, and in cost-aware mode the journaled
//! wall-clock costs too — so a resumed fit that replays a journal
//! re-derives the same block tree, bracket occupancy, EU intervals, and
//! incumbent — which `StudyState` captures as canonical bitwise lines.

use std::path::Path;

use volcanoml_core::plans::{p1_joint, p3_volcano};
use volcanoml_core::{EngineKind, SpaceGrowth, SpaceTier, VolcanoML, VolcanoMlOptions};
use volcanoml_data::synthetic::make_moons;
use volcanoml_data::Task;
use volcanoml_exec::{ExpansionRecord, JournalRow, TrialRecord};
use volcanoml_integration::{strip_costs, tmp_dir};

fn options(
    engine: EngineKind,
    evals: usize,
    workers: usize,
    journal: &Path,
    resume: bool,
) -> VolcanoMlOptions {
    VolcanoMlOptions {
        plan: p3_volcano(engine),
        max_evaluations: evals,
        seed: 7,
        n_workers: workers,
        journal_path: Some(journal.to_path_buf()),
        resume,
        ..Default::default()
    }
}

fn cost_aware_options(
    engine: EngineKind,
    evals: usize,
    workers: usize,
    journal: &Path,
    resume: bool,
) -> VolcanoMlOptions {
    VolcanoMlOptions {
        cost_aware: true,
        objective: volcanoml_core::Objective::LossAndCost { latency_weight: 5.0 },
        ..options(engine, evals, workers, journal, resume)
    }
}

fn journal_rows(path: &Path) -> Vec<JournalRow> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| JournalRow::from_json(l).expect("journal row parses"))
        .collect()
}

fn journal_records(path: &Path) -> Vec<TrialRecord> {
    journal_rows(path)
        .into_iter()
        .filter_map(|r| match r {
            JournalRow::Trial(t) => Some(t),
            JournalRow::Expansion(_) => None,
        })
        .collect()
}

fn expansion_records(path: &Path) -> Vec<ExpansionRecord> {
    journal_rows(path)
        .into_iter()
        .filter_map(|r| match r {
            JournalRow::Trial(_) => None,
            JournalRow::Expansion(e) => Some(e),
        })
        .collect()
}

fn assert_unique_trial_ids(records: &[TrialRecord]) {
    let mut ids: Vec<u64> = records.iter().map(|r| r.trial_id).collect();
    let n = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "duplicate trial ids in journal");
}

/// Replaying a COMPLETE journal must be a bitwise no-op: identical
/// `StudyState` (costs included — they come back out of the journal),
/// identical best loss, and not a single row re-journaled. Exercised across
/// the BO, Hyperband, and MFES-HB engines, serial and with 4 workers.
#[test]
fn full_replay_reproduces_study_state_bitwise() {
    let data = make_moons(160, 0.2, 1, 5);
    for engine in [EngineKind::Bo, EngineKind::Hyperband, EngineKind::MfesHb] {
        for workers in [1usize, 4] {
            let dir = tmp_dir(&format!("full-{}-{workers}", engine.name()));
            let journal = dir.join("journal.jsonl");

            let first = VolcanoML::with_tier(
                Task::Classification,
                SpaceTier::Small,
                options(engine, 10, workers, &journal, false),
            )
            .fit(&data)
            .unwrap();
            let rows_before = journal_records(&journal);
            assert_unique_trial_ids(&rows_before);

            let replayed = VolcanoML::with_tier(
                Task::Classification,
                SpaceTier::Small,
                options(engine, 10, workers, &journal, true),
            )
            .fit(&data)
            .unwrap();
            let rows_after = journal_records(&journal);

            assert_eq!(
                rows_before.len(),
                rows_after.len(),
                "{} x{workers}: full replay must not re-journal trials",
                engine.name()
            );
            if let Some(diff) = first.study_state.diff(&replayed.study_state) {
                panic!("{} x{workers}: study state diverged:\n{diff}", engine.name());
            }
            assert_eq!(
                first.report.best_loss.to_bits(),
                replayed.report.best_loss.to_bits(),
                "{} x{workers}: best loss must match bitwise",
                engine.name()
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The same full-replay bitwise property must hold when cost *steers* the
/// schedule: with `cost_aware` on (EI-per-second, loss-per-second
/// promotion) and a scalarized loss+latency objective, the replay table
/// answers both the loss and the cost coordinate bitwise — including
/// cached trials, which resolve to their memoized true cost rather than
/// the journal's cost-0 accounting row — so the resumed tree, cost-model
/// observation counts, and bracket cost tables land exactly where the
/// interrupted run left them.
#[test]
fn cost_aware_full_replay_reproduces_study_state_bitwise() {
    let data = make_moons(160, 0.2, 1, 5);
    for engine in [EngineKind::Bo, EngineKind::MfesHb] {
        for workers in [1usize, 4] {
            let dir = tmp_dir(&format!("cost-full-{}-{workers}", engine.name()));
            let journal = dir.join("journal.jsonl");

            let first = VolcanoML::with_tier(
                Task::Classification,
                SpaceTier::Small,
                cost_aware_options(engine, 10, workers, &journal, false),
            )
            .fit(&data)
            .unwrap();
            let rows_before = journal_records(&journal);
            assert_unique_trial_ids(&rows_before);

            let replayed = VolcanoML::with_tier(
                Task::Classification,
                SpaceTier::Small,
                cost_aware_options(engine, 10, workers, &journal, true),
            )
            .fit(&data)
            .unwrap();
            let rows_after = journal_records(&journal);

            assert_eq!(
                rows_before.len(),
                rows_after.len(),
                "{} x{workers}: cost-aware full replay must not re-journal trials",
                engine.name()
            );
            if let Some(diff) = first.study_state.diff(&replayed.study_state) {
                panic!(
                    "{} x{workers}: cost-aware study state diverged:\n{diff}",
                    engine.name()
                );
            }
            assert_eq!(
                first.report.best_loss.to_bits(),
                replayed.report.best_loss.to_bits(),
                "{} x{workers}: cost-aware best loss must match bitwise",
                engine.name()
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

fn incremental_options(
    engine: EngineKind,
    evals: usize,
    workers: usize,
    journal: &Path,
    resume: bool,
) -> VolcanoMlOptions {
    let mut o = VolcanoMlOptions {
        // Permissive threshold: any finite plateau EUI fires the ladder, so
        // both expansions land well inside the budget and the test stresses
        // the expansion replay machinery rather than the plateau heuristic.
        space_growth: SpaceGrowth::Incremental { eui_threshold: 10.0 },
        ..options(engine, evals, workers, journal, resume)
    };
    // Multi-fidelity leaves only feed the plateau trajectory on
    // full-fidelity results, which the deep default plan reaches too
    // slowly for a test-sized budget; a single joint leaf keeps the
    // plateau signal fast while still exercising bracket remapping on
    // grow.
    if engine == EngineKind::MfesHb {
        o.plan = p1_joint(engine);
    }
    o
}

/// Replaying the COMPLETE journal of an expanded study must re-derive the
/// identical growth trajectory from the replayed losses alone — same
/// expansion rows (not re-journaled), bitwise-identical `StudyState`
/// including the growth-controller line.
#[test]
fn incremental_full_replay_reproduces_expansions_bitwise() {
    let data = make_moons(160, 0.2, 1, 5);
    for (engine, workers, evals) in [(EngineKind::Bo, 1usize, 24), (EngineKind::MfesHb, 4, 60)] {
        let dir = tmp_dir(&format!("grow-full-{}-{workers}", engine.name()));
        let journal = dir.join("journal.jsonl");

        let first = VolcanoML::with_tier(
            Task::Classification,
            SpaceTier::Small,
            incremental_options(engine, evals, workers, &journal, false),
        )
        .fit(&data)
        .unwrap();
        let rows_before = journal_records(&journal);
        let expansions_before = expansion_records(&journal);
        assert!(
            !expansions_before.is_empty(),
            "{} x{workers}: expected at least one journaled expansion",
            engine.name()
        );
        assert!(
            first.study_state.render().contains("growth stage="),
            "growth line missing from snapshot"
        );

        let replayed = VolcanoML::with_tier(
            Task::Classification,
            SpaceTier::Small,
            incremental_options(engine, evals, workers, &journal, true),
        )
        .fit(&data)
        .unwrap();

        assert_eq!(
            journal_records(&journal).len(),
            rows_before.len(),
            "{} x{workers}: full replay must not re-journal trials",
            engine.name()
        );
        assert_eq!(
            expansion_records(&journal),
            expansions_before,
            "{} x{workers}: full replay must not re-journal expansions",
            engine.name()
        );
        if let Some(diff) = first.study_state.diff(&replayed.study_state) {
            panic!(
                "{} x{workers}: expanded study state diverged:\n{diff}",
                engine.name()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kill-mid-expansion simulation: truncate the journal right after the
/// first expansion row (plus a torn trial line), resume, and require the
/// resumed run to re-derive the identical expansion sequence — the already
/// journaled stage is not duplicated, later stages are re-triggered and
/// journaled at the same trial boundaries — and to converge to the
/// uninterrupted run's scheduling state (modulo wall-clock cost on the
/// freshly executed tail).
#[test]
fn incremental_truncated_resume_replays_expansion_sequence() {
    let data = make_moons(160, 0.2, 1, 5);
    for (engine, workers, evals) in [(EngineKind::Bo, 1usize, 24), (EngineKind::MfesHb, 4, 60)] {
        let dir = tmp_dir(&format!("grow-crash-{}-{workers}", engine.name()));
        let journal = dir.join("journal.jsonl");

        let uninterrupted = VolcanoML::with_tier(
            Task::Classification,
            SpaceTier::Small,
            incremental_options(engine, evals, workers, &journal, false),
        )
        .fit(&data)
        .unwrap();
        let full_rows = journal_records(&journal);
        let full_expansions = expansion_records(&journal);
        assert!(
            !full_expansions.is_empty(),
            "{} x{workers}: expected at least one journaled expansion",
            engine.name()
        );

        // Crash right after the first expansion row hit the disk: keep
        // everything through that row, then a torn half-written trial.
        let text = std::fs::read_to_string(&journal).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let cut = lines
            .iter()
            .position(|l| l.contains("\"event\":\"expansion\""))
            .expect("journal has an expansion line");
        let crashed = dir.join("crashed.jsonl");
        let mut torn = lines[..=cut].join("\n");
        torn.push_str("\n{\"schema\":2,\"trial\":9999,\"worker\":0,\"sta");
        std::fs::write(&crashed, torn).unwrap();

        let resumed = VolcanoML::with_tier(
            Task::Classification,
            SpaceTier::Small,
            incremental_options(engine, evals, workers, &crashed, true),
        )
        .fit(&data)
        .unwrap();
        let resumed_rows = journal_records(&crashed);

        assert_unique_trial_ids(&resumed_rows);
        assert_eq!(
            resumed_rows.len(),
            full_rows.len(),
            "{} x{workers}: resumed schedule must re-derive the same trials",
            engine.name()
        );
        assert_eq!(
            expansion_records(&crashed),
            full_expansions,
            "{} x{workers}: resumed run must replay the same expansion sequence",
            engine.name()
        );
        assert_eq!(
            uninterrupted.report.best_loss.to_bits(),
            resumed.report.best_loss.to_bits(),
            "{} x{workers}: best loss must match bitwise after expanded resume",
            engine.name()
        );
        let a = strip_costs(&uninterrupted.study_state);
        let b = strip_costs(&resumed.study_state);
        if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
            panic!(
                "{} x{workers}: expanded resume state diverged at line {i}:\n  left:  {}\n  right: {}",
                engine.name(),
                a.get(i).map(String::as_str).unwrap_or("<missing>"),
                b.get(i).map(String::as_str).unwrap_or("<missing>"),
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kill-mid-run simulation: truncate the journal to a prefix (plus a torn
/// half-written line), resume, and require the resumed run to converge to
/// the uninterrupted run's exact state — same trial count, no duplicate
/// ids, same best loss bits, same scheduling state (modulo wall-clock cost
/// on the freshly executed tail).
#[test]
fn truncated_journal_resume_matches_uninterrupted_run() {
    let data = make_moons(160, 0.2, 1, 5);
    for (engine, workers) in [(EngineKind::Bo, 1usize), (EngineKind::MfesHb, 4)] {
        let dir = tmp_dir(&format!("crash-{}-{workers}", engine.name()));
        let journal = dir.join("journal.jsonl");

        let uninterrupted = VolcanoML::with_tier(
            Task::Classification,
            SpaceTier::Small,
            options(engine, 10, workers, &journal, false),
        )
        .fit(&data)
        .unwrap();
        let full_rows = journal_records(&journal);
        assert!(full_rows.len() >= 4, "need enough rows to truncate");

        // Simulate the crash: keep the first half of the journal and a torn
        // final line, as a kill -9 mid-write would leave behind.
        let text = std::fs::read_to_string(&journal).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let keep = lines.len() / 2;
        let crashed = dir.join("crashed.jsonl");
        let mut torn = lines[..keep].join("\n");
        torn.push_str("\n{\"schema\":1,\"trial\":9999,\"worker\":0,\"sta");
        std::fs::write(&crashed, torn).unwrap();

        let resumed = VolcanoML::with_tier(
            Task::Classification,
            SpaceTier::Small,
            options(engine, 10, workers, &crashed, true),
        )
        .fit(&data)
        .unwrap();
        let resumed_rows = journal_records(&crashed);

        assert_unique_trial_ids(&resumed_rows);
        assert_eq!(
            resumed_rows.len(),
            full_rows.len(),
            "{} x{workers}: resumed schedule must re-derive the same trials",
            engine.name()
        );
        assert_eq!(
            uninterrupted.report.best_loss.to_bits(),
            resumed.report.best_loss.to_bits(),
            "{} x{workers}: best loss must match bitwise after resume",
            engine.name()
        );
        assert_eq!(
            uninterrupted.report.n_evaluations, resumed.report.n_evaluations,
            "{} x{workers}: evaluation counts must match",
            engine.name()
        );
        let a = strip_costs(&uninterrupted.study_state);
        let b = strip_costs(&resumed.study_state);
        if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
            panic!(
                "{} x{workers}: resumed study state diverged at line {i}:\n  left:  {}\n  right: {}",
                engine.name(),
                a.get(i).map(String::as_str).unwrap_or("<missing>"),
                b.get(i).map(String::as_str).unwrap_or("<missing>"),
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One SMAC history past the surrogate's every-pick refit range: a serial
/// joint-BO study of 150 evaluations, killed after 100 journaled trials,
/// resumes to the uninterrupted run's state. The refit schedule reads only
/// the observed history, so the replayed prefix refits where the original
/// run did.
#[test]
fn joint_bo_resume_past_the_refit_schedule_matches_uninterrupted_run() {
    let data = make_moons(160, 0.2, 1, 5);
    let dir = tmp_dir("crash-joint-bo-150");
    let journal = dir.join("journal.jsonl");
    let joint = |journal: &Path, resume: bool| VolcanoMlOptions {
        plan: p1_joint(EngineKind::Bo),
        ..options(EngineKind::Bo, 150, 1, journal, resume)
    };
    let fit = |journal: &Path, resume: bool| {
        VolcanoML::with_tier(Task::Classification, SpaceTier::Small, joint(journal, resume))
            .fit(&data)
            .unwrap()
    };
    let uninterrupted = fit(&journal, false);
    let full_rows = journal_records(&journal);
    assert!(full_rows.len() > 100, "need more than 100 rows to cut at 100");

    let text = std::fs::read_to_string(&journal).unwrap();
    let crashed = dir.join("crashed.jsonl");
    let mut torn = text.lines().take(100).collect::<Vec<_>>().join("\n");
    torn.push_str("\n{\"schema\":1,\"trial\":9999,\"worker\":0,\"sta");
    std::fs::write(&crashed, torn).unwrap();
    let resumed = fit(&crashed, true);
    let resumed_rows = journal_records(&crashed);

    assert_unique_trial_ids(&resumed_rows);
    assert_eq!(resumed_rows.len(), full_rows.len());
    assert_eq!(
        uninterrupted.report.best_loss.to_bits(),
        resumed.report.best_loss.to_bits()
    );
    let a = strip_costs(&uninterrupted.study_state);
    let b = strip_costs(&resumed.study_state);
    if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
        panic!(
            "resumed study state diverged at line {i}:\n  left:  {}\n  right: {}",
            a.get(i).map(String::as_str).unwrap_or("<missing>"),
            b.get(i).map(String::as_str).unwrap_or("<missing>"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
