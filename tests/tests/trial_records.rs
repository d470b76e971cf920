//! Pins what a finished trial looks like to the sinks: the journal row and
//! the trace rows of a serial `fit`, restricted to the columns the schedule
//! determines (wall-clock columns — `start_s`, `end_s`, `cost`, `t_s`,
//! `dur_s`, the `cost=` detail token — are left out).
//!
//! The golden digests were recorded on 9f5dd24, the parent of the commit that
//! gave each hand-off on the trial path one description (suggestions carry
//! their rung/bracket tag, holdout is a one-entry validation plan, the
//! journal's `TrialRecord` is what the tracer takes), and pass there.

use std::collections::HashMap;
use std::path::Path;

use volcanoml_core::plans::{p1_joint, p3_volcano, p5_alternating_conditioning};
use volcanoml_core::{
    EngineKind, PlanSpec, SpaceTier, ValidationStrategy, VolcanoML, VolcanoMlOptions,
};
use volcanoml_data::synthetic::make_moons;
use volcanoml_data::Task;
use volcanoml_exec::{JournalRow, TrialRecord};
use volcanoml_integration::{fnv1a, tmp_dir};
use volcanoml_obs::json::{parse_object, JsonValue};

fn fit(plan: PlanSpec, validation: ValidationStrategy, dir: &Path, resume: bool) {
    let options = VolcanoMlOptions {
        plan,
        max_evaluations: 30,
        seed: 7,
        validation,
        journal_path: Some(dir.join("journal.jsonl")),
        trace_path: Some(dir.join("trace.jsonl")),
        resume,
        ..Default::default()
    };
    VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options)
        .fit(&make_moons(160, 0.2, 1, 5))
        .unwrap();
}

fn journal_records(path: &Path) -> Vec<TrialRecord> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter_map(|l| match JournalRow::from_json(l).expect("journal row parses") {
            JournalRow::Trial(t) => Some(t),
            JournalRow::Expansion(_) => None,
        })
        .collect()
}

/// The journal columns a serial schedule determines, one line per row.
fn journal_columns(records: &[TrialRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| {
            format!(
                "{}|{:016x}|{}|{}|{:016x}|{}|{}|{}|{}|{}|{}",
                r.trial_id,
                r.fidelity.to_bits(),
                r.rung,
                r.bracket,
                r.loss.to_bits(),
                r.cached,
                r.fe_cached,
                r.panicked,
                r.timed_out,
                r.arm,
                r.digest
            )
        })
        .collect()
}

type Event = std::collections::BTreeMap<String, JsonValue>;

/// The trace columns a serial schedule determines, one line per event in
/// file order, with each event's parent resolved to its kind.
fn trace_columns(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap();
    let events: Vec<Event> = text
        .lines()
        .map(|l| parse_object(l).unwrap_or_else(|| panic!("bad trace line {l}")))
        .collect();
    let text_of = |e: &Event, key: &str| e[key].as_str().unwrap().to_string();
    let int_of = |e: &Event, key: &str| e[key].as_i64().unwrap();
    let kind_by_span: HashMap<i64, String> = events
        .iter()
        .map(|e| (int_of(e, "span"), text_of(e, "kind")))
        .collect();
    events
        .iter()
        .map(|e| {
            let detail: Vec<String> = text_of(e, "detail")
                .split(' ')
                .filter(|token| !token.starts_with("cost="))
                .map(str::to_string)
                .collect();
            format!(
                "{}|{}|{}|{}|{}|{}|{}|{}|{}",
                text_of(e, "kind"),
                text_of(e, "path"),
                text_of(e, "arm"),
                kind_by_span.get(&int_of(e, "parent")).map_or("", String::as_str),
                int_of(e, "trial"),
                text_of(e, "digest"),
                int_of(e, "rung"),
                int_of(e, "bracket"),
                detail.join(" ")
            )
        })
        .collect()
}

type PlanFn = fn(EngineKind) -> PlanSpec;

const HOLDOUT: ValidationStrategy = ValidationStrategy::Holdout { fraction: 0.25 };
const CV3: ValidationStrategy = ValidationStrategy::CrossValidation { folds: 3 };

/// `(name, plan, engine, validation, journal digest, trace digest)`.
const CASES: [(&str, PlanFn, EngineKind, ValidationStrategy, u64, u64); 8] = [
    ("p1_joint/sh", p1_joint, EngineKind::SuccessiveHalving, HOLDOUT, 0xecf9_7d58_d66d_da52, 0x572b_c2cc_a567_28bf),
    ("p1_joint/hyperband", p1_joint, EngineKind::Hyperband, HOLDOUT, 0x5ad9_e4b6_5b90_6656, 0x8966_df31_9116_261b),
    ("p1_joint/mfes-hb", p1_joint, EngineKind::MfesHb, HOLDOUT, 0xd779_3215_61ee_2973, 0x48b4_7556_073f_da4b),
    ("p3_volcano/bo", p3_volcano, EngineKind::Bo, HOLDOUT, 0x2297_294e_53ea_a04a, 0x081e_2094_aa11_44cb),
    ("p3_volcano/hyperband", p3_volcano, EngineKind::Hyperband, HOLDOUT, 0x1f14_2236_408b_0da3, 0xf630_9100_3b19_9759),
    // The FE-side leaf of the alternating root runs with no arm in scope.
    ("p5/bo", p5_alternating_conditioning, EngineKind::Bo, HOLDOUT, 0xed3d_fcf3_9afd_a51e, 0x19a4_94da_1e60_14c1),
    ("p1_joint/mfes-hb/cv3", p1_joint, EngineKind::MfesHb, CV3, 0xbfcd_366f_2dcc_3d95, 0x755d_9299_f7b7_190b),
    ("p3_volcano/bo/cv3", p3_volcano, EngineKind::Bo, CV3, 0x23e5_68a5_d08b_1466, 0x5011_e888_4e0f_a1f3),
];

#[test]
fn serial_fits_write_the_parent_recorded_journal_and_trace_rows() {
    let mut moved = Vec::new();
    for (name, plan, engine, validation, journal_golden, trace_golden) in CASES {
        let dir = tmp_dir(name);
        fit(plan(engine), validation, &dir, false);
        let records = journal_records(&dir.join("journal.jsonl"));
        assert!(!records.is_empty(), "{name}: empty journal");
        if name == "p5/bo" {
            assert!(records.iter().any(|r| r.arm.is_empty()), "{name}: no arm-less row");
            assert!(records.iter().any(|r| !r.arm.is_empty()), "{name}: no arm row");
        }
        if engine != EngineKind::Bo {
            assert!(records.iter().any(|r| r.rung >= 1), "{name}: no promoted trial");
        }
        let journal = fnv1a(&journal_columns(&records));
        let trace = fnv1a(&trace_columns(&dir.join("trace.jsonl")));
        if (journal, trace) != (journal_golden, trace_golden) {
            moved.push(format!("{name}: journal {journal:#018x} trace {trace:#018x}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(moved.is_empty(), "{moved:#?}");
}

/// A fit resumed from the first rows of a journal ends with the journal of
/// the uninterrupted fit: the kept rows untouched, the fresh ones equal on
/// every schedule-determined column. Replayed trials fit nothing, so the FE
/// cache restarts cold and a fresh row may lose — never gain — an FE hit.
#[test]
fn resumed_fit_journals_the_rows_of_the_uninterrupted_one() {
    const KEPT_ROWS: usize = 11;
    let plan = || p1_joint(EngineKind::MfesHb);
    let whole = tmp_dir("whole");
    fit(plan(), HOLDOUT, &whole, false);
    let mut uninterrupted = journal_records(&whole.join("journal.jsonl"));
    assert!(uninterrupted.len() > KEPT_ROWS + 5);

    let cut = tmp_dir("cut");
    let text = std::fs::read_to_string(whole.join("journal.jsonl")).unwrap();
    let kept: String = text.lines().take(KEPT_ROWS).map(|l| format!("{l}\n")).collect();
    std::fs::write(cut.join("journal.jsonl"), kept).unwrap();
    fit(plan(), HOLDOUT, &cut, true);
    let mut resumed = journal_records(&cut.join("journal.jsonl"));

    assert_eq!(resumed[..KEPT_ROWS], uninterrupted[..KEPT_ROWS]);
    for (fresh, original) in resumed.iter_mut().zip(&mut uninterrupted).skip(KEPT_ROWS) {
        assert!(original.fe_cached || !fresh.fe_cached, "trial {}", fresh.trial_id);
        fresh.fe_cached = original.fe_cached;
    }
    assert_eq!(journal_columns(&resumed), journal_columns(&uninterrupted));
    let _ = std::fs::remove_dir_all(&whole);
    let _ = std::fs::remove_dir_all(&cut);
}
