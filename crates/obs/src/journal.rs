//! The trial journal's row formats (the durable writer is
//! `volcanoml_exec::Journal`, which re-exports everything here).
//!
//! One line per trial, machine-readable, append-only. Schema (all keys
//! always present, stable order; `schema` is the row-format version,
//! currently [`JOURNAL_SCHEMA_VERSION`]):
//!
//! ```json
//! {"schema":1,"trial":17,"worker":2,"start_s":0.0132,"end_s":0.0518,
//!  "fidelity":1.0,"rung":2,"bracket":0,"loss":0.2184,"cost":0.0386,
//!  "cached":false,"fe_cached":true,"panicked":false,"timed_out":false,
//!  "arm":"algorithm=1","digest":"9f3c2a11d04b77e6"}
//! ```
//!
//! `start_s`/`end_s` are seconds since the journal was opened (monotonic
//! clock), `cost` is the evaluator-measured training wall time, `loss` is
//! serialized as `"inf"` when infinite so the file stays valid JSON. All
//! floats use Rust's shortest round-trip `Display`, so a parsed row is
//! bit-identical to the recorded one — the property the crash-resume
//! replay path relies on. `rung`/`bracket` attribute the trial to a
//! multi-fidelity scheduler: the rung index in the engine's full η-ladder
//! and the issuing bracket's stable id, both `-1` when the trial was not
//! scheduled by a multi-fidelity engine (full-fidelity engines, warm
//! starts, seeds). `arm` is the bandit-arm label of the conditioning pull
//! that issued the trial (empty when no arm was in scope) and `digest` is
//! the evaluator's stable assignment hash rendered as 16 hex digits (empty
//! when unknown) — both join journal rows to `volcanoml-obs` trace spans,
//! which carry the same `trial` id, arm, and digest.
//!
//! Schema version 2 adds a second row kind, the *space expansion* row,
//! discriminated by an `"event"` key (trial rows carry no `event` key):
//!
//! ```json
//! {"schema":2,"event":"expansion","stage":1,"name":"transform_stage",
//!  "trigger_eui":0.00042,"trial":23}
//! ```
//!
//! `stage` is the space's stage number after applying the expansion (stage 0
//! is the seed space), `name` the expansion's ladder name, `trigger_eui` the
//! plateau EUI reading that fired it, and `trial` the number of trials
//! journaled before the expansion landed — which orders expansions relative
//! to trial rows for reporting. Trial rows are unchanged from version 1, so
//! version-1 trial rows remain readable.
//!
//! A [`TrialRecord`] is also the one description of a finished trial on the
//! trial path: the evaluator builds it once and hands it to the journal and to
//! [`crate::Tracer::trial`], and crash-resume replays it back.

use crate::json::{escape, num, parse_object, JsonValue};
use std::collections::BTreeMap;

/// Version stamped into every journal row's `schema` field. Bump when the
/// row format changes incompatibly; `Journal::resume_from_path` refuses to
/// replay rows from other versions.
pub const JOURNAL_SCHEMA_VERSION: u64 = 2;

/// Schema versions whose trial rows this build can read. Version 2 only
/// *added* the expansion row kind; trial rows are identical across both.
const READABLE_SCHEMA_VERSIONS: [u64; 2] = [1, 2];

/// One trial's journal entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Monotonically increasing trial id (unique per evaluator).
    pub trial_id: u64,
    /// Worker that executed the trial (0 for serial execution).
    pub worker: usize,
    /// Trial start, seconds since the journal epoch.
    pub start_s: f64,
    /// Trial end, seconds since the journal epoch.
    pub end_s: f64,
    /// Fidelity the trial ran at.
    pub fidelity: f64,
    /// Rung index in the scheduler's full η-ladder, `-1` when the trial was
    /// not issued by a multi-fidelity engine.
    pub rung: i64,
    /// Stable id of the issuing bracket, `-1` when not bracket-scheduled.
    pub bracket: i64,
    /// Observed loss (`INFINITY` for failed/panicked/timed-out trials).
    pub loss: f64,
    /// Evaluation cost in seconds (0 for cache hits and timeouts).
    pub cost: f64,
    /// Whether the result came from the evaluator cache.
    pub cached: bool,
    /// Whether the trial reused a fitted FE transform from the evaluator's
    /// cross-trial FE cache (false on full result-cache hits).
    pub fe_cached: bool,
    /// Whether the trial panicked.
    pub panicked: bool,
    /// Whether the trial exceeded its deadline and was abandoned.
    pub timed_out: bool,
    /// Bandit-arm label of the pull that issued the trial (e.g.
    /// `algorithm=1`), empty when no arm was in scope.
    pub arm: String,
    /// Stable assignment digest as 16 lowercase hex digits, empty when
    /// unknown. Matches the `digest` field on obs trace spans.
    pub digest: String,
}

impl TrialRecord {
    /// Renders the record as one JSON line (without trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":{},\"trial\":{},\"worker\":{},\"start_s\":{},\"end_s\":{},\
             \"fidelity\":{},\"rung\":{},\"bracket\":{},\"loss\":{},\
             \"cost\":{},\"cached\":{},\
             \"fe_cached\":{},\"panicked\":{},\"timed_out\":{},\
             \"arm\":\"{}\",\"digest\":\"{}\"}}",
            JOURNAL_SCHEMA_VERSION,
            self.trial_id,
            self.worker,
            num(self.start_s),
            num(self.end_s),
            num(self.fidelity),
            self.rung,
            self.bracket,
            num(self.loss),
            num(self.cost),
            self.cached,
            self.fe_cached,
            self.panicked,
            self.timed_out,
            escape(&self.arm),
            escape(&self.digest)
        )
    }

    /// Parses one journal line back into a record. Unknown keys are
    /// ignored (forward compatibility); missing required keys, malformed
    /// values, and rows whose `schema` version this build cannot read are
    /// errors.
    pub fn from_json(line: &str) -> Result<TrialRecord, String> {
        let fields = parse_row(line)?;
        if fields.contains_key("event") {
            return Err("row is an event row, not a trial row".to_string());
        }
        TrialRecord::from_fields(&fields)
    }

    fn from_fields(fields: &Fields) -> Result<TrialRecord, String> {
        let req = |key: &str| required(fields, key);
        Ok(TrialRecord {
            trial_id: as_u64(req("trial")?, "trial")?,
            worker: as_u64(req("worker")?, "worker")? as usize,
            start_s: as_f64(req("start_s")?, "start_s")?,
            end_s: as_f64(req("end_s")?, "end_s")?,
            fidelity: as_f64(req("fidelity")?, "fidelity")?,
            rung: as_i64(req("rung")?, "rung")?,
            bracket: as_i64(req("bracket")?, "bracket")?,
            loss: as_f64(req("loss")?, "loss")?,
            cost: as_f64(req("cost")?, "cost")?,
            cached: as_bool(req("cached")?, "cached")?,
            fe_cached: as_bool(req("fe_cached")?, "fe_cached")?,
            panicked: as_bool(req("panicked")?, "panicked")?,
            timed_out: as_bool(req("timed_out")?, "timed_out")?,
            arm: as_string(req("arm")?, "arm")?,
            digest: as_string(req("digest")?, "digest")?,
        })
    }
}

/// One space-expansion journal entry (schema version 2; see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpansionRecord {
    /// Stage number after applying the expansion (stage 0 = seed space).
    pub stage: u64,
    /// The expansion's name in the growth ladder.
    pub name: String,
    /// Plateau EUI reading that triggered the expansion.
    pub trigger_eui: f64,
    /// Number of trials journaled before the expansion landed — orders
    /// expansion rows relative to trial rows.
    pub trial: u64,
}

impl ExpansionRecord {
    /// Renders the record as one JSON line (without trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":{},\"event\":\"expansion\",\"stage\":{},\"name\":\"{}\",\
             \"trigger_eui\":{},\"trial\":{}}}",
            JOURNAL_SCHEMA_VERSION,
            self.stage,
            escape(&self.name),
            num(self.trigger_eui),
            self.trial
        )
    }

    /// Parses one expansion row back, bit-exactly (same float round-trip
    /// guarantee as trial rows).
    pub fn from_json(line: &str) -> Result<ExpansionRecord, String> {
        let fields = parse_row(line)?;
        match fields.get("event") {
            Some(JsonValue::Str(e)) if e == "expansion" => ExpansionRecord::from_fields(&fields),
            Some(_) => Err("unknown event kind in journal row".to_string()),
            None => Err("row is a trial row, not an event row".to_string()),
        }
    }

    fn from_fields(fields: &Fields) -> Result<ExpansionRecord, String> {
        let req = |key: &str| required(fields, key);
        Ok(ExpansionRecord {
            stage: as_u64(req("stage")?, "stage")?,
            name: as_string(req("name")?, "name")?,
            trigger_eui: as_f64(req("trigger_eui")?, "trigger_eui")?,
            trial: as_u64(req("trial")?, "trial")?,
        })
    }
}

/// Any journal row, dispatched on the `event` discriminator.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRow {
    /// A trial row (no `event` key).
    Trial(TrialRecord),
    /// A space-expansion row (`"event":"expansion"`).
    Expansion(ExpansionRecord),
}

impl JournalRow {
    /// Parses one journal line into the right row kind.
    pub fn from_json(line: &str) -> Result<JournalRow, String> {
        let fields = parse_row(line)?;
        match fields.get("event") {
            None => TrialRecord::from_fields(&fields).map(JournalRow::Trial),
            Some(JsonValue::Str(e)) if e == "expansion" => {
                ExpansionRecord::from_fields(&fields).map(JournalRow::Expansion)
            }
            Some(JsonValue::Str(e)) => Err(format!("unknown journal event kind \"{e}\"")),
            Some(_) => Err("key \"event\": expected a string".to_string()),
        }
    }

    /// Renders the row as one JSON line.
    pub fn to_json(&self) -> String {
        match self {
            JournalRow::Trial(r) => r.to_json(),
            JournalRow::Expansion(r) => r.to_json(),
        }
    }
}

/// One parsed journal row: key → scalar value.
type Fields = BTreeMap<String, JsonValue>;

/// Parses one journal line with the workspace's JSON codec and keeps only
/// what this build can read: a flat object of number/bool/string values whose
/// `schema` version is known. Syntax errors, trailing garbage, truncation,
/// nesting, arrays and `null` are all errors — the caller decides whether a
/// failure means a torn tail or real corruption.
fn parse_row(line: &str) -> Result<Fields, String> {
    let fields = parse_object(line).ok_or_else(|| "not a JSON object".to_string())?;
    for (key, v) in &fields {
        if matches!(v, JsonValue::Null | JsonValue::Obj(_) | JsonValue::Arr(_)) {
            return Err(format!(
                "key \"{key}\": expected a number, bool or string value"
            ));
        }
    }
    let schema = match fields.get("schema") {
        None => {
            return Err(
                "row has no \"schema\" field (journal predates versioned rows)".to_string(),
            )
        }
        Some(v) => as_u64(v, "schema")?,
    };
    if !READABLE_SCHEMA_VERSIONS.contains(&schema) {
        return Err(format!(
            "unsupported journal schema version {schema} \
             (this build reads versions {READABLE_SCHEMA_VERSIONS:?})"
        ));
    }
    Ok(fields)
}

fn required<'a>(fields: &'a Fields, key: &str) -> Result<&'a JsonValue, String> {
    fields
        .get(key)
        .ok_or_else(|| format!("missing required key \"{key}\""))
}

fn as_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.as_f64().ok_or_else(|| match v {
        JsonValue::Str(s) => format!("key \"{key}\": expected a number, got \"{s}\""),
        _ => format!("key \"{key}\": expected a number, got a bool"),
    })
}

fn as_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    match v {
        JsonValue::Num(x) if x.fract() == 0.0 && *x >= 0.0 => Ok(*x as u64),
        _ => Err(format!("key \"{key}\": expected a non-negative integer")),
    }
}

fn as_i64(v: &JsonValue, key: &str) -> Result<i64, String> {
    match v {
        JsonValue::Num(x) if x.fract() == 0.0 => Ok(*x as i64),
        _ => Err(format!("key \"{key}\": expected an integer")),
    }
}

fn as_bool(v: &JsonValue, key: &str) -> Result<bool, String> {
    v.as_bool()
        .ok_or_else(|| format!("key \"{key}\": expected true/false"))
}

fn as_string(v: &JsonValue, key: &str) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("key \"{key}\": expected a string"))
}

