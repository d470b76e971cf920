//! `BENCHMARK.json` and the result line, as the harness reads them back:
//! for the A/A table, for the all-workloads report, and for the test that
//! holds the emitted metric names to the declared ones.

use std::path::Path;

use crate::layers::json::{parse_object, JsonValue};

/// `run_seconds` of `BENCHMARK.json`: the run length the panels are sized
/// for when `--seconds` is not given.
pub const RUN_SECONDS: f64 = 20.0;

pub struct DeclaredMetric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may get worse;
    /// absent on per-layer metrics.
    pub bound: f64,
}

pub struct Declared {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<DeclaredMetric>,
    pub per_layer: Vec<DeclaredMetric>,
}

fn metrics(value: Option<&JsonValue>) -> Result<Vec<DeclaredMetric>, String> {
    let Some(JsonValue::Arr(items)) = value else {
        return Err("BENCHMARK.json: metric list missing".into());
    };
    items
        .iter()
        .map(|item| {
            let obj = item
                .as_obj()
                .ok_or("BENCHMARK.json: metric is not an object")?;
            let text = |key: &str| {
                obj.get(key)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: metric without {key}"))
            };
            Ok(DeclaredMetric {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: obj.get("bound").and_then(JsonValue::as_f64).unwrap_or(0.0),
            })
        })
        .collect()
}

pub fn load(path: &Path) -> Result<Declared, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root = parse_object(&text).ok_or(format!("{}: not a JSON object", path.display()))?;
    let Some(JsonValue::Arr(workloads)) = root.get("workloads") else {
        return Err("BENCHMARK.json: workloads missing".into());
    };
    Ok(Declared {
        run_seconds: root
            .get("run_seconds")
            .and_then(JsonValue::as_f64)
            .ok_or("BENCHMARK.json: run_seconds missing")?,
        workloads: workloads
            .iter()
            .filter_map(|w| w.as_obj()?.get("name")?.as_str().map(str::to_string))
            .collect(),
        end_to_end: metrics(root.get("end_to_end"))?,
        per_layer: metrics(root.get("per_layer"))?,
    })
}

/// A result line parsed back: `(name, value, unit)` per metric.
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

/// Parses a line if it is a result line; `None` for any other output.
pub fn parse_result(line: &str) -> Option<ParsedResult> {
    let root = parse_object(line.trim())?;
    let metrics = root
        .get("metrics")?
        .as_obj()?
        .iter()
        .filter_map(|(name, m)| {
            let m = m.as_obj()?;
            Some((
                name.clone(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect();
    Some(ParsedResult {
        correct: root.get("correct")?.as_bool()?,
        attempted: root.get("attempted")?.as_i64()? as u64,
        failed: root.get("failed")?.as_i64()? as u64,
        metrics,
    })
}
