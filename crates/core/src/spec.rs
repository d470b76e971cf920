//! Study specifications: the flat fields that declare a study's data,
//! space tier, plan, engine and budget. Serve reads them from the JSON a
//! client `POST /studies` and persists them as `spec.json` so a restarted
//! server can resume the study from its journal alone; the CLI's `fit`
//! flags are the same fields. [`StudySpec::from_fields`] is the one reader.

use std::collections::BTreeMap;

use volcanoml_data::synthetic::{self, NAMED_KINDS};
use volcanoml_data::Dataset;
use volcanoml_obs::json::{escape, parse_object, JsonValue};

use crate::plans;
use crate::{EngineKind, Objective, SpaceGrowth, SpaceTier, VolcanoMlOptions};

/// Every field [`StudySpec::from_fields`] reads; any other is rejected.
const FIELDS: [&str; 13] = [
    "name",
    "dataset",
    "csv",
    "data_seed",
    "engine",
    "plan",
    "tier",
    "max_evaluations",
    "seed",
    "cost_aware",
    "objective",
    "latency_weight",
    "space",
];

/// Reads an integer field. A JSON number is an `f64`, which holds every
/// integer below 2^53 exactly; at 2^53 and above distinct integers parse
/// to the same value, so they are rejected with fractions and negatives.
pub fn field_u64(key: &str, value: &JsonValue) -> Result<u64, String> {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    value
        .as_f64()
        .filter(|x| (0.0..EXACT).contains(x) && x.fract() == 0.0)
        .map(|x| x as u64)
        .ok_or_else(|| format!("field \"{key}\" must be a non-negative integer below 2^53"))
}

/// Where a study's data comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetSpec {
    /// One of the synthetic generators (`classification`, `moons`, `xor`,
    /// `friedman1`, `imbalanced`), drawn with `seed`.
    Synthetic { kind: String, seed: u64 },
    /// A CSV file on the local filesystem (the CLI's dialect: `#types:`
    /// line, header, rows).
    Csv { path: String },
}

/// One study: dataset + space tier + plan/engine + budget. All fields have
/// defaults except the dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct StudySpec {
    /// Optional client-chosen study id (sanitized; server generates
    /// `study-N` otherwise).
    pub name: Option<String>,
    /// Data source.
    pub dataset: DatasetSpec,
    /// Joint-leaf engine (default `bo`).
    pub engine: EngineKind,
    /// Coarse plan name `p1`..`p5`; `None` uses the paper's default plan.
    pub plan: Option<String>,
    /// Search-space tier (default `small`).
    pub tier: SpaceTier,
    /// Evaluation budget (default 30).
    pub max_evaluations: usize,
    /// Master seed (default 0).
    pub seed: u64,
    /// Feed measured trial cost back into the engines (EI-per-second
    /// acquisition, loss-per-second promotion). Default off.
    pub cost_aware: bool,
    /// Search objective: `"loss"` (default) or `"loss_and_cost"`, the
    /// latter scalarizing in `latency_weight` × per-row inference seconds.
    pub objective: Objective,
    /// Search-space construction: `"fixed"` (default) or
    /// `"incremental[:EUI_THRESHOLD]"` — start from the minimal pipeline
    /// and expand on plateau evidence.
    pub space: SpaceGrowth,
}

impl StudySpec {
    /// Parses a spec from the flat JSON a client posts, e.g.
    /// `{"dataset":"moons","engine":"bo","max_evaluations":20,"seed":3}` or
    /// `{"csv":"/data/d.csv","tier":"medium"}`.
    pub fn from_json(text: &str) -> Result<StudySpec, String> {
        let fields = parse_object(text).ok_or_else(|| "unparseable JSON".to_string())?;
        StudySpec::from_fields(&fields)
    }

    /// Reads a spec from its flat fields (absent or `null` fields take
    /// their defaults) and checks that its plan builds. A field outside the
    /// spec's thirteen is an error, so a misspelt key never runs silently
    /// with the default it meant to override.
    pub fn from_fields(fields: &BTreeMap<String, JsonValue>) -> Result<StudySpec, String> {
        if let Some(key) = fields.keys().find(|k| !FIELDS.contains(&k.as_str())) {
            return Err(format!(
                "unknown field \"{key}\" (the spec's fields: {})",
                FIELDS.join(", ")
            ));
        }
        let get_str = |key: &str| -> Result<Option<String>, String> {
            match fields.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(|s| Some(s.to_string()))
                    .ok_or_else(|| format!("field \"{key}\" must be a string")),
            }
        };
        let get_u64 = |key: &str, default: u64| match fields.get(key) {
            None | Some(JsonValue::Null) => Ok(default),
            Some(v) => field_u64(key, v),
        };
        let dataset = match (get_str("dataset")?, get_str("csv")?) {
            (Some(_), Some(_)) => {
                return Err("give either \"dataset\" (synthetic) or \"csv\", not both".into())
            }
            (Some(kind), None) => {
                if !NAMED_KINDS.contains(&kind.as_str()) {
                    return Err(format!(
                        "unknown synthetic dataset '{kind}' (one of {})",
                        NAMED_KINDS.join(", ")
                    ));
                }
                DatasetSpec::Synthetic {
                    kind,
                    seed: get_u64("data_seed", 0)?,
                }
            }
            (None, Some(path)) => DatasetSpec::Csv { path },
            (None, None) => return Err("spec needs a \"dataset\" (synthetic kind) or \"csv\" path".into()),
        };
        let engine = match get_str("engine")? {
            Some(s) => EngineKind::from_name(&s)?,
            None => EngineKind::Bo,
        };
        let tier = match get_str("tier")? {
            Some(s) => SpaceTier::from_name(&s)?,
            None => SpaceTier::Small,
        };
        let max_evaluations = get_u64("max_evaluations", 30)? as usize;
        if max_evaluations == 0 {
            return Err("\"max_evaluations\" must be >= 1".into());
        }
        let cost_aware = match fields.get("cost_aware") {
            None | Some(JsonValue::Null) => false,
            Some(JsonValue::Bool(b)) => *b,
            Some(_) => return Err("field \"cost_aware\" must be a boolean".into()),
        };
        let objective = match get_str("objective")?.as_deref() {
            None | Some("loss") => Objective::Loss,
            Some("loss_and_cost") => {
                let latency_weight = match fields.get("latency_weight") {
                    None | Some(JsonValue::Null) => None,
                    Some(v) => Some(v.as_f64().ok_or_else(|| {
                        "field \"latency_weight\" must be a number".to_string()
                    })?),
                };
                Objective::loss_and_cost(latency_weight).map_err(|e| e.to_string())?
            }
            Some(other) => {
                return Err(format!(
                    "unknown objective '{other}' (use loss|loss_and_cost)"
                ))
            }
        };
        let space = match get_str("space")? {
            Some(s) => SpaceGrowth::parse(&s).map_err(|e| e.to_string())?,
            None => SpaceGrowth::Fixed,
        };
        let spec = StudySpec {
            name: get_str("name")?,
            dataset,
            engine,
            plan: get_str("plan")?,
            tier,
            max_evaluations,
            seed: get_u64("seed", 0)?,
            cost_aware,
            objective,
            space,
        };
        // Validate eagerly so a bad plan 400s at submission, not at fit.
        spec.options()?;
        Ok(spec)
    }

    /// Serializes the spec back to the same flat JSON shape `from_json`
    /// reads — what `spec.json` holds for crash-resume.
    pub fn to_json(&self) -> String {
        let mut parts = Vec::new();
        if let Some(name) = &self.name {
            parts.push(format!("\"name\":\"{}\"", escape(name)));
        }
        match &self.dataset {
            DatasetSpec::Synthetic { kind, seed } => {
                parts.push(format!("\"dataset\":\"{}\"", escape(kind)));
                parts.push(format!("\"data_seed\":{seed}"));
            }
            DatasetSpec::Csv { path } => parts.push(format!("\"csv\":\"{}\"", escape(path))),
        }
        parts.push(format!("\"engine\":\"{}\"", self.engine.name()));
        if let Some(plan) = &self.plan {
            parts.push(format!("\"plan\":\"{}\"", escape(plan)));
        }
        parts.push(format!("\"tier\":\"{}\"", self.tier.name()));
        parts.push(format!("\"max_evaluations\":{}", self.max_evaluations));
        parts.push(format!("\"seed\":{}", self.seed));
        if self.cost_aware {
            parts.push("\"cost_aware\":true".to_string());
        }
        if let Objective::LossAndCost { latency_weight } = self.objective {
            parts.push("\"objective\":\"loss_and_cost\"".to_string());
            parts.push(format!("\"latency_weight\":{latency_weight}"));
        }
        if !self.space.is_fixed() {
            parts.push(format!("\"space\":\"{}\"", self.space.render()));
        }
        format!("{{{}}}", parts.join(","))
    }

    /// Materializes the study's dataset.
    pub fn build_dataset(&self) -> Result<Dataset, String> {
        match &self.dataset {
            DatasetSpec::Synthetic { kind, seed } => synthetic::by_name(kind, *seed)
                .ok_or_else(|| format!("unknown synthetic dataset '{kind}'")),
            DatasetSpec::Csv { path } => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                volcanoml_data::csv::from_csv(path, &text).map_err(|e| e.to_string())
            }
        }
    }

    /// The search options the spec asks for: its plan (or the paper's
    /// default one), budget, seed, cost feedback, objective, space growth.
    pub fn options(&self) -> Result<VolcanoMlOptions, String> {
        Ok(VolcanoMlOptions {
            plan: match &self.plan {
                None => plans::p3_volcano(self.engine),
                Some(name) => plans::by_name(name, self.engine)?,
            },
            max_evaluations: self.max_evaluations,
            seed: self.seed,
            cost_aware: self.cost_aware,
            objective: self.objective,
            space_growth: self.space,
            ..VolcanoMlOptions::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = StudySpec::from_json(
            r#"{"name":"exp-1","dataset":"moons","data_seed":7,"engine":"hyperband",
                "plan":"p2","tier":"medium","max_evaluations":44,"seed":9}"#,
        )
        .unwrap();
        assert_eq!(spec.name.as_deref(), Some("exp-1"));
        assert_eq!(spec.engine, EngineKind::Hyperband);
        assert_eq!(spec.max_evaluations, 44);
        let again = StudySpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn defaults_apply() {
        let spec = StudySpec::from_json(r#"{"dataset":"classification"}"#).unwrap();
        assert_eq!(spec.engine, EngineKind::Bo);
        assert_eq!(spec.tier, SpaceTier::Small);
        assert_eq!(spec.max_evaluations, 30);
        assert_eq!(spec.seed, 0);
        assert!(spec.plan.is_none());
        let options = spec.options().unwrap();
        assert_eq!((options.max_evaluations, options.seed), (30, 0));
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        for (doc, needle) in [
            ("not json", "unparseable"),
            ("{}", "needs a"),
            (r#"{"dataset":"mnist"}"#, "unknown synthetic dataset"),
            (r#"{"dataset":"moons","csv":"x.csv"}"#, "not both"),
            (r#"{"dataset":"moons","engine":"sgd"}"#, "unknown engine"),
            (r#"{"dataset":"moons","tier":"huge"}"#, "unknown tier"),
            (r#"{"dataset":"moons","plan":"p9"}"#, "unknown plan"),
            (r#"{"dataset":"moons","max_evaluations":0}"#, ">= 1"),
            (r#"{"dataset":"moons","seed":-1}"#, "non-negative"),
            (r#"{"dataset":"moons","seed":1e300}"#, "non-negative"),
            (r#"{"dataset":"moons","seed":9007199254740993}"#, "non-negative"),
            (r#"{"dataset":"moons","max_evaluation":5}"#, r#"unknown field "max_evaluation""#),
            (r#"{"dataset":"moons","cost_aware":"yes"}"#, "must be a boolean"),
            (r#"{"dataset":"moons","objective":"latency"}"#, "unknown objective"),
            (
                r#"{"dataset":"moons","objective":"loss_and_cost","latency_weight":-2}"#,
                "latency_weight",
            ),
        ] {
            let err = StudySpec::from_json(doc).unwrap_err();
            assert!(err.contains(needle), "{doc}: {err}");
        }
    }

    #[test]
    fn cost_fields_round_trip_and_default_off() {
        let spec = StudySpec::from_json(
            r#"{"dataset":"moons","cost_aware":true,
                "objective":"loss_and_cost","latency_weight":12.5}"#,
        )
        .unwrap();
        assert!(spec.cost_aware);
        assert_eq!(spec.objective, Objective::LossAndCost { latency_weight: 12.5 });
        let again = StudySpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, again);

        let plain = StudySpec::from_json(r#"{"dataset":"moons"}"#).unwrap();
        assert!(!plain.cost_aware);
        assert_eq!(plain.objective, Objective::Loss);
        // Default objective stays out of the serialized form so pre-existing
        // spec.json files and their re-serializations stay byte-compatible.
        assert!(!plain.to_json().contains("objective"));
    }

    #[test]
    fn space_field_round_trips_and_default_stays_out() {
        let spec = StudySpec::from_json(r#"{"dataset":"moons","space":"incremental:0.05"}"#)
            .unwrap();
        assert_eq!(spec.space, SpaceGrowth::Incremental { eui_threshold: 0.05 });
        let again = StudySpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, again);
        // Default-threshold incremental renders in the short form, and the
        // round-trip through spec.json is byte-identical.
        let short = StudySpec::from_json(r#"{"dataset":"moons","space":"incremental"}"#).unwrap();
        assert!(short.to_json().contains("\"space\":\"incremental\""));
        assert_eq!(short.to_json(), StudySpec::from_json(&short.to_json()).unwrap().to_json());

        // Fixed (the default) stays out of the serialized form so
        // pre-existing spec.json files re-serialize byte-compatibly.
        let plain = StudySpec::from_json(r#"{"dataset":"moons"}"#).unwrap();
        assert!(plain.space.is_fixed());
        assert!(!plain.to_json().contains("space"));

        let err = StudySpec::from_json(r#"{"dataset":"moons","space":"huge"}"#).unwrap_err();
        assert!(err.contains("space mode"), "{err}");
    }

    #[test]
    fn synthetic_datasets_build() {
        for kind in NAMED_KINDS {
            let spec = StudySpec::from_json(&format!(r#"{{"dataset":"{kind}"}}"#)).unwrap();
            let d = spec.build_dataset().unwrap();
            assert!(d.n_samples() > 0);
        }
    }
}
