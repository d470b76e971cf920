//! Incremental search-space construction: grow the pipeline space on
//! plateau evidence.
//!
//! Instead of handing the optimizer the full pipeline space up front, the
//! incremental mode starts from the *minimal* pipeline (imputer, rescaler,
//! balancer — [`volcanoml_fe::space::fe_param_defs_minimal`]) and applies a
//! fixed ladder of discrete expansions ([`volcanoml_fe::space::fe_expansions`])
//! only when the EU-interval machinery says the current space has plateaued:
//! the tree-wide plateau EUI ([`crate::block::BuildingBlock::plateau_eui`])
//! stayed below a threshold for a configurable number of consecutive checks.
//!
//! The [`GrowthController`] owns the live [`SpaceDef`] and the pending
//! expansion ladder. Its trigger logic is deliberately *deterministic in the
//! loss sequence*: journal replay re-drives the same losses through the same
//! controller, so crash-resume reproduces the identical growth trajectory
//! without journaling any controller state beyond the expansion rows
//! themselves (which serve as an audit trail and a replay cross-check).

use crate::spaces::SpaceDef;
use crate::{CoreError, Result};
use volcanoml_fe::space::{fe_expansions, fe_param_defs_minimal, FeExpansion};

/// Default EUI threshold below which the space is considered plateaued.
pub const DEFAULT_EUI_THRESHOLD: f64 = 1e-3;

/// Default number of consecutive below-threshold checks before expanding.
pub const DEFAULT_PLATEAU_WINDOW: usize = 3;

/// How the search space is constructed over the run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SpaceGrowth {
    /// The full space is available from the first trial (the default).
    #[default]
    Fixed,
    /// Start from the minimal pipeline and expand on plateau evidence.
    Incremental {
        /// EUI below this value counts as plateau evidence.
        eui_threshold: f64,
    },
}

impl SpaceGrowth {
    /// Parses `fixed` or `incremental[:EUI_THRESHOLD]` (the CLI/serve
    /// surface syntax, mirroring the objective's `name[:VALUE]` form).
    pub fn parse(s: &str) -> Result<SpaceGrowth> {
        let (name, value) = match s.split_once(':') {
            Some((n, v)) => (n, Some(v)),
            None => (s, None),
        };
        match (name, value) {
            ("fixed", None) => Ok(SpaceGrowth::Fixed),
            ("fixed", Some(_)) => Err(CoreError::Invalid(
                "space mode `fixed` takes no threshold".into(),
            )),
            ("incremental", None) => Ok(SpaceGrowth::Incremental {
                eui_threshold: DEFAULT_EUI_THRESHOLD,
            }),
            ("incremental", Some(v)) => {
                let t: f64 = v.parse().map_err(|_| {
                    CoreError::Invalid(format!("invalid EUI threshold `{v}` in space mode"))
                })?;
                if !t.is_finite() || t <= 0.0 {
                    return Err(CoreError::Invalid(format!(
                        "EUI threshold must be finite and positive, got {t}"
                    )));
                }
                Ok(SpaceGrowth::Incremental { eui_threshold: t })
            }
            _ => Err(CoreError::Invalid(format!(
                "unknown space mode `{s}` (expected fixed | incremental[:EUI_THRESHOLD])"
            ))),
        }
    }

    /// Canonical surface rendering; `parse(render(m)) == m`, and the
    /// default-threshold incremental mode renders without the suffix so a
    /// round-trip through a spec stays byte-identical to the short form.
    pub fn render(&self) -> String {
        match self {
            SpaceGrowth::Fixed => "fixed".to_string(),
            SpaceGrowth::Incremental { eui_threshold } => {
                if *eui_threshold == DEFAULT_EUI_THRESHOLD {
                    "incremental".to_string()
                } else {
                    format!("incremental:{eui_threshold}")
                }
            }
        }
    }

    /// True for the default (fixed) mode.
    pub fn is_fixed(&self) -> bool {
        matches!(self, SpaceGrowth::Fixed)
    }
}

/// One applied expansion, reported to the journal and the event bus.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpansionEvent {
    /// Stage number *after* applying (stage 0 is the minimal seed space).
    pub stage: usize,
    /// The expansion's name (e.g. `transform_stage`).
    pub name: String,
    /// The plateau EUI that triggered the expansion.
    pub trigger_eui: f64,
}

/// Owns the live space and decides when to apply the next expansion.
pub struct GrowthController {
    space: SpaceDef,
    pending: Vec<FeExpansion>,
    threshold: f64,
    window: usize,
    below: usize,
    stage: usize,
}

impl GrowthController {
    /// Creates a controller over the stage-0 (minimal) space. The pending
    /// ladder is re-derived from the space's task and FE options, so a
    /// replayed study rebuilds the identical ladder.
    pub fn new(stage0: SpaceDef, threshold: f64, window: usize) -> GrowthController {
        let pending = fe_expansions(stage0.task, &stage0.fe_options);
        GrowthController {
            space: stage0,
            pending,
            threshold,
            window: window.max(1),
            below: 0,
            stage: 0,
        }
    }

    /// The current (possibly grown) space.
    pub fn space(&self) -> &SpaceDef {
        &self.space
    }

    /// Number of expansions applied so far (0 = minimal seed).
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// True once every expansion has been applied.
    pub fn exhausted(&self) -> bool {
        self.pending.is_empty()
    }

    /// Feeds one plateau-EUI reading. Finite readings below the threshold
    /// accumulate; any other reading resets the streak (the space is still
    /// improving, or some arm has not produced a trajectory yet). When the
    /// streak reaches the window, the next expansion is applied to the live
    /// space and reported; the caller must then regrow the block tree over
    /// the whole grown space.
    pub fn check(&mut self, eui: f64) -> Result<Option<ExpansionEvent>> {
        if self.pending.is_empty() {
            return Ok(None);
        }
        if eui.is_finite() && eui < self.threshold {
            self.below += 1;
        } else {
            self.below = 0;
        }
        if self.below < self.window {
            return Ok(None);
        }
        self.below = 0;
        let exp = self.pending.remove(0);
        self.space.apply_fe_expansion(&exp)?;
        self.stage += 1;
        Ok(Some(ExpansionEvent {
            stage: self.stage,
            name: exp.name.to_string(),
            trigger_eui: eui,
        }))
    }

    /// Canonical state line for [`crate::study::StudyState`]: two controller
    /// instances that would schedule identical futures dump identical lines.
    pub fn capture_state(&self, out: &mut Vec<String>) {
        out.push(format!(
            "growth stage={} pending={} below={} window={} threshold={:016x}",
            self.stage,
            self.pending.len(),
            self.below,
            self.window,
            self.threshold.to_bits()
        ));
    }
}

/// The stage-0 space for incremental mode: same task, algorithm list, and FE
/// options as `full`, but only the minimal FE parameters.
pub fn incremental_seed(full: &SpaceDef) -> Result<SpaceDef> {
    SpaceDef::build(
        full.task,
        full.algorithms.clone(),
        fe_param_defs_minimal(full.task),
        full.fe_options.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spaces::SpaceTier;
    use volcanoml_data::Task;

    fn seed() -> SpaceDef {
        let full = SpaceDef::tiered(Task::Classification, SpaceTier::Medium);
        incremental_seed(&full).unwrap()
    }

    #[test]
    fn parse_and_render_round_trip() {
        assert_eq!(SpaceGrowth::parse("fixed").unwrap(), SpaceGrowth::Fixed);
        assert_eq!(
            SpaceGrowth::parse("incremental").unwrap(),
            SpaceGrowth::Incremental {
                eui_threshold: DEFAULT_EUI_THRESHOLD
            }
        );
        assert_eq!(
            SpaceGrowth::parse("incremental:0.05").unwrap(),
            SpaceGrowth::Incremental { eui_threshold: 0.05 }
        );
        for s in ["fixed", "incremental", "incremental:0.05"] {
            assert_eq!(SpaceGrowth::parse(s).unwrap().render(), s);
        }
        assert!(SpaceGrowth::parse("fixed:1").is_err());
        assert!(SpaceGrowth::parse("incremental:-1").is_err());
        assert!(SpaceGrowth::parse("incremental:nope").is_err());
        assert!(SpaceGrowth::parse("bogus").is_err());
    }

    #[test]
    fn plateau_streak_triggers_expansion_and_resets_on_improvement() {
        let mut c = GrowthController::new(seed(), 0.01, 3);
        let stage0_vars = c.space().len();
        // Two below-threshold readings, then an improvement: streak resets.
        assert!(c.check(0.001).unwrap().is_none());
        assert!(c.check(0.001).unwrap().is_none());
        assert!(c.check(0.5).unwrap().is_none());
        assert!(c.check(0.001).unwrap().is_none());
        assert!(c.check(0.001).unwrap().is_none());
        let ev = c.check(0.001).unwrap().expect("third consecutive fires");
        assert_eq!(ev.stage, 1);
        assert_eq!(ev.name, "transform_stage");
        assert_eq!(ev.trigger_eui, 0.001);
        assert!(c.space().len() > stage0_vars);
        assert_eq!(c.stage(), 1);
    }

    #[test]
    fn infinite_eui_blocks_expansion() {
        // Warm-up arms report EUI = ∞ (no trajectory yet): never counts as
        // plateau evidence.
        let mut c = GrowthController::new(seed(), 0.01, 1);
        assert!(c.check(f64::INFINITY).unwrap().is_none());
        assert!(c.check(f64::NAN).unwrap().is_none());
        assert_eq!(c.stage(), 0);
    }

    #[test]
    fn ladder_exhausts_after_all_expansions() {
        let mut c = GrowthController::new(seed(), 0.01, 1);
        let mut names = Vec::new();
        while !c.exhausted() {
            if let Some(ev) = c.check(0.0).unwrap() {
                names.push(ev.name.clone());
            }
        }
        assert_eq!(names, vec!["transform_stage", "operator_families"]);
        assert_eq!(c.stage(), 2);
        // Exhausted controllers ignore further plateau evidence.
        assert!(c.check(0.0).unwrap().is_none());
        assert_eq!(c.stage(), 2);
    }

    #[test]
    fn capture_state_is_deterministic() {
        let mut a = GrowthController::new(seed(), 0.01, 3);
        let mut b = GrowthController::new(seed(), 0.01, 3);
        for c in [&mut a, &mut b] {
            c.check(0.001).unwrap();
        }
        let (mut la, mut lb) = (Vec::new(), Vec::new());
        a.capture_state(&mut la);
        b.capture_state(&mut lb);
        assert_eq!(la, lb);
        assert!(la[0].contains("stage=0 pending=2 below=1"));
    }

    #[test]
    fn incremental_seed_keeps_algorithms_and_shrinks_fe() {
        let full = SpaceDef::tiered(Task::Classification, SpaceTier::Medium);
        let s = incremental_seed(&full).unwrap();
        assert_eq!(s.algorithms, full.algorithms);
        assert!(s.len() < full.len());
        // Non-FE variables are identical.
        for v in full.vars.iter().filter(|v| v.group != crate::spaces::VarGroup::Fe) {
            assert!(s.var(&v.name).is_some(), "missing {}", v.name);
        }
    }
}
