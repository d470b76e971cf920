//! The joint block (§3.3.1): optimizes its whole subspace with one engine —
//! SMAC-style BO by default, random search or MFES-HB/Hyperband/Successive
//! Halving as alternatives.

use crate::block::{Assignment, BlockOptions, BuildingBlock, NodeState};
use crate::evaluator::{Evaluator, Trial, TrialOrigin};
use crate::spaces::SpaceDef;
use crate::Result;
use volcanoml_bo::{
    BracketEngine, ConfigSpace, Configuration, RandomSearch, Smac, Suggest, Suggestion,
};
use volcanoml_obs::{span, EventFields, Tracer};

/// Rung ladder shared by the bracket engines: fidelities 1/9, 1/3, 1.
const ETA: usize = 3;
const R_MIN: f64 = 1.0 / 9.0;
/// Configurations per Successive-Halving bracket.
const SH_BRACKET_SIZE: usize = 9;

/// Which engine a joint block runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JointEngine {
    /// SMAC-style Bayesian optimization (the default).
    Bo,
    /// Uniform random search.
    Random,
    /// Successive Halving over subsampling fidelities.
    SuccessiveHalving,
    /// Hyperband.
    Hyperband,
    /// MFES-HB (multi-fidelity ensemble surrogate Hyperband).
    MfesHb,
}

impl JointEngine {
    /// Every engine, in the order the front ends document them.
    const ALL: [JointEngine; 5] = [
        JointEngine::Bo,
        JointEngine::Random,
        JointEngine::SuccessiveHalving,
        JointEngine::Hyperband,
        JointEngine::MfesHb,
    ];

    /// The engine over `space`, built cost-aware when asked (random search
    /// has nothing to rank by cost).
    fn build(self, space: ConfigSpace, seed: u64, cost_aware: bool) -> Box<dyn Suggest> {
        let bracket =
            |b: BracketEngine| -> Box<dyn Suggest> { Box::new(b.with_cost_aware(cost_aware)) };
        match self {
            JointEngine::Bo => Box::new(Smac::new(space, seed).with_cost_aware(cost_aware)),
            JointEngine::Random => Box::new(RandomSearch::new(space, seed)),
            JointEngine::SuccessiveHalving => {
                bracket(BracketEngine::successive_halving(space, SH_BRACKET_SIZE, R_MIN, ETA, seed))
            }
            JointEngine::Hyperband => bracket(BracketEngine::hyperband(space, R_MIN, ETA, seed)),
            JointEngine::MfesHb => bracket(BracketEngine::mfes_hb(space, R_MIN, ETA, seed)),
        }
    }

    /// Short name for plan rendering.
    pub fn name(self) -> &'static str {
        match self {
            JointEngine::Bo => "bo",
            JointEngine::Random => "random",
            JointEngine::SuccessiveHalving => "sh",
            JointEngine::Hyperband => "hyperband",
            JointEngine::MfesHb => "mfes-hb",
        }
    }

    /// Inverse of [`JointEngine::name`] — the one engine-name table the CLI
    /// and the serve spec parser share.
    pub fn from_name(s: &str) -> std::result::Result<JointEngine, String> {
        JointEngine::ALL
            .into_iter()
            .find(|e| e.name() == s)
            .ok_or_else(|| format!("unknown engine '{s}'"))
    }
}

/// A leaf's own assignment over its `context` and `fixed` pins (own values
/// win, then pins): what it evaluates and what its incumbent reports.
pub(crate) fn merged(context: &Assignment, fixed: &Assignment, own: &Assignment) -> Assignment {
    let mut merged = context.clone();
    for (k, v) in fixed {
        merged.insert(k.clone(), *v);
    }
    for (k, v) in own {
        merged.insert(k.clone(), *v);
    }
    merged
}

/// A leaf block running one optimizer over its own `ConfigSpace`.
pub struct JointBlock {
    /// The block's plan path, journaled and traced with its trials.
    label: String,
    /// The nearest enclosing conditioning arm (`var=value`, empty outside
    /// any), journaled and traced with its trials.
    arm: String,
    engine_kind: JointEngine,
    engine: Box<dyn Suggest>,
    /// Variables resolved at plan-compile time (e.g. `algorithm = 3` inside
    /// a conditioning child). Merged into every evaluation and result.
    context: Assignment,
    /// Variables pinned at runtime via `set_fixed` (alternating siblings).
    fixed: Assignment,
}

impl JointBlock {
    /// Creates a joint block at plan path `label` under conditioning arm
    /// `arm`, over `space` with pinned `context` variables; of `options` it
    /// reads `cost_aware`, which its engine is built with.
    pub fn new(
        label: impl Into<String>,
        arm: impl Into<String>,
        space: ConfigSpace,
        engine: JointEngine,
        context: Assignment,
        seed: u64,
        options: &BlockOptions,
    ) -> JointBlock {
        JointBlock {
            label: label.into(),
            arm: arm.into(),
            engine_kind: engine,
            engine: engine.build(space, seed, options.cost_aware),
            context,
            fixed: Assignment::new(),
        }
    }

    /// Feeds one completed trial back into the engine. Under an enabled
    /// tracer a Bo block reports each observation as a `bo-observe` event at
    /// its path and arm, parented to its pull span.
    fn record_outcome(
        &mut self,
        tracer: &Tracer,
        config: Configuration,
        fidelity: f64,
        loss: f64,
        cost: f64,
    ) {
        self.engine.observe(config, fidelity, loss, cost);
        if tracer.enabled() && self.engine_kind == JointEngine::Bo {
            let history = self.engine.history();
            tracer.event(
                "bo-observe",
                EventFields {
                    path: self.label.clone(),
                    arm: self.arm.clone(),
                    fidelity,
                    loss,
                    detail: format!(
                        "n={} incumbent={:.6} cost={cost:.4}",
                        history.len(),
                        history.best_loss().unwrap_or(f64::INFINITY)
                    ),
                    ..EventFields::default()
                },
            );
        }
    }
}

impl BuildingBlock for JointBlock {
    /// The engine's batch suggestion (constant-liar for SMAC), evaluated
    /// together and attributed to this leaf's path, arm and pull span.
    fn pull(
        &mut self,
        evaluator: &Evaluator,
        pool: Option<&volcanoml_exec::ExecPool>,
        k: usize,
    ) -> Result<()> {
        if k == 0 {
            return Ok(());
        }
        let tracer = evaluator.tracer();
        let mut pull = span(&tracer, "pull", &self.label, "");
        pull.set_detail(format!("batch k={k}"));
        let picks: Vec<Suggestion> = {
            let mut s = span(&tracer, "suggest", &self.label, "");
            s.set_detail(format!("engine={} batch k={k}", self.engine_kind.name()));
            self.engine.suggest_batch(k)
        };
        let trials: Vec<Trial> = picks
            .iter()
            .map(|(cfg, fidelity, tag)| {
                let own = self.engine.space().to_map(cfg);
                (merged(&self.context, &self.fixed, &own), *fidelity, *tag)
            })
            .collect();
        let origin = TrialOrigin {
            path: &self.label,
            arm: &self.arm,
            span: pull.id(),
        };
        let outcomes = evaluator.evaluate_trials(pool, &trials, &origin);
        let mut batch_cost = 0.0;
        let mut batch_best = f64::INFINITY;
        for ((config, fidelity, _), outcome) in picks.into_iter().zip(outcomes) {
            batch_cost += outcome.cost;
            batch_best = batch_best.min(outcome.loss);
            self.record_outcome(&tracer, config, fidelity, outcome.loss, outcome.cost);
        }
        pull.set_loss(batch_best);
        pull.set_cost(batch_cost);
        Ok(())
    }

    /// Compiles `vars` against the grown `space` under this leaf's context,
    /// as the plan compiler does, and extends the live engine in place.
    fn grow(&mut self, space: &SpaceDef, vars: &[String]) -> Result<()> {
        self.engine
            .grow_space(space.compile_subspace(vars, &self.context)?);
        Ok(())
    }

    fn set_fixed(&mut self, fixed: &Assignment) {
        for (k, v) in fixed {
            self.fixed.insert(k.clone(), *v);
        }
    }

    fn state(&self) -> NodeState<'_> {
        NodeState::Joint {
            label: &self.label,
            kind: self.engine_kind,
            engine: self.engine.as_ref(),
            context: &self.context,
            fixed: &self.fixed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spaces::{SpaceDef, SpaceTier};
    use std::sync::Arc;
    use volcanoml_data::synthetic::{make_classification, ClassificationSpec};
    use volcanoml_data::{Metric, Task};

    #[test]
    fn engine_names_round_trip() {
        for engine in JointEngine::ALL {
            assert_eq!(JointEngine::from_name(engine.name()), Ok(engine));
        }
        assert_eq!(
            JointEngine::from_name("sgd").unwrap_err(),
            "unknown engine 'sgd'"
        );
    }

    fn setup() -> (Evaluator, SpaceDef) {
        let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
        let d = make_classification(
            &ClassificationSpec {
                n_samples: 220,
                n_features: 6,
                n_informative: 4,
                n_redundant: 0,
                n_classes: 2,
                class_sep: 1.5,
                flip_y: 0.02,
                weights: Vec::new(),
            },
            3,
        );
        let ev = Evaluator::new(space.clone(), &d, Metric::BalancedAccuracy, 0).unwrap();
        (ev, space)
    }

    fn full_joint(space: &SpaceDef, engine: JointEngine) -> JointBlock {
        let cs = space
            .compile_subspace(&space.var_names(), &Assignment::new())
            .unwrap();
        let options = BlockOptions::default();
        JointBlock::new("full", "", cs, engine, Assignment::new(), 0, &options)
    }

    #[test]
    fn joint_block_improves_over_iterations() {
        let (ev, space) = setup();
        let mut block = full_joint(&space, JointEngine::Bo);
        for _ in 0..12 {
            block.pull(&ev, None, 1).unwrap();
        }
        let best = block.current_best().expect("has a best");
        assert!(best.loss < 0.5, "loss {}", best.loss);
        assert!(best.assignment.contains_key("algorithm"));
        let traj = block.trajectory();
        assert!(!traj.is_empty());
        assert!(traj.windows(2).all(|w| w[1] <= w[0] + 1e-12));
    }

    #[test]
    fn context_is_merged_into_results() {
        let (ev, space) = setup();
        let mut fixed = Assignment::new();
        fixed.insert("algorithm".to_string(), 1.0);
        let cs = space.compile_subspace(&space.var_names(), &fixed).unwrap();
        let options = BlockOptions::default();
        let mut block = JointBlock::new("rf-only", "", cs, JointEngine::Bo, fixed, 0, &options);
        for _ in 0..4 {
            block.pull(&ev, None, 1).unwrap();
        }
        let best = block.current_best().unwrap();
        assert_eq!(best.assignment.get("algorithm"), Some(&1.0));
    }

    #[test]
    fn set_fixed_updates_future_evaluations() {
        let (ev, space) = setup();
        // Block over FE vars only; algorithm comes from set_fixed.
        let fe_vars: Vec<String> = space
            .vars
            .iter()
            .filter(|v| v.group == crate::spaces::VarGroup::Fe)
            .map(|v| v.name.clone())
            .collect();
        let cs = space.compile_subspace(&fe_vars, &Assignment::new()).unwrap();
        let options = BlockOptions::default();
        let mut block = JointBlock::new(
            "fe",
            "",
            cs,
            JointEngine::Random,
            Assignment::new(),
            0,
            &options,
        );
        let mut ctx = space.defaults();
        ctx.insert("algorithm".to_string(), 2.0);
        block.set_fixed(&ctx);
        block.pull(&ev, None, 1).unwrap();
        let best = block.current_best().unwrap();
        assert_eq!(best.assignment.get("algorithm"), Some(&2.0));
    }

    #[test]
    fn own_best_excludes_context() {
        let (ev, space) = setup();
        let mut fixed = Assignment::new();
        fixed.insert("algorithm".to_string(), 0.0);
        let cs = space.compile_subspace(&space.var_names(), &fixed).unwrap();
        let options = BlockOptions::default();
        let mut block = JointBlock::new("x", "", cs, JointEngine::Random, fixed, 0, &options);
        block.pull(&ev, None, 1).unwrap();
        let own = block.own_best().unwrap();
        assert!(!own.contains_key("algorithm"));
    }

    #[test]
    fn mfes_engine_runs_mixed_fidelities() {
        let (ev, space) = setup();
        let mut block = full_joint(&space, JointEngine::MfesHb);
        for _ in 0..20 {
            block.pull(&ev, None, 1).unwrap();
        }
        // Trajectory only counts full-fidelity evaluations.
        assert!(block.trajectory().len() < 20);
        assert!(block.evaluations() == 20);
    }

    /// A pooled Bo pull reports its real observations, and only those: the
    /// constant-liar lies told while picking the batch never reach the trace.
    /// Engines without a model report nothing.
    #[test]
    fn bo_observe_events_cover_real_observations_only() {
        let observed = |engine: JointEngine| -> Vec<String> {
            let (ev, space) = setup();
            let tracer = Arc::new(Tracer::in_memory());
            ev.set_tracer(Arc::clone(&tracer));
            let pool = volcanoml_exec::ExecPool::with_workers(2);
            full_joint(&space, engine).pull(&ev, Some(&pool), 3).unwrap();
            let events = tracer.events();
            assert_eq!(events.iter().filter(|e| e.kind == "trial").count(), 3);
            events
                .into_iter()
                .filter(|e| e.kind == "bo-observe")
                .map(|e| e.detail.split(' ').next().unwrap().to_string())
                .collect()
        };
        assert_eq!(observed(JointEngine::Bo), ["n=1", "n=2", "n=3"]);
        assert!(observed(JointEngine::MfesHb).is_empty());
    }
}
