//! Declarative execution plans (§4): a [`PlanSpec`] tree is compiled against
//! a [`SpaceDef`] into a tree of building blocks, mirroring how a relational
//! plan is compiled into physical operators.

use crate::alternating::AlternatingBlock;
use crate::block::{Assignment, BlockOptions, BuildingBlock};
use crate::conditioning::ConditioningBlock;
use crate::joint::JointBlock;
use crate::spaces::{SpaceDef, VarDef, VarGroup};
use crate::{CoreError, Result};
use volcanoml_bo::Domain;
use volcanoml_data::rand_util::derive_seed;

pub use crate::joint::JointEngine as EngineKind;

/// Selects which variables go to the *left* child of an alternating split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VarFilter {
    /// Feature-engineering variables (`fe:*`).
    Fe,
    /// Everything that is not FE (algorithm selector + HPs).
    NonFe,
    /// Variables whose name starts with the prefix.
    Prefix(String),
}

impl VarFilter {
    /// Whether a variable goes to the left side.
    pub fn matches(&self, var: &VarDef) -> bool {
        match self {
            VarFilter::Fe => var.group == VarGroup::Fe,
            VarFilter::NonFe => var.group != VarGroup::Fe,
            VarFilter::Prefix(p) => var.name.starts_with(p.as_str()),
        }
    }

    /// An alternating block's split of its scope `vars`: `(left, right)`,
    /// both in `vars` order. The compiler and [`BuildingBlock::grow`] both
    /// lay alternating sides out with it.
    pub(crate) fn split(&self, space: &SpaceDef, vars: &[String]) -> (Vec<String>, Vec<String>) {
        vars.iter()
            .cloned()
            .partition(|name| space.var(name).is_some_and(|v| self.matches(v)))
    }
}

/// The scope of a conditioning block's arm `on = value`, given the block's
/// own scope `vars`: `vars` without `on` and without the variables
/// `on = value` deactivates. Every other pin of the arm's context was already
/// applied above it, so this is the whole context activity filter. The
/// compiler and [`BuildingBlock::grow`] both lay arms out with it.
pub(crate) fn arm_vars(space: &SpaceDef, vars: &[String], on: &str, value: usize) -> Vec<String> {
    vars.iter()
        .filter(|name| {
            *name != on
                && space.var(name).is_some_and(|var| match &var.condition {
                    Some((parent, values)) if parent == on => values.contains(&value),
                    _ => true,
                })
        })
        .cloned()
        .collect()
}

/// Where a plan node is compiled: its block-tree path, the nearest enclosing
/// conditioning arm (`var=value`, empty outside any), the variables pinned
/// above it, and its seed.
struct Site {
    label: String,
    arm: String,
    context: Assignment,
    seed: u64,
}

impl Site {
    /// The site of an alternating side: same arm and context, its own path
    /// and seed stream.
    fn side(&self, name: &str, stream: u64) -> Site {
        Site {
            label: format!("{}/{name}", self.label),
            arm: self.arm.clone(),
            context: self.context.clone(),
            seed: derive_seed(self.seed, stream),
        }
    }
}

/// A declarative execution plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanSpec {
    /// One joint block over all remaining variables.
    Joint(EngineKind),
    /// Condition on a categorical variable; one child per value.
    Conditioning {
        /// Conditioned variable name (must be categorical).
        on: String,
        /// Template for each child subspace.
        child: Box<PlanSpec>,
    },
    /// Alternate between two variable subsets.
    Alternating {
        /// Variables matching this filter go left; the rest go right.
        left_filter: VarFilter,
        /// Plan for the left subset.
        left: Box<PlanSpec>,
        /// Plan for the right subset.
        right: Box<PlanSpec>,
    },
}

impl PlanSpec {
    /// [`compile_with`](Self::compile_with) under the default
    /// [`BlockOptions`].
    pub fn compile(&self, space: &SpaceDef, seed: u64) -> Result<Box<dyn BuildingBlock>> {
        self.compile_with(space, seed, &BlockOptions::default())
    }

    /// Compiles the plan against a space into a block tree, every block and
    /// engine configured from `options` — the only place a tree is
    /// configured.
    pub fn compile_with(
        &self,
        space: &SpaceDef,
        seed: u64,
        options: &BlockOptions,
    ) -> Result<Box<dyn BuildingBlock>> {
        let root = Site {
            label: "root".to_string(),
            arm: String::new(),
            context: Assignment::new(),
            seed,
        };
        self.compile_inner(space, &space.var_names(), root, options)
    }

    /// Compiles this node over its scope `vars` — the variables of `space`
    /// still active under `site.context` — at `site`.
    fn compile_inner(
        &self,
        space: &SpaceDef,
        vars: &[String],
        site: Site,
        options: &BlockOptions,
    ) -> Result<Box<dyn BuildingBlock>> {
        let label = &site.label;
        match self {
            PlanSpec::Joint(engine) => {
                let cs = space.compile_subspace(vars, &site.context)?;
                Ok(Box::new(JointBlock::new(
                    site.label,
                    site.arm,
                    cs,
                    *engine,
                    site.context,
                    site.seed,
                    options,
                )))
            }
            PlanSpec::Conditioning { on, child } => {
                if !vars.contains(on) {
                    return Err(CoreError::Invalid(format!(
                        "conditioning variable {on} not in scope at {label}"
                    )));
                }
                let var = space
                    .var(on)
                    .ok_or_else(|| CoreError::Invalid(format!("unknown variable {on}")))?;
                let Domain::Cat { n } = var.domain else {
                    return Err(CoreError::Invalid(format!(
                        "conditioning variable {on} must be categorical"
                    )));
                };
                let mut children: Vec<(usize, Box<dyn BuildingBlock>)> = Vec::with_capacity(n);
                for value in 0..n {
                    let arm = format!("{on}={value}");
                    let mut context = site.context.clone();
                    context.insert(on.clone(), value as f64);
                    let arm_site = Site {
                        label: format!("{label}/{arm}"),
                        arm,
                        context,
                        seed: derive_seed(site.seed, value as u64 + 1),
                    };
                    let scope = arm_vars(space, vars, on, value);
                    let block = child.compile_inner(space, &scope, arm_site, options)?;
                    children.push((value, block));
                }
                Ok(Box::new(ConditioningBlock::new(
                    site.label,
                    on.clone(),
                    children,
                    options,
                )))
            }
            PlanSpec::Alternating {
                left_filter,
                left,
                right,
            } => {
                let (left_vars, right_vars) = left_filter.split(space, vars);
                if left_vars.is_empty() || right_vars.is_empty() {
                    return Err(CoreError::Invalid(format!(
                        "alternating split at {label} leaves one side empty \
                         ({} left / {} right)",
                        left_vars.len(),
                        right_vars.len()
                    )));
                }
                let left_block =
                    left.compile_inner(space, &left_vars, site.side("left", 101), options)?;
                let right_block =
                    right.compile_inner(space, &right_vars, site.side("right", 202), options)?;
                Ok(Box::new(AlternatingBlock::new(
                    site.label,
                    left_filter.clone(),
                    (left_block, left_vars),
                    (right_block, right_vars),
                    space.defaults(),
                    options,
                )))
            }
        }
    }

    /// Short human-readable rendering of the plan shape.
    pub fn render(&self) -> String {
        match self {
            PlanSpec::Joint(e) => format!("Joint({})", e.name()),
            PlanSpec::Conditioning { on, child } => {
                format!("Conditioning({on}) -> {}", child.render())
            }
            PlanSpec::Alternating { left, right, .. } => {
                format!("Alternating[{} | {}]", left.render(), right.render())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Evaluator;
    use crate::plans::{p1_joint, p3_volcano};
    use crate::spaces::SpaceTier;
    use volcanoml_data::synthetic::{make_classification, ClassificationSpec};
    use volcanoml_data::{Metric, Task};

    fn setup(tier: SpaceTier) -> (Evaluator, SpaceDef) {
        let space = SpaceDef::tiered(Task::Classification, tier);
        let d = make_classification(
            &ClassificationSpec {
                n_samples: 260,
                n_features: 8,
                n_informative: 5,
                n_redundant: 0,
                n_classes: 2,
                class_sep: 1.4,
                flip_y: 0.02,
                weights: Vec::new(),
            },
            9,
        );
        let ev = Evaluator::new(space.clone(), &d, Metric::BalancedAccuracy, 0).unwrap();
        (ev, space)
    }

    #[test]
    fn joint_plan_compiles_and_runs() {
        let (ev, space) = setup(SpaceTier::Small);
        let mut block = p1_joint(EngineKind::Bo)
            .compile(&space, 0)
            .unwrap();
        for _ in 0..6 {
            block.pull(&ev, None, 1).unwrap();
        }
        assert!(block.current_best().unwrap().loss.is_finite());
    }

    #[test]
    fn volcano_plan_compiles_to_expected_tree() {
        let (_, space) = setup(SpaceTier::Small);
        let plan = p3_volcano(EngineKind::Bo);
        let block = plan.compile(&space, 0).unwrap();
        let rendered = crate::block::explain(block.as_ref());
        assert!(rendered.contains("Conditioning[root]"));
        assert!(rendered.contains("Alternating["));
        assert!(rendered.contains("Joint["));
        // One arm per algorithm.
        assert_eq!(
            rendered.matches("Alternating[").count(),
            space.algorithms.len()
        );
    }

    #[test]
    fn volcano_plan_runs_and_improves() {
        let (ev, space) = setup(SpaceTier::Small);
        let mut block = p3_volcano(EngineKind::Bo)
            .compile(&space, 0)
            .unwrap();
        for _ in 0..20 {
            block.pull(&ev, None, 1).unwrap();
        }
        let best = block.current_best().unwrap();
        assert!(best.loss < 0.5, "loss {}", best.loss);
        assert!(best.assignment.contains_key("algorithm"));
    }

    #[test]
    fn conditioning_on_unknown_variable_fails() {
        let (_, space) = setup(SpaceTier::Small);
        let plan = PlanSpec::Conditioning {
            on: "nonexistent".to_string(),
            child: Box::new(PlanSpec::Joint(EngineKind::Bo)),
        };
        assert!(plan.compile(&space, 0).is_err());
    }

    #[test]
    fn conditioning_on_non_categorical_fails() {
        let (_, space) = setup(SpaceTier::Small);
        let plan = PlanSpec::Conditioning {
            on: "alg:logistic:alpha".to_string(),
            child: Box::new(PlanSpec::Joint(EngineKind::Bo)),
        };
        assert!(plan.compile(&space, 0).is_err());
    }

    #[test]
    fn empty_alternating_side_fails() {
        let (_, space) = setup(SpaceTier::Small);
        let plan = PlanSpec::Alternating {
            left_filter: VarFilter::Prefix("zzz:".to_string()),
            left: Box::new(PlanSpec::Joint(EngineKind::Bo)),
            right: Box::new(PlanSpec::Joint(EngineKind::Bo)),
        };
        assert!(plan.compile(&space, 0).is_err());
    }

    #[test]
    fn nested_alternating_with_conditioning_inside() {
        // Plan 5 shape: alternate FE against (conditioning on algorithm).
        let (ev, space) = setup(SpaceTier::Small);
        let plan = PlanSpec::Alternating {
            left_filter: VarFilter::Fe,
            left: Box::new(PlanSpec::Joint(EngineKind::Bo)),
            right: Box::new(PlanSpec::Conditioning {
                on: "algorithm".to_string(),
                child: Box::new(PlanSpec::Joint(EngineKind::Bo)),
            }),
        };
        let mut block = plan.compile(&space, 0).unwrap();
        for _ in 0..15 {
            block.pull(&ev, None, 1).unwrap();
        }
        assert!(block.current_best().unwrap().loss.is_finite());
    }

    #[test]
    fn render_shapes() {
        let p = p3_volcano(EngineKind::Bo);
        assert_eq!(
            p.render(),
            "Conditioning(algorithm) -> Alternating[Joint(bo) | Joint(bo)]"
        );
    }

    #[test]
    fn medium_tier_volcano_plan_runs() {
        let (ev, space) = setup(SpaceTier::Medium);
        let mut block = p3_volcano(EngineKind::Bo)
            .compile(&space, 0)
            .unwrap();
        for _ in 0..12 {
            block.pull(&ev, None, 1).unwrap();
        }
        assert!(block.current_best().is_some());
    }
}
