//! The alternating block (§3.3.3, Algorithms 2 and 3): splits its space into
//! two variable sets explored alternately. The first `2L` pulls follow
//! Algorithm 2's round-robin initialization (unrolled to one side per
//! pull); afterwards, Algorithm 3 plays the child with the larger
//! expected utility improvement. Before each play, the *other* child's best
//! assignment is pinned into the played child (`set_var`).

use crate::block::{Assignment, BlockOptions, BuildingBlock, NodeState};
use crate::evaluator::Evaluator;
use crate::plan::VarFilter;
use crate::spaces::SpaceDef;
use crate::Result;
use volcanoml_obs::span;

/// Round-robin plays per side before EUI scheduling (the paper's `L`;
/// smaller than its 5 for the same reason as the conditioning block's
/// warm-up).
const INIT_ROUNDS: usize = 2;

/// One side of the alternation.
struct Side {
    block: Box<dyn BuildingBlock>,
    /// Names of the variables this side owns (pinned into the sibling).
    vars: Vec<String>,
}

/// Alternating block over two complementary children.
pub struct AlternatingBlock {
    label: String,
    /// The split the sides' variables came from, re-applied on growth.
    filter: VarFilter,
    left: Side,
    right: Side,
    /// When true, scheduling stays round-robin forever (the ablation
    /// baseline measured by the blocks-ablation bench).
    round_robin_only: bool,
    /// Pulls so far (one scheduling decision each), not trials.
    plays: usize,
    defaults: Assignment,
}

impl AlternatingBlock {
    /// Creates an alternating block from two `(child, its variables)` sides,
    /// split by `filter`. `defaults` must cover both children's variables
    /// (used to pin siblings before their first result); of `options` it
    /// reads `eui_scheduling`.
    pub fn new(
        label: impl Into<String>,
        filter: VarFilter,
        (left, left_vars): (Box<dyn BuildingBlock>, Vec<String>),
        (right, right_vars): (Box<dyn BuildingBlock>, Vec<String>),
        defaults: Assignment,
        options: &BlockOptions,
    ) -> AlternatingBlock {
        let mut block = AlternatingBlock {
            label: label.into(),
            filter,
            left: Side {
                block: left,
                vars: left_vars,
            },
            right: Side {
                block: right,
                vars: right_vars,
            },
            round_robin_only: !options.eui_scheduling,
            plays: 0,
            defaults,
        };
        // Algorithm 2 line 1: initialize ȳ and z̄ with defaults.
        let right_defaults = block.defaults_for(&block.right.vars);
        block.left.block.set_fixed(&right_defaults);
        let left_defaults = block.defaults_for(&block.left.vars);
        block.right.block.set_fixed(&left_defaults);
        block
    }

    fn defaults_for(&self, vars: &[String]) -> Assignment {
        vars.iter()
            .filter_map(|v| self.defaults.get(v).map(|x| (v.clone(), *x)))
            .collect()
    }

    /// Pins the sibling's current best (or defaults) into the side to play.
    fn sync_from_sibling(&mut self, play_left: bool) {
        let (sibling, sibling_vars) = if play_left {
            (&self.right.block, &self.right.vars)
        } else {
            (&self.left.block, &self.left.vars)
        };
        let mut pinned = self.defaults_for(sibling_vars);
        if let Some(own) = sibling.own_best() {
            for (k, v) in own {
                if sibling_vars.contains(&k) {
                    pinned.insert(k, v);
                }
            }
        }
        if play_left {
            self.left.block.set_fixed(&pinned);
        } else {
            self.right.block.set_fixed(&pinned);
        }
    }

    /// Which side to play next (Algorithm 2 during init, Algorithm 3 after),
    /// plus a trace annotation describing the decision.
    fn choose_side(&self) -> (bool, String) {
        if self.round_robin_only || self.plays < 2 * INIT_ROUNDS {
            let left = self.plays.is_multiple_of(2);
            (
                left,
                format!("side={} schedule=round-robin", if left { "left" } else { "right" }),
            )
        } else {
            let left_eui = self.left.block.expected_utility_improvement();
            let right_eui = self.right.block.expected_utility_improvement();
            let left = left_eui >= right_eui;
            (
                left,
                format!(
                    "side={} schedule=eui left_eui={:.6} right_eui={:.6}",
                    if left { "left" } else { "right" },
                    left_eui,
                    right_eui
                ),
            )
        }
    }
}

impl BuildingBlock for AlternatingBlock {
    /// One scheduling decision per pull: the chosen side gets all `k`
    /// trials (pinning the sibling's best once), and the pull counts as a
    /// single "play" for the alternation schedule, so init-phase
    /// round-robin alternates between pulls.
    fn pull(
        &mut self,
        evaluator: &Evaluator,
        pool: Option<&volcanoml_exec::ExecPool>,
        k: usize,
    ) -> Result<()> {
        let (play_left, decision) = self.choose_side();
        let tracer = evaluator.tracer();
        let mut pull = span(&tracer, "pull", &self.label, "");
        pull.set_detail(format!("{decision} batch k={k}"));
        self.sync_from_sibling(play_left);
        if play_left {
            self.left.block.pull(evaluator, pool, k)?;
        } else {
            self.right.block.pull(evaluator, pool, k)?;
        }
        self.plays += 1;
        Ok(())
    }

    fn set_fixed(&mut self, fixed: &Assignment) {
        self.left.block.set_fixed(fixed);
        self.right.block.set_fixed(fixed);
    }

    /// Re-splits `vars` with the compile-time filter, takes the grown
    /// space's defaults, and grows both children over their new sides.
    fn grow(&mut self, space: &SpaceDef, vars: &[String]) -> Result<()> {
        let (left_vars, right_vars) = self.filter.split(space, vars);
        self.left.block.grow(space, &left_vars)?;
        self.right.block.grow(space, &right_vars)?;
        self.left.vars = left_vars;
        self.right.vars = right_vars;
        self.defaults = space.defaults();
        Ok(())
    }

    fn state(&self) -> NodeState<'_> {
        NodeState::Alternating {
            label: &self.label,
            plays: self.plays,
            left: self.left.block.as_ref(),
            right: self.right.block.as_ref(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::joint::{JointBlock, JointEngine};
    use crate::spaces::{SpaceDef, SpaceTier, VarGroup};
    use volcanoml_data::synthetic::{make_classification, ClassificationSpec};
    use volcanoml_data::{Metric, Task};

    fn setup() -> (Evaluator, SpaceDef) {
        let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
        let d = make_classification(
            &ClassificationSpec {
                n_samples: 240,
                n_features: 8,
                n_informative: 5,
                n_redundant: 0,
                n_classes: 2,
                class_sep: 1.3,
                flip_y: 0.02,
                weights: Vec::new(),
            },
            5,
        );
        let ev = Evaluator::new(space.clone(), &d, Metric::BalancedAccuracy, 0).unwrap();
        (ev, space)
    }

    impl AlternatingBlock {
        fn left_plays(&self) -> usize {
            self.left.block.evaluations()
        }

        fn right_plays(&self) -> usize {
            self.right.block.evaluations()
        }
    }

    /// Whether `assignment` sets both an FE variable and a hyper-parameter.
    fn covers_fe_and_hp(space: &SpaceDef, assignment: &Assignment) -> bool {
        let has = |wanted: fn(&VarGroup) -> bool| {
            assignment.keys().any(|k| space.var(k).is_some_and(|v| wanted(&v.group)))
        };
        has(|g| *g == VarGroup::Fe) && has(|g| matches!(g, VarGroup::Hp(_)))
    }

    /// FE-vs-HP alternating block for a fixed algorithm.
    fn fe_hp_alternating(space: &SpaceDef, alg: usize, options: &BlockOptions) -> AlternatingBlock {
        let mut ctx = Assignment::new();
        ctx.insert("algorithm".to_string(), alg as f64);
        let fe_vars: Vec<String> = space
            .vars
            .iter()
            .filter(|v| v.group == VarGroup::Fe)
            .map(|v| v.name.clone())
            .collect();
        let hp_vars: Vec<String> = space
            .vars
            .iter()
            .filter(|v| v.group == VarGroup::Hp(alg))
            .map(|v| v.name.clone())
            .collect();
        let fe_space = space.compile_subspace(&fe_vars, &ctx).unwrap();
        let hp_space = space.compile_subspace(&hp_vars, &ctx).unwrap();
        let joint = |label, cs, seed| -> Box<dyn BuildingBlock> {
            Box::new(JointBlock::new(label, "", cs, JointEngine::Bo, ctx.clone(), seed, options))
        };
        let (left, right) = (joint("fe", fe_space, 1), joint("hp", hp_space, 2));
        AlternatingBlock::new(
            "fe-vs-hp",
            VarFilter::Fe,
            (left, fe_vars),
            (right, hp_vars),
            space.defaults(),
            options,
        )
    }

    #[test]
    fn init_phase_is_round_robin() {
        let (ev, space) = setup();
        let mut block = fe_hp_alternating(&space, 1, &BlockOptions::default());
        for _ in 0..2 * INIT_ROUNDS {
            block.pull(&ev, None, 1).unwrap();
        }
        assert_eq!(block.left_plays(), INIT_ROUNDS);
        assert_eq!(block.right_plays(), INIT_ROUNDS);
    }

    #[test]
    fn finds_a_finite_best_with_both_sides_contributing() {
        let (ev, space) = setup();
        let mut block = fe_hp_alternating(&space, 1, &BlockOptions::default());
        for _ in 0..16 {
            block.pull(&ev, None, 1).unwrap();
        }
        let best = block.current_best().unwrap();
        assert!(best.loss.is_finite());
        assert_eq!(best.assignment.get("algorithm"), Some(&1.0));
        assert!(covers_fe_and_hp(&space, &best.assignment));
    }

    #[test]
    fn eui_scheduling_plays_both_sides() {
        let (ev, space) = setup();
        let mut block = fe_hp_alternating(&space, 1, &BlockOptions::default());
        for _ in 0..30 {
            block.pull(&ev, None, 1).unwrap();
        }
        assert_eq!(block.left_plays() + block.right_plays(), 30);
        assert!(block.left_plays() >= INIT_ROUNDS);
        assert!(block.right_plays() >= INIT_ROUNDS);
    }

    #[test]
    fn round_robin_only_splits_evenly() {
        let (ev, space) = setup();
        let options = BlockOptions {
            eui_scheduling: false,
            ..BlockOptions::default()
        };
        let mut block = fe_hp_alternating(&space, 0, &options);
        for _ in 0..20 {
            block.pull(&ev, None, 1).unwrap();
        }
        assert_eq!(block.left_plays(), 10);
        assert_eq!(block.right_plays(), 10);
    }

    #[test]
    fn trajectory_is_monotone() {
        let (ev, space) = setup();
        let mut block = fe_hp_alternating(&space, 0, &BlockOptions::default());
        for _ in 0..12 {
            block.pull(&ev, None, 1).unwrap();
        }
        let t = block.trajectory();
        assert!(t.windows(2).all(|w| w[1] <= w[0] + 1e-12));
    }

    #[test]
    fn own_best_covers_both_sides() {
        let (ev, space) = setup();
        let mut block = fe_hp_alternating(&space, 1, &BlockOptions::default());
        for _ in 0..12 {
            block.pull(&ev, None, 1).unwrap();
        }
        let own = block.own_best().unwrap();
        assert!(covers_fe_and_hp(&space, &own));
        assert!(!own.contains_key("algorithm"));
    }

    #[test]
    fn set_fixed_propagates_to_both_children() {
        let (ev, space) = setup();
        let mut block = fe_hp_alternating(&space, 2, &BlockOptions::default());
        let mut extra = Assignment::new();
        extra.insert("algorithm".to_string(), 2.0);
        block.set_fixed(&extra);
        block.pull(&ev, None, 1).unwrap();
        block.pull(&ev, None, 1).unwrap();
        let best = block.current_best().unwrap();
        assert_eq!(best.assignment.get("algorithm"), Some(&2.0));
    }
}
