//! The building-block interface (§3.2 of the paper).
//!
//! Blocks form a tree; `pull` on the root recursively descends to the leaves
//! and performs (roughly) `k` pipeline evaluations — the Volcano-style
//! pull-based execution model. A block implements four methods: the two
//! that act (`pull`, `set_fixed`), `grow`, and [`BuildingBlock::state`],
//! which reports what the block is as one borrowed [`NodeState`]. Every
//! query is a provided method written once over that state, and so are
//! [`explain`] and [`crate::study::StudyState::capture`]:
//!
//! | paper | here | where the answer comes from |
//! |---|---|---|
//! | `do_next!(B)` | [`BuildingBlock::pull`] | each block's own `pull` |
//! | `get_current_best(B)` | [`BuildingBlock::current_best`] | a leaf's engine history; the best child |
//! | `get_eu(B, K)` | [`BuildingBlock::expected_utility`] | the trajectory; a conditioning block's best arm |
//! | `get_eui(B)` | [`BuildingBlock::expected_utility_improvement`] | the trajectory |
//! | `set_var(B, x̄, c̄)` | [`BuildingBlock::set_fixed`] | each block's own `set_fixed` |
//!
//! [`BuildingBlock::do_next`] and [`BuildingBlock::do_next_batch`] are
//! one-line wrappers over `pull`, kept because the benchmark harness calls
//! them; they go when `benchmark/` next moves.

use crate::conditioning::Arm;
use crate::eu::{eu_interval, eui, merge_trajectories};
use crate::evaluator::Evaluator;
use crate::joint::{merged, JointEngine};
use crate::spaces::SpaceDef;
use crate::Result;
use std::collections::HashMap;
use volcanoml_bo::Suggest;
use volcanoml_exec::ExecPool;

pub use crate::eu::LossInterval;

/// A full or partial variable assignment (name → value).
pub type Assignment = HashMap<String, f64>;

/// The best solution a block has found.
#[derive(Debug, Clone)]
pub struct BestSolution {
    /// Assignment over the block's own variables plus its fixed context.
    pub assignment: Assignment,
    /// Loss achieved by that assignment at full fidelity.
    pub loss: f64,
}

/// Everything a block or engine is configured with beyond its space and
/// seed. Fixed when [`crate::PlanSpec::compile_with`] builds the tree;
/// nothing reconfigures a built tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockOptions {
    /// Joint leaves build their engine cost-aware (EI per predicted second,
    /// promotion by loss improvement per second); random search ignores it.
    pub cost_aware: bool,
    /// Conditioning blocks eliminate dominated arms (Algorithm 1); off, they
    /// are a plain round-robin bandit.
    pub arm_elimination: bool,
    /// Alternating blocks schedule by EUI after their round-robin warm-up
    /// (Algorithm 3); off, they alternate round-robin forever.
    pub eui_scheduling: bool,
}

impl Default for BlockOptions {
    fn default() -> Self {
        BlockOptions {
            cost_aware: false,
            arm_elimination: true,
            eui_scheduling: true,
        }
    }
}

/// What one plan-tree node is, borrowed from it ([`BuildingBlock::state`]):
/// the provided queries, [`explain`] and [`crate::study::StudyState::capture`]
/// all read it, so none of them is written per block type.
pub enum NodeState<'a> {
    /// A leaf: its plan path, its engine (whose history holds every trial it
    /// observed), its compile-time `context` and runtime `fixed` pins.
    Joint {
        label: &'a str,
        kind: JointEngine,
        engine: &'a dyn Suggest,
        context: &'a Assignment,
        fixed: &'a Assignment,
    },
    /// A bandit over the values of the categorical `var`: its plan path,
    /// round-robin `cursor` (it also advances past eliminated arms) and one
    /// arm per value.
    Conditioning {
        label: &'a str,
        var: &'a str,
        cursor: usize,
        arms: &'a [Arm],
    },
    /// Two complementary sides played alternately: its plan path and its
    /// pulls so far (one scheduling decision each, not trials).
    Alternating {
        label: &'a str,
        plays: usize,
        left: &'a dyn BuildingBlock,
        right: &'a dyn BuildingBlock,
    },
}

/// One node of a VolcanoML execution plan.
pub trait BuildingBlock {
    /// Advances the optimization by (approximately) `k` evaluations of the
    /// underlying objective, recursively delegating to child blocks: joint
    /// leaves ask their engine for a batch of `k`, conditioning deals `k`
    /// plays round-robin over its arms, alternating makes one scheduling
    /// decision per pull. The trials run on `pool`'s workers when one is
    /// given and on the calling thread when not; `k = 1` is the paper's
    /// `do_next!`.
    fn pull(&mut self, evaluator: &Evaluator, pool: Option<&ExecPool>, k: usize) -> Result<()>;

    /// Pins context variables (the paper's `set_var`): the block must use
    /// these values for variables outside its own subspace from now on.
    fn set_fixed(&mut self, fixed: &Assignment);

    /// Grows this block's subtree to cover an expanded search space with
    /// the layout [`crate::PlanSpec::compile_with`] gives it. `vars` is the
    /// block's scope in `space`, as the compiler hands it to this node (the
    /// root's is `space.var_names()`): conditioning blocks narrow it per
    /// arm and alternating blocks re-split it with their compile-time
    /// `VarFilter`, through the compiler's own helpers; joint leaves compile
    /// it under their context and extend the live engine in place, so
    /// existing observations stay valid and new variables backfill
    /// defaults. Must be called only between a fully observed batch and the
    /// next suggestion.
    ///
    /// `grow` and [`plateau_eui`](Self::plateau_eui) are tree walks, and
    /// only the tree can reach its leaves, so both stay on this trait until
    /// the `propose`/`deliver` walk can carry them.
    fn grow(&mut self, space: &SpaceDef, vars: &[String]) -> Result<()>;

    /// This node as a [`NodeState`] borrowed from it; allocates nothing.
    fn state(&self) -> NodeState<'_>;

    /// `pull` for one evaluation on the calling thread.
    fn do_next(&mut self, evaluator: &Evaluator) -> Result<()> {
        self.pull(evaluator, None, 1)
    }

    /// `pull` for `k` evaluations on `pool`.
    fn do_next_batch(&mut self, evaluator: &Evaluator, pool: &ExecPool, k: usize) -> Result<()> {
        self.pull(evaluator, Some(pool), k)
    }

    /// The best full-fidelity finite-loss solution observed so far, if any.
    /// Derived, not stored: a joint leaf reads its engine history's
    /// incumbent and merges it under its context and current pins; interior
    /// blocks take the best over their children.
    fn current_best(&self) -> Option<BestSolution> {
        match self.state() {
            NodeState::Joint { engine, context, fixed, .. } => Some(BestSolution {
                assignment: merged(context, fixed, &self.own_best()?),
                loss: engine.history().best_loss()?,
            }),
            NodeState::Conditioning { var, arms, .. } => arms
                .iter()
                .filter_map(|a| {
                    a.block.current_best().map(|mut b| {
                        b.assignment.entry(var.to_string()).or_insert(a.value as f64);
                        b
                    })
                })
                .min_by(|a, b| a.loss.partial_cmp(&b.loss).unwrap_or(std::cmp::Ordering::Equal)),
            NodeState::Alternating { left, right, .. } => {
                match (left.current_best(), right.current_best()) {
                    (Some(l), Some(r)) => Some(if l.loss <= r.loss { l } else { r }),
                    (l, r) => l.or(r),
                }
            }
        }
    }

    /// The best assignment restricted to the block's *own* variables
    /// (excluding pinned context) — what an alternating sibling pins via
    /// `set_var`.
    fn own_best(&self) -> Option<Assignment> {
        match self.state() {
            NodeState::Joint { engine, .. } => {
                let best = engine.history().best()?;
                Some(engine.space().to_map(&best.config))
            }
            NodeState::Conditioning { var, arms, .. } => {
                // Best arm's own variables plus the conditioned variable itself.
                let (arm, _) = arms
                    .iter()
                    .filter_map(|a| a.block.current_best().map(|b| (a, b.loss)))
                    .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap_or(std::cmp::Ordering::Equal))?;
                let mut own = arm.block.own_best().unwrap_or_default();
                own.insert(var.to_string(), arm.value as f64);
                Some(own)
            }
            // This block owns both sides' variables: the right side's own
            // assignment, overwritten by the left side's where they overlap.
            NodeState::Alternating { left, right, .. } => match (left.own_best(), right.own_best()) {
                (None, None) => None,
                (l, r) => Some(r.into_iter().chain(l).flatten().collect()),
            },
        }
    }

    /// Rising-bandit expected-utility interval given `k` more iterations,
    /// extrapolated from the block's own [`trajectory`](Self::trajectory).
    /// A conditioning block's potential is its best active arm's: the
    /// smallest optimistic bound, with the smallest pessimistic bound.
    fn expected_utility(&self, k: usize) -> LossInterval {
        if let NodeState::Conditioning { arms, .. } = self.state() {
            let mut best = LossInterval::unknown();
            let mut any = false;
            for a in arms.iter().filter(|a| a.active) {
                let iv = a.block.expected_utility(k);
                if !any || iv.optimistic < best.optimistic {
                    best = LossInterval {
                        optimistic: iv.optimistic,
                        pessimistic: best.pessimistic.min(iv.pessimistic),
                    };
                    any = true;
                } else {
                    best.pessimistic = best.pessimistic.min(iv.pessimistic);
                }
            }
            if any {
                return best;
            }
        }
        eu_interval(&self.trajectory(), k, 0.0)
    }

    /// Rotting-bandit expected utility improvement (mean recent improvement).
    fn expected_utility_improvement(&self) -> f64 {
        eui(&self.trajectory(), 4)
    }

    /// The EUI signal used as plateau evidence for incremental space
    /// construction: a leaf's own EUI. Interior bandit blocks report the
    /// *maximum* over surviving children — the space has plateaued only
    /// once every surviving arm (and both alternating sides) has; a single
    /// still-improving or not-yet-warmed-up (EUI = ∞) arm keeps it fixed.
    fn plateau_eui(&self) -> f64 {
        match self.state() {
            NodeState::Joint { .. } => self.expected_utility_improvement(),
            NodeState::Conditioning { arms, .. } => arms
                .iter()
                .filter(|a| a.active)
                .map(|a| a.block.plateau_eui())
                .fold(f64::NEG_INFINITY, f64::max),
            NodeState::Alternating { left, right, .. } => {
                left.plateau_eui().max(right.plateau_eui())
            }
        }
    }

    /// Best-so-far loss trajectory, one entry per full-fidelity finite-loss
    /// evaluation this block performed — the raw signal behind EU/EUI. A
    /// joint leaf reads its engine history's; interior blocks merge their
    /// children's round-robin ([`crate::eu::merge_trajectories`]).
    fn trajectory(&self) -> Vec<f64> {
        match self.state() {
            NodeState::Joint { engine, .. } => engine.history().trajectory(),
            NodeState::Conditioning { arms, .. } => {
                let arms: Vec<Vec<f64>> = arms.iter().map(|a| a.block.trajectory()).collect();
                merge_trajectories(&arms)
            }
            NodeState::Alternating { left, right, .. } => {
                merge_trajectories(&[left.trajectory(), right.trajectory()])
            }
        }
    }

    /// Trials this block (and its children) have observed: a joint leaf's
    /// engine history length, an interior block's sum over its children. A
    /// pull of `k > 0` raises it by exactly `k`.
    fn evaluations(&self) -> usize {
        match self.state() {
            NodeState::Joint { engine, .. } => engine.history().len(),
            NodeState::Conditioning { arms, .. } => arms.iter().map(|a| a.block.evaluations()).sum(),
            NodeState::Alternating { left, right, .. } => left.evaluations() + right.evaluations(),
        }
    }
}

/// Renders a block tree as a string (the "EXPLAIN" of an execution plan):
/// one line per node, children indented under their parent.
pub fn explain(block: &dyn BuildingBlock) -> String {
    let mut out = String::new();
    explain_into(block, 0, &mut out);
    out
}

fn explain_into(block: &dyn BuildingBlock, indent: usize, out: &mut String) {
    let pad = " ".repeat(indent);
    match block.state() {
        NodeState::Joint { label, kind, engine, .. } => out.push_str(&format!(
            "{pad}Joint[{label}] engine={} vars={} evals={}\n",
            kind.name(),
            engine.space().len(),
            engine.history().len()
        )),
        NodeState::Conditioning { label, var, arms, .. } => {
            let active = arms.iter().filter(|a| a.active).count();
            out.push_str(&format!("{pad}Conditioning[{label}] on={var} arms={} active={active}\n", arms.len()));
            for a in arms {
                let plays = a.block.evaluations();
                out.push_str(&format!("{pad}  value={} active={} plays={plays}\n", a.value, a.active));
                explain_into(a.block.as_ref(), indent + 4, out);
            }
        }
        NodeState::Alternating { label, left, right, .. } => {
            let (l, r) = (left.evaluations(), right.evaluations());
            out.push_str(&format!("{pad}Alternating[{label}] plays(l/r)={l}/{r}\n"));
            explain_into(left, indent + 2, out);
            explain_into(right, indent + 2, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::EngineKind;
    use crate::plans::{p1_joint, p3_volcano};
    use crate::spaces::SpaceTier;
    use volcanoml_data::synthetic::{make_classification, ClassificationSpec};
    use volcanoml_data::{Metric, Task};

    fn setup() -> (Evaluator, SpaceDef) {
        let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
        let d = make_classification(
            &ClassificationSpec {
                n_samples: 260,
                ..ClassificationSpec::default()
            },
            4,
        );
        let ev = Evaluator::new(space.clone(), &d, Metric::BalancedAccuracy, 0).unwrap();
        (ev, space)
    }

    /// A compiled P1 leaf driven through both `pull` wrappers: its queries
    /// read the engine history the trials landed in.
    #[test]
    fn joint_leaf_tracks_best_and_trajectory() {
        let (ev, space) = setup();
        let mut leaf = p1_joint(EngineKind::Bo).compile(&space, 0).unwrap();
        assert!(leaf.current_best().is_none());
        assert!(leaf.trajectory().is_empty());
        leaf.do_next(&ev).unwrap();
        let pool = ExecPool::with_workers(2);
        leaf.do_next_batch(&ev, &pool, 2).unwrap();
        assert_eq!(leaf.evaluations(), 3);
        let NodeState::Joint { engine, .. } = leaf.state() else {
            panic!("P1 compiles to a joint leaf");
        };
        let mut best = f64::INFINITY;
        let expected: Vec<f64> = engine
            .history()
            .observations()
            .iter()
            .map(|o| o.loss)
            .filter(|l| l.is_finite())
            .map(|l| {
                best = best.min(l);
                best
            })
            .collect();
        assert_eq!(leaf.trajectory(), expected);
        let incumbent = leaf.current_best().unwrap();
        assert_eq!(incumbent.loss, best);
        assert!(incumbent.assignment.contains_key("algorithm"));
    }

    /// The EXPLAIN of a seeded P3 run, byte for byte: arm counts, the
    /// eliminated arms, each alternating block's split and every leaf's
    /// engine, width and count.
    #[test]
    fn explain_renders_tree() {
        let (ev, space) = setup();
        let mut root = p3_volcano(EngineKind::Bo).compile(&space, 11).unwrap();
        for _ in 0..30 {
            root.pull(&ev, None, 1).unwrap();
        }
        assert_eq!(
            explain(root.as_ref()),
            "\
Conditioning[root] on=algorithm arms=3 active=1
  value=0 active=true plays=22
    Alternating[root/algorithm=0] plays(l/r)=16/6
      Joint[root/algorithm=0/left] engine=bo vars=3 evals=16
      Joint[root/algorithm=0/right] engine=bo vars=3 evals=6
  value=1 active=false plays=4
    Alternating[root/algorithm=1] plays(l/r)=2/2
      Joint[root/algorithm=1/left] engine=bo vars=3 evals=2
      Joint[root/algorithm=1/right] engine=bo vars=5 evals=2
  value=2 active=false plays=4
    Alternating[root/algorithm=2] plays(l/r)=2/2
      Joint[root/algorithm=2/left] engine=bo vars=3 evals=2
      Joint[root/algorithm=2/right] engine=bo vars=2 evals=2
"
        );
    }
}
