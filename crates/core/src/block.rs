//! The building-block interface (§3.2 of the paper).
//!
//! Blocks form a tree; `pull` on the root recursively descends to the leaves
//! and performs (roughly) `k` pipeline evaluations — the Volcano-style
//! pull-based execution model. All methods mirror the paper's primitives:
//!
//! | paper | here |
//! |---|---|
//! | `do_next!(B)` | [`BuildingBlock::pull`] |
//! | `get_current_best(B)` | [`BuildingBlock::current_best`] |
//! | `get_eu(B, K)` | [`BuildingBlock::expected_utility`] |
//! | `get_eui(B)` | [`BuildingBlock::expected_utility_improvement`] |
//! | `set_var(B, x̄, c̄)` | [`BuildingBlock::set_fixed`] |
//!
//! [`BuildingBlock::do_next`] and [`BuildingBlock::do_next_batch`] are
//! one-line wrappers over `pull`, kept because the benchmark harness calls
//! them; they go when `benchmark/` next moves.

use crate::eu::{eu_interval, eui};
use crate::evaluator::Evaluator;
use crate::spaces::SpaceDef;
use crate::Result;
use std::collections::HashMap;
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
    fn current_best(&self) -> Option<BestSolution>;

    /// The best assignment restricted to the block's *own* variables
    /// (excluding pinned context) — what an alternating sibling pins via
    /// `set_var`.
    fn own_best(&self) -> Option<Assignment>;

    /// Rising-bandit expected-utility interval given `k` more iterations,
    /// extrapolated from the block's own [`trajectory`](Self::trajectory)
    /// (a conditioning block reports its best arm's instead).
    fn expected_utility(&self, k: usize) -> LossInterval {
        eu_interval(&self.trajectory(), k, 0.0)
    }

    /// Rotting-bandit expected utility improvement (mean recent improvement).
    fn expected_utility_improvement(&self) -> f64 {
        eui(&self.trajectory(), 4)
    }

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

    /// The EUI signal used as plateau evidence for incremental space
    /// construction. Interior bandit blocks report the *maximum* EUI over
    /// surviving children — the space has plateaued only once every
    /// surviving arm has. The default is the block's own EUI.
    fn plateau_eui(&self) -> f64 {
        self.expected_utility_improvement()
    }

    /// Best-so-far loss trajectory, one entry per full-fidelity finite-loss
    /// evaluation this block performed — the raw signal behind EU/EUI. A
    /// joint leaf reads its engine history's; interior blocks merge their
    /// children's round-robin ([`crate::eu::merge_trajectories`]).
    fn trajectory(&self) -> Vec<f64>;

    /// Trials this block (and its children) have observed: a joint leaf's
    /// engine history length, an interior block's sum over its children. A
    /// pull of `k > 0` raises it by exactly `k`.
    fn evaluations(&self) -> usize;

    /// Human-readable tree rendering for reports (one line per node).
    fn describe(&self, indent: usize, out: &mut String);

    /// Appends canonical, bitwise-stable lines describing this block's
    /// search state — incumbents, trajectories, bandit occupancy, engine
    /// scheduler internals — to `out`, each prefixed with `path` (the
    /// block's position in the plan tree). Two blocks that would schedule
    /// identical futures must dump identical lines; crash-resume
    /// verification ([`crate::study::StudyState`]) relies on this to prove
    /// a journal-replayed tree reached exactly the interrupted run's
    /// state.
    fn capture_state(&self, path: &str, out: &mut Vec<String>);
}

/// Renders a block tree as a string (the "EXPLAIN" of an execution plan).
pub fn explain(block: &dyn BuildingBlock) -> String {
    let mut out = String::new();
    block.describe(0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal in-memory block for interface-level tests.
    struct StubBlock {
        losses: Vec<f64>,
        cursor: usize,
        best: Option<f64>,
        fixed: Assignment,
    }

    impl StubBlock {
        fn new(losses: Vec<f64>) -> Self {
            StubBlock {
                losses,
                cursor: 0,
                best: None,
                fixed: Assignment::new(),
            }
        }
    }

    impl BuildingBlock for StubBlock {
        fn pull(&mut self, _ev: &Evaluator, _pool: Option<&ExecPool>, k: usize) -> Result<()> {
            for &l in self.losses.iter().skip(self.cursor).take(k) {
                self.cursor += 1;
                self.best = Some(self.best.map_or(l, |b: f64| b.min(l)));
            }
            Ok(())
        }

        fn current_best(&self) -> Option<BestSolution> {
            self.best.map(|loss| BestSolution {
                assignment: self.fixed.clone(),
                loss,
            })
        }

        fn own_best(&self) -> Option<Assignment> {
            self.current_best().map(|b| b.assignment)
        }

        fn set_fixed(&mut self, fixed: &Assignment) {
            self.fixed = fixed.clone();
        }

        fn grow(&mut self, _space: &SpaceDef, _vars: &[String]) -> Result<()> {
            Ok(())
        }

        fn trajectory(&self) -> Vec<f64> {
            let mut best = f64::INFINITY;
            self.losses[..self.cursor]
                .iter()
                .map(|&l| {
                    best = best.min(l);
                    best
                })
                .collect()
        }

        fn evaluations(&self) -> usize {
            self.cursor
        }

        fn describe(&self, indent: usize, out: &mut String) {
            out.push_str(&" ".repeat(indent));
            out.push_str("Stub\n");
        }

        fn capture_state(&self, path: &str, out: &mut Vec<String>) {
            out.push(format!("{path} stub cursor={}", self.cursor));
        }
    }

    fn evaluator() -> Evaluator {
        let space =
            crate::spaces::SpaceDef::tiered(volcanoml_data::Task::Classification, crate::spaces::SpaceTier::Small);
        let d = volcanoml_data::synthetic::make_classification(
            &volcanoml_data::synthetic::ClassificationSpec::default(),
            0,
        );
        Evaluator::new(space, &d, volcanoml_data::Metric::BalancedAccuracy, 0).unwrap()
    }

    #[test]
    fn stub_block_tracks_best_and_trajectory() {
        let ev = evaluator();
        let mut b = StubBlock::new(vec![0.5, 0.3, 0.4]);
        assert!(b.current_best().is_none());
        b.do_next(&ev).unwrap();
        b.pull(&ev, None, 2).unwrap();
        assert_eq!(b.current_best().unwrap().loss, 0.3);
        assert_eq!(b.trajectory(), vec![0.5, 0.3, 0.3]);
        assert_eq!(b.evaluations(), 3);
    }

    #[test]
    fn explain_renders_tree() {
        let b = StubBlock::new(vec![]);
        assert_eq!(explain(&b), "Stub\n");
    }
}
