//! The conditioning block (§3.3.2, Algorithm 1): decomposes on one
//! categorical variable, runs one child block per value as a multi-armed
//! bandit with round-robin warm-up and rising-bandit interval elimination.
//!
//! Granularity note: the paper's Algorithm 1 plays every arm `L` times per
//! `do_next!`. To keep the Volcano contract — a pull of `k` ≈ `k` pipeline
//! evaluations — the warm-up and round-robin schedule here is *unrolled*:
//! a pull of one plays exactly one arm, and elimination runs after every
//! completed round once each active arm has had `L` plays. The sequence of
//! arm plays and eliminations is identical to Algorithm 1's.

use crate::block::{Assignment, BestSolution, BlockOptions, BuildingBlock, LossInterval};
use crate::eu::{eu_interval, merge_trajectories};
use crate::evaluator::Evaluator;
use crate::plan::arm_vars;
use crate::spaces::SpaceDef;
use crate::Result;
use volcanoml_obs::{span, EventFields, Tracer};

/// Warm-up plays per arm before elimination starts (the paper's `L`). The
/// paper sets L = 5 under budgets of hundreds to thousands of evaluations;
/// the scaled-down experiments here run ~30-100, so each arm gets 3.
const WARMUP_PLAYS: usize = 3;
/// Look-ahead horizon for EU intervals (the paper's `K`).
const EU_HORIZON: usize = 20;

/// One arm of the bandit. Its plays are its child's `evaluations()`: a pull
/// of `k > 0` raises any block's count by exactly `k`.
struct Arm {
    /// Value of the conditioned variable this arm pins.
    value: usize,
    /// Child block solving the conditioned subspace.
    block: Box<dyn BuildingBlock>,
    /// Eliminated arms are never played again.
    active: bool,
}

/// Conditioning block: one child per value of a categorical variable.
pub struct ConditioningBlock {
    label: String,
    /// The conditioned variable's name (e.g. `algorithm`).
    var: String,
    arms: Vec<Arm>,
    /// When false, arms are never eliminated (plain round-robin MAB — the
    /// ablation baseline measured by the blocks-ablation bench).
    elimination_enabled: bool,
    cursor: usize,
}

impl ConditioningBlock {
    /// Creates a conditioning block from `(value, child)` pairs; of
    /// `options` it reads `arm_elimination`.
    pub fn new(
        label: impl Into<String>,
        var: impl Into<String>,
        children: Vec<(usize, Box<dyn BuildingBlock>)>,
        options: &BlockOptions,
    ) -> ConditioningBlock {
        ConditioningBlock {
            label: label.into(),
            var: var.into(),
            arms: children
                .into_iter()
                .map(|(value, block)| Arm {
                    value,
                    block,
                    active: true,
                })
                .collect(),
            elimination_enabled: options.arm_elimination,
            cursor: 0,
        }
    }

    /// Number of arms still active.
    pub fn active_arms(&self) -> usize {
        self.arms.iter().filter(|a| a.active).count()
    }

    /// Applies the elimination rule over all active arms, emitting one
    /// `eliminate` trace event (with the EU interval that lost) per
    /// eliminated arm.
    fn eliminate_dominated(&mut self, tracer: &Tracer) {
        let intervals: Vec<Option<LossInterval>> = self
            .arms
            .iter()
            .map(|a| {
                if a.active {
                    Some(a.block.expected_utility(EU_HORIZON))
                } else {
                    None
                }
            })
            .collect();
        // Never eliminate the last arm.
        for i in 0..self.arms.len() {
            if self.active_arms() <= 1 {
                break;
            }
            let Some(iv_i) = intervals[i] else { continue };
            let dominating = intervals
                .iter()
                .enumerate()
                .find(|(j, iv_j)| *j != i && iv_j.is_some_and(|iv_j| iv_i.dominated_by(&iv_j)));
            if let Some((j, _)) = dominating {
                self.arms[i].active = false;
                tracer.event(
                    "eliminate",
                    EventFields {
                        path: self.label.clone(),
                        arm: format!("{}={}", self.var, self.arms[i].value),
                        eu: Some((iv_i.optimistic, iv_i.pessimistic)),
                        detail: format!(
                            "dominated by {}={} after {} plays",
                            self.var,
                            self.arms[j].value,
                            self.arms[i].block.evaluations()
                        ),
                        ..EventFields::default()
                    },
                );
            }
        }
    }

    /// Elimination after every completed round past warm-up.
    fn maybe_eliminate(&mut self, tracer: &Tracer) {
        let min_plays = self
            .arms
            .iter()
            .filter(|a| a.active)
            .map(|a| a.block.evaluations())
            .min()
            .unwrap_or(0);
        if self.elimination_enabled && min_plays >= WARMUP_PLAYS {
            let round_complete = self.cursor.is_multiple_of(self.arms.len());
            if round_complete {
                self.eliminate_dominated(tracer);
            }
        }
    }

    /// Index of the next active arm in round-robin order.
    fn next_arm(&mut self) -> Option<usize> {
        let n = self.arms.len();
        for _ in 0..n {
            let i = self.cursor % n;
            self.cursor += 1;
            if self.arms[i].active {
                return Some(i);
            }
        }
        None
    }
}

impl BuildingBlock for ConditioningBlock {
    /// `k` plays are dealt to arms round-robin, then each arm receives its
    /// share as one child pull. Elimination runs once, after the last arm's
    /// pull span has closed, so its `eliminate` events are parented to
    /// whatever span encloses this block's pull rather than to any one
    /// arm's.
    fn pull(
        &mut self,
        evaluator: &Evaluator,
        pool: Option<&volcanoml_exec::ExecPool>,
        k: usize,
    ) -> Result<()> {
        let tracer = evaluator.tracer();
        let mut shares: Vec<usize> = vec![0; self.arms.len()];
        for _ in 0..k {
            let Some(i) = self.next_arm() else { break };
            shares[i] += 1;
        }
        for (i, share) in shares.iter().enumerate() {
            if *share == 0 {
                continue;
            }
            let arm_label = format!("{}={}", self.var, self.arms[i].value);
            let mut pull = span(&tracer, "pull", &self.label, &arm_label);
            pull.set_detail(format!("batch share={share}"));
            self.arms[i].block.pull(evaluator, pool, *share)?;
        }
        self.maybe_eliminate(&tracer);
        Ok(())
    }

    fn current_best(&self) -> Option<BestSolution> {
        self.arms
            .iter()
            .filter_map(|a| {
                a.block.current_best().map(|mut b| {
                    b.assignment
                        .entry(self.var.clone())
                        .or_insert(a.value as f64);
                    b
                })
            })
            .min_by(|a, b| a.loss.partial_cmp(&b.loss).unwrap_or(std::cmp::Ordering::Equal))
    }

    fn own_best(&self) -> Option<Assignment> {
        // Best arm's own variables plus the conditioned variable itself.
        let (arm, _) = self
            .arms
            .iter()
            .filter_map(|a| a.block.current_best().map(|b| (a, b.loss)))
            .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap_or(std::cmp::Ordering::Equal))?;
        let mut own = arm.block.own_best().unwrap_or_default();
        own.insert(self.var.clone(), arm.value as f64);
        Some(own)
    }

    fn expected_utility(&self, k: usize) -> LossInterval {
        // The block's potential is its best arm's potential.
        let mut best = LossInterval::unknown();
        let mut any = false;
        for a in self.arms.iter().filter(|a| a.active) {
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
            best
        } else {
            eu_interval(&self.trajectory(), k, 0.0)
        }
    }

    fn set_fixed(&mut self, fixed: &Assignment) {
        for arm in &mut self.arms {
            arm.block.set_fixed(fixed);
        }
    }

    /// Every arm's subtree grows over its arm's scope — including eliminated
    /// arms, so that their captured state stays consistent with the live
    /// space.
    fn grow(&mut self, space: &SpaceDef, vars: &[String]) -> Result<()> {
        for arm in &mut self.arms {
            arm.block.grow(space, &arm_vars(space, vars, &self.var, arm.value))?;
        }
        Ok(())
    }

    /// Space growth must wait for *every* surviving arm to plateau: a single
    /// still-improving (or not-yet-warmed-up, EUI = ∞) arm keeps the space
    /// fixed, so the maximum over active arms is the plateau signal.
    fn plateau_eui(&self) -> f64 {
        self.arms
            .iter()
            .filter(|a| a.active)
            .map(|a| a.block.plateau_eui())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    fn trajectory(&self) -> Vec<f64> {
        let arms: Vec<Vec<f64>> = self.arms.iter().map(|a| a.block.trajectory()).collect();
        merge_trajectories(&arms)
    }

    fn evaluations(&self) -> usize {
        self.arms.iter().map(|a| a.block.evaluations()).sum()
    }

    fn describe(&self, indent: usize, out: &mut String) {
        out.push_str(&" ".repeat(indent));
        out.push_str(&format!(
            "Conditioning[{}] on={} arms={} active={}\n",
            self.label,
            self.var,
            self.arms.len(),
            self.active_arms()
        ));
        for a in &self.arms {
            out.push_str(&" ".repeat(indent + 2));
            out.push_str(&format!(
                "value={} active={} plays={}\n",
                a.value,
                a.active,
                a.block.evaluations()
            ));
            a.block.describe(indent + 4, out);
        }
    }

    fn capture_state(&self, path: &str, out: &mut Vec<String>) {
        out.push(format!(
            "{path} conditioning var={} cursor={} evaluations={}",
            self.var,
            self.cursor,
            self.evaluations()
        ));
        for a in &self.arms {
            let child = format!("{path}/{}={}", self.var, a.value);
            let iv = a.block.expected_utility(EU_HORIZON);
            out.push(format!(
                "{child} arm active={} plays={} eu=[{:016x},{:016x}]",
                a.active,
                a.block.evaluations(),
                iv.optimistic.to_bits(),
                iv.pessimistic.to_bits()
            ));
            a.block.capture_state(&child, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::joint::{JointBlock, JointEngine};
    use crate::spaces::{SpaceDef, SpaceTier};
    use volcanoml_data::synthetic::{make_classification, ClassificationSpec};
    use volcanoml_data::{Metric, Task};

    fn setup() -> (Evaluator, SpaceDef) {
        let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
        let d = make_classification(
            &ClassificationSpec {
                n_samples: 260,
                n_features: 8,
                n_informative: 5,
                n_redundant: 0,
                n_classes: 2,
                class_sep: 1.2,
                flip_y: 0.03,
                weights: Vec::new(),
            },
            7,
        );
        let ev = Evaluator::new(space.clone(), &d, Metric::BalancedAccuracy, 0).unwrap();
        (ev, space)
    }

    fn algorithm_conditioning(space: &SpaceDef, options: &BlockOptions) -> ConditioningBlock {
        let children: Vec<(usize, Box<dyn BuildingBlock>)> = (0..space.algorithms.len())
            .map(|idx| {
                let mut fixed = Assignment::new();
                fixed.insert("algorithm".to_string(), idx as f64);
                let cs = space.compile_subspace(&space.var_names(), &fixed).unwrap();
                let block: Box<dyn BuildingBlock> = Box::new(JointBlock::new(
                    format!("alg={}", space.algorithms[idx].name()),
                    format!("algorithm={idx}"),
                    cs,
                    JointEngine::Bo,
                    fixed,
                    idx as u64,
                    options,
                ));
                (idx, block)
            })
            .collect();
        ConditioningBlock::new("by-algorithm", "algorithm", children, options)
    }

    #[test]
    fn warmup_is_round_robin() {
        let (ev, space) = setup();
        let mut block = algorithm_conditioning(&space, &BlockOptions::default());
        let n = space.algorithms.len();
        for _ in 0..n * 2 {
            block.pull(&ev, None, 1).unwrap();
        }
        // After 2 full rounds every arm has exactly 2 plays.
        for a in &block.arms {
            assert_eq!(a.block.evaluations(), 2);
        }
    }

    #[test]
    fn best_includes_conditioned_variable() {
        let (ev, space) = setup();
        let mut block = algorithm_conditioning(&space, &BlockOptions::default());
        for _ in 0..6 {
            block.pull(&ev, None, 1).unwrap();
        }
        let best = block.current_best().unwrap();
        assert!(best.assignment.contains_key("algorithm"));
        assert!(best.loss.is_finite());
    }

    #[test]
    fn last_arm_is_never_eliminated() {
        let (ev, space) = setup();
        let mut block = algorithm_conditioning(&space, &BlockOptions::default());
        for _ in 0..60 {
            block.pull(&ev, None, 1).unwrap();
        }
        assert!(block.active_arms() >= 1);
    }

    #[test]
    fn eliminated_arms_stop_consuming_budget() {
        let (ev, space) = setup();
        let mut block = algorithm_conditioning(&space, &BlockOptions::default());
        let n = block.arms.len();
        // Elimination waits until every arm has had its warm-up plays.
        for _ in 0..n * WARMUP_PLAYS - 1 {
            block.pull(&ev, None, 1).unwrap();
        }
        assert_eq!(block.active_arms(), n, "an arm was eliminated during warm-up");
        for _ in n * WARMUP_PLAYS - 1..80 {
            block.pull(&ev, None, 1).unwrap();
        }
        if block.active_arms() < n {
            // Eliminated arms' play counts must be frozen below the leader's.
            let plays = |a: &Arm| a.block.evaluations();
            let max_plays = block.arms.iter().map(plays).max().unwrap();
            for a in block.arms.iter().filter(|a| !a.active) {
                assert!(plays(a) >= WARMUP_PLAYS && plays(a) < max_plays);
            }
        }
    }

    #[test]
    fn without_arm_elimination_every_arm_stays_in_play() {
        let (ev, space) = setup();
        let options = BlockOptions {
            arm_elimination: false,
            ..BlockOptions::default()
        };
        let mut block = algorithm_conditioning(&space, &options);
        let n = block.arms.len();
        for _ in 0..n * 10 {
            block.pull(&ev, None, 1).unwrap();
        }
        assert_eq!(block.active_arms(), n);
        assert!(block.arms.iter().all(|a| a.block.evaluations() == 10));
    }

    #[test]
    fn trajectory_is_monotone_nonincreasing() {
        let (ev, space) = setup();
        let mut block = algorithm_conditioning(&space, &BlockOptions::default());
        for _ in 0..20 {
            block.pull(&ev, None, 1).unwrap();
        }
        let t = block.trajectory();
        assert!(!t.is_empty());
        assert!(t.windows(2).all(|w| w[1] <= w[0] + 1e-12));
    }

    #[test]
    fn describe_renders_arm_tree() {
        let (_, space) = setup();
        let block = algorithm_conditioning(&space, &BlockOptions::default());
        let mut s = String::new();
        block.describe(0, &mut s);
        assert!(s.contains("Conditioning[by-algorithm]"));
        assert!(s.contains("Joint["));
    }
}
