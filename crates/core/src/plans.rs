//! The coarse-grained plan catalogue (§4 "Alternative Execution Plans" and
//! the appendix plan-enumeration study): five ways to decompose the same
//! AutoML space, plus a brute-force "automatic plan generation" helper that
//! picks the empirically best plan over a set of benchmark datasets.

use crate::plan::{EngineKind, PlanSpec, VarFilter};

/// P1 — a single joint block over the whole space (what auto-sklearn does).
pub fn p1_joint(engine: EngineKind) -> PlanSpec {
    PlanSpec::Joint(engine)
}

/// P2 — condition on the algorithm, joint blocks per arm.
pub fn p2_conditioning_joint(engine: EngineKind) -> PlanSpec {
    PlanSpec::Conditioning {
        on: "algorithm".to_string(),
        child: Box::new(PlanSpec::Joint(engine)),
    }
}

/// P3 — the paper's chosen plan (Figure 2) and the default: condition on the
/// algorithm, then alternate FE vs HP with joint leaves.
pub fn p3_volcano(engine: EngineKind) -> PlanSpec {
    PlanSpec::Conditioning {
        on: "algorithm".to_string(),
        child: Box::new(PlanSpec::Alternating {
            left_filter: VarFilter::Fe,
            left: Box::new(PlanSpec::Joint(engine)),
            right: Box::new(PlanSpec::Joint(engine)),
        }),
    }
}

/// P4 — alternate FE against (algorithm + HP) explored jointly.
pub fn p4_alternating_joint(engine: EngineKind) -> PlanSpec {
    PlanSpec::Alternating {
        left_filter: VarFilter::Fe,
        left: Box::new(PlanSpec::Joint(engine)),
        right: Box::new(PlanSpec::Joint(engine)),
    }
}

/// P5 — alternate FE against a conditioning block over algorithms.
pub fn p5_alternating_conditioning(engine: EngineKind) -> PlanSpec {
    PlanSpec::Alternating {
        left_filter: VarFilter::Fe,
        left: Box::new(PlanSpec::Joint(engine)),
        right: Box::new(PlanSpec::Conditioning {
            on: "algorithm".to_string(),
            child: Box::new(PlanSpec::Joint(engine)),
        }),
    }
}

/// All five coarse-grained plans with stable names.
pub fn enumerate_coarse_plans(engine: EngineKind) -> Vec<(&'static str, PlanSpec)> {
    vec![
        ("P1-joint", p1_joint(engine)),
        ("P2-cond+joint", p2_conditioning_joint(engine)),
        ("P3-volcano", p3_volcano(engine)),
        ("P4-alt+joint", p4_alternating_joint(engine)),
        ("P5-alt+cond", p5_alternating_conditioning(engine)),
    ]
}

/// The coarse plan whose catalogue name starts with `name`, ignoring case
/// (`p1`..`p5` in the front ends) — the one plan-name table the CLI and the
/// serve spec parser share.
pub fn by_name(name: &str, engine: EngineKind) -> std::result::Result<PlanSpec, String> {
    enumerate_coarse_plans(engine)
        .into_iter()
        .find(|(full, _)| full.to_lowercase().starts_with(name))
        .map(|(_, plan)| plan)
        .ok_or_else(|| format!("unknown plan '{name}' (use p1..p5)"))
}

/// Result of a brute-force automatic plan search.
#[derive(Debug, Clone)]
pub struct PlanSearchResult {
    /// Winning plan name.
    pub best_name: &'static str,
    /// Winning plan.
    pub best_plan: PlanSpec,
    /// `(name, average_rank)` for every candidate, in catalogue order.
    pub ranks: Vec<(&'static str, f64)>,
}

/// Brute-force "automatic plan generation" (§4 discussion): run every
/// coarse-grained plan on the given benchmark datasets with `budget`
/// evaluations each, rank the plans per dataset by best validation loss, and
/// return the plan with the best average rank.
///
/// The paper positions this as the seed of a future plan *optimizer*; here
/// it is the exhaustive baseline (5 plans × |datasets| runs).
pub fn auto_select_plan(
    datasets: &[volcanoml_data::Dataset],
    space_of: impl Fn(&volcanoml_data::Dataset) -> crate::spaces::SpaceDef,
    engine: EngineKind,
    budget: usize,
    seed: u64,
) -> crate::Result<PlanSearchResult> {
    use crate::evaluator::Evaluator;
    if datasets.is_empty() {
        return Err(crate::CoreError::Invalid(
            "plan search needs at least one dataset".into(),
        ));
    }
    let candidates = enumerate_coarse_plans(engine);
    let mut losses: Vec<Vec<f64>> = Vec::with_capacity(datasets.len());
    for (di, dataset) in datasets.iter().enumerate() {
        let metric = volcanoml_data::Metric::default_for(dataset.task);
        let mut per_dataset = Vec::with_capacity(candidates.len());
        for (pi, (_, plan)) in candidates.iter().enumerate() {
            let run_seed = volcanoml_data::rand_util::derive_seed(
                volcanoml_data::rand_util::derive_seed(seed, di as u64),
                pi as u64,
            );
            let space = space_of(dataset);
            let evaluator = Evaluator::new(space.clone(), dataset, metric, run_seed)?;
            let mut root = plan.compile(&space, run_seed)?;
            while evaluator.evaluations() < budget {
                root.pull(&evaluator, None, 1)?;
            }
            per_dataset.push(
                root.current_best()
                    .map(|b| b.loss)
                    .unwrap_or(f64::INFINITY),
            );
        }
        losses.push(per_dataset);
    }
    // Average ranks (ties share the mean rank).
    let n = candidates.len();
    let mut sums = vec![0.0; n];
    for per_dataset in &losses {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| {
            per_dataset[a]
                .partial_cmp(&per_dataset[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut i = 0;
        while i < n {
            let mut j = i;
            while j + 1 < n
                && (per_dataset[idx[j + 1]] - per_dataset[idx[i]]).abs() < 1e-12
            {
                j += 1;
            }
            let rank = (i + j) as f64 / 2.0 + 1.0;
            for k in i..=j {
                sums[idx[k]] += rank;
            }
            i = j + 1;
        }
    }
    for s in &mut sums {
        *s /= losses.len() as f64;
    }
    let best = sums
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0);
    Ok(PlanSearchResult {
        best_name: candidates[best].0,
        best_plan: candidates[best].1.clone(),
        ranks: candidates
            .iter()
            .map(|(name, _)| *name)
            .zip(sums.iter().copied())
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spaces::{SpaceDef, SpaceTier};

    #[test]
    fn all_five_plans_compile_on_all_tiers() {
        for tier in [SpaceTier::Small, SpaceTier::Medium, SpaceTier::Large] {
            let space = SpaceDef::tiered(volcanoml_data::Task::Classification, tier);
            for (name, plan) in enumerate_coarse_plans(EngineKind::Bo) {
                plan.compile(&space, 0)
                    .unwrap_or_else(|e| panic!("{name} on {tier:?}: {e}"));
            }
        }
    }

    #[test]
    fn plans_have_distinct_shapes() {
        let renders: Vec<String> = enumerate_coarse_plans(EngineKind::Bo)
            .iter()
            .map(|(_, p)| p.render())
            .collect();
        let unique: std::collections::HashSet<&String> = renders.iter().collect();
        assert_eq!(unique.len(), renders.len());
    }

    #[test]
    fn auto_plan_search_returns_a_catalogued_plan() {
        let d = volcanoml_data::synthetic::make_classification(
            &volcanoml_data::synthetic::ClassificationSpec::default(),
            3,
        );
        let result = auto_select_plan(
            &[d],
            |_| SpaceDef::tiered(volcanoml_data::Task::Classification, SpaceTier::Small),
            EngineKind::Random,
            8,
            0,
        )
        .unwrap();
        assert_eq!(result.ranks.len(), 5);
        assert!(enumerate_coarse_plans(EngineKind::Random)
            .iter()
            .any(|(n, _)| *n == result.best_name));
        // The winner has the minimum average rank.
        let min = result
            .ranks
            .iter()
            .map(|(_, r)| *r)
            .fold(f64::INFINITY, f64::min);
        let winner_rank = result
            .ranks
            .iter()
            .find(|(n, _)| *n == result.best_name)
            .unwrap()
            .1;
        assert_eq!(winner_rank, min);
    }

    #[test]
    fn auto_plan_search_rejects_empty_input() {
        let r = auto_select_plan(
            &[],
            |_| SpaceDef::tiered(volcanoml_data::Task::Classification, SpaceTier::Small),
            EngineKind::Random,
            5,
            0,
        );
        assert!(r.is_err());
    }

    #[test]
    fn plan_names_round_trip() {
        for (i, (full, plan)) in enumerate_coarse_plans(EngineKind::Bo).into_iter().enumerate() {
            assert_eq!(by_name(&format!("p{}", i + 1), EngineKind::Bo), Ok(plan.clone()));
            assert_eq!(by_name(&full.to_lowercase(), EngineKind::Bo), Ok(plan));
        }
        assert_eq!(
            by_name("p9", EngineKind::Bo).unwrap_err(),
            "unknown plan 'p9' (use p1..p5)"
        );
    }
}
