//! The coarse-grained plan catalogue (§4 "Alternative Execution Plans" and
//! the appendix plan-enumeration study): five ways to decompose the same
//! AutoML space. The brute-force "automatic plan generation" over them —
//! every plan on a dataset suite, ranked — is the `plans_ablation` bench.

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
