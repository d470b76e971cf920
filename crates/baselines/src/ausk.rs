//! The auto-sklearn-style baseline (`AUSK` in the paper's tables): a single
//! joint Bayesian-optimization block over the entire composite space —
//! exactly the decomposition-free strategy VolcanoML's Figure 1 "Plan 1"
//! describes — plus auto-sklearn's two signature extras, meta-learning warm
//! starts and greedy ensemble selection.

use crate::{Result, SearchRun};
use volcanoml_core::metalearn::MetaBase;
use volcanoml_core::plans::p1_joint;
use volcanoml_core::{EngineKind, SpaceDef, VolcanoML, VolcanoMlOptions};
use volcanoml_data::{Dataset, Metric};

/// Configuration of the AUSK baseline.
#[derive(Debug, Clone)]
pub struct AuskOptions {
    /// Maximum pipeline evaluations.
    pub max_evaluations: usize,
    /// Enable meta-learning warm starts (`AUSK` vs `AUSK⁻` in the paper).
    pub meta_learning: bool,
    /// Ensemble size (1 = single best, matching the table runs).
    pub ensemble_size: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for AuskOptions {
    fn default() -> Self {
        AuskOptions {
            max_evaluations: 60,
            meta_learning: false,
            ensemble_size: 1,
            seed: 0,
        }
    }
}

/// Runs the AUSK baseline on `train`, returning the uniform run record.
pub fn run_ausk(
    space: &SpaceDef,
    train: &Dataset,
    metric: Metric,
    options: &AuskOptions,
    meta_base: Option<&MetaBase>,
) -> Result<SearchRun> {
    let core_options = VolcanoMlOptions {
        plan: p1_joint(EngineKind::Bo),
        metric: Some(metric),
        max_evaluations: options.max_evaluations,
        seed: options.seed,
        warm_start: Vec::new(),
        ensemble_size: options.ensemble_size,
        validation: Default::default(),
        ..Default::default()
    };
    let mut engine = VolcanoML::new(space.clone(), core_options);
    let name = if options.meta_learning { "AUSK" } else { "AUSK-" };
    if options.meta_learning {
        if let Some(base) = meta_base {
            engine.warm_start_from(base, train);
        }
    }
    let fitted = engine.fit(train)?;
    Ok(SearchRun::from_report(name, &fitted.report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcanoml_core::SpaceTier;
    use volcanoml_data::synthetic::{make_classification, ClassificationSpec};
    use volcanoml_data::{train_test_split, Task};

    fn data(seed: u64) -> Dataset {
        make_classification(
            &ClassificationSpec {
                n_samples: 260,
                n_features: 8,
                n_informative: 5,
                n_redundant: 0,
                n_classes: 2,
                class_sep: 1.3,
                flip_y: 0.03,
                weights: Vec::new(),
            },
            seed,
        )
    }

    #[test]
    fn ausk_runs_and_improves() {
        let d = data(1);
        let (train, test) = train_test_split(&d, 0.25, 0).unwrap();
        let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
        let run = run_ausk(
            &space,
            &train,
            Metric::BalancedAccuracy,
            &AuskOptions {
                max_evaluations: 20,
                ..Default::default()
            },
            None,
        )
        .unwrap();
        assert_eq!(run.system, "AUSK-");
        assert!(run.best_loss < 0.5);
        assert!(run.n_evaluations <= 20);
        let test_loss = run
            .final_test_loss(&space, &train, &test, Metric::BalancedAccuracy, 0)
            .unwrap();
        assert!(test_loss < 0.5, "test loss {test_loss}");
    }

    #[test]
    fn meta_learning_changes_name_and_uses_base() {
        let d = data(2);
        let other = data(3);
        let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
        let mut base = MetaBase::new();
        let mut good = volcanoml_core::Assignment::new();
        good.insert("algorithm".to_string(), 1.0);
        base.record(&other, vec![good]);
        let run = run_ausk(
            &space,
            &d,
            Metric::BalancedAccuracy,
            &AuskOptions {
                max_evaluations: 8,
                meta_learning: true,
                ..Default::default()
            },
            Some(&base),
        )
        .unwrap();
        assert_eq!(run.system, "AUSK");
    }

    #[test]
    fn test_error_curve_is_nonempty() {
        let d = data(4);
        let (train, test) = train_test_split(&d, 0.25, 0).unwrap();
        let space = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
        let run = run_ausk(
            &space,
            &train,
            Metric::BalancedAccuracy,
            &AuskOptions {
                max_evaluations: 12,
                ..Default::default()
            },
            None,
        )
        .unwrap();
        let curve = run.test_error_curve(&space, &train, &test, Metric::BalancedAccuracy, 0);
        assert!(!curve.is_empty());
        assert!(curve.windows(2).all(|w| w[1].0 >= w[0].0));
    }
}
