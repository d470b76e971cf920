//! Search objectives: plain loss minimization or a scalarized loss +
//! inference-cost trade-off, plus Pareto-front extraction for reports.
//!
//! The engines (BO, bandits, ASHA brackets) minimize a single scalar; the
//! multi-objective mode keeps that invariant by scalarizing `(loss,
//! inference_cost)` into one number *before* it reaches the optimizer or
//! the journal — so resume replay stays bitwise — while the per-trial
//! inference cost is also recorded separately so [`pareto_front`] can
//! recover the non-dominated trade-off set for the report.

/// What the search minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Objective {
    /// Validation loss only (the default).
    #[default]
    Loss,
    /// Validation loss plus `latency_weight` × per-row inference seconds.
    /// The weight converts seconds into loss units: a weight of 100 means
    /// 10 ms of per-row latency is worth one point of loss (0.01).
    LossAndCost {
        /// Loss-units-per-second-of-inference conversion factor.
        latency_weight: f64,
    },
}

impl Objective {
    /// Latency weight used when a front end names `loss_and_cost` without
    /// one: 100 loss units per second of per-row inference latency.
    const DEFAULT_LATENCY_WEIGHT: f64 = 100.0;

    /// The loss + inference-latency objective — the one place its weight is
    /// defaulted and checked (finite, not negative) for the CLI's
    /// `loss_and_cost[:WEIGHT]` and the serve spec's `latency_weight` alike.
    pub fn loss_and_cost(latency_weight: Option<f64>) -> crate::Result<Objective> {
        let latency_weight = latency_weight.unwrap_or(Self::DEFAULT_LATENCY_WEIGHT);
        if !latency_weight.is_finite() || latency_weight < 0.0 {
            return Err(crate::CoreError::Invalid(format!(
                "latency_weight {latency_weight} must be finite and >= 0"
            )));
        }
        Ok(Objective::LossAndCost { latency_weight })
    }

    /// Scalarizes a trial's `(validation loss, inference seconds)` into the
    /// single number the engines minimize. Non-finite losses pass through
    /// unchanged (a crashed trial stays crashed no matter how fast it
    /// predicts).
    pub fn scalarize(&self, loss: f64, inference_cost: f64) -> f64 {
        match self {
            Objective::Loss => loss,
            Objective::LossAndCost { latency_weight } => {
                if loss.is_finite() {
                    loss + latency_weight * inference_cost.max(0.0)
                } else {
                    loss
                }
            }
        }
    }

    /// Whether this objective folds inference cost into the scalar.
    pub fn is_cost_sensitive(&self) -> bool {
        matches!(self, Objective::LossAndCost { .. })
    }

    /// Short name for reports and option surfaces.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::Loss => "loss",
            Objective::LossAndCost { .. } => "loss_and_cost",
        }
    }
}

/// Indices of the Pareto-optimal points of `points = (loss,
/// inference_cost)` under minimization of both coordinates, in input order.
///
/// A point is dominated when another point is no worse in both coordinates
/// and strictly better in at least one. Non-finite points never enter the
/// front. Duplicate points all survive (none strictly improves on the
/// other), matching the report's need to list every equivalent pipeline.
pub fn pareto_front(points: &[(f64, f64)]) -> Vec<usize> {
    let dominates = |a: (f64, f64), b: (f64, f64)| {
        a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)
    };
    (0..points.len())
        .filter(|&i| {
            let p = points[i];
            p.0.is_finite()
                && p.1.is_finite()
                && !points
                    .iter()
                    .enumerate()
                    .any(|(j, &q)| j != i && dominates(q, p))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalarize_loss_only_is_identity() {
        let o = Objective::Loss;
        assert_eq!(o.scalarize(0.3, 5.0), 0.3);
        assert!(!o.is_cost_sensitive());
    }

    #[test]
    fn loss_and_cost_defaults_and_checks_its_weight() {
        assert_eq!(
            Objective::loss_and_cost(None).unwrap(),
            Objective::LossAndCost { latency_weight: 100.0 }
        );
        assert_eq!(
            Objective::loss_and_cost(Some(2.5)).unwrap(),
            Objective::LossAndCost { latency_weight: 2.5 }
        );
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let err = Objective::loss_and_cost(Some(bad)).unwrap_err().to_string();
            assert!(err.contains("latency_weight"), "{err}");
        }
    }

    #[test]
    fn scalarize_adds_weighted_latency() {
        let o = Objective::LossAndCost { latency_weight: 100.0 };
        assert!((o.scalarize(0.3, 0.001) - 0.4).abs() < 1e-12);
        assert!(o.is_cost_sensitive());
        // Negative timing glitches clamp to zero rather than rewarding.
        assert_eq!(o.scalarize(0.3, -1.0), 0.3);
    }

    #[test]
    fn scalarize_passes_non_finite_losses_through() {
        let o = Objective::LossAndCost { latency_weight: 10.0 };
        assert!(o.scalarize(f64::INFINITY, 0.5).is_infinite());
        assert!(o.scalarize(f64::NAN, 0.5).is_nan());
    }

    #[test]
    fn pareto_dominance_basic() {
        // (0.1, 5.0) and (0.3, 1.0) trade off; (0.4, 6.0) is dominated by
        // both; (0.2, 2.0) trades off against the ends.
        let pts = vec![(0.1, 5.0), (0.3, 1.0), (0.4, 6.0), (0.2, 2.0)];
        assert_eq!(pareto_front(&pts), vec![0, 1, 3]);
    }

    #[test]
    fn pareto_single_point() {
        assert_eq!(pareto_front(&[(0.5, 1.0)]), vec![0]);
        assert_eq!(pareto_front(&[]), Vec::<usize>::new());
    }

    #[test]
    fn pareto_all_dominated_by_one() {
        // One point dominates everything: front is exactly that point.
        let pts = vec![(0.5, 5.0), (0.1, 0.1), (0.2, 3.0), (0.1, 0.2)];
        assert_eq!(pareto_front(&pts), vec![1]);
    }

    #[test]
    fn pareto_duplicates_all_survive() {
        let pts = vec![(0.2, 1.0), (0.2, 1.0), (0.5, 2.0)];
        assert_eq!(pareto_front(&pts), vec![0, 1]);
    }

    #[test]
    fn pareto_ignores_non_finite_points() {
        let pts = vec![(f64::INFINITY, 0.1), (0.2, f64::NAN), (0.3, 1.0)];
        assert_eq!(pareto_front(&pts), vec![2]);
    }

    #[test]
    fn pareto_chain_keeps_only_extremes_of_monotone_tradeoff() {
        // Strictly monotone trade-off curve: every point survives.
        let pts: Vec<(f64, f64)> = (0..5)
            .map(|i| (0.1 + 0.1 * i as f64, 5.0 - i as f64))
            .collect();
        assert_eq!(pareto_front(&pts), vec![0, 1, 2, 3, 4]);
    }
}
