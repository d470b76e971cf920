//! Expected improvement and its optimization over a configuration space.

use crate::cost::CostModel;
use crate::space::{ConfigSpace, Configuration};
use crate::surrogate::RandomForestSurrogate;
use rand::rngs::StdRng;

/// Standard normal PDF.
pub fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Error function (max error ~1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Expected improvement of a (mean, variance) prediction below `best` (we
/// minimize loss). Returns 0 for vanishing variance at or above the best.
pub fn expected_improvement(mean: f64, var: f64, best: f64) -> f64 {
    let std = var.sqrt();
    if std < 1e-12 {
        return (best - mean).max(0.0);
    }
    let z = (best - mean) / std;
    (best - mean) * normal_cdf(z) + std * normal_pdf(z)
}

/// How acquisition scores candidates.
#[derive(Clone, Copy)]
pub enum AcquisitionScore<'a> {
    /// Plain expected improvement.
    Ei,
    /// Expected improvement per predicted second (FLAML-style). Falls back
    /// to plain EI while the cost model is still warming up, and cost can
    /// only *scale* a positive EI — a zero-EI candidate stays zero no
    /// matter how cheap it is, so cost never selects on its own.
    EiPerCost(&'a CostModel),
}

/// Acquisition optimizer: picks the configuration maximizing the score (EI
/// or EI-per-predicted-cost) among random samples plus local neighbors of
/// the incumbent (SMAC's cheap acquisition optimizer).
///
/// When `best_loss` is non-finite (every observation so far failed), EI is
/// inf/NaN for every candidate and comparisons degenerate to "first wins";
/// in that regime selection falls back to pure exploration by minimum
/// predicted mean, which ranks candidates sensibly under a surrogate fit
/// on no finite data (uniform prior) and under partial fits alike.
#[allow(clippy::too_many_arguments)]
pub fn maximize_acquisition(
    space: &ConfigSpace,
    surrogate: &RandomForestSurrogate,
    incumbent: Option<&Configuration>,
    best_loss: f64,
    n_random: usize,
    n_local: usize,
    score: AcquisitionScore<'_>,
    rng: &mut StdRng,
) -> Configuration {
    let mut candidates: Vec<Configuration> = (0..n_random).map(|_| space.sample(rng)).collect();
    if let Some(inc) = incumbent {
        let mut cur = inc.clone();
        for _ in 0..n_local {
            cur = space.neighbor(&cur, rng);
            candidates.push(cur.clone());
        }
    }
    let explore_only = !best_loss.is_finite();
    let mut best_cfg = None;
    let mut best_score = f64::NEG_INFINITY;
    for c in candidates {
        let enc = space.encode(&c);
        let (mean, var) = surrogate.predict(&enc);
        let s = if explore_only {
            // Degenerate incumbent: rank by predicted mean alone.
            -mean
        } else {
            let ei = expected_improvement(mean, var, best_loss);
            match score {
                AcquisitionScore::Ei => ei,
                AcquisitionScore::EiPerCost(cm) if cm.ready() => ei / cm.predict_cost(&enc),
                AcquisitionScore::EiPerCost(_) => ei,
            }
        };
        if s > best_score {
            best_score = s;
            best_cfg = Some(c);
        }
    }
    best_cfg.unwrap_or_else(|| space.default_configuration())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::from_seed;
    use crate::space::Domain;

    #[test]
    fn erf_known_values() {
        assert!(erf(0.0).abs() < 1e-8);
        assert!((erf(1.0) - 0.8427).abs() < 1e-3);
        assert!((erf(-1.0) + 0.8427).abs() < 1e-3);
        assert!((erf(3.0) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn cdf_is_monotone_and_symmetric() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-8);
        assert!(normal_cdf(1.0) > normal_cdf(0.0));
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn ei_prefers_low_mean_and_high_variance() {
        let best = 0.5;
        let low_mean = expected_improvement(0.2, 0.01, best);
        let high_mean = expected_improvement(0.8, 0.01, best);
        assert!(low_mean > high_mean);
        let low_var = expected_improvement(0.6, 1e-6, best);
        let high_var = expected_improvement(0.6, 0.1, best);
        assert!(high_var > low_var);
    }

    #[test]
    fn ei_zero_variance_clamps() {
        assert_eq!(expected_improvement(0.7, 0.0, 0.5), 0.0);
        assert!((expected_improvement(0.3, 0.0, 0.5) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn non_finite_incumbent_falls_back_to_min_predicted_mean() {
        // All-failed history: surrogate fit on inf losses is impossible, so
        // model the realistic state — a surrogate fit only on the finite
        // subset (here: nothing at all is finite, so we fit a shaped
        // surrogate manually to verify the selection rule itself).
        let mut space = ConfigSpace::new();
        space
            .add("x", Domain::Float { lo: 0.0, hi: 1.0, log: false }, 0.5)
            .unwrap();
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 199.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] - 0.8).powi(2)).collect();
        let mut surrogate = RandomForestSurrogate::new();
        let mut rng = from_seed(7);
        surrogate.fit(&xs, &ys, &mut rng);
        // With best = inf, old behavior picked the first sampled candidate;
        // the fallback must instead track the surrogate's minimum at 0.8.
        let ei = AcquisitionScore::Ei;
        let chosen =
            maximize_acquisition(&space, &surrogate, None, f64::INFINITY, 300, 0, ei, &mut rng);
        let x = chosen.get(0).unwrap();
        assert!((x - 0.8).abs() < 0.2, "explore-only fallback chose {x}");
        // And it must not depend on candidate order: repeated draws stay in
        // the same basin rather than wandering wherever sample #1 landed.
        let again =
            maximize_acquisition(&space, &surrogate, None, f64::NEG_INFINITY, 300, 0, ei, &mut rng);
        let x2 = again.get(0).unwrap();
        assert!((x2 - 0.8).abs() < 0.2, "explore-only fallback chose {x2}");
    }

    #[test]
    fn ei_per_cost_prefers_cheap_among_comparable_ei() {
        // Loss surrogate: flat (same EI everywhere). Cost model: cheap for
        // x < 0.5, ~100x dearer above. EI/cost must concentrate below 0.5.
        let mut space = ConfigSpace::new();
        space
            .add("x", Domain::Float { lo: 0.0, hi: 1.0, log: false }, 0.5)
            .unwrap();
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 99.0]).collect();
        let flat: Vec<f64> = xs.iter().map(|_| 0.4).collect();
        let costs: Vec<f64> = xs.iter().map(|x| if x[0] < 0.5 { 0.1 } else { 10.0 }).collect();
        let mut rng = from_seed(11);
        let mut surrogate = RandomForestSurrogate::new();
        surrogate.fit(&xs, &flat, &mut rng);
        let mut cm = CostModel::new();
        cm.refit(&xs, &costs, &mut rng);
        assert!(cm.ready());
        let mut cheap_picks = 0;
        for seed in 0..10u64 {
            let mut r = from_seed(100 + seed);
            let c = maximize_acquisition(
                &space,
                &surrogate,
                None,
                0.5,
                100,
                0,
                AcquisitionScore::EiPerCost(&cm),
                &mut r,
            );
            if c.get(0).unwrap() < 0.5 {
                cheap_picks += 1;
            }
        }
        assert!(cheap_picks >= 9, "only {cheap_picks}/10 picks were cheap");
    }

    #[test]
    fn zero_ei_cheap_candidate_never_beats_positive_ei_expensive() {
        // Cheap region has zero EI (predicted mean above best, no
        // variance); expensive region has positive EI. Cost scaling must
        // not resurrect the zero-EI region: 0 / cheap == 0.
        let mut space = ConfigSpace::new();
        space
            .add("x", Domain::Float { lo: 0.0, hi: 1.0, log: false }, 0.5)
            .unwrap();
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 99.0]).collect();
        // Below 0.5: loss 0.9 (way above best 0.5 → EI ≈ 0). Above: 0.1.
        let ys: Vec<f64> = xs.iter().map(|x| if x[0] < 0.5 { 0.9 } else { 0.1 }).collect();
        let costs: Vec<f64> = xs.iter().map(|x| if x[0] < 0.5 { 1e-6 } else { 50.0 }).collect();
        let mut rng = from_seed(13);
        let mut surrogate = RandomForestSurrogate::new();
        surrogate.fit(&xs, &ys, &mut rng);
        let mut cm = CostModel::new();
        cm.refit(&xs, &costs, &mut rng);
        for seed in 0..10u64 {
            let mut r = from_seed(200 + seed);
            let c = maximize_acquisition(
                &space,
                &surrogate,
                None,
                0.5,
                200,
                0,
                AcquisitionScore::EiPerCost(&cm),
                &mut r,
            );
            let x = c.get(0).unwrap();
            assert!(x >= 0.45, "cost alone selected a no-improvement point: {x}");
        }
    }

    #[test]
    fn ei_per_cost_matches_plain_ei_before_warmup_and_under_equal_costs() {
        let mut space = ConfigSpace::new();
        space
            .add("x", Domain::Float { lo: 0.0, hi: 1.0, log: false }, 0.5)
            .unwrap();
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 99.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] - 0.3).powi(2)).collect();
        let mut rng = from_seed(17);
        let mut surrogate = RandomForestSurrogate::new();
        surrogate.fit(&xs, &ys, &mut rng);
        // Unready cost model: identical choice to plain EI, same rng stream.
        let cold = CostModel::new();
        let pick = |score: AcquisitionScore<'_>| {
            let mut r = from_seed(42);
            maximize_acquisition(&space, &surrogate, None, 0.2, 150, 0, score, &mut r)
        };
        assert_eq!(
            pick(AcquisitionScore::Ei).values,
            pick(AcquisitionScore::EiPerCost(&cold)).values
        );
        // Uniform-cost model: scaling every EI by the same constant cannot
        // change the argmax.
        let mut cm = CostModel::new();
        let flat_costs: Vec<f64> = xs.iter().map(|_| 3.0).collect();
        cm.refit(&xs, &flat_costs, &mut rng);
        assert!(cm.ready());
        assert_eq!(
            pick(AcquisitionScore::Ei).values,
            pick(AcquisitionScore::EiPerCost(&cm)).values
        );
    }

    #[test]
    fn maximize_ei_moves_toward_optimum() {
        // Surrogate trained on a quadratic: EI maximizer should find points
        // with lower predicted loss than random average.
        let mut space = ConfigSpace::new();
        space
            .add("x", Domain::Float { lo: 0.0, hi: 1.0, log: false }, 0.5)
            .unwrap();
        let mut rng = from_seed(0);
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![i as f64 / 199.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] - 0.25).powi(2)).collect();
        let mut surrogate = RandomForestSurrogate::new();
        surrogate.fit(&xs, &ys, &mut rng);
        let ei = AcquisitionScore::Ei;
        let chosen = maximize_acquisition(&space, &surrogate, None, 0.2, 200, 0, ei, &mut rng);
        let x = chosen.get(0).unwrap();
        assert!((x - 0.25).abs() < 0.2, "chose {x}");
    }
}
