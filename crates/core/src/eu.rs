//! Expected-utility (EU) intervals and expected-utility-improvement (EUI)
//! estimates from best-so-far loss trajectories.
//!
//! The conditioning block eliminates arms using EU intervals in the style of
//! rising bandits (Li et al., AAAI 2020): each arm's best-so-far curve is a
//! non-increasing loss sequence whose per-step improvements decay; the
//! *pessimistic* bound is the current best (an arm can always keep its
//! incumbent) and the *optimistic* bound extrapolates the decaying
//! improvements `K` steps ahead. The alternating block schedules by EUI — the
//! mean of recent observed improvements (rotting bandits, Levine et al.).

/// A loss interval `[optimistic, pessimistic]` for an arm given more budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossInterval {
    /// Best loss the arm could plausibly reach with `K` more steps.
    pub optimistic: f64,
    /// Loss the arm is guaranteed not to exceed (its current best).
    pub pessimistic: f64,
}

impl LossInterval {
    /// An uninformative interval (arm not yet evaluated).
    pub fn unknown() -> LossInterval {
        LossInterval {
            optimistic: 0.0,
            pessimistic: f64::INFINITY,
        }
    }

    /// `self` is dominated when even its optimistic outcome is worse than
    /// the other arm's guaranteed outcome.
    pub fn dominated_by(&self, other: &LossInterval) -> bool {
        self.optimistic > other.pessimistic
    }
}

/// Per-step improvements of a non-increasing best-so-far trajectory.
fn improvements(trajectory: &[f64]) -> Vec<f64> {
    trajectory
        .windows(2)
        .map(|w| (w[0] - w[1]).max(0.0))
        .collect()
}

/// Rising-bandit EU interval from a best-so-far trajectory, looking `k`
/// steps ahead. `floor` is the smallest achievable loss (0 for bounded
/// metrics such as 1 − balanced accuracy).
pub fn eu_interval(trajectory: &[f64], k: usize, floor: f64) -> LossInterval {
    let Some(&current) = trajectory.last() else {
        return LossInterval::unknown();
    };
    if trajectory.len() < 3 {
        // Too little history: optimistic bound stays at the floor, which
        // protects young arms from premature elimination.
        return LossInterval {
            optimistic: floor,
            pessimistic: current,
        };
    }
    let imps = improvements(trajectory);
    // Estimate the improvement level and its decay from the two halves of
    // the recent window.
    let window = imps.len().min(8);
    let recent = &imps[imps.len() - window..];
    let half = window / 2;
    let early: f64 = recent[..half].iter().sum::<f64>() / half.max(1) as f64;
    let late: f64 = recent[half..].iter().sum::<f64>() / (window - half).max(1) as f64;
    let decay = if early > 1e-12 {
        (late / early).clamp(0.0, 1.0)
    } else if late > 1e-12 {
        1.0
    } else {
        0.0
    };
    // Geometric extrapolation of future improvements:
    // Σ_{i=1..k} late · decay^i  ≤  late · decay / (1 − decay).
    let future = if decay >= 1.0 - 1e-9 {
        late * k as f64
    } else {
        let geo = decay * (1.0 - decay.powi(k as i32)) / (1.0 - decay);
        late * geo
    };
    LossInterval {
        optimistic: (current - future).max(floor),
        pessimistic: current,
    }
}

/// Merges child best-so-far trajectories into one, taking the next entry of
/// each unfinished child in turn: chronological order across children is
/// not recoverable, and round-robin approximates it. The result is
/// monotone, with one entry per child entry.
pub fn merge_trajectories(children: &[Vec<f64>]) -> Vec<f64> {
    let rounds = children.iter().map(Vec::len).max().unwrap_or(0);
    let mut best = f64::INFINITY;
    (0..rounds)
        .flat_map(|i| children.iter().filter_map(move |t| t.get(i)))
        .map(|&loss| {
            best = best.min(loss);
            best
        })
        .collect()
}

/// Rotting-bandit EUI: the mean of the last `window` observed improvements
/// of the best-so-far trajectory. Arms with no history get `INFINITY` so
/// they are tried first.
pub fn eui(trajectory: &[f64], window: usize) -> f64 {
    if trajectory.len() < 2 {
        return f64::INFINITY;
    }
    let imps = improvements(trajectory);
    let w = window.clamp(1, imps.len());
    imps[imps.len() - w..].iter().sum::<f64>() / w as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_interval_never_dominates() {
        let unknown = LossInterval::unknown();
        let strong = LossInterval {
            optimistic: 0.1,
            pessimistic: 0.2,
        };
        assert!(!unknown.dominated_by(&strong));
        assert!(!strong.dominated_by(&unknown));
    }

    #[test]
    fn dominance_requires_disjoint_intervals() {
        let good = LossInterval {
            optimistic: 0.05,
            pessimistic: 0.1,
        };
        let bad = LossInterval {
            optimistic: 0.3,
            pessimistic: 0.5,
        };
        assert!(bad.dominated_by(&good));
        assert!(!good.dominated_by(&bad));
        let overlapping = LossInterval {
            optimistic: 0.08,
            pessimistic: 0.4,
        };
        assert!(!overlapping.dominated_by(&good));
    }

    #[test]
    fn converged_arm_has_tight_interval() {
        // Flat trajectory -> no expected future improvement.
        let traj = vec![0.3, 0.3, 0.3, 0.3, 0.3, 0.3];
        let iv = eu_interval(&traj, 10, 0.0);
        assert!((iv.optimistic - 0.3).abs() < 1e-9);
        assert_eq!(iv.pessimistic, 0.3);
    }

    #[test]
    fn improving_arm_has_wider_interval() {
        let improving = vec![0.9, 0.7, 0.55, 0.45, 0.38, 0.33];
        let iv = eu_interval(&improving, 10, 0.0);
        assert!(iv.optimistic < 0.33);
        assert!(iv.optimistic >= 0.0);
        assert_eq!(iv.pessimistic, 0.33);
    }

    #[test]
    fn floor_caps_optimism() {
        let improving = vec![0.5, 0.4, 0.3, 0.2, 0.1];
        let iv = eu_interval(&improving, 100, 0.05);
        assert!(iv.optimistic >= 0.05);
    }

    #[test]
    fn short_history_is_maximally_optimistic() {
        let iv = eu_interval(&[0.5, 0.4], 10, 0.0);
        assert_eq!(iv.optimistic, 0.0);
        assert_eq!(iv.pessimistic, 0.4);
    }

    #[test]
    fn decaying_improvements_extrapolate_less_than_linear() {
        // Strong decay: late improvements tiny -> future gain tiny.
        let decaying = vec![0.5, 0.3, 0.2, 0.15, 0.13, 0.125, 0.124, 0.1235];
        let iv = eu_interval(&decaying, 10, 0.0);
        assert!(iv.optimistic > 0.05, "over-optimistic: {}", iv.optimistic);
    }

    #[test]
    fn merge_takes_children_round_robin() {
        let merged = merge_trajectories(&[vec![0.5, 0.4, 0.1], vec![], vec![0.45, 0.3]]);
        assert_eq!(merged, vec![0.5, 0.45, 0.4, 0.3, 0.1]);
        assert!(merge_trajectories(&[]).is_empty());
    }

    #[test]
    fn eui_prefers_untested_arms() {
        assert_eq!(eui(&[], 4), f64::INFINITY);
        assert_eq!(eui(&[0.5], 4), f64::INFINITY);
    }

    #[test]
    fn eui_reflects_recent_improvements() {
        let hot = vec![0.9, 0.7, 0.5, 0.3];
        let cold = vec![0.35, 0.35, 0.35, 0.35];
        assert!(eui(&hot, 3) > eui(&cold, 3));
        assert_eq!(eui(&cold, 3), 0.0);
    }

    #[test]
    fn eui_window_limits_lookback() {
        // Early improvements outside the window are ignored.
        let traj = vec![0.9, 0.5, 0.5, 0.5, 0.5];
        assert_eq!(eui(&traj, 2), 0.0);
        assert!(eui(&traj, 4) > 0.0);
    }
}
