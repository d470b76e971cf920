//! Run histories: observations, incumbent tracking, and best-so-far
//! trajectories (the raw material for the EU/EUI estimators in the core
//! crate's building blocks).

use crate::space::Configuration;

/// One completed evaluation.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Evaluated configuration.
    pub config: Configuration,
    /// Loss (lower is better).
    pub loss: f64,
    /// Evaluation cost in budget units (e.g. seconds).
    pub cost: f64,
    /// Fidelity in `(0, 1]` (1 = full training set).
    pub fidelity: f64,
}

/// Chronological record of evaluations.
#[derive(Debug, Clone, Default)]
pub struct RunHistory {
    observations: Vec<Observation>,
    best_idx: Option<usize>,
}

impl RunHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        RunHistory::default()
    }

    /// Records an evaluation. Only full-fidelity observations compete for
    /// the incumbent (low-fidelity losses are not comparable).
    pub fn push(&mut self, obs: Observation) {
        let is_full = obs.fidelity >= 1.0 - 1e-9;
        let better = is_full
            && obs.loss.is_finite()
            && self
                .best_idx
                .is_none_or(|i| obs.loss < self.observations[i].loss);
        self.observations.push(obs);
        if better {
            self.best_idx = Some(self.observations.len() - 1);
        }
    }

    /// All observations in evaluation order.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// True when no evaluation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// The incumbent (best full-fidelity observation), if any.
    pub fn best(&self) -> Option<&Observation> {
        self.best_idx.map(|i| &self.observations[i])
    }

    /// The incumbent loss, `None` before the first full-fidelity success.
    pub fn best_loss(&self) -> Option<f64> {
        self.best().map(|o| o.loss)
    }

    /// Best-so-far loss after each full-fidelity observation — the
    /// "utility curve" that rising-bandit bounds extrapolate.
    pub fn trajectory(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        let mut out = Vec::new();
        for obs in &self.observations {
            if obs.fidelity >= 1.0 - 1e-9 && obs.loss.is_finite() {
                best = best.min(obs.loss);
                out.push(best);
            }
        }
        out
    }

    /// Total evaluation cost spent.
    pub fn total_cost(&self) -> f64 {
        self.observations.iter().map(|o| o.cost).sum()
    }

    /// Observations at (approximately) the given fidelity.
    pub fn at_fidelity(&self, fidelity: f64) -> Vec<&Observation> {
        self.observations
            .iter()
            .filter(|o| (o.fidelity - fidelity).abs() < 1e-9)
            .collect()
    }

    /// Drops every observation past `len` and recomputes the incumbent.
    /// Batch suggestion uses this to retract constant-liar
    /// pseudo-observations once real results arrive.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.observations.len() {
            return;
        }
        self.observations.truncate(len);
        // Recompute with `push`'s tie-breaking (first strict minimum wins).
        self.best_idx = None;
        for (i, o) in self.observations.iter().enumerate() {
            let is_full = o.fidelity >= 1.0 - 1e-9;
            let better = is_full
                && o.loss.is_finite()
                && self
                    .best_idx
                    .is_none_or(|b| o.loss < self.observations[b].loss);
            if better {
                self.best_idx = Some(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(loss: f64, fidelity: f64) -> Observation {
        Observation {
            config: Configuration { values: vec![Some(loss)] },
            loss,
            cost: 1.0,
            fidelity,
        }
    }

    #[test]
    fn incumbent_tracks_minimum() {
        let mut h = RunHistory::new();
        h.push(obs(0.5, 1.0));
        h.push(obs(0.3, 1.0));
        h.push(obs(0.4, 1.0));
        assert_eq!(h.best_loss(), Some(0.3));
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn low_fidelity_does_not_become_incumbent() {
        let mut h = RunHistory::new();
        h.push(obs(0.1, 0.25));
        assert_eq!(h.best_loss(), None);
        h.push(obs(0.4, 1.0));
        assert_eq!(h.best_loss(), Some(0.4));
    }

    #[test]
    fn non_finite_losses_are_ignored_for_incumbent() {
        let mut h = RunHistory::new();
        h.push(obs(f64::INFINITY, 1.0));
        assert_eq!(h.best_loss(), None);
        h.push(obs(0.2, 1.0));
        assert_eq!(h.best_loss(), Some(0.2));
    }

    #[test]
    fn trajectory_is_monotone() {
        let mut h = RunHistory::new();
        for &l in &[0.9, 0.5, 0.7, 0.4, 0.6] {
            h.push(obs(l, 1.0));
        }
        assert_eq!(h.trajectory(), vec![0.9, 0.5, 0.5, 0.4, 0.4]);
    }

    #[test]
    fn cost_accumulates() {
        let mut h = RunHistory::new();
        h.push(obs(0.5, 1.0));
        h.push(obs(0.4, 0.5));
        assert_eq!(h.total_cost(), 2.0);
    }

    #[test]
    fn at_fidelity_filters() {
        let mut h = RunHistory::new();
        h.push(obs(0.5, 0.25));
        h.push(obs(0.4, 1.0));
        h.push(obs(0.3, 0.25));
        assert_eq!(h.at_fidelity(0.25).len(), 2);
        assert_eq!(h.at_fidelity(1.0).len(), 1);
    }
}
