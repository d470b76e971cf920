//! Bagged tree ensembles: random forests and extra-trees, for both tasks.

use crate::binned::BinnedMatrix;
use crate::parallel::parallel_map;
use crate::tree::{Criterion, HistKernel, MaxFeatures, SplitStrategy, Tree, TreeConfig};
use crate::{check_fit_inputs, infer_n_classes, Estimator, ModelError, Result};
use volcanoml_data::rand_util::{derive_seed, rng_from_seed};
use rand::RngExt;
use volcanoml_linalg::Matrix;

/// Shared forest hyper-parameters.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_estimators: usize,
    /// Per-tree maximum depth.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Minimum samples to split.
    pub min_samples_split: usize,
    /// Features considered per split. [`ForestRegressor::new`] turns
    /// `Sqrt` into `All` (scikit-learn's regression default), so a
    /// regression forest configured with `Sqrt` considers every feature.
    pub max_features: MaxFeatures,
    /// Bootstrap resampling of rows (classic RF); extra-trees typically
    /// disable it.
    pub bootstrap: bool,
    /// Threshold strategy: `Best` (exact) or `Histogram` (binned once,
    /// shared by every tree) for random forests — the AutoML search space
    /// builds random forests with `Histogram` — and `Random` for
    /// extra-trees.
    pub split_strategy: SplitStrategy,
    /// Impurity criterion (Gini/Entropy for classification, Mse for
    /// regression — set automatically by the typed wrappers).
    pub criterion: Criterion,
    /// Bins per feature when `split_strategy` is `Histogram` (the dataset
    /// is binned once and shared by all trees).
    pub max_bins: usize,
    /// Worker threads for tree fitting. Trees are independently seeded, so
    /// results are bit-identical for any value (1 = serial).
    pub n_jobs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ForestConfig {
    /// Random-forest classification defaults.
    pub fn random_forest() -> Self {
        ForestConfig {
            n_estimators: 50,
            max_depth: 14,
            min_samples_leaf: 1,
            min_samples_split: 2,
            max_features: MaxFeatures::Sqrt,
            bootstrap: true,
            split_strategy: SplitStrategy::Best,
            criterion: Criterion::Gini,
            max_bins: crate::binned::DEFAULT_MAX_BINS,
            n_jobs: 1,
            seed: 0,
        }
    }

    /// Extra-trees defaults.
    pub fn extra_trees() -> Self {
        ForestConfig {
            bootstrap: false,
            split_strategy: SplitStrategy::Random,
            ..ForestConfig::random_forest()
        }
    }
}

fn fit_trees(
    x: &Matrix,
    y: &[f64],
    n_outputs: usize,
    config: &ForestConfig,
) -> Result<Vec<Tree>> {
    check_fit_inputs(x, y)?;
    let n = x.rows();
    // Histogram mode: quantize once (feature-parallel under the same job
    // budget as tree fitting), share the layout across all trees.
    let binned = if config.split_strategy == SplitStrategy::Histogram {
        Some(BinnedMatrix::from_matrix_jobs(x, config.max_bins, config.n_jobs))
    } else {
        None
    };
    let fit_one = |t: usize| -> Result<Tree> {
        let tree_cfg = TreeConfig {
            criterion: config.criterion,
            max_depth: config.max_depth,
            min_samples_split: config.min_samples_split,
            min_samples_leaf: config.min_samples_leaf,
            max_features: config.max_features,
            split_strategy: config.split_strategy,
            max_bins: config.max_bins,
            // The job budget is already spent across trees; nested
            // feature-parallel fills would oversubscribe the cores.
            hist_n_jobs: 1,
            hist_kernel: HistKernel::Flat,
            seed: derive_seed(config.seed, t as u64),
        };
        // Bootstrap as multinomial draw counts used as per-row weights:
        // the same resample distribution as materializing a resampled
        // matrix, without the O(n·d) copy per tree.
        let weights: Option<Vec<f64>> = if config.bootstrap {
            let mut rng = rng_from_seed(derive_seed(config.seed, 5000 + t as u64));
            let mut counts = vec![0.0; n];
            for _ in 0..n {
                counts[rng.random_range(0..n)] += 1.0;
            }
            Some(counts)
        } else {
            None
        };
        match &binned {
            Some(bm) => Tree::fit_binned(bm, y, weights.as_deref(), n_outputs, &tree_cfg),
            None => Tree::fit(x, y, weights.as_deref(), n_outputs, &tree_cfg),
        }
    };
    // Each tree's randomness derives only from its index, so any job count
    // produces bit-identical ensembles.
    parallel_map(config.n_jobs, config.n_estimators, fit_one)
        .into_iter()
        .collect()
}

/// Bagged tree classifier (random forest or extra-trees depending on the
/// configured split strategy).
#[derive(Debug, Clone)]
pub struct ForestClassifier {
    /// Ensemble hyper-parameters.
    pub config: ForestConfig,
    trees: Vec<Tree>,
    n_classes: usize,
}

impl ForestClassifier {
    /// Creates an untrained classifier.
    pub fn new(config: ForestConfig) -> Self {
        ForestClassifier {
            config,
            trees: Vec::new(),
            n_classes: 0,
        }
    }
}

impl Estimator for ForestClassifier {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        self.n_classes = infer_n_classes(y);
        self.trees = fit_trees(x, y, self.n_classes, &self.config)?;
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let p = self.predict_proba(x)?;
        Ok((0..p.rows())
            .map(|i| volcanoml_linalg::stats::argmax(p.row(i)).unwrap_or(0) as f64)
            .collect())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Matrix> {
        if self.trees.is_empty() {
            return Err(ModelError::NotFitted);
        }
        if x.cols() != self.trees[0].n_features() {
            return Err(ModelError::Invalid(format!(
                "predict expects {} features, got {}",
                self.trees[0].n_features(),
                x.cols()
            )));
        }
        let mut out = Matrix::zeros(x.rows(), self.n_classes);
        for tree in &self.trees {
            for i in 0..x.rows() {
                let probs = tree.predict_row(x.row(i));
                let row = out.row_mut(i);
                for (o, &p) in row.iter_mut().zip(probs.iter()) {
                    *o += p;
                }
            }
        }
        let scale = 1.0 / self.trees.len() as f64;
        out.scale(scale);
        Ok(out)
    }
}

/// Bagged tree regressor (random forest or extra-trees).
#[derive(Debug, Clone)]
pub struct ForestRegressor {
    /// Ensemble hyper-parameters.
    pub config: ForestConfig,
    trees: Vec<Tree>,
}

impl ForestRegressor {
    /// Creates an untrained regressor. The criterion is forced to MSE.
    pub fn new(mut config: ForestConfig) -> Self {
        config.criterion = Criterion::Mse;
        if config.max_features == MaxFeatures::Sqrt {
            // Regression forests default to all features (sklearn behaviour).
            config.max_features = MaxFeatures::All;
        }
        ForestRegressor {
            config,
            trees: Vec::new(),
        }
    }
}

impl Estimator for ForestRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        self.trees = fit_trees(x, y, 1, &self.config)?;
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        if self.trees.is_empty() {
            return Err(ModelError::NotFitted);
        }
        if x.cols() != self.trees[0].n_features() {
            return Err(ModelError::Invalid(format!(
                "predict expects {} features, got {}",
                self.trees[0].n_features(),
                x.cols()
            )));
        }
        let mut out = vec![0.0; x.rows()];
        for tree in &self.trees {
            for (i, o) in out.iter_mut().enumerate() {
                *o += tree.predict_row(x.row(i))[0];
            }
        }
        let scale = 1.0 / self.trees.len() as f64;
        for o in &mut out {
            *o *= scale;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{easy_multiclass, nonlinear_binary, split};
    use volcanoml_data::metrics::{accuracy, r2};
    use volcanoml_data::synthetic::{make_friedman1, make_xor};

    #[test]
    fn rf_beats_chance_on_moons() {
        let d = nonlinear_binary();
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut m = ForestClassifier::new(ForestConfig::random_forest());
        m.fit(&xt, &yt).unwrap();
        let acc = accuracy(&yv, &m.predict(&xv).unwrap());
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn rf_handles_multiclass() {
        let d = easy_multiclass();
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut m = ForestClassifier::new(ForestConfig::random_forest());
        m.fit(&xt, &yt).unwrap();
        let acc = accuracy(&yv, &m.predict(&xv).unwrap());
        assert!(acc > 0.93, "accuracy {acc}");
    }

    #[test]
    fn extra_trees_learn_xor() {
        let d = make_xor(400, 2, 5, 0.02, 4);
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut cfg = ForestConfig::extra_trees();
        cfg.n_estimators = 80;
        cfg.max_depth = 16;
        let mut m = ForestClassifier::new(cfg);
        m.fit(&xt, &yt).unwrap();
        let acc = accuracy(&yv, &m.predict(&xv).unwrap());
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn forest_regressor_fits_friedman() {
        let d = make_friedman1(400, 2, 0.3, 5);
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut cfg = ForestConfig::random_forest();
        cfg.n_estimators = 60;
        let mut m = ForestRegressor::new(cfg);
        m.fit(&xt, &yt).unwrap();
        let score = r2(&yv, &m.predict(&xv).unwrap());
        assert!(score > 0.75, "r2 {score}");
    }

    #[test]
    fn deterministic_given_seed() {
        let d = nonlinear_binary();
        let mut a = ForestClassifier::new(ForestConfig::random_forest());
        a.fit(&d.x, &d.y).unwrap();
        let mut b = ForestClassifier::new(ForestConfig::random_forest());
        b.fit(&d.x, &d.y).unwrap();
        assert_eq!(a.predict(&d.x).unwrap(), b.predict(&d.x).unwrap());
    }

    #[test]
    fn different_seeds_differ() {
        let d = nonlinear_binary();
        let mut cfg1 = ForestConfig::random_forest();
        cfg1.n_estimators = 5;
        let mut cfg2 = cfg1.clone();
        cfg2.seed = 99;
        let mut a = ForestClassifier::new(cfg1);
        a.fit(&d.x, &d.y).unwrap();
        let mut b = ForestClassifier::new(cfg2);
        b.fit(&d.x, &d.y).unwrap();
        let pa = a.predict_proba(&d.x).unwrap();
        let pb = b.predict_proba(&d.x).unwrap();
        assert_ne!(pa.data(), pb.data());
    }

    #[test]
    fn unfitted_errors() {
        let m = ForestClassifier::new(ForestConfig::random_forest());
        assert!(m.predict(&Matrix::zeros(1, 2)).is_err());
        let r = ForestRegressor::new(ForestConfig::random_forest());
        assert!(r.predict(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn histogram_forest_learns_moons() {
        let d = nonlinear_binary();
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut cfg = ForestConfig::random_forest();
        cfg.split_strategy = SplitStrategy::Histogram;
        let mut m = ForestClassifier::new(cfg);
        m.fit(&xt, &yt).unwrap();
        let acc = accuracy(&yv, &m.predict(&xv).unwrap());
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn histogram_regression_forest_fits_friedman() {
        // Exercises the weight-based bootstrap on the regression (MSE) path.
        let d = make_friedman1(400, 2, 0.3, 5);
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut cfg = ForestConfig::random_forest();
        cfg.n_estimators = 60;
        cfg.split_strategy = SplitStrategy::Histogram;
        let mut m = ForestRegressor::new(cfg);
        m.fit(&xt, &yt).unwrap();
        let score = r2(&yv, &m.predict(&xv).unwrap());
        assert!(score > 0.75, "r2 {score}");
    }

    #[test]
    fn fit_is_bit_identical_across_n_jobs() {
        let d = nonlinear_binary();
        for strategy in [SplitStrategy::Best, SplitStrategy::Histogram] {
            let fit = |jobs: usize| {
                let mut cfg = ForestConfig::random_forest();
                cfg.n_estimators = 12;
                cfg.split_strategy = strategy;
                cfg.n_jobs = jobs;
                let mut m = ForestClassifier::new(cfg);
                m.fit(&d.x, &d.y).unwrap();
                m.predict_proba(&d.x).unwrap()
            };
            let serial = fit(1);
            for jobs in [2, 4] {
                assert_eq!(
                    serial.data(),
                    fit(jobs).data(),
                    "{strategy:?} with n_jobs={jobs} diverged"
                );
            }
        }
    }
}
