//! ε-insensitive support vector regression (SMO on the dual) — the `SVR`
//! member of the paper's regression search space.

use crate::svm::{scale_matrix, Kernel};
use crate::{check_fit_inputs, Estimator, ModelError, Result};
use rand::RngExt;
use volcanoml_data::rand_util::rng_from_seed;
use volcanoml_linalg::Matrix;

/// Row cap on the SVR working set (larger inputs are subsampled): SMO is
/// quadratic in n, and the per-fit Gram matrix takes `cap² × 8` bytes = 2.0 MB.
const SVR_WORKING_SET_CAP: usize = 500;

/// ε-SVR trained with a simplified SMO over the dual coefficients
/// `β_i = α_i − α_i*` (each clipped to `[-C, C]`).
#[derive(Debug, Clone)]
pub struct SvmRegressor {
    /// Soft-margin penalty C.
    pub c: f64,
    /// Width of the ε-insensitive tube.
    pub epsilon: f64,
    /// Kernel function.
    pub kernel: Kernel,
    /// KKT tolerance.
    pub tol: f64,
    /// Consecutive clean passes before SMO stops.
    pub max_passes: usize,
    /// RNG seed for the second-index heuristic.
    pub seed: u64,
    beta: Vec<f64>,
    bias: f64,
    x_train: Option<Matrix>,
    means: Vec<f64>,
    stds: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

impl SvmRegressor {
    /// Creates an untrained model.
    pub fn new(c: f64, epsilon: f64, kernel: Kernel, seed: u64) -> Self {
        SvmRegressor {
            c,
            epsilon,
            kernel,
            tol: 1e-3,
            max_passes: 3,
            seed,
            beta: Vec::new(),
            bias: 0.0,
            x_train: None,
            means: Vec::new(),
            stds: Vec::new(),
            y_mean: 0.0,
            y_std: 1.0,
        }
    }

    /// Number of support vectors (non-zero dual coefficients).
    pub fn n_support_vectors(&self) -> usize {
        self.beta.iter().filter(|b| b.abs() > 1e-9).count()
    }

    fn raw_predict(&self, xt: &Matrix, row: &[f64]) -> f64 {
        let mut s = self.bias;
        for (j, &b) in self.beta.iter().enumerate() {
            if b != 0.0 {
                s += b * self.kernel.eval(xt.row(j), row);
            }
        }
        s
    }
}

impl Estimator for SvmRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        check_fit_inputs(x, y)?;
        self.means = volcanoml_linalg::stats::column_means(x);
        self.stds = volcanoml_linalg::stats::column_stds(x)
            .into_iter()
            .map(|s| if s < 1e-9 { 1.0 } else { s })
            .collect();
        self.y_mean = volcanoml_linalg::stats::mean(y);
        self.y_std = {
            let s = volcanoml_linalg::stats::std_dev(y);
            if s < 1e-9 {
                1.0
            } else {
                s
            }
        };
        let xs = scale_matrix(x, &self.means, &self.stds);
        let cap = SVR_WORKING_SET_CAP;
        let (x_work, y_work): (Matrix, Vec<f64>) = if xs.rows() > cap {
            let mut rng = rng_from_seed(self.seed ^ 0xcafe);
            let idx =
                volcanoml_data::rand_util::sample_without_replacement(&mut rng, xs.rows(), cap);
            (
                xs.select_rows(&idx),
                idx.iter().map(|&i| (y[i] - self.y_mean) / self.y_std).collect(),
            )
        } else {
            (
                xs,
                y.iter().map(|v| (v - self.y_mean) / self.y_std).collect(),
            )
        };
        let n = x_work.rows();
        let mut beta = vec![0.0; n];
        let mut bias = 0.0;
        let mut rng = rng_from_seed(self.seed);
        let eps = self.epsilon.max(1e-6);
        let c = self.c.max(1e-9);

        // Computed once per fit and dropped when it returns.
        let gram = self.kernel.gram(&x_work);
        // Prediction for working-set row i. The operand order — non-zero β
        // only, j ascending, `β_j · K[i][j]` — is pinned bit for bit by the
        // golden digests below.
        let f = |beta: &[f64], bias: f64, i: usize| -> f64 {
            let mut s = bias;
            for (&b, &k) in beta.iter().zip(gram.row(i)) {
                if b != 0.0 {
                    s += b * k;
                }
            }
            s
        };

        let mut passes = 0usize;
        let mut guard = 0usize;
        // A single row cannot form an SMO pair: β stays zero.
        let max_iters = if n < 2 { 0 } else { self.max_passes * 40 };
        while passes < self.max_passes && guard < max_iters {
            guard += 1;
            let mut changed = 0usize;
            for i in 0..n {
                let ei = f(&beta, bias, i) - y_work[i];
                // KKT for the ε-tube: |error| > ε with room to move.
                let violates = (ei > eps + self.tol && beta[i] > -c)
                    || (ei < -(eps + self.tol) && beta[i] < c);
                if !violates {
                    continue;
                }
                let mut j = rng.random_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let (kii, kjj, kij) = (gram.get(i, i), gram.get(j, j), gram.get(i, j));
                let eta = kii + kjj - 2.0 * kij;
                if eta <= 1e-12 {
                    continue;
                }
                // Move β_i along the direction reducing its error (tube-aware
                // target), compensating with β_j to keep Σβ stable.
                let target = if ei > 0.0 { ei - eps } else { ei + eps };
                let delta = (target / eta).clamp(-c, c);
                let new_bi = (beta[i] - delta).clamp(-c, c);
                let applied = beta[i] - new_bi;
                if applied.abs() < 1e-9 {
                    continue;
                }
                let new_bj = (beta[j] + applied).clamp(-c, c);
                let applied_j = new_bj - beta[j];
                beta[i] = new_bi;
                beta[j] = new_bj;
                // Bias update from point i's post-move error.
                bias -= ei - applied * kii + applied_j * kij;
                bias = bias.clamp(-1e3, 1e3);
                changed += 1;
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
        }
        // Recompute the bias as the median residual (robust against the
        // heuristic updates above).
        let residuals: Vec<f64> = (0..n)
            .map(|i| y_work[i] - (f(&beta, 0.0, i)))
            .collect();
        bias = volcanoml_linalg::stats::median(&residuals);

        self.beta = beta;
        self.bias = bias;
        self.x_train = Some(x_work);
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let xt = self.x_train.as_ref().ok_or(ModelError::NotFitted)?;
        if x.cols() != xt.cols() {
            return Err(ModelError::Invalid(format!(
                "predict expects {} features, got {}",
                xt.cols(),
                x.cols()
            )));
        }
        let xs = scale_matrix(x, &self.means, &self.stds);
        Ok((0..xs.rows())
            .map(|i| self.raw_predict(xt, xs.row(i)) * self.y_std + self.y_mean)
            .collect())
    }
}

/// Huber-loss linear regressor (robust to target outliers), trained with
/// SGD — rounds out the robust corner of the regression zoo.
#[derive(Debug, Clone)]
pub struct HuberRegressor {
    /// Transition point between quadratic and linear loss (in target
    /// standard deviations).
    pub delta: f64,
    /// L2 penalty.
    pub alpha: f64,
    /// Epochs.
    pub max_iter: usize,
    /// Seed.
    pub seed: u64,
    weights: Option<Vec<f64>>, // d+1
    means: Vec<f64>,
    stds: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

impl HuberRegressor {
    /// Creates an untrained model.
    pub fn new(delta: f64, alpha: f64, max_iter: usize, seed: u64) -> Self {
        HuberRegressor {
            delta: delta.max(1e-3),
            alpha,
            max_iter,
            seed,
            weights: None,
            means: Vec::new(),
            stds: Vec::new(),
            y_mean: 0.0,
            y_std: 1.0,
        }
    }
}

impl Estimator for HuberRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        check_fit_inputs(x, y)?;
        self.means = volcanoml_linalg::stats::column_means(x);
        self.stds = volcanoml_linalg::stats::column_stds(x)
            .into_iter()
            .map(|s| if s < 1e-9 { 1.0 } else { s })
            .collect();
        self.y_mean = volcanoml_linalg::stats::median(y);
        self.y_std = {
            let s = volcanoml_linalg::stats::std_dev(y);
            if s < 1e-9 {
                1.0
            } else {
                s
            }
        };
        let n = x.rows();
        let d = x.cols();
        let mut w = vec![0.0; d + 1];
        let mut rng = rng_from_seed(self.seed);
        for epoch in 0..self.max_iter {
            let lr = 0.05 / (1.0 + 0.05 * epoch as f64);
            let order = volcanoml_data::rand_util::permutation(&mut rng, n);
            for &i in &order {
                let row: Vec<f64> = x
                    .row(i)
                    .iter()
                    .zip(self.means.iter())
                    .zip(self.stds.iter())
                    .map(|((v, m), s)| (v - m) / s)
                    .collect();
                let pred = volcanoml_linalg::matrix::dot(&row, &w[..d]) + w[d];
                let err = pred - (y[i] - self.y_mean) / self.y_std;
                // Huber gradient: clipped error.
                let g = err.clamp(-self.delta, self.delta);
                for j in 0..d {
                    w[j] -= lr * (g * row[j] + self.alpha * w[j]);
                }
                w[d] -= lr * g;
            }
        }
        self.weights = Some(w);
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let w = self.weights.as_ref().ok_or(ModelError::NotFitted)?;
        let d = w.len() - 1;
        if x.cols() != d {
            return Err(ModelError::Invalid(format!(
                "predict expects {d} features, got {}",
                x.cols()
            )));
        }
        Ok((0..x.rows())
            .map(|i| {
                let row: Vec<f64> = x
                    .row(i)
                    .iter()
                    .zip(self.means.iter())
                    .zip(self.stds.iter())
                    .map(|((v, m), s)| (v - m) / s)
                    .collect();
                (volcanoml_linalg::matrix::dot(&row, &w[..d]) + w[d]) * self.y_std + self.y_mean
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{easy_regression, fnv1a_bits, split};
    use volcanoml_data::metrics::r2;
    use volcanoml_data::synthetic::make_friedman1;

    #[test]
    fn svr_fits_linear_signal() {
        let d = easy_regression();
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut m = SvmRegressor::new(5.0, 0.05, Kernel::Linear, 0);
        m.fit(&xt, &yt).unwrap();
        let score = r2(&yv, &m.predict(&xv).unwrap());
        assert!(score > 0.8, "r2 {score}");
    }

    #[test]
    fn rbf_svr_fits_nonlinear_signal() {
        let d = make_friedman1(350, 0, 0.2, 3);
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut m = SvmRegressor::new(10.0, 0.05, Kernel::Rbf { gamma: 0.5 }, 0);
        m.fit(&xt, &yt).unwrap();
        let score = r2(&yv, &m.predict(&xv).unwrap());
        assert!(score > 0.6, "r2 {score}");
    }

    /// Digest of everything a fit produces: β, bias, then predictions on `xv`.
    fn fit_digest(mut m: SvmRegressor, xt: &Matrix, yt: &[f64], xv: &Matrix) -> u64 {
        m.fit(xt, yt).unwrap();
        let preds = m.predict(xv).unwrap();
        fnv1a_bits(m.beta.iter().copied().chain([m.bias]).chain(preds))
    }

    // Golden digests recorded on the direct-evaluation SMO (the commit before
    // the Gram matrix): the Gram path must reproduce every bit.
    #[test]
    fn golden_rbf() {
        let d = make_friedman1(350, 0, 0.2, 3);
        let ((xt, yt), (xv, _)) = split(&d);
        let m = SvmRegressor::new(10.0, 0.05, Kernel::Rbf { gamma: 0.5 }, 0);
        assert_eq!(fit_digest(m, &xt, &yt, &xv), 0x4098c0cacb00eec6_u64);
    }

    #[test]
    fn golden_linear() {
        let d = easy_regression();
        let ((xt, yt), (xv, _)) = split(&d);
        let m = SvmRegressor::new(5.0, 0.05, Kernel::Linear, 0);
        assert_eq!(fit_digest(m, &xt, &yt, &xv), 0x584cb77942b09b39_u64);
    }

    #[test]
    fn golden_subsampled_rbf() {
        // 700 rows > SVR_WORKING_SET_CAP: exercises the subsample path.
        let d = make_friedman1(700, 2, 0.3, 9);
        let m = SvmRegressor::new(3.0, 0.1, Kernel::Rbf { gamma: 0.2 }, 6);
        assert_eq!(fit_digest(m, &d.x, &d.y, &d.x), 0x54ac3fdddbedb221_u64);
    }

    #[test]
    fn single_row_fit_skips_smo_instead_of_panicking() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let mut m = SvmRegressor::new(1.0, 0.1, Kernel::Rbf { gamma: 0.5 }, 0);
        m.fit(&x, &[3.0]).unwrap();
        assert_eq!(m.n_support_vectors(), 0);
        assert_eq!(m.bias, 0.0);
        assert_eq!(m.predict(&x).unwrap(), vec![3.0]);
    }

    #[test]
    fn svr_has_support_vectors() {
        let d = easy_regression();
        let mut m = SvmRegressor::new(1.0, 0.1, Kernel::Linear, 0);
        m.fit(&d.x, &d.y).unwrap();
        assert!(m.n_support_vectors() > 0);
    }

    #[test]
    fn wider_tube_means_fewer_support_vectors() {
        let d = easy_regression();
        let mut tight = SvmRegressor::new(1.0, 0.01, Kernel::Linear, 0);
        tight.fit(&d.x, &d.y).unwrap();
        let mut loose = SvmRegressor::new(1.0, 1.5, Kernel::Linear, 0);
        loose.fit(&d.x, &d.y).unwrap();
        assert!(
            loose.n_support_vectors() <= tight.n_support_vectors(),
            "{} vs {}",
            loose.n_support_vectors(),
            tight.n_support_vectors()
        );
    }

    #[test]
    fn huber_fits_clean_data() {
        let d = easy_regression();
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut m = HuberRegressor::new(1.0, 1e-5, 80, 0);
        m.fit(&xt, &yt).unwrap();
        let score = r2(&yv, &m.predict(&xv).unwrap());
        assert!(score > 0.85, "r2 {score}");
    }

    #[test]
    fn huber_resists_target_outliers() {
        let d = easy_regression();
        let ((xt, mut yt), (xv, yv)) = split(&d);
        // Corrupt 10% of training targets with huge outliers.
        for i in (0..yt.len()).step_by(10) {
            yt[i] += 500.0;
        }
        let mut huber = HuberRegressor::new(1.0, 1e-5, 80, 0);
        huber.fit(&xt, &yt).unwrap();
        let huber_r2 = r2(&yv, &huber.predict(&xv).unwrap());
        let mut ols = crate::linear::RidgeRegression::new(1e-6);
        ols.fit(&xt, &yt).unwrap();
        let ols_r2 = r2(&yv, &ols.predict(&xv).unwrap());
        assert!(
            huber_r2 > ols_r2,
            "huber {huber_r2} should beat OLS {ols_r2} under outliers"
        );
    }

    #[test]
    fn unfitted_errors() {
        let m = SvmRegressor::new(1.0, 0.1, Kernel::Linear, 0);
        assert!(m.predict(&Matrix::zeros(1, 2)).is_err());
        let h = HuberRegressor::new(1.0, 1e-4, 10, 0);
        assert!(h.predict(&Matrix::zeros(1, 2)).is_err());
    }
}
