//! Linear and quadratic discriminant analysis.
//!
//! LDA assumes a shared covariance matrix across classes; QDA fits one per
//! class. Both support a shrinkage parameter that blends the empirical
//! covariance with a scaled identity — essential on small or collinear
//! datasets where the covariance estimate is singular.

use crate::{check_fit_inputs, infer_n_classes, Estimator, ModelError, Result};
use volcanoml_linalg::{cholesky_decompose, cholesky_solve, Matrix};

fn class_partition(y: &[f64], k: usize) -> Vec<Vec<usize>> {
    let mut by_class = vec![Vec::new(); k];
    for (i, &label) in y.iter().enumerate() {
        by_class[label as usize].push(i);
    }
    by_class
}

fn class_means(x: &Matrix, by_class: &[Vec<usize>]) -> Vec<Vec<f64>> {
    let d = x.cols();
    by_class
        .iter()
        .map(|members| {
            let mut m = vec![0.0; d];
            for &i in members {
                for (mj, &v) in m.iter_mut().zip(x.row(i).iter()) {
                    *mj += v;
                }
            }
            if !members.is_empty() {
                for mj in m.iter_mut() {
                    *mj /= members.len() as f64;
                }
            }
            m
        })
        .collect()
}

/// Rejects a class whose mean, or the covariance accumulated up to and
/// including its rows, is not finite. Features near `f64::MAX` square to
/// infinity: shrinkage would turn that into NaN, Cholesky would not notice,
/// and every later prediction would be NaN.
fn check_finite(class: usize, mean: &[f64], cov: &Matrix) -> Result<()> {
    let what = if !mean.iter().all(|v| v.is_finite()) {
        "mean"
    } else if !cov.data().iter().all(|v| v.is_finite()) {
        "covariance"
    } else {
        return Ok(());
    };
    Err(ModelError::Invalid(format!("class {class}: {what} is not finite")))
}

/// Applies shrinkage: `(1 - s) Σ + s (tr Σ / d) I`.
fn shrink(cov: &mut Matrix, shrinkage: f64) {
    let d = cov.rows();
    let trace: f64 = (0..d).map(|i| cov.get(i, i)).sum();
    let mu = trace / d as f64;
    let s = shrinkage.clamp(0.0, 1.0);
    for i in 0..d {
        for j in 0..d {
            let v = cov.get(i, j) * (1.0 - s) + if i == j { s * mu } else { 0.0 };
            cov.set(i, j, v);
        }
    }
    // Tiny diagonal jitter so Cholesky always succeeds.
    for i in 0..d {
        let v = cov.get(i, i) + 1e-8 + 1e-8 * mu;
        cov.set(i, i, v);
    }
}

/// Linear discriminant analysis.
#[derive(Debug, Clone)]
pub struct Lda {
    /// Shrinkage toward the scaled identity, in `[0, 1]`.
    pub shrinkage: f64,
    priors: Vec<f64>,
    means: Vec<Vec<f64>>,
    // Cholesky factor of the pooled covariance.
    chol: Option<Matrix>,
    // Per-class solved terms Σ⁻¹ μ_c.
    solved_means: Vec<Vec<f64>>,
}

impl Lda {
    /// Creates an untrained model.
    pub fn new(shrinkage: f64) -> Self {
        Lda {
            shrinkage,
            priors: Vec::new(),
            means: Vec::new(),
            chol: None,
            solved_means: Vec::new(),
        }
    }

    fn scores(&self, row: &[f64]) -> Result<Vec<f64>> {
        let chol = self.chol.as_ref().ok_or(ModelError::NotFitted)?;
        if row.len() != chol.rows() {
            return Err(ModelError::Invalid(format!(
                "predict expects {} features, got {}",
                chol.rows(),
                row.len()
            )));
        }
        // Linear discriminant: x' Σ⁻¹ μ_c − ½ μ_c' Σ⁻¹ μ_c + ln π_c.
        Ok((0..self.priors.len())
            .map(|c| {
                let sm = &self.solved_means[c];
                let xm: f64 = row.iter().zip(sm.iter()).map(|(a, b)| a * b).sum();
                let mm: f64 = self.means[c].iter().zip(sm.iter()).map(|(a, b)| a * b).sum();
                xm - 0.5 * mm + self.priors[c].max(1e-12).ln()
            })
            .collect())
    }
}

impl Estimator for Lda {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        check_fit_inputs(x, y)?;
        let k = infer_n_classes(y);
        let n = x.rows();
        let d = x.cols();
        let by_class = class_partition(y, k);
        let means = class_means(x, &by_class);

        // Pooled within-class covariance.
        let mut cov = Matrix::zeros(d, d);
        for (c, members) in by_class.iter().enumerate() {
            for &i in members {
                let row = x.row(i);
                for a in 0..d {
                    let da = row[a] - means[c][a];
                    for b in a..d {
                        let db = row[b] - means[c][b];
                        let v = cov.get(a, b) + da * db;
                        cov.set(a, b, v);
                    }
                }
            }
            check_finite(c, &means[c], &cov)?;
        }
        for a in 0..d {
            for b in 0..a {
                let v = cov.get(b, a);
                cov.set(a, b, v);
            }
        }
        cov.scale(1.0 / (n as f64 - k as f64).max(1.0));
        shrink(&mut cov, self.shrinkage);

        let chol = cholesky_decompose(&cov).map_err(ModelError::from)?;
        let solved_means: Vec<Vec<f64>> = means
            .iter()
            .map(|m| cholesky_solve(&chol, m).map_err(ModelError::from))
            .collect::<Result<_>>()?;

        self.priors = by_class.iter().map(|m| m.len() as f64 / n as f64).collect();
        self.means = means;
        self.chol = Some(chol);
        self.solved_means = solved_means;
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(x.rows());
        for i in 0..x.rows() {
            let s = self.scores(x.row(i))?;
            out.push(volcanoml_linalg::stats::argmax(&s).unwrap_or(0) as f64);
        }
        Ok(out)
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Matrix> {
        let k = self.priors.len().max(1);
        let mut out = Matrix::zeros(x.rows(), k);
        for i in 0..x.rows() {
            let s = self.scores(x.row(i))?;
            let max = s.iter().fold(f64::MIN, |m, &v| m.max(v));
            let row = out.row_mut(i);
            let mut sum = 0.0;
            for (o, &v) in row.iter_mut().zip(s.iter()) {
                *o = (v - max).exp();
                sum += *o;
            }
            if sum > 0.0 {
                for o in row.iter_mut() {
                    *o /= sum;
                }
            }
        }
        Ok(out)
    }
}

/// Quadratic discriminant analysis.
#[derive(Debug, Clone)]
pub struct Qda {
    /// Per-class covariance regularization toward the scaled identity.
    pub reg_param: f64,
    priors: Vec<f64>,
    means: Vec<Vec<f64>>,
    chols: Vec<Matrix>,
    log_dets: Vec<f64>,
}

impl Qda {
    /// Creates an untrained model.
    pub fn new(reg_param: f64) -> Self {
        Qda {
            reg_param,
            priors: Vec::new(),
            means: Vec::new(),
            chols: Vec::new(),
            log_dets: Vec::new(),
        }
    }

    fn scores(&self, row: &[f64]) -> Result<Vec<f64>> {
        if self.chols.is_empty() {
            return Err(ModelError::NotFitted);
        }
        if row.len() != self.chols[0].rows() {
            return Err(ModelError::Invalid(format!(
                "predict expects {} features, got {}",
                self.chols[0].rows(),
                row.len()
            )));
        }
        Ok((0..self.priors.len())
            .map(|c| {
                let diff: Vec<f64> = row
                    .iter()
                    .zip(self.means[c].iter())
                    .map(|(a, b)| a - b)
                    .collect();
                // Mahalanobis via Cholesky solve.
                let solved = cholesky_solve(&self.chols[c], &diff).unwrap_or_else(|_| vec![0.0; diff.len()]);
                let maha: f64 = diff.iter().zip(solved.iter()).map(|(a, b)| a * b).sum();
                -0.5 * (self.log_dets[c] + maha) + self.priors[c].max(1e-12).ln()
            })
            .collect())
    }
}

impl Estimator for Qda {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        check_fit_inputs(x, y)?;
        let k = infer_n_classes(y);
        let n = x.rows();
        let d = x.cols();
        let by_class = class_partition(y, k);
        let means = class_means(x, &by_class);

        let mut chols = Vec::with_capacity(k);
        let mut log_dets = Vec::with_capacity(k);
        for (c, members) in by_class.iter().enumerate() {
            let mut cov = Matrix::zeros(d, d);
            for &i in members {
                let row = x.row(i);
                for a in 0..d {
                    let da = row[a] - means[c][a];
                    for b in a..d {
                        let db = row[b] - means[c][b];
                        let v = cov.get(a, b) + da * db;
                        cov.set(a, b, v);
                    }
                }
            }
            check_finite(c, &means[c], &cov)?;
            for a in 0..d {
                for b in 0..a {
                    let v = cov.get(b, a);
                    cov.set(a, b, v);
                }
            }
            cov.scale(1.0 / (members.len() as f64 - 1.0).max(1.0));
            shrink(&mut cov, self.reg_param);
            let chol = cholesky_decompose(&cov).map_err(ModelError::from)?;
            // log|Σ| = 2 Σ ln L_ii.
            let log_det: f64 = (0..d).map(|i| chol.get(i, i).max(1e-300).ln()).sum::<f64>() * 2.0;
            chols.push(chol);
            log_dets.push(log_det);
        }
        self.priors = by_class.iter().map(|m| m.len() as f64 / n as f64).collect();
        self.means = means;
        self.chols = chols;
        self.log_dets = log_dets;
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(x.rows());
        for i in 0..x.rows() {
            let s = self.scores(x.row(i))?;
            out.push(volcanoml_linalg::stats::argmax(&s).unwrap_or(0) as f64);
        }
        Ok(out)
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Matrix> {
        let k = self.priors.len().max(1);
        let mut out = Matrix::zeros(x.rows(), k);
        for i in 0..x.rows() {
            let s = self.scores(x.row(i))?;
            let max = s.iter().fold(f64::MIN, |m, &v| m.max(v));
            let row = out.row_mut(i);
            let mut sum = 0.0;
            for (o, &v) in row.iter_mut().zip(s.iter()) {
                *o = (v - max).exp();
                sum += *o;
            }
            if sum > 0.0 {
                for o in row.iter_mut() {
                    *o /= sum;
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{easy_binary, easy_multiclass, split};
    use volcanoml_data::metrics::accuracy;
    use volcanoml_data::synthetic::{make_classification, ClassificationSpec};

    #[test]
    fn lda_learns_linear_boundary() {
        let d = easy_binary();
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut m = Lda::new(0.1);
        m.fit(&xt, &yt).unwrap();
        let acc = accuracy(&yv, &m.predict(&xv).unwrap());
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn lda_multiclass() {
        let d = easy_multiclass();
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut m = Lda::new(0.05);
        m.fit(&xt, &yt).unwrap();
        let acc = accuracy(&yv, &m.predict(&xv).unwrap());
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn lda_survives_collinear_features_with_shrinkage() {
        // Redundant features make the pooled covariance singular.
        let d = make_classification(
            &ClassificationSpec {
                n_samples: 150,
                n_features: 10,
                n_informative: 3,
                n_redundant: 6,
                n_classes: 2,
                class_sep: 1.5,
                flip_y: 0.0,
                weights: Vec::new(),
            },
            21,
        );
        let mut m = Lda::new(0.3);
        m.fit(&d.x, &d.y).unwrap();
        let acc = accuracy(&d.y, &m.predict(&d.x).unwrap());
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn qda_learns_different_covariances() {
        let d = easy_multiclass();
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut m = Qda::new(0.05);
        m.fit(&xt, &yt).unwrap();
        let acc = accuracy(&yv, &m.predict(&xv).unwrap());
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn probabilities_normalized() {
        let d = easy_binary();
        let mut m = Lda::new(0.1);
        m.fit(&d.x, &d.y).unwrap();
        let p = m.predict_proba(&d.x).unwrap();
        for i in 0..p.rows() {
            let s: f64 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        let mut q = Qda::new(0.1);
        q.fit(&d.x, &d.y).unwrap();
        let pq = q.predict_proba(&d.x).unwrap();
        for i in 0..pq.rows() {
            let s: f64 = pq.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    /// Rows scaled by 1e300 are finite, but their covariance is not: both
    /// fits fail naming a class instead of returning NaN probabilities.
    #[test]
    fn overflowing_features_are_rejected_naming_the_class() {
        let d = easy_binary();
        let mut x = d.x.clone();
        x.scale(1e300);
        assert!(x.data().iter().all(|v| v.is_finite()));
        let qda = Qda::new(0.1).fit(&x, &d.y);
        let lda = Lda::new(0.1).fit(&x, &d.y);
        for (name, result) in [("qda", qda), ("lda", lda)] {
            match result {
                Err(ModelError::Invalid(msg)) => {
                    assert!(msg.starts_with("class 0: covariance"), "{name}: {msg}")
                }
                other => panic!("{name}: expected a typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn unfitted_errors() {
        assert!(Lda::new(0.1).predict(&Matrix::zeros(1, 2)).is_err());
        assert!(Qda::new(0.1).predict(&Matrix::zeros(1, 2)).is_err());
    }
}
