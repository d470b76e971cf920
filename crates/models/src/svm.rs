//! Kernel SVM classifier trained with simplified SMO, one-vs-rest for
//! multi-class — the `Lib_SVM` stand-in from the paper's search space.

use crate::{check_fit_inputs, infer_n_classes, Estimator, ModelError, Result};
use rand::RngExt;
use volcanoml_data::rand_util::rng_from_seed;
use volcanoml_linalg::matrix::{dot, squared_distance};
use volcanoml_linalg::Matrix;

/// SVM kernel functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// ⟨x, y⟩
    Linear,
    /// exp(−γ ‖x − y‖²)
    Rbf {
        /// Bandwidth γ.
        gamma: f64,
    },
    /// (γ ⟨x, y⟩ + c₀)^degree
    Poly {
        /// Scale γ.
        gamma: f64,
        /// Offset c₀.
        coef0: f64,
        /// Polynomial degree.
        degree: u32,
    },
}

impl Kernel {
    /// Evaluates the kernel on two feature vectors.
    #[inline]
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        match *self {
            Kernel::Linear => dot(a, b),
            Kernel::Rbf { gamma } => (-gamma * squared_distance(a, b)).exp(),
            Kernel::Poly { gamma, coef0, degree } => (gamma * dot(a, b) + coef0).powi(degree as i32),
        }
    }

    /// The symmetric `n×n` Gram matrix `K[i][j] = eval(row i, row j)` of `x`.
    ///
    /// Only the upper triangle is evaluated and then mirrored: `dot` and
    /// `squared_distance` are bitwise symmetric in their arguments, so every
    /// entry equals the direct `eval` in either argument order.
    pub(crate) fn gram(&self, x: &Matrix) -> Matrix {
        let n = x.rows();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = self.eval(x.row(i), x.row(j));
                k.set(i, j, v);
                k.set(j, i, v);
            }
        }
        k
    }
}

/// Standardizes the columns of `x` with the scalers learned at fit time.
pub(crate) fn scale_matrix(x: &Matrix, means: &[f64], stds: &[f64]) -> Matrix {
    let mut out = x.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        for ((v, &m), &s) in row.iter_mut().zip(means.iter()).zip(stds.iter()) {
            *v = (*v - m) / s;
        }
    }
    out
}

/// Row cap on the SVC working set (larger inputs are subsampled). SMO is
/// O(n²)-ish, so this bounds the worst-case cost inside AutoML loops, and the
/// per-fit Gram matrix takes `cap² × 8` bytes = 2.9 MB.
const SVC_WORKING_SET_CAP: usize = 600;

/// One binary SVM trained on ±1 targets with simplified SMO.
#[derive(Debug, Clone)]
struct BinarySvm {
    /// Signed dual coefficient `α_j · target_j` of every working-set row
    /// (zero off the support set).
    coef: Vec<f64>,
    bias: f64,
    support_idx: Vec<usize>,
}

/// Trains one machine from the working set's Gram matrix, which does not
/// depend on the targets and is shared by the one-vs-rest machines.
fn train_binary(
    gram: &Matrix,
    targets: &[f64], // ±1
    c: f64,
    tol: f64,
    max_passes: usize,
    seed: u64,
) -> BinarySvm {
    let n = targets.len();
    let mut alphas = vec![0.0; n];
    let mut b = 0.0;
    let mut rng = rng_from_seed(seed);

    // Decision value of working-set row i. The operand order — non-zero α
    // only, j ascending, `(α_j · t_j) · K[i][j]` — is pinned bit for bit by
    // the golden digests below.
    let f = |alphas: &[f64], b: f64, i: usize| -> f64 {
        let mut s = b;
        for ((&a, &t), &k) in alphas.iter().zip(targets).zip(gram.row(i)) {
            if a != 0.0 {
                s += a * t * k;
            }
        }
        s
    };

    let mut passes = 0usize;
    let mut iter_guard = 0usize;
    // A single row cannot form an SMO pair: α and the bias stay zero.
    let max_iters = if n < 2 { 0 } else { max_passes * 40 };
    while passes < max_passes && iter_guard < max_iters {
        iter_guard += 1;
        let mut changed = 0usize;
        for i in 0..n {
            let ei = f(&alphas, b, i) - targets[i];
            let ri = ei * targets[i];
            if (ri < -tol && alphas[i] < c) || (ri > tol && alphas[i] > 0.0) {
                // Pick j != i at random.
                let mut j = rng.random_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = f(&alphas, b, j) - targets[j];
                let (ai_old, aj_old) = (alphas[i], alphas[j]);
                let (lo, hi) = if targets[i] != targets[j] {
                    ((aj_old - ai_old).max(0.0), (c + aj_old - ai_old).min(c))
                } else {
                    ((ai_old + aj_old - c).max(0.0), (ai_old + aj_old).min(c))
                };
                if hi - lo < 1e-12 {
                    continue;
                }
                let (kii, kjj, kij) = (gram.get(i, i), gram.get(j, j), gram.get(i, j));
                let eta = 2.0 * kij - kii - kjj;
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - targets[j] * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-7 {
                    continue;
                }
                let ai = ai_old + targets[i] * targets[j] * (aj_old - aj);
                alphas[i] = ai;
                alphas[j] = aj;
                let b1 = b - ei
                    - targets[i] * (ai - ai_old) * kii
                    - targets[j] * (aj - aj_old) * kij;
                let b2 = b - ej
                    - targets[i] * (ai - ai_old) * kij
                    - targets[j] * (aj - aj_old) * kjj;
                b = if ai > 0.0 && ai < c {
                    b1
                } else if aj > 0.0 && aj < c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                changed += 1;
            }
        }
        if changed == 0 {
            passes += 1;
        } else {
            passes = 0;
        }
    }

    let support_idx: Vec<usize> = alphas
        .iter()
        .enumerate()
        .filter(|(_, &a)| a > 1e-9)
        .map(|(i, _)| i)
        .collect();
    BinarySvm {
        coef: alphas.iter().zip(targets).map(|(a, t)| a * t).collect(),
        bias: b,
        support_idx,
    }
}

/// Kernel SVM classifier (one-vs-rest for more than two classes).
#[derive(Debug, Clone)]
pub struct SvmClassifier {
    /// Soft-margin penalty C.
    pub c: f64,
    /// Kernel function.
    pub kernel: Kernel,
    /// KKT violation tolerance.
    pub tol: f64,
    /// Consecutive clean passes before SMO stops.
    pub max_passes: usize,
    /// RNG seed for the SMO second-index heuristic.
    pub seed: u64,
    machines: Vec<BinarySvm>,
    x_train: Option<Matrix>,
    n_classes: usize,
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl SvmClassifier {
    /// Creates an untrained model.
    pub fn new(c: f64, kernel: Kernel, seed: u64) -> Self {
        SvmClassifier {
            c,
            kernel,
            tol: 1e-3,
            max_passes: 3,
            seed,
            machines: Vec::new(),
            x_train: None,
            n_classes: 0,
            means: Vec::new(),
            stds: Vec::new(),
        }
    }

    /// Total number of support vectors across the one-vs-rest machines.
    pub fn n_support_vectors(&self) -> usize {
        self.machines.iter().map(|m| m.support_idx.len()).sum()
    }

    fn decision(&self, x: &Matrix) -> Result<Matrix> {
        let xt = self.x_train.as_ref().ok_or(ModelError::NotFitted)?;
        if x.cols() != xt.cols() {
            return Err(ModelError::Invalid(format!(
                "predict expects {} features, got {}",
                xt.cols(),
                x.cols()
            )));
        }
        let xs = scale_matrix(x, &self.means, &self.stds);
        // Union of the machines' support vectors: each (support vector, row)
        // kernel value is evaluated once and reused by every machine.
        let mut in_union = vec![false; xt.rows()];
        for machine in &self.machines {
            for &j in &machine.support_idx {
                in_union[j] = true;
            }
        }
        let union: Vec<usize> = (0..xt.rows()).filter(|&j| in_union[j]).collect();
        let mut k_row = vec![0.0; xt.rows()];
        let mut out = Matrix::zeros(x.rows(), self.machines.len());
        for i in 0..xs.rows() {
            for &j in &union {
                k_row[j] = self.kernel.eval(xt.row(j), xs.row(i));
            }
            for (c, machine) in self.machines.iter().enumerate() {
                let mut s = machine.bias;
                for &j in &machine.support_idx {
                    s += machine.coef[j] * k_row[j];
                }
                out.set(i, c, s);
            }
        }
        Ok(out)
    }
}

impl Estimator for SvmClassifier {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        check_fit_inputs(x, y)?;
        let k = infer_n_classes(y);
        self.n_classes = k;
        self.means = volcanoml_linalg::stats::column_means(x);
        self.stds = volcanoml_linalg::stats::column_stds(x)
            .into_iter()
            .map(|s| if s < 1e-9 { 1.0 } else { s })
            .collect();
        let xs = scale_matrix(x, &self.means, &self.stds);

        let cap = SVC_WORKING_SET_CAP;
        let (x_work, y_work): (Matrix, Vec<f64>) = if xs.rows() > cap {
            let mut rng = rng_from_seed(self.seed ^ 0x5af3);
            let idx = volcanoml_data::rand_util::sample_without_replacement(&mut rng, xs.rows(), cap);
            (xs.select_rows(&idx), idx.iter().map(|&i| y[i]).collect())
        } else {
            (xs, y.to_vec())
        };

        // Computed once and shared by the k machines; dropped when fit returns.
        let gram = self.kernel.gram(&x_work);
        self.machines = (0..k)
            .map(|c| {
                let targets: Vec<f64> = y_work
                    .iter()
                    .map(|&label| if label as usize == c { 1.0 } else { -1.0 })
                    .collect();
                train_binary(
                    &gram,
                    &targets,
                    self.c,
                    self.tol,
                    self.max_passes,
                    volcanoml_data::rand_util::derive_seed(self.seed, c as u64),
                )
            })
            .collect();
        self.x_train = Some(x_work);
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let dec = self.decision(x)?;
        if self.n_classes == 2 {
            // For binary, machine 1 (class 1 vs rest) suffices and is better
            // calibrated around 0; argmax over two OvR machines is equivalent
            // in the common case but this avoids ties.
            return Ok((0..dec.rows())
                .map(|i| if dec.get(i, 1) > dec.get(i, 0) { 1.0 } else { 0.0 })
                .collect());
        }
        Ok((0..dec.rows())
            .map(|i| volcanoml_linalg::stats::argmax(dec.row(i)).unwrap_or(0) as f64)
            .collect())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Matrix> {
        // Softmax over margins (uncalibrated but monotone).
        let mut dec = self.decision(x)?;
        for i in 0..dec.rows() {
            let row = dec.row_mut(i);
            let max = row.iter().fold(f64::MIN, |m, &v| m.max(v));
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        Ok(dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{easy_binary, easy_multiclass, fnv1a_bits, nonlinear_binary, split};
    use volcanoml_data::metrics::accuracy;
    use volcanoml_data::synthetic::{make_blobs, make_circles};

    #[test]
    fn kernel_evaluations() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert_eq!(Kernel::Linear.eval(&a, &b), 0.0);
        let rbf = Kernel::Rbf { gamma: 0.5 };
        assert!((rbf.eval(&a, &a) - 1.0).abs() < 1e-12);
        assert!((rbf.eval(&a, &b) - (-1.0f64).exp()).abs() < 1e-12);
        let poly = Kernel::Poly { gamma: 1.0, coef0: 1.0, degree: 2 };
        assert_eq!(poly.eval(&a, &b), 1.0);
    }

    #[test]
    fn linear_svm_separates_easy_binary() {
        let d = easy_binary();
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut m = SvmClassifier::new(1.0, Kernel::Linear, 0);
        m.fit(&xt, &yt).unwrap();
        let acc = accuracy(&yv, &m.predict(&xv).unwrap());
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn rbf_svm_solves_circles() {
        let d = make_circles(240, 0.05, 0.5, 1);
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut m = SvmClassifier::new(5.0, Kernel::Rbf { gamma: 1.0 }, 0);
        m.fit(&xt, &yt).unwrap();
        let acc = accuracy(&yv, &m.predict(&xv).unwrap());
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn rbf_svm_solves_moons() {
        let d = nonlinear_binary();
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut m = SvmClassifier::new(5.0, Kernel::Rbf { gamma: 2.0 }, 0);
        m.fit(&xt, &yt).unwrap();
        let acc = accuracy(&yv, &m.predict(&xv).unwrap());
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn multiclass_ovr() {
        let d = easy_multiclass();
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut m = SvmClassifier::new(1.0, Kernel::Rbf { gamma: 0.5 }, 0);
        m.fit(&xt, &yt).unwrap();
        let acc = accuracy(&yv, &m.predict(&xv).unwrap());
        assert!(acc > 0.9, "accuracy {acc}");
    }

    /// Digest of everything a fit produces: per-machine `α_j · target_j` and
    /// bias, then the decision margins and predicted labels on `xv`.
    fn fit_digest(mut m: SvmClassifier, xt: &Matrix, yt: &[f64], xv: &Matrix) -> u64 {
        m.fit(xt, yt).unwrap();
        let dec = m.decision(xv).unwrap();
        let preds = m.predict(xv).unwrap();
        fnv1a_bits(
            m.machines
                .iter()
                .flat_map(|b| b.coef.iter().copied().chain([b.bias]))
                .chain(dec.data().iter().copied())
                .chain(preds),
        )
    }

    // Golden digests recorded on the direct-evaluation SMO (the commit before
    // the shared Gram matrix): the Gram path must reproduce every bit.
    #[test]
    fn golden_binary_rbf_circles() {
        let d = make_circles(240, 0.05, 0.5, 1);
        let ((xt, yt), (xv, _)) = split(&d);
        let m = SvmClassifier::new(5.0, Kernel::Rbf { gamma: 1.0 }, 0);
        assert_eq!(fit_digest(m, &xt, &yt, &xv), 0x456aa7dce272a22d_u64);
    }

    #[test]
    fn golden_multiclass_rbf() {
        let d = easy_multiclass();
        let ((xt, yt), (xv, _)) = split(&d);
        let m = SvmClassifier::new(1.0, Kernel::Rbf { gamma: 0.5 }, 0);
        assert_eq!(fit_digest(m, &xt, &yt, &xv), 0x964955c7d71dd3a2_u64);
    }

    #[test]
    fn golden_poly() {
        let d = easy_binary();
        let ((xt, yt), (xv, _)) = split(&d);
        let kernel = Kernel::Poly {
            gamma: 0.5,
            coef0: 1.0,
            degree: 3,
        };
        let m = SvmClassifier::new(1.0, kernel, 3);
        assert_eq!(fit_digest(m, &xt, &yt, &xv), 0x1b83f1ed78af8619_u64);
    }

    #[test]
    fn golden_linear() {
        let d = easy_binary();
        let ((xt, yt), (xv, _)) = split(&d);
        let m = SvmClassifier::new(1.0, Kernel::Linear, 0);
        assert_eq!(fit_digest(m, &xt, &yt, &xv), 0x9270068e55f54fc3_u64);
    }

    #[test]
    fn golden_subsampled_multiclass() {
        // 900 rows > SVC_WORKING_SET_CAP: exercises the subsample path.
        let d = make_blobs(900, 3, 8, 2.5, 5);
        let m = SvmClassifier::new(2.0, Kernel::Rbf { gamma: 0.1 }, 4);
        assert_eq!(fit_digest(m, &d.x, &d.y, &d.x), 0x3ea67f8940650a49_u64);
    }

    #[test]
    fn gram_is_symmetric_and_matches_eval() {
        let d = easy_multiclass();
        let x = d.x.select_rows(&(0..40).collect::<Vec<_>>());
        for kernel in [
            Kernel::Linear,
            Kernel::Rbf { gamma: 0.3 },
            Kernel::Poly {
                gamma: 0.5,
                coef0: 1.0,
                degree: 3,
            },
        ] {
            let k = kernel.gram(&x);
            assert_eq!(k.shape(), (40, 40));
            for i in 0..40 {
                for j in 0..40 {
                    let at = format!("{kernel:?} ({i},{j})");
                    let direct = kernel.eval(x.row(i), x.row(j));
                    assert_eq!(k.get(i, j).to_bits(), direct.to_bits(), "{at}");
                    assert_eq!(k.get(i, j).to_bits(), k.get(j, i).to_bits(), "{at}");
                }
            }
        }
    }

    #[test]
    fn single_row_fit_skips_smo_instead_of_panicking() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let mut m = SvmClassifier::new(1.0, Kernel::Rbf { gamma: 0.5 }, 0);
        m.fit(&x, &[0.0]).unwrap();
        assert_eq!(m.n_support_vectors(), 0);
        assert!(m.machines.iter().all(|b| b.bias == 0.0 && b.coef == [0.0]));
        assert_eq!(m.predict(&x).unwrap().len(), 1);
    }

    #[test]
    fn has_support_vectors_after_fit() {
        let d = easy_binary();
        let mut m = SvmClassifier::new(1.0, Kernel::Linear, 0);
        m.fit(&d.x, &d.y).unwrap();
        assert!(m.n_support_vectors() > 0);
    }

    #[test]
    fn unfitted_errors() {
        let m = SvmClassifier::new(1.0, Kernel::Linear, 0);
        assert!(m.predict(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn proba_normalized() {
        let d = easy_binary();
        let mut m = SvmClassifier::new(1.0, Kernel::Linear, 0);
        m.fit(&d.x, &d.y).unwrap();
        let p = m.predict_proba(&d.x).unwrap();
        for i in 0..p.rows() {
            let s: f64 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }
}
