//! From-scratch ML model zoo — the scikit-learn substitute for the VolcanoML
//! reproduction.
//!
//! The paper's search space chooses among ~a dozen algorithm families per
//! task (§3.1). This crate implements each family with the hyper-parameters
//! that matter for AutoML search, exposes a uniform [`Estimator`] interface,
//! and publishes per-algorithm hyper-parameter descriptors
//! ([`zoo::AlgorithmKind::param_defs`]) that the AutoML layer compiles into
//! its search space.
//!
//! Classification algorithms: logistic regression (softmax), linear SVM,
//! kernel SVM (SMO), decision tree, random forest, extra-trees, gradient
//! boosting, AdaBoost (SAMME), k-NN, Gaussian naive Bayes, LDA, QDA, MLP.
//! Regression algorithms: ridge, lasso, elastic-net, SGD, decision tree,
//! random forest, extra-trees, gradient boosting, k-NN, MLP.

pub mod binned;
pub mod boosting;
pub mod discriminant;
pub mod forest;
#[cfg(test)]
mod hist_goldens;
pub mod linear;
pub mod mlp;
pub mod naive_bayes;
pub mod neighbors;
pub mod parallel;
pub mod svm;
pub mod svr;
pub mod tree;
pub mod zoo;

pub use zoo::{AlgorithmKind, Model, ParamDef, ParamKind};

use volcanoml_linalg::Matrix;

/// Errors produced by model fitting and prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// `predict` was called before `fit`.
    NotFitted,
    /// Invalid hyper-parameter or input shape.
    Invalid(String),
    /// A numeric routine failed (singular system, divergence).
    Numeric(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::NotFitted => write!(f, "model is not fitted"),
            ModelError::Invalid(s) => write!(f, "invalid input: {s}"),
            ModelError::Numeric(s) => write!(f, "numeric failure: {s}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<volcanoml_linalg::LinalgError> for ModelError {
    fn from(e: volcanoml_linalg::LinalgError) -> Self {
        ModelError::Numeric(e.to_string())
    }
}

/// Convenience alias for model results.
pub type Result<T> = std::result::Result<T, ModelError>;

/// Uniform supervised-model interface.
///
/// Classification targets are class indices stored as `f64`; regression
/// targets are arbitrary reals. `fit` must be callable repeatedly (each call
/// re-trains from scratch).
pub trait Estimator {
    /// Trains on the given features and targets.
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()>;

    /// Predicts targets (class indices for classifiers) for each row of `x`.
    fn predict(&self, x: &Matrix) -> Result<Vec<f64>>;

    /// Class-probability estimates, one row per sample and one column per
    /// class. The default implementation one-hot encodes `predict` output;
    /// models with calibrated scores override it.
    fn predict_proba(&self, x: &Matrix) -> Result<Matrix> {
        let preds = self.predict(x)?;
        let k = preds
            .iter()
            .fold(0usize, |m, &p| m.max(p.max(0.0) as usize + 1))
            .max(2);
        let mut out = Matrix::zeros(preds.len(), k);
        for (i, &p) in preds.iter().enumerate() {
            out.set(i, p.max(0.0) as usize, 1.0);
        }
        Ok(out)
    }
}

/// Validates the `(x, y)` pair shared by every `fit` implementation.
pub(crate) fn check_fit_inputs(x: &Matrix, y: &[f64]) -> Result<()> {
    if x.rows() != y.len() {
        return Err(ModelError::Invalid(format!(
            "{} rows but {} targets",
            x.rows(),
            y.len()
        )));
    }
    if x.rows() == 0 {
        return Err(ModelError::Invalid("empty training set".into()));
    }
    if x.cols() == 0 {
        return Err(ModelError::Invalid("no features".into()));
    }
    if x.data().iter().any(|v| !v.is_finite()) {
        return Err(ModelError::Invalid(
            "non-finite feature values; run imputation first".into(),
        ));
    }
    if let Some(row) = y.iter().position(|t| !t.is_finite()) {
        return Err(ModelError::Invalid(format!(
            "non-finite target {} at row {row}",
            y[row]
        )));
    }
    Ok(())
}

/// Infers class count from integer labels (at least 2).
pub(crate) fn infer_n_classes(y: &[f64]) -> usize {
    y.iter()
        .fold(0usize, |m, &v| m.max(v.max(0.0) as usize + 1))
        .max(2)
}

#[cfg(test)]
pub(crate) mod test_util {
    use volcanoml_data::synthetic::{
        make_blobs, make_classification, make_moons, make_regression, ClassificationSpec,
        RegressionSpec,
    };
    use volcanoml_data::Dataset;

    /// Easy, well-separated binary classification task.
    pub fn easy_binary() -> Dataset {
        make_classification(
            &ClassificationSpec {
                n_samples: 240,
                n_features: 6,
                n_informative: 4,
                n_redundant: 0,
                n_classes: 2,
                class_sep: 2.2,
                flip_y: 0.0,
                weights: Vec::new(),
            },
            7,
        )
    }

    /// Easy 3-class blobs.
    pub fn easy_multiclass() -> Dataset {
        make_blobs(240, 3, 5, 0.6, 11)
    }

    /// Nonlinear binary task (moons).
    pub fn nonlinear_binary() -> Dataset {
        make_moons(300, 0.12, 0, 13)
    }

    /// Clean linear regression task.
    pub fn easy_regression() -> Dataset {
        make_regression(
            &RegressionSpec {
                n_samples: 220,
                n_features: 6,
                n_informative: 4,
                noise: 0.1,
                nonlinear: false,
            },
            17,
        )
    }

    /// 64-bit FNV-1a over the little-endian `to_bits()` of each value — the
    /// digest the golden bitwise tests pin.
    pub fn fnv1a_bits(values: impl IntoIterator<Item = f64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Rounds the first `k` columns onto four levels `{0, 1, 2, 3}`: every
    /// such column has four bins, each shared by many rows, so splits on the
    /// other columns leave rows of both children in one bin.
    pub fn discretize(mut d: Dataset, k: usize) -> Dataset {
        for i in 0..d.x.rows() {
            for j in 0..k.min(d.x.cols()) {
                let v = (d.x.get(i, j).floor() + 2.0).clamp(0.0, 3.0);
                d.x.set(i, j, v);
            }
        }
        d
    }

    /// Train/test split helper.
    pub fn split(
        d: &Dataset,
    ) -> (
        (volcanoml_linalg::Matrix, Vec<f64>),
        (volcanoml_linalg::Matrix, Vec<f64>),
    ) {
        let (train, test) = volcanoml_data::train_test_split(d, 0.25, 3).unwrap();
        (
            (train.x.clone(), train.y.clone()),
            (test.x.clone(), test.y.clone()),
        )
    }
}
