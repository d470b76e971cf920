//! What the cross-trial FE-transform cache holds.
//!
//! The cache (a [`super::cache::BoundedCache`]) is keyed on `(fe
//! sub-assignment hash, training-data key)`. Trials that share an FE
//! configuration (the common case when a block sweeps model
//! hyper-parameters) reuse the transformed matrices via `Arc` instead of
//! re-running imputation/encoding/scaling/balancing per trial. Since the
//! zero-copy view refactor, a hit also skips the view gather entirely: the
//! cached entry carries everything the model fit and scoring need, so an
//! FE-warm trial touches no dataset rows at all.

use volcanoml_linalg::Matrix;

/// One fitted-FE output shared across trials.
pub(super) struct FeTransformed {
    /// Transformed (and possibly resampled) training features.
    pub(super) x_train: Matrix,
    /// Training targets — balancers such as SMOTE resample them, so they
    /// must be cached alongside the features.
    pub(super) y_train: Vec<f64>,
    /// Transformed validation features.
    pub(super) x_valid: Matrix,
    /// Validation targets, cached so scoring on a hit needs no row access.
    pub(super) y_valid: Vec<f64>,
}
