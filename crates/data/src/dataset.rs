//! Core dataset types.

use crate::{DataError, Result};
use volcanoml_linalg::Matrix;

/// The learning task a dataset defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Multi-class classification; targets are class indices `0..n_classes`.
    Classification,
    /// Scalar regression.
    Regression,
}

/// Per-column feature kind, used by encoders and generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureType {
    /// Real-valued feature.
    Numerical,
    /// Integer-coded categorical feature with the given cardinality.
    Categorical(usize),
}

/// An in-memory supervised dataset.
///
/// Targets are `f64` in both tasks; for classification they hold class
/// indices (`0.0`, `1.0`, ...). Missing feature values are encoded as `NaN`
/// and handled by the imputation stage of the FE pipeline.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable dataset name (used in experiment reports).
    pub name: String,
    /// Feature matrix, one row per sample.
    pub x: Matrix,
    /// Target vector, aligned with the rows of `x`.
    pub y: Vec<f64>,
    /// Per-column feature kinds.
    pub feature_types: Vec<FeatureType>,
    /// Task type.
    pub task: Task,
    /// Number of classes (classification) — 0 for regression.
    pub n_classes: usize,
}

impl Dataset {
    /// Builds a classification dataset, inferring `n_classes` from the
    /// maximum label. Labels must be non-negative integers stored as `f64`.
    pub fn classification(
        name: impl Into<String>,
        x: Matrix,
        y: Vec<f64>,
        feature_types: Vec<FeatureType>,
    ) -> Result<Self> {
        Self::validate(&x, &y, &feature_types)?;
        let mut n_classes = 0usize;
        for &label in &y {
            if label < 0.0 || label.fract() != 0.0 || !label.is_finite() {
                return Err(DataError::Inconsistent(format!(
                    "classification label {label} is not a non-negative integer"
                )));
            }
            n_classes = n_classes.max(label as usize + 1);
        }
        Ok(Dataset {
            name: name.into(),
            x,
            y,
            feature_types,
            task: Task::Classification,
            n_classes,
        })
    }

    /// Builds a regression dataset. Targets must be finite: a `NaN` target
    /// makes every regressor predict `NaN` for every row.
    pub fn regression(
        name: impl Into<String>,
        x: Matrix,
        y: Vec<f64>,
        feature_types: Vec<FeatureType>,
    ) -> Result<Self> {
        Self::validate(&x, &y, &feature_types)?;
        if let Some(row) = y.iter().position(|t| !t.is_finite()) {
            return Err(DataError::Inconsistent(format!(
                "regression target {} at row {row} is not finite",
                y[row]
            )));
        }
        Ok(Dataset {
            name: name.into(),
            x,
            y,
            feature_types,
            task: Task::Regression,
            n_classes: 0,
        })
    }

    fn validate(x: &Matrix, y: &[f64], feature_types: &[FeatureType]) -> Result<()> {
        if x.rows() != y.len() {
            return Err(DataError::Inconsistent(format!(
                "{} rows but {} targets",
                x.rows(),
                y.len()
            )));
        }
        if x.cols() != feature_types.len() {
            return Err(DataError::Inconsistent(format!(
                "{} columns but {} feature types",
                x.cols(),
                feature_types.len()
            )));
        }
        Ok(())
    }

    /// Number of samples.
    #[inline]
    pub fn n_samples(&self) -> usize {
        self.x.rows()
    }

    /// Number of features.
    #[inline]
    pub fn n_features(&self) -> usize {
        self.x.cols()
    }

    /// Returns the subset of samples at `indices` as a new dataset.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            name: self.name.clone(),
            x: self.x.select_rows(indices),
            y: indices.iter().map(|&i| self.y[i]).collect(),
            feature_types: self.feature_types.clone(),
            task: self.task,
            n_classes: self.n_classes,
        }
    }

    /// Per-class sample counts. Empty for regression.
    pub fn class_counts(&self) -> Vec<usize> {
        if self.task != Task::Classification {
            return Vec::new();
        }
        let mut counts = vec![0usize; self.n_classes];
        for &label in &self.y {
            counts[label as usize] += 1;
        }
        counts
    }

    /// Ratio of the largest to the smallest class count (∞-free: returns
    /// `f64::INFINITY` only if a class is empty). 1.0 means balanced.
    pub fn imbalance_ratio(&self) -> f64 {
        let counts = self.class_counts();
        if counts.is_empty() {
            return 1.0;
        }
        let max = *counts.iter().max().unwrap_or(&0) as f64;
        let min = *counts.iter().min().unwrap_or(&0) as f64;
        if min == 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }

    /// True if any feature value is `NaN` (missing).
    pub fn has_missing(&self) -> bool {
        self.x.data().iter().any(|v| v.is_nan())
    }

    /// Indices of categorical columns.
    pub fn categorical_columns(&self) -> Vec<usize> {
        self.feature_types
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t {
                FeatureType::Categorical(_) => Some(i),
                FeatureType::Numerical => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_x() -> Matrix {
        Matrix::from_vec(4, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]).unwrap()
    }

    #[test]
    fn classification_infers_classes() {
        let d = Dataset::classification(
            "t",
            small_x(),
            vec![0.0, 1.0, 2.0, 1.0],
            vec![FeatureType::Numerical; 2],
        )
        .unwrap();
        assert_eq!(d.n_classes, 3);
        assert_eq!(d.class_counts(), vec![1, 2, 1]);
    }

    #[test]
    fn regression_rejects_non_finite_targets() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = Dataset::regression(
                "t",
                small_x(),
                vec![0.5, 1.5, bad, 2.5],
                vec![FeatureType::Numerical; 2],
            )
            .unwrap_err();
            assert!(matches!(err, DataError::Inconsistent(_)), "{err:?}");
            assert!(err.to_string().contains("row 2"), "{err}");
        }
    }

    #[test]
    fn rejects_mismatched_targets() {
        let r = Dataset::classification(
            "t",
            small_x(),
            vec![0.0, 1.0],
            vec![FeatureType::Numerical; 2],
        );
        assert!(r.is_err());
    }

    #[test]
    fn rejects_fractional_labels() {
        let r = Dataset::classification(
            "t",
            small_x(),
            vec![0.0, 1.5, 0.0, 1.0],
            vec![FeatureType::Numerical; 2],
        );
        assert!(r.is_err());
    }

    #[test]
    fn rejects_wrong_feature_type_count() {
        let r = Dataset::regression("t", small_x(), vec![0.0; 4], vec![FeatureType::Numerical]);
        assert!(r.is_err());
    }

    #[test]
    fn subset_selects_rows() {
        let d = Dataset::classification(
            "t",
            small_x(),
            vec![0.0, 1.0, 0.0, 1.0],
            vec![FeatureType::Numerical; 2],
        )
        .unwrap();
        let s = d.subset(&[3, 0]);
        assert_eq!(s.n_samples(), 2);
        assert_eq!(s.y, vec![1.0, 0.0]);
        assert_eq!(s.x.row(0), &[7.0, 8.0]);
        assert_eq!(s.n_classes, 2);
    }

    #[test]
    fn imbalance_ratio_reports_skew() {
        let d = Dataset::classification(
            "t",
            small_x(),
            vec![0.0, 0.0, 0.0, 1.0],
            vec![FeatureType::Numerical; 2],
        )
        .unwrap();
        assert_eq!(d.imbalance_ratio(), 3.0);
    }

    #[test]
    fn missing_detection() {
        let mut x = small_x();
        x.set(1, 1, f64::NAN);
        let d = Dataset::regression("t", x, vec![0.0; 4], vec![FeatureType::Numerical; 2])
            .unwrap();
        assert!(d.has_missing());
    }

    #[test]
    fn categorical_columns_listed() {
        let d = Dataset::regression(
            "t",
            small_x(),
            vec![0.0; 4],
            vec![FeatureType::Categorical(3), FeatureType::Numerical],
        )
        .unwrap();
        assert_eq!(d.categorical_columns(), vec![0]);
    }
}
