//! Missing-value imputation (`NaN` cells).

use crate::{FeError, Result, Transformer};
use volcanoml_linalg::Matrix;

/// Imputation strategy per column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImputeStrategy {
    /// Column mean of observed values.
    Mean,
    /// Column median of observed values.
    Median,
    /// Most frequent observed value (mode) — right choice for categoricals.
    MostFrequent,
}

/// Column-wise imputer.
#[derive(Debug, Clone)]
pub struct Imputer {
    /// Strategy applied to every column.
    pub strategy: ImputeStrategy,
    fill: Vec<f64>,
}

impl Imputer {
    /// Creates an unfitted imputer.
    pub fn new(strategy: ImputeStrategy) -> Self {
        Imputer {
            strategy,
            fill: Vec::new(),
        }
    }
}

fn mode(values: &[f64]) -> f64 {
    // Bucket by bit pattern; values come from data columns so exact matches
    // are meaningful (categorical codes, repeated measurements).
    use std::collections::HashMap;
    let mut counts: HashMap<u64, (usize, f64)> = HashMap::new();
    for &v in values {
        let e = counts.entry(v.to_bits()).or_insert((0, v));
        e.0 += 1;
    }
    counts
        .values()
        .max_by(|a, b| a.0.cmp(&b.0).then(b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal)))
        .map(|&(_, v)| v)
        .unwrap_or(0.0)
}

impl Transformer for Imputer {
    fn fit(&mut self, x: &Matrix, _y: &[f64]) -> Result<()> {
        let cols = x.cols();
        self.fill = Vec::with_capacity(cols);
        for c in 0..cols {
            let observed: Vec<f64> = x.col(c).into_iter().filter(|v| !v.is_nan()).collect();
            if observed.is_empty() {
                return Err(FeError::Invalid(format!("column {c} has no observed values")));
            }
            let fill = match self.strategy {
                ImputeStrategy::Mean => volcanoml_linalg::stats::mean(&observed),
                ImputeStrategy::Median => volcanoml_linalg::stats::median(&observed),
                ImputeStrategy::MostFrequent => mode(&observed),
            };
            self.fill.push(fill);
        }
        Ok(())
    }

    fn transform(&self, x: &Matrix) -> Result<Matrix> {
        if self.fill.is_empty() {
            return Err(FeError::NotFitted);
        }
        if x.cols() != self.fill.len() {
            return Err(FeError::Invalid(format!(
                "imputer fitted on {} columns, got {}",
                self.fill.len(),
                x.cols()
            )));
        }
        let mut out = x.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (v, &f) in row.iter_mut().zip(self.fill.iter()) {
                if v.is_nan() {
                    *v = f;
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_missing() -> Matrix {
        Matrix::from_vec(
            4,
            2,
            vec![1.0, 10.0, f64::NAN, 20.0, 3.0, f64::NAN, 5.0, 20.0],
        )
        .unwrap()
    }

    #[test]
    fn mean_imputation() {
        let x = with_missing();
        let mut imp = Imputer::new(ImputeStrategy::Mean);
        let out = imp.fit_transform(&x, &[]).unwrap();
        assert!((out.get(1, 0) - 3.0).abs() < 1e-12); // mean of 1,3,5
        assert!((out.get(2, 1) - 50.0 / 3.0).abs() < 1e-12);
        assert!(!out.data().iter().any(|v| v.is_nan()));
    }

    #[test]
    fn median_imputation() {
        let x = with_missing();
        let mut imp = Imputer::new(ImputeStrategy::Median);
        let out = imp.fit_transform(&x, &[]).unwrap();
        assert!((out.get(1, 0) - 3.0).abs() < 1e-12);
        assert!((out.get(2, 1) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn mode_imputation() {
        let x = with_missing();
        let mut imp = Imputer::new(ImputeStrategy::MostFrequent);
        let out = imp.fit_transform(&x, &[]).unwrap();
        assert_eq!(out.get(2, 1), 20.0);
    }

    #[test]
    fn transform_applies_to_new_data() {
        let x = with_missing();
        let mut imp = Imputer::new(ImputeStrategy::Mean);
        imp.fit(&x, &[]).unwrap();
        let fresh = Matrix::from_vec(1, 2, vec![f64::NAN, f64::NAN]).unwrap();
        let out = imp.transform(&fresh).unwrap();
        assert!((out.get(0, 0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_missing_column_errors() {
        let x = Matrix::from_vec(2, 1, vec![f64::NAN, f64::NAN]).unwrap();
        let mut imp = Imputer::new(ImputeStrategy::Mean);
        assert!(imp.fit(&x, &[]).is_err());
    }

    #[test]
    fn unfitted_errors() {
        let imp = Imputer::new(ImputeStrategy::Mean);
        assert!(imp.transform(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn width_mismatch_errors() {
        let x = with_missing();
        let mut imp = Imputer::new(ImputeStrategy::Mean);
        imp.fit(&x, &[]).unwrap();
        assert!(imp.transform(&Matrix::zeros(1, 5)).is_err());
    }
}
