//! Minimal CSV (de)serialization for datasets.
//!
//! A deliberately small dialect: comma-separated, first row is a header, the
//! target column is named `target`, missing values are empty cells or `NA`,
//! and categorical columns are declared by a `#types:` comment line. This is
//! enough to round-trip the synthetic corpus and to let users feed their own
//! tables into the examples.

use crate::dataset::{Dataset, FeatureType, Task};
use crate::{DataError, Result};
use volcanoml_linalg::Matrix;

/// Serializes a dataset to the CSV dialect described in the module docs.
pub fn to_csv(d: &Dataset) -> String {
    let mut out = String::new();
    // Type declaration line.
    out.push_str("#types:");
    for (i, t) in d.feature_types.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match t {
            FeatureType::Numerical => out.push('n'),
            FeatureType::Categorical(card) => out.push_str(&format!("c{card}")),
        }
    }
    out.push_str(&format!(
        ",{}\n",
        match d.task {
            Task::Classification => "label",
            Task::Regression => "real",
        }
    ));
    // Header.
    for i in 0..d.n_features() {
        out.push_str(&format!("f{i},"));
    }
    out.push_str("target\n");
    // Rows.
    for (row, &target) in d.x.iter_rows().zip(d.y.iter()) {
        for v in row {
            if v.is_nan() {
                out.push_str("NA,");
            } else {
                out.push_str(&format!("{v},"));
            }
        }
        out.push_str(&format!("{target}\n"));
    }
    out
}

/// Parses the CSV dialect produced by [`to_csv`].
pub fn from_csv(name: &str, text: &str) -> Result<Dataset> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let type_line = lines
        .next()
        .ok_or_else(|| DataError::Parse("empty input".into()))?;
    let decl = type_line
        .strip_prefix("#types:")
        .ok_or_else(|| DataError::Parse("missing #types: line".into()))?;
    let mut fields: Vec<&str> = decl.split(',').collect();
    let target_kind = fields
        .pop()
        .ok_or_else(|| DataError::Parse("missing target kind".into()))?;
    let task = match target_kind.trim() {
        "label" => Task::Classification,
        "real" => Task::Regression,
        other => return Err(DataError::Parse(format!("unknown target kind {other}"))),
    };
    let mut feature_types = Vec::with_capacity(fields.len());
    for f in &fields {
        let f = f.trim();
        if f == "n" {
            feature_types.push(FeatureType::Numerical);
        } else if let Some(card) = f.strip_prefix('c') {
            let card: usize = card
                .parse()
                .map_err(|_| DataError::Parse(format!("bad categorical cardinality {f}")))?;
            feature_types.push(FeatureType::Categorical(card));
        } else {
            return Err(DataError::Parse(format!("unknown feature type {f}")));
        }
    }

    let header = lines
        .next()
        .ok_or_else(|| DataError::Parse("missing header".into()))?;
    let n_cols = header.split(',').count();
    if n_cols != feature_types.len() + 1 {
        return Err(DataError::Parse(format!(
            "header has {n_cols} columns, types declare {}",
            feature_types.len() + 1
        )));
    }

    let mut data = Vec::new();
    let mut y = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != n_cols {
            return Err(DataError::Parse(format!(
                "row {} has {} cells, expected {n_cols}",
                lineno + 3,
                cells.len()
            )));
        }
        for cell in &cells[..cells.len() - 1] {
            let cell = cell.trim();
            if cell.is_empty() || cell == "NA" {
                data.push(f64::NAN);
            } else {
                data.push(cell.parse::<f64>().map_err(|_| {
                    DataError::Parse(format!("bad numeric cell '{cell}' at row {}", lineno + 3))
                })?);
            }
        }
        let target_cell = cells[cells.len() - 1].trim();
        y.push(target_cell.parse::<f64>().map_err(|_| {
            DataError::Parse(format!("bad target '{target_cell}' at row {}", lineno + 3))
        })?);
    }
    let rows = y.len();
    let x = Matrix::from_vec(rows, feature_types.len(), data)
        .map_err(|e| DataError::Parse(e.to_string()))?;
    match task {
        Task::Classification => Dataset::classification(name, x, y, feature_types),
        Task::Regression => Dataset::regression(name, x, y, feature_types),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{inject_missing, make_categorical, make_regression, RegressionSpec};

    #[test]
    fn roundtrip_regression() {
        let d = make_regression(&RegressionSpec::default(), 1);
        let text = to_csv(&d);
        let back = from_csv(&d.name, &text).unwrap();
        assert_eq!(back.task, Task::Regression);
        assert_eq!(back.n_samples(), d.n_samples());
        for (a, b) in back.y.iter().zip(d.y.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn roundtrip_preserves_categorical_types_and_missing() {
        let d = inject_missing(&make_categorical(40, 2, 3, 2, 0.0, 0), 0.1, 1);
        let text = to_csv(&d);
        let back = from_csv("t", &text).unwrap();
        assert_eq!(back.feature_types, d.feature_types);
        assert_eq!(
            back.x.data().iter().filter(|v| v.is_nan()).count(),
            d.x.data().iter().filter(|v| v.is_nan()).count()
        );
        assert_eq!(back.n_classes, d.n_classes);
    }

    #[test]
    fn rejects_missing_type_line() {
        assert!(from_csv("t", "f0,target\n1,2\n").is_err());
    }

    #[test]
    fn rejects_non_finite_regression_targets() {
        for cell in ["nan", "NaN", "inf", "-inf"] {
            let text = format!("#types:n,real\nf0,target\n1.0,0.5\n2.0,{cell}\n");
            let err = from_csv("t", &text).unwrap_err();
            assert!(err.to_string().contains("row 1"), "{cell}: {err}");
        }
    }

    #[test]
    fn rejects_ragged_rows() {
        let text = "#types:n,label\nf0,target\n1.0,0\n2.0\n";
        assert!(from_csv("t", text).is_err());
    }

    #[test]
    fn rejects_bad_cells() {
        let text = "#types:n,label\nf0,target\nabc,0\n";
        assert!(from_csv("t", text).is_err());
    }

    #[test]
    fn empty_cell_is_missing() {
        let text = "#types:n,n,real\nf0,f1,target\n1.0,,2.5\n";
        let d = from_csv("t", text).unwrap();
        assert!(d.x.get(0, 1).is_nan());
        assert_eq!(d.y, vec![2.5]);
    }
}
