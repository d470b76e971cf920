//! Minimal dense linear-algebra substrate for VolcanoML.
//!
//! The AutoML stack above this crate needs a small, predictable set of
//! numerical primitives: a row-major dense [`Matrix`], linear solvers
//! (Cholesky for SPD systems such as ridge regression normal equations, LU
//! with partial pivoting for general square systems), a symmetric
//! eigendecomposition (cyclic Jacobi, used by PCA and discriminant analysis),
//! and descriptive statistics. Everything is implemented from scratch so the
//! reproduction controls every substrate end to end.
//!
//! Design notes (following the Rust performance-book idioms):
//! - storage is a single `Vec<f64>` per matrix, row-major, so row slices are
//!   contiguous and iteration is cache-friendly;
//! - hot loops avoid bounds checks by slicing rows once;
//! - all fallible operations return [`LinalgError`] rather than panicking.

pub mod eigen;
pub mod matrix;
pub mod solve;
pub mod stats;

pub use eigen::{symmetric_eigen, EigenDecomposition};
pub use matrix::Matrix;
pub use solve::{cholesky_decompose, cholesky_solve, lu_solve, solve_spd};

/// Errors produced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible with the requested operation.
    ShapeMismatch {
        /// Human-readable description of the expected/actual shapes.
        context: String,
    },
    /// A matrix required to be square was not.
    NotSquare {
        /// Observed number of rows.
        rows: usize,
        /// Observed number of columns.
        cols: usize,
    },
    /// Decomposition failed because the matrix is singular (or not positive
    /// definite for Cholesky) within numerical tolerance.
    Singular,
    /// An iterative routine failed to converge within its iteration cap.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { context } => {
                write!(f, "shape mismatch: {context}")
            }
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            LinalgError::Singular => write!(f, "matrix is singular or not positive definite"),
            LinalgError::NoConvergence { iterations } => {
                write!(f, "iteration did not converge after {iterations} steps")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias for linalg results.
pub type Result<T> = std::result::Result<T, LinalgError>;
