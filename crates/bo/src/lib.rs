//! Black-box optimization substrate for VolcanoML: conditional configuration
//! spaces, a probabilistic random-forest surrogate, expected improvement,
//! and the three engines behind the [`Suggest`] ask/tell interface (§3.3.1
//! of the paper): random search, a SMAC-style Bayesian-optimization loop,
//! and one bracket engine whose constructors give Successive Halving,
//! Hyperband and MFES-HB.
//!
//! This crate is deliberately self-contained (only `rand`): the surrogate
//! forest is a compact re-implementation specialized for the unit-cube
//! encoding with a `-1` sentinel for inactive conditional parameters —
//! standard SMAC practice — rather than a reuse of the model zoo's forest.

pub mod acquisition;
pub mod cost;
pub mod history;
pub mod multifidelity;
pub mod optimizer;
pub mod space;
pub mod surrogate;

pub use cost::CostModel;
pub use history::{Observation, RunHistory};
pub use multifidelity::BracketEngine;
pub use optimizer::{RandomSearch, Smac, Suggest, Suggestion, TrialTag};
pub use space::{Condition, ConfigSpace, Configuration, Domain, Hyperparameter};

/// Errors produced by the optimization substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum BoError {
    /// Malformed space definition (duplicate names, child before parent, …).
    InvalidSpace(String),
    /// A configuration does not match its space.
    InvalidConfiguration(String),
}

impl std::fmt::Display for BoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoError::InvalidSpace(s) => write!(f, "invalid space: {s}"),
            BoError::InvalidConfiguration(s) => write!(f, "invalid configuration: {s}"),
        }
    }
}

impl std::error::Error for BoError {}

/// Convenience alias for BO results.
pub type Result<T> = std::result::Result<T, BoError>;

/// Seeded RNG helpers (duplicated from the data crate to keep this crate
/// dependency-free).
pub(crate) mod rng {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub fn from_seed(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }
}
