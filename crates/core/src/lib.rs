//! VolcanoML core: building blocks, execution plans, and the end-to-end
//! AutoML engine.
//!
//! This crate implements the paper's contribution (§3–§4):
//!
//! - [`spaces`] assembles the joint AutoML search space (algorithm selection
//!   × per-algorithm hyper-parameters × feature engineering) in three tiers
//!   matching the paper's small/medium/large scalability study;
//! - [`block`] defines the `BuildingBlock` interface (`do_next!` as `pull`,
//!   `get_current_best`, `get_eu`, `get_eui`, `set_var`);
//! - [`joint`], [`conditioning`], and [`alternating`] implement the three
//!   block types (§3.3), with rising-bandit EU intervals and rotting-bandit
//!   EUI estimates in [`eu`];
//! - [`plan`] compiles a declarative [`plan::PlanSpec`] tree into a block
//!   tree and [`plans`] enumerates the coarse-grained plan alternatives the
//!   paper studies (Fig. 1, Fig. 2, Fig. 3; the appendix plan search over
//!   them is the `plans_ablation` bench);
//! - [`evaluator`] turns variable assignments into trained ML pipelines and
//!   losses, with caching, cost accounting, and a subsampling fidelity axis;
//! - [`metalearn`] provides dataset meta-features and k-NN warm starts;
//! - [`ensemble`] implements greedy ensemble selection over evaluated
//!   pipelines (the auto-sklearn post-pass);
//! - [`spec`] reads a [`StudySpec`], the flat fields that declare one
//!   study (data, tier, plan, engine, budget), for the CLI and the server;
//! - [`automl`] exposes the user-facing [`automl::VolcanoML`] engine, whose
//!   `fit` is [`VolcanoML::open`], a [`Study::step`] loop and [`Study::finish`].

pub mod alternating;
pub mod automl;
pub mod block;
pub mod conditioning;
pub mod ensemble;
pub mod eu;
pub mod evaluator;
pub mod growth;
pub mod joint;
pub mod metalearn;
pub mod objective;
pub mod plan;
pub mod plans;
pub mod spaces;
pub mod spec;
pub mod study;

pub use automl::{AutoMlReport, FittedVolcanoML, Study, VolcanoML, VolcanoMlOptions};
pub use study::StudyState;
pub use block::{Assignment, BlockOptions, BuildingBlock, LossInterval};
pub use evaluator::{assignment_digest, EvalOutcome, Evaluator, TrialTag, ValidationStrategy};
pub use growth::{ExpansionEvent, GrowthController, SpaceGrowth};
pub use objective::{pareto_front, Objective};
pub use plan::{EngineKind, PlanSpec, VarFilter};
pub use spaces::{SpaceDef, SpaceTier, VarDef, VarGroup};
pub use spec::{DatasetSpec, StudySpec};

/// Errors produced by the AutoML engine.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Inconsistent space/plan/dataset combination.
    Invalid(String),
    /// Propagated substrate errors.
    Substrate(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Invalid(s) => write!(f, "invalid: {s}"),
            CoreError::Substrate(s) => write!(f, "substrate failure: {s}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<volcanoml_bo::BoError> for CoreError {
    fn from(e: volcanoml_bo::BoError) -> Self {
        CoreError::Substrate(e.to_string())
    }
}

impl From<volcanoml_data::DataError> for CoreError {
    fn from(e: volcanoml_data::DataError) -> Self {
        CoreError::Substrate(e.to_string())
    }
}

/// Convenience alias for core results.
pub type Result<T> = std::result::Result<T, CoreError>;
