//! The algorithm zoo: a uniform registry of every model family, its
//! hyper-parameter descriptors, and a factory that builds a concrete model
//! from resolved hyper-parameter values.
//!
//! The AutoML layer (crate `volcanoml-core`) compiles [`ParamDef`]s into its
//! conditional search space: each algorithm's parameters are only active when
//! the algorithm-selection variable takes that algorithm's value — the
//! structure the paper's conditioning block exploits.

use crate::boosting::{AdaBoostClassifier, GradientBoostingClassifier, GradientBoostingRegressor};
use crate::discriminant::{Lda, Qda};
use crate::forest::{ForestClassifier, ForestConfig, ForestRegressor};
use crate::linear::{ElasticNet, LinearSvm, LogisticRegression, RidgeRegression, SgdRegressor};
use crate::mlp::{Activation, MlpClassifier, MlpConfig, MlpRegressor};
use crate::naive_bayes::GaussianNb;
use crate::neighbors::{KnnClassifier, KnnRegressor, KnnWeights};
use crate::svm::{Kernel, SvmClassifier};
use crate::svr::{HuberRegressor, SvmRegressor};
use crate::tree::{
    Criterion, DecisionTreeClassifier, DecisionTreeRegressor, HistKernel, MaxFeatures,
    SplitStrategy, TreeConfig,
};
use crate::{Estimator, Result};
use std::collections::HashMap;
use volcanoml_data::Task;
use volcanoml_linalg::Matrix;

/// Value domain of one hyper-parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamKind {
    /// Continuous value in `[lo, hi]`; `log` requests log-uniform sampling.
    Float {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
        /// Default value.
        default: f64,
        /// Log-scale flag.
        log: bool,
    },
    /// Integer value in `[lo, hi]`.
    Int {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
        /// Default value.
        default: i64,
        /// Log-scale flag.
        log: bool,
    },
    /// Categorical choice among named options; values are choice indices.
    Cat {
        /// Option labels.
        choices: Vec<&'static str>,
        /// Default choice index.
        default: usize,
    },
}

/// A named hyper-parameter descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDef {
    /// Parameter name, unique within its algorithm.
    pub name: &'static str,
    /// Domain.
    pub kind: ParamKind,
}

impl ParamDef {
    fn float(name: &'static str, lo: f64, hi: f64, default: f64, log: bool) -> ParamDef {
        ParamDef {
            name,
            kind: ParamKind::Float { lo, hi, default, log },
        }
    }

    fn int(name: &'static str, lo: i64, hi: i64, default: i64, log: bool) -> ParamDef {
        ParamDef {
            name,
            kind: ParamKind::Int { lo, hi, default, log },
        }
    }

    fn cat(name: &'static str, choices: Vec<&'static str>, default: usize) -> ParamDef {
        ParamDef {
            name,
            kind: ParamKind::Cat { choices, default },
        }
    }

    /// The default value encoded as `f64` (choice index for categoricals).
    pub fn default_value(&self) -> f64 {
        match &self.kind {
            ParamKind::Float { default, .. } => *default,
            ParamKind::Int { default, .. } => *default as f64,
            ParamKind::Cat { default, .. } => *default as f64,
        }
    }
}

/// Accessor over resolved hyper-parameter values with defaults.
pub struct Params<'a> {
    values: &'a HashMap<String, f64>,
    defs: Vec<ParamDef>,
}

impl<'a> Params<'a> {
    /// Wraps a value map together with the algorithm's descriptors (for
    /// defaults).
    pub fn new(values: &'a HashMap<String, f64>, defs: Vec<ParamDef>) -> Self {
        Params { values, defs }
    }

    fn default_of(&self, name: &str) -> f64 {
        self.defs
            .iter()
            .find(|d| d.name == name)
            .map(|d| d.default_value())
            .unwrap_or(0.0)
    }

    /// Float parameter with declared default.
    pub fn f(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or_else(|| self.default_of(name))
    }

    /// Integer parameter (rounded).
    pub fn i(&self, name: &str) -> i64 {
        self.f(name).round() as i64
    }

    /// Non-negative usize parameter.
    pub fn u(&self, name: &str) -> usize {
        self.f(name).round().max(0.0) as usize
    }

    /// Categorical choice index.
    pub fn cat(&self, name: &str) -> usize {
        self.f(name).round().max(0.0) as usize
    }
}

/// Every algorithm family in the zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AlgorithmKind {
    // Classification.
    Logistic,
    LinearSvm,
    KernelSvm,
    DecisionTree,
    RandomForest,
    ExtraTrees,
    GradientBoosting,
    AdaBoost,
    Knn,
    GaussianNb,
    Lda,
    Qda,
    Mlp,
    // Regression.
    Ridge,
    Lasso,
    ElasticNet,
    SgdRegressor,
    DecisionTreeReg,
    RandomForestReg,
    ExtraTreesReg,
    GradientBoostingReg,
    KnnReg,
    MlpReg,
    SvmReg,
    HuberReg,
}

impl AlgorithmKind {
    /// All algorithms applicable to a task, in canonical order.
    pub fn for_task(task: Task) -> Vec<AlgorithmKind> {
        use AlgorithmKind::*;
        match task {
            Task::Classification => vec![
                Logistic,
                LinearSvm,
                KernelSvm,
                DecisionTree,
                RandomForest,
                ExtraTrees,
                GradientBoosting,
                AdaBoost,
                Knn,
                GaussianNb,
                Lda,
                Qda,
                Mlp,
            ],
            Task::Regression => vec![
                Ridge,
                Lasso,
                ElasticNet,
                SgdRegressor,
                DecisionTreeReg,
                RandomForestReg,
                ExtraTreesReg,
                GradientBoostingReg,
                KnnReg,
                MlpReg,
                SvmReg,
                HuberReg,
            ],
        }
    }

    /// Which task the algorithm solves.
    pub fn task(&self) -> Task {
        use AlgorithmKind::*;
        match self {
            Logistic | LinearSvm | KernelSvm | DecisionTree | RandomForest | ExtraTrees
            | GradientBoosting | AdaBoost | Knn | GaussianNb | Lda | Qda | Mlp => {
                Task::Classification
            }
            _ => Task::Regression,
        }
    }

    /// Stable display name (used in search-space variable names and reports).
    pub fn name(&self) -> &'static str {
        use AlgorithmKind::*;
        match self {
            Logistic => "logistic",
            LinearSvm => "linear_svm",
            KernelSvm => "kernel_svm",
            DecisionTree => "decision_tree",
            RandomForest => "random_forest",
            ExtraTrees => "extra_trees",
            GradientBoosting => "gradient_boosting",
            AdaBoost => "adaboost",
            Knn => "knn",
            GaussianNb => "gaussian_nb",
            Lda => "lda",
            Qda => "qda",
            Mlp => "mlp",
            Ridge => "ridge",
            Lasso => "lasso",
            ElasticNet => "elastic_net",
            SgdRegressor => "sgd",
            DecisionTreeReg => "decision_tree",
            RandomForestReg => "random_forest",
            ExtraTreesReg => "extra_trees",
            GradientBoostingReg => "gradient_boosting",
            KnnReg => "knn",
            MlpReg => "mlp",
            SvmReg => "svr",
            HuberReg => "huber",
        }
    }

    /// Looks an algorithm up by name within a task.
    pub fn from_name(task: Task, name: &str) -> Option<AlgorithmKind> {
        AlgorithmKind::for_task(task)
            .into_iter()
            .find(|k| k.name() == name)
    }

    /// Hyper-parameter descriptors for this algorithm.
    pub fn param_defs(&self) -> Vec<ParamDef> {
        use AlgorithmKind::*;
        match self {
            Logistic => vec![
                ParamDef::float("alpha", 1e-6, 1e-1, 1e-4, true),
                ParamDef::float("learning_rate", 1e-3, 0.5, 0.1, true),
                ParamDef::int("max_iter", 10, 60, 30, false),
            ],
            LinearSvm => vec![
                ParamDef::float("alpha", 1e-6, 1e-1, 1e-4, true),
                ParamDef::int("max_iter", 5, 40, 20, false),
            ],
            KernelSvm => vec![
                ParamDef::float("c", 0.03, 100.0, 1.0, true),
                ParamDef::cat("kernel", vec!["rbf", "poly", "linear"], 0),
                ParamDef::float("gamma", 1e-3, 8.0, 0.5, true),
                ParamDef::int("degree", 2, 4, 3, false),
            ],
            DecisionTree | DecisionTreeReg => {
                let mut defs = vec![
                    ParamDef::int("max_depth", 2, 20, 10, false),
                    ParamDef::int("min_samples_leaf", 1, 20, 1, true),
                    ParamDef::int("min_samples_split", 2, 20, 2, true),
                ];
                if *self == DecisionTree {
                    defs.push(ParamDef::cat("criterion", vec!["gini", "entropy"], 0));
                }
                defs
            }
            RandomForest | ExtraTrees | RandomForestReg | ExtraTreesReg => {
                let mut defs = vec![
                    ParamDef::int("n_estimators", 10, 120, 50, true),
                    ParamDef::int("max_depth", 4, 20, 14, false),
                    ParamDef::int("min_samples_leaf", 1, 20, 1, true),
                    ParamDef::cat("max_features", vec!["sqrt", "log2", "half", "all"], 0),
                ];
                if self.task() == Task::Classification {
                    defs.push(ParamDef::cat("criterion", vec!["gini", "entropy"], 0));
                }
                defs
            }
            GradientBoosting | GradientBoostingReg => vec![
                ParamDef::int("n_estimators", 10, 120, 50, true),
                ParamDef::float("learning_rate", 0.01, 0.5, 0.1, true),
                ParamDef::int("max_depth", 1, 6, 3, false),
                ParamDef::float("subsample", 0.5, 1.0, 1.0, false),
                ParamDef::int("min_samples_leaf", 1, 20, 2, true),
            ],
            AdaBoost => vec![
                ParamDef::int("n_estimators", 10, 120, 50, true),
                ParamDef::float("learning_rate", 0.02, 2.0, 0.5, true),
                ParamDef::int("max_depth", 1, 4, 2, false),
            ],
            Knn | KnnReg => vec![
                ParamDef::int("n_neighbors", 1, 40, 5, true),
                ParamDef::cat("weights", vec!["uniform", "distance"], 0),
            ],
            GaussianNb => vec![ParamDef::float("var_smoothing", 1e-12, 1e-6, 1e-9, true)],
            Lda => vec![ParamDef::float("shrinkage", 0.0, 1.0, 0.1, false)],
            Qda => vec![ParamDef::float("reg_param", 0.0, 1.0, 0.1, false)],
            Mlp | MlpReg => vec![
                ParamDef::int("hidden_size", 8, 128, 32, true),
                ParamDef::cat("n_layers", vec!["one", "two"], 0),
                ParamDef::float("learning_rate", 1e-4, 1e-2, 1e-3, true),
                ParamDef::float("alpha", 1e-6, 1e-2, 1e-4, true),
                ParamDef::cat("activation", vec!["relu", "tanh"], 0),
                ParamDef::int("max_iter", 15, 80, 40, true),
            ],
            Ridge => vec![ParamDef::float("alpha", 1e-6, 1e2, 1.0, true)],
            Lasso => vec![
                ParamDef::float("alpha", 1e-5, 1e1, 0.1, true),
                ParamDef::int("max_iter", 50, 400, 150, true),
            ],
            ElasticNet => vec![
                ParamDef::float("alpha", 1e-5, 1e1, 0.1, true),
                ParamDef::float("l1_ratio", 0.0, 1.0, 0.5, false),
                ParamDef::int("max_iter", 50, 400, 150, true),
            ],
            SgdRegressor => vec![
                ParamDef::float("alpha", 1e-6, 1e-1, 1e-4, true),
                ParamDef::float("learning_rate", 1e-3, 0.1, 0.01, true),
                ParamDef::int("max_iter", 10, 80, 40, true),
            ],
            SvmReg => vec![
                ParamDef::float("c", 0.03, 100.0, 1.0, true),
                ParamDef::float("epsilon", 0.01, 1.0, 0.1, true),
                ParamDef::cat("kernel", vec!["rbf", "linear"], 0),
                ParamDef::float("gamma", 1e-3, 8.0, 0.5, true),
            ],
            HuberReg => vec![
                ParamDef::float("delta", 0.1, 3.0, 1.0, true),
                ParamDef::float("alpha", 1e-6, 1e-1, 1e-4, true),
                ParamDef::int("max_iter", 20, 120, 60, true),
            ],
        }
    }

    /// Builds a concrete model from resolved parameter values (missing keys
    /// fall back to declared defaults).
    pub fn build(&self, values: &HashMap<String, f64>, seed: u64) -> Model {
        use AlgorithmKind::*;
        let p = Params::new(values, self.param_defs());
        // "n_jobs" is execution plumbing injected by the evaluator, not a
        // searchable hyper-parameter, so it is read straight off the map.
        let n_jobs = values
            .get("n_jobs")
            .map(|v| (*v as usize).max(1))
            .unwrap_or(1);
        match self {
            Logistic => Model::Logistic(LogisticRegression::new(
                p.f("alpha"),
                p.f("learning_rate"),
                p.u("max_iter"),
                seed,
            )),
            LinearSvm => {
                Model::LinearSvm(crate::linear::LinearSvm::new(p.f("alpha"), p.u("max_iter"), seed))
            }
            KernelSvm => {
                let kernel = match p.cat("kernel") {
                    1 => Kernel::Poly {
                        gamma: p.f("gamma"),
                        coef0: 1.0,
                        degree: p.u("degree") as u32,
                    },
                    2 => Kernel::Linear,
                    _ => Kernel::Rbf { gamma: p.f("gamma") },
                };
                Model::KernelSvm(SvmClassifier::new(p.f("c"), kernel, seed))
            }
            DecisionTree => {
                let cfg = TreeConfig {
                    criterion: if p.cat("criterion") == 1 {
                        Criterion::Entropy
                    } else {
                        Criterion::Gini
                    },
                    max_depth: p.u("max_depth"),
                    min_samples_split: p.u("min_samples_split").max(2),
                    min_samples_leaf: p.u("min_samples_leaf").max(1),
                    max_features: MaxFeatures::All,
                    split_strategy: SplitStrategy::Best,
                    max_bins: crate::binned::DEFAULT_MAX_BINS,
                    hist_n_jobs: n_jobs,
                    hist_kernel: HistKernel::Flat,
                    seed,
                };
                Model::DecisionTree(DecisionTreeClassifier::new(cfg))
            }
            DecisionTreeReg => {
                let cfg = TreeConfig {
                    criterion: Criterion::Mse,
                    max_depth: p.u("max_depth"),
                    min_samples_split: p.u("min_samples_split").max(2),
                    min_samples_leaf: p.u("min_samples_leaf").max(1),
                    max_features: MaxFeatures::All,
                    split_strategy: SplitStrategy::Best,
                    max_bins: crate::binned::DEFAULT_MAX_BINS,
                    hist_n_jobs: n_jobs,
                    hist_kernel: HistKernel::Flat,
                    seed,
                };
                Model::DecisionTreeReg(DecisionTreeRegressor::new(cfg))
            }
            RandomForest | ExtraTrees | RandomForestReg | ExtraTreesReg => {
                let extra = matches!(self, ExtraTrees | ExtraTreesReg);
                let cfg = ForestConfig {
                    n_estimators: p.u("n_estimators").max(1),
                    max_depth: p.u("max_depth"),
                    min_samples_leaf: p.u("min_samples_leaf").max(1),
                    min_samples_split: 2 * p.u("min_samples_leaf").max(1),
                    max_features: match p.cat("max_features") {
                        1 => MaxFeatures::Log2,
                        2 => MaxFeatures::Fraction(0.5),
                        3 => MaxFeatures::All,
                        _ => MaxFeatures::Sqrt,
                    },
                    bootstrap: !extra,
                    // Random forests use the histogram fast path; extra-trees
                    // keep their defining random thresholds.
                    split_strategy: if extra {
                        SplitStrategy::Random
                    } else {
                        SplitStrategy::Histogram
                    },
                    criterion: if self.task() == Task::Regression {
                        Criterion::Mse
                    } else if p.cat("criterion") == 1 {
                        Criterion::Entropy
                    } else {
                        Criterion::Gini
                    },
                    max_bins: crate::binned::DEFAULT_MAX_BINS,
                    n_jobs,
                    seed,
                };
                if self.task() == Task::Classification {
                    Model::Forest(ForestClassifier::new(cfg))
                } else {
                    Model::ForestReg(ForestRegressor::new(cfg))
                }
            }
            GradientBoosting => {
                let mut m = GradientBoostingClassifier::new(
                    p.u("n_estimators").max(1),
                    p.f("learning_rate"),
                    p.u("max_depth").max(1),
                    p.f("subsample"),
                    p.u("min_samples_leaf").max(1),
                    seed,
                );
                m.split_strategy = SplitStrategy::Histogram;
                m.n_jobs = n_jobs;
                Model::Gbdt(m)
            }
            GradientBoostingReg => {
                let mut m = GradientBoostingRegressor::new(
                    p.u("n_estimators").max(1),
                    p.f("learning_rate"),
                    p.u("max_depth").max(1),
                    p.f("subsample"),
                    p.u("min_samples_leaf").max(1),
                    seed,
                );
                m.split_strategy = SplitStrategy::Histogram;
                m.n_jobs = n_jobs;
                Model::GbdtReg(m)
            }
            AdaBoost => {
                let mut m = AdaBoostClassifier::new(
                    p.u("n_estimators").max(1),
                    p.f("learning_rate"),
                    p.u("max_depth").max(1),
                    seed,
                );
                m.split_strategy = SplitStrategy::Histogram;
                m.n_jobs = n_jobs;
                Model::AdaBoost(m)
            }
            Knn => {
                let w = if p.cat("weights") == 1 {
                    KnnWeights::Distance
                } else {
                    KnnWeights::Uniform
                };
                Model::Knn(KnnClassifier::new(p.u("n_neighbors").max(1), w))
            }
            KnnReg => {
                let w = if p.cat("weights") == 1 {
                    KnnWeights::Distance
                } else {
                    KnnWeights::Uniform
                };
                Model::KnnReg(KnnRegressor::new(p.u("n_neighbors").max(1), w))
            }
            GaussianNb => Model::GaussianNb(crate::naive_bayes::GaussianNb::new(p.f("var_smoothing"))),
            Lda => Model::Lda(crate::discriminant::Lda::new(p.f("shrinkage"))),
            Qda => Model::Qda(crate::discriminant::Qda::new(p.f("reg_param"))),
            Mlp | MlpReg => {
                let h = p.u("hidden_size").max(2);
                let hidden = if p.cat("n_layers") == 1 {
                    vec![h, (h / 2).max(2)]
                } else {
                    vec![h]
                };
                let cfg = MlpConfig {
                    hidden,
                    activation: if p.cat("activation") == 1 {
                        Activation::Tanh
                    } else {
                        Activation::Relu
                    },
                    learning_rate: p.f("learning_rate"),
                    alpha: p.f("alpha"),
                    max_iter: p.u("max_iter").max(1),
                    batch_size: 32,
                    seed,
                };
                if *self == Mlp {
                    Model::Mlp(MlpClassifier::new(cfg))
                } else {
                    Model::MlpReg(MlpRegressor::new(cfg))
                }
            }
            Ridge => Model::Ridge(RidgeRegression::new(p.f("alpha"))),
            Lasso => Model::Lasso(crate::linear::ElasticNet::lasso(p.f("alpha"), p.u("max_iter").max(1))),
            ElasticNet => Model::ElasticNet(crate::linear::ElasticNet::new(
                p.f("alpha"),
                p.f("l1_ratio"),
                p.u("max_iter").max(1),
            )),
            SgdRegressor => Model::SgdReg(crate::linear::SgdRegressor::new(
                p.f("alpha"),
                p.f("learning_rate"),
                p.u("max_iter").max(1),
                seed,
            )),
            SvmReg => {
                let kernel = match p.cat("kernel") {
                    1 => Kernel::Linear,
                    _ => Kernel::Rbf { gamma: p.f("gamma") },
                };
                Model::SvmReg(SvmRegressor::new(p.f("c"), p.f("epsilon"), kernel, seed))
            }
            HuberReg => Model::HuberReg(HuberRegressor::new(
                p.f("delta"),
                p.f("alpha"),
                p.u("max_iter").max(1),
                seed,
            )),
        }
    }

    /// Builds the model with every parameter at its default.
    pub fn build_default(&self, seed: u64) -> Model {
        self.build(&HashMap::new(), seed)
    }
}

/// A model of any family, dispatching [`Estimator`] calls to the concrete
/// implementation.
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub enum Model {
    Logistic(LogisticRegression),
    LinearSvm(LinearSvm),
    KernelSvm(SvmClassifier),
    DecisionTree(DecisionTreeClassifier),
    DecisionTreeReg(DecisionTreeRegressor),
    Forest(ForestClassifier),
    ForestReg(ForestRegressor),
    Gbdt(GradientBoostingClassifier),
    GbdtReg(GradientBoostingRegressor),
    AdaBoost(AdaBoostClassifier),
    Knn(KnnClassifier),
    KnnReg(KnnRegressor),
    GaussianNb(GaussianNb),
    Lda(Lda),
    Qda(Qda),
    Mlp(MlpClassifier),
    MlpReg(MlpRegressor),
    Ridge(RidgeRegression),
    Lasso(ElasticNet),
    ElasticNet(ElasticNet),
    SgdReg(SgdRegressor),
    SvmReg(SvmRegressor),
    HuberReg(HuberRegressor),
}

macro_rules! dispatch {
    ($self:expr, $m:ident => $body:expr) => {
        match $self {
            Model::Logistic($m) => $body,
            Model::LinearSvm($m) => $body,
            Model::KernelSvm($m) => $body,
            Model::DecisionTree($m) => $body,
            Model::DecisionTreeReg($m) => $body,
            Model::Forest($m) => $body,
            Model::ForestReg($m) => $body,
            Model::Gbdt($m) => $body,
            Model::GbdtReg($m) => $body,
            Model::AdaBoost($m) => $body,
            Model::Knn($m) => $body,
            Model::KnnReg($m) => $body,
            Model::GaussianNb($m) => $body,
            Model::Lda($m) => $body,
            Model::Qda($m) => $body,
            Model::Mlp($m) => $body,
            Model::MlpReg($m) => $body,
            Model::Ridge($m) => $body,
            Model::Lasso($m) => $body,
            Model::ElasticNet($m) => $body,
            Model::SgdReg($m) => $body,
            Model::SvmReg($m) => $body,
            Model::HuberReg($m) => $body,
        }
    };
}

impl Estimator for Model {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        dispatch!(self, m => m.fit(x, y))
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        dispatch!(self, m => m.predict(x))
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Matrix> {
        dispatch!(self, m => m.predict_proba(x))
    }
}

impl Model {
    /// Fits and immediately evaluates on held-out data, returning the metric
    /// loss. Convenience wrapper used in tests and examples.
    pub fn fit_score(
        &mut self,
        x_train: &Matrix,
        y_train: &[f64],
        x_test: &Matrix,
        y_test: &[f64],
        metric: volcanoml_data::Metric,
    ) -> Result<f64> {
        self.fit(x_train, y_train)?;
        let preds = self.predict(x_test)?;
        Ok(metric.loss(y_test, &preds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{easy_binary, easy_regression, split};
    use crate::ModelError;
    use volcanoml_data::metrics::accuracy;
    use volcanoml_data::Metric;

    #[test]
    fn zoo_covers_both_tasks() {
        assert_eq!(AlgorithmKind::for_task(Task::Classification).len(), 13);
        assert_eq!(AlgorithmKind::for_task(Task::Regression).len(), 12);
    }

    #[test]
    fn every_algorithm_has_params_and_defaults() {
        for task in [Task::Classification, Task::Regression] {
            for kind in AlgorithmKind::for_task(task) {
                let defs = kind.param_defs();
                assert!(!defs.is_empty(), "{} has no params", kind.name());
                for d in &defs {
                    let v = d.default_value();
                    match &d.kind {
                        ParamKind::Float { lo, hi, .. } => {
                            assert!(*lo <= v && v <= *hi, "{}::{}", kind.name(), d.name)
                        }
                        ParamKind::Int { lo, hi, .. } => {
                            let vi = v as i64;
                            assert!(*lo <= vi && vi <= *hi, "{}::{}", kind.name(), d.name)
                        }
                        ParamKind::Cat { choices, default } => {
                            assert!(default < &choices.len(), "{}::{}", kind.name(), d.name)
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_classifier_fits_and_predicts_with_defaults() {
        let d = easy_binary();
        let ((xt, yt), (xv, yv)) = split(&d);
        for kind in AlgorithmKind::for_task(Task::Classification) {
            let mut model = kind.build_default(0);
            model.fit(&xt, &yt).unwrap_or_else(|e| panic!("{} fit: {e}", kind.name()));
            let preds = model
                .predict(&xv)
                .unwrap_or_else(|e| panic!("{} predict: {e}", kind.name()));
            let acc = accuracy(&yv, &preds);
            assert!(acc > 0.6, "{} default accuracy {acc}", kind.name());
        }
    }

    #[test]
    fn every_regressor_fits_and_predicts_with_defaults() {
        let d = easy_regression();
        let ((xt, yt), (xv, _yv)) = split(&d);
        for kind in AlgorithmKind::for_task(Task::Regression) {
            let mut model = kind.build_default(0);
            model.fit(&xt, &yt).unwrap_or_else(|e| panic!("{} fit: {e}", kind.name()));
            let preds = model
                .predict(&xv)
                .unwrap_or_else(|e| panic!("{} predict: {e}", kind.name()));
            assert!(
                preds.iter().all(|v| v.is_finite()),
                "{} produced non-finite predictions",
                kind.name()
            );
        }
    }

    /// A NaN target once fitted "successfully" into a model predicting NaN
    /// for every row; every regressor must turn it away instead.
    #[test]
    fn every_regressor_rejects_a_nan_target() {
        let d = easy_regression();
        let ((xt, mut yt), _) = split(&d);
        yt[3] = f64::NAN;
        for kind in AlgorithmKind::for_task(Task::Regression) {
            let err = kind.build_default(0).fit(&xt, &yt).err();
            assert!(
                matches!(err, Some(ModelError::Invalid(_))),
                "{} fit a NaN target: {err:?}",
                kind.name()
            );
        }
    }

    /// Degenerate training sets — no rows, a handful of rows, one class —
    /// reach the zoo whenever a low fidelity or a rare class meets a small
    /// dataset. Every algorithm must answer with a typed error or a model
    /// whose predictions are finite; a panic or a NaN is neither.
    #[test]
    fn every_algorithm_survives_tiny_training_sets() {
        for task in [Task::Classification, Task::Regression] {
            for kind in AlgorithmKind::for_task(task) {
                for n in 0..=3usize {
                    for single_valued in [false, true] {
                        let cells = (0..2 * n).map(|v| (v * v) as f64 * 0.5 - 1.0).collect();
                        let x = Matrix::from_vec(n, 2, cells).unwrap();
                        let y: Vec<f64> = (0..n)
                            .map(|i| if single_valued { 1.0 } else { (i % 2) as f64 })
                            .collect();
                        let case = format!("{} n={n} single_valued={single_valued}", kind.name());
                        let mut model = kind.build_default(0);
                        let fitted: Result<()> = model.fit(&x, &y);
                        if fitted.is_ok() {
                            let preds = model.predict(&x).unwrap_or_else(|e| panic!("{case}: {e}"));
                            assert_eq!(preds.len(), n, "{case}");
                            assert!(preds.iter().all(|p| p.is_finite()), "{case}: {preds:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn build_respects_custom_params() {
        let mut values = HashMap::new();
        values.insert("n_estimators".to_string(), 12.0);
        let model = AlgorithmKind::RandomForest.build(&values, 0);
        if let Model::Forest(f) = &model {
            assert_eq!(f.config.n_estimators, 12);
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn kernel_choice_is_applied() {
        let mut values = HashMap::new();
        values.insert("kernel".to_string(), 2.0);
        let model = AlgorithmKind::KernelSvm.build(&values, 0);
        if let Model::KernelSvm(s) = &model {
            assert_eq!(s.kernel, Kernel::Linear);
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn from_name_roundtrip() {
        for task in [Task::Classification, Task::Regression] {
            for kind in AlgorithmKind::for_task(task) {
                assert_eq!(AlgorithmKind::from_name(task, kind.name()), Some(kind));
            }
        }
        assert_eq!(AlgorithmKind::from_name(Task::Classification, "nope"), None);
    }

    #[test]
    fn fit_score_returns_loss() {
        let d = easy_binary();
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut model = AlgorithmKind::RandomForest.build_default(0);
        let loss = model
            .fit_score(&xt, &yt, &xv, &yv, Metric::BalancedAccuracy)
            .unwrap();
        assert!((0.0..=1.0).contains(&loss));
        assert!(loss < 0.3, "loss {loss}");
    }
}
