//! The four workloads: what each one runs and why it exists.
//!
//! A workload is a fixed panel of study *slots*. Slot `i` searches a dataset
//! generated from `derive_seed(--seed, i)` with the search seed
//! `derive_seed(<workload tag>, i)`. The search seed is part of the workload,
//! not of the input: with it fixed, a slot's initial designs are the same
//! configurations on every `--seed`, which is what keeps a slot's cost
//! comparable from one seed to the next (a trial's cost spans three orders
//! of magnitude across the space, so panels of freshly seeded searches
//! differ by more than any bound could absorb).

use crate::layers::{derive_seed, DataKind, DataSpec, Engine, Plan, StudyConfig, Tier};

/// Time-to-target thresholds, set once at this commit so that a study
/// reaches them between a tenth and two thirds of the way through its budget.
#[derive(Debug, Clone, Copy)]
pub enum Target {
    /// An absolute loss. The linear-regression generator's noise variance is
    /// 0.25 whatever the seed, while the default configuration's loss swings
    /// between 0.5 and 15 with the scale of the drawn coefficients.
    Loss(f64),
    /// A share of the loss of the space's default configuration.
    ShareOfDefault(f64),
}

/// Held-out rows generated with every dataset for `final_test_loss`; enough
/// that the loss of one fitted pipeline is measured to about 2 %.
pub const TEST_ROWS: usize = 4000;

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub plan: Plan,
    pub engine: Engine,
    pub tier: Tier,
    /// Every slot draws its dataset from this generator and shape.
    pub data: DataSpec,
    pub evaluations: usize,
    /// 0 = the engine's default 25% holdout, otherwise k-fold CV.
    pub folds: usize,
    /// Pool workers asked for; capped at the machine's cores.
    pub workers: usize,
    /// Whether `fit` also writes a trace and a metrics snapshot, as
    /// `volcanoml-serve` runs every study.
    pub observed: bool,
    /// Slots measured in a 20-second untraced run on the reference machine.
    pub slots_per_20s: usize,
    /// The validation loss a study has to reach for `core.time_to_target_s`.
    pub target: Target,
    /// Stream label the slots' search seeds are derived from.
    tag: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "joint_small",
        why: "one SMAC history over the whole space on tiny data: surrogate refit and acquisition are most of the wall, the FE cache is bypassed",
        plan: Plan::Joint,
        engine: Engine::Bo,
        tier: Tier::Medium,
        data: DataSpec { kind: DataKind::LinearReg, rows: 120, features: 10 },
        evaluations: 400,
        folds: 0,
        workers: 1,
        observed: false,
        slots_per_20s: 6,
        target: Target::Loss(0.3),
        tag: 0x6a6f_696e,
    },
    Workload {
        name: "volcano_small",
        why: "the decomposed plan on small data: many short per-arm histories, arm elimination and FE-cache hits, so block-path and cache changes show here and not in joint_small",
        plan: Plan::Volcano,
        engine: Engine::Bo,
        tier: Tier::Medium,
        data: DataSpec { kind: DataKind::LinearReg, rows: 300, features: 10 },
        evaluations: 160,
        folds: 0,
        workers: 1,
        observed: false,
        slots_per_20s: 40,
        target: Target::Loss(0.3),
        tag: 0x766f_6c63,
    },
    Workload {
        name: "volcano_large",
        why: "the large space on 2000x30 rows: almost all wall is inside trials (model fit, FE transform, data views), so a suggest-path change must read as no change",
        plan: Plan::Volcano,
        engine: Engine::Bo,
        tier: Tier::Large,
        data: DataSpec { kind: DataKind::Hypercube, rows: 2000, features: 30 },
        evaluations: 45,
        folds: 0,
        workers: 1,
        observed: false,
        slots_per_20s: 4,
        target: Target::ShareOfDefault(0.9),
        tag: 16,
    },
    Workload {
        name: "mfes_pool_reg",
        why: "MFES-HB on a 2-worker pool with 3-fold CV and journal, trace and metrics files on: the only workload with pool queueing, sub-fidelity views and observability on the blocking path",
        plan: Plan::Volcano,
        engine: Engine::MfesHb,
        tier: Tier::Medium,
        data: DataSpec { kind: DataKind::LinearReg, rows: 600, features: 10 },
        evaluations: 160,
        folds: 3,
        workers: 4,
        observed: true,
        slots_per_20s: 10,
        target: Target::Loss(0.3),
        tag: 0x6d66_6573,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Slots a run of `seconds` measures: the panel is sized from the
    /// requested run length, never from how fast the code under test is, so
    /// two commits are always compared on identical work.
    pub fn slots(&self, seconds: f64) -> usize {
        let scaled = (self.slots_per_20s as f64 * seconds / 20.0).round() as usize;
        scaled.max(1)
    }

    pub fn data_seed(&self, seed: u64, slot: usize) -> u64 {
        derive_seed(seed, slot as u64 + 1)
    }

    /// Evaluation budgets scale with `--scale`; nothing else does.
    pub fn study(&self, slot: usize, scale: f64, n_cpus: usize) -> StudyConfig {
        StudyConfig {
            plan: self.plan,
            engine: self.engine,
            tier: self.tier,
            folds: self.folds,
            workers: self.workers.min(n_cpus).max(1),
            evaluations: ((self.evaluations as f64 * scale).round() as usize).max(2),
            search_seed: derive_seed(self.tag, slot as u64 + 1),
        }
    }
}
