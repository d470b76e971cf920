//! Sequential optimizers with an ask/tell interface: random search and a
//! SMAC-style BO loop (RF surrogate + EI).

use crate::acquisition::{maximize_acquisition, AcquisitionScore};
use crate::cost::CostModel;
use crate::history::{Observation, RunHistory};
use crate::space::{ConfigSpace, Configuration};
use crate::surrogate::RandomForestSurrogate;
use rand::rngs::StdRng;

/// Where a suggestion sits in a bracket schedule: the rung index in the
/// issuing engine's full η-ladder and the stable id of the bracket that
/// scheduled it. It travels with the suggestion and is journaled and traced
/// verbatim (`rung`/`bracket` fields); [`TrialTag::NONE`] (`-1`/`-1`) marks
/// trials outside any bracket schedule (full-fidelity engines, warm starts,
/// seed evaluations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialTag {
    /// Rung index in the engine's full ladder, `-1` when not applicable.
    pub rung: i64,
    /// Issuing bracket's stable id, `-1` when not applicable.
    pub bracket: i64,
}

impl TrialTag {
    /// "Not bracket-scheduled" sentinel.
    pub const NONE: TrialTag = TrialTag {
        rung: -1,
        bracket: -1,
    };
}

/// One suggested trial: the configuration, the fidelity (training-set
/// fraction in `(0, 1]`) to evaluate it at, and its scheduling tag.
pub type Suggestion = (Configuration, f64, TrialTag);

/// Ask/tell optimizer interface shared by the joint-block engines.
///
/// `suggest_batch` returns [`Suggestion`]s; `observe` feeds the results back.
/// Beyond those, `history`, `space` and `grow_space`, one method has a
/// do-nothing default because only some engines have the state it touches:
/// `capture_scheduler_state` (only a bracket schedule has occupancy to
/// snapshot). Cost-awareness is fixed when an engine is built
/// ([`Smac::with_cost_aware`]).
pub trait Suggest {
    /// Suggests `k` trials to evaluate before any of them is observed —
    /// concurrently behind `--workers N`, one at a time otherwise. Engines
    /// whose picks depend on pending results account for that here: the
    /// multi-fidelity engines fill the batch from their asynchronous bracket
    /// set, and [`Smac`] decorrelates it with constant-liar
    /// pseudo-observations.
    fn suggest_batch(&mut self, k: usize) -> Vec<Suggestion>;

    /// The next single trial to evaluate: a batch of one.
    fn suggest(&mut self) -> Suggestion {
        self.suggest_batch(1).pop().expect("batch of one")
    }

    /// Reports an evaluation result.
    fn observe(&mut self, config: Configuration, fidelity: f64, loss: f64, cost: f64);

    /// Evaluation record.
    fn history(&self) -> &RunHistory;

    /// The space being optimized.
    fn space(&self) -> &ConfigSpace;

    /// Appends canonical, bitwise-stable lines describing the engine's
    /// internal scheduler state — bracket occupancy, per-rung results,
    /// pending queues — to `out`, each prefixed with `path`. Consumed by
    /// crash-resume verification snapshots (`StudyState` in the core
    /// crate), which assert that a journal-replayed engine reaches exactly
    /// the state of the uninterrupted run. Default: nothing — full-fidelity
    /// engines carry no scheduler state beyond their history.
    fn capture_scheduler_state(&self, _path: &str, _out: &mut Vec<String>) {}

    /// Replaces the engine's configuration space with a grown version — an
    /// incremental-space expansion landing mid-run. `new_space` must be a
    /// superset of the current space: every existing variable keeps its
    /// name and domain (categoricals may gain trailing choices) and new
    /// variables carry defaults. Engines remap every stored configuration
    /// through the name→value map, so old observations remain valid (new
    /// variables backfill their defaults — the same discipline as
    /// constant-liar retraction) and model-based engines refit lazily
    /// against the new encoding. Must be called only between a fully
    /// observed batch and the next `suggest`.
    fn grow_space(&mut self, new_space: ConfigSpace);
}

/// Remaps every observation of `history` from `old` into `new` by
/// round-tripping through the name→value map: values of shared variables
/// are preserved bitwise (domains are unchanged, so the clamp is the
/// identity), new variables backfill their defaults, and conditional
/// activity is recomputed under the new space.
pub(crate) fn remap_history(
    old: &ConfigSpace,
    new: &ConfigSpace,
    history: &RunHistory,
) -> RunHistory {
    let mut out = RunHistory::new();
    for obs in history.observations() {
        out.push(Observation {
            config: new.from_map(&old.to_map(&obs.config)),
            loss: obs.loss,
            cost: obs.cost,
            fidelity: obs.fidelity,
        });
    }
    out
}

/// Uniform random search (always full fidelity).
#[derive(Debug)]
pub struct RandomSearch {
    space: ConfigSpace,
    history: RunHistory,
    rng: StdRng,
    evaluated_default: bool,
}

impl RandomSearch {
    /// Creates a random-search optimizer.
    pub fn new(space: ConfigSpace, seed: u64) -> Self {
        RandomSearch {
            space,
            history: RunHistory::new(),
            rng: crate::rng::from_seed(seed),
            evaluated_default: false,
        }
    }
}

impl Suggest for RandomSearch {
    /// Stateless between picks: the default configuration once, then `k`
    /// independent uniform draws.
    fn suggest_batch(&mut self, k: usize) -> Vec<Suggestion> {
        (0..k)
            .map(|_| {
                let config = if self.evaluated_default {
                    self.space.sample(&mut self.rng)
                } else {
                    self.evaluated_default = true;
                    self.space.default_configuration()
                };
                (config, 1.0, TrialTag::NONE)
            })
            .collect()
    }

    fn observe(&mut self, config: Configuration, fidelity: f64, loss: f64, cost: f64) {
        self.history.push(Observation {
            config,
            loss,
            cost,
            fidelity,
        });
    }

    fn history(&self) -> &RunHistory {
        &self.history
    }

    fn space(&self) -> &ConfigSpace {
        &self.space
    }

    fn grow_space(&mut self, new_space: ConfigSpace) {
        self.history = remap_history(&self.space, &new_space, &self.history);
        self.space = new_space;
    }
}

/// Evaluations before [`Smac`]'s surrogate turns on.
const N_INIT: usize = 6;
/// Every k-th [`Smac`] suggestion is random (SMAC's interleaving).
const RANDOM_INTERLEAVE: usize = 5;
/// History length up to which [`Smac`] refits on every model-based pick;
/// past it, a refit waits for `⌈n / REFIT_N0⌉` new observations or a new
/// incumbent.
const REFIT_N0: usize = 50;

/// What [`Smac`]'s surrogate was last fitted on.
#[derive(Debug, Clone, Copy)]
struct Fitted {
    /// History length at the fit.
    n: usize,
    /// Incumbent loss bits at the fit.
    best: Option<u64>,
}

/// SMAC-style Bayesian optimization: probabilistic random-forest surrogate
/// over the encoded space, expected-improvement acquisition, interleaved
/// random exploration.
///
/// **Refit schedule.** A model-based pick refits the surrogate (and, when
/// cost-aware, the cost model) only when it is due:
///
/// 1. it was never fitted, or a constant-liar lie was pushed or retracted,
///    or `grow_space` changed the encoding since it was — a surrogate
///    fitted on lies or on the old encoding is wrong, not just stale;
/// 2. otherwise, when observations arrived since the fit and either the
///    history has at most `REFIT_N0` (50) of them, or at least
///    `⌈n / REFIT_N0⌉` arrived, or the incumbent loss changed (bitwise).
///
/// Otherwise EI runs against the surrogate as last fitted. Amortised, each
/// observation costs about `REFIT_N0` fitted rows, so a study's refit work
/// is linear in its history instead of quadratic. Up to `REFIT_N0`
/// observations rule 2 is exactly "refit when anything arrived", which is
/// when every earlier build refitted: such histories draw and pick bit for
/// bit as before. The schedule reads nothing but the observed history, so a
/// journal replay refits where the original run did.
#[derive(Debug)]
pub struct Smac {
    space: ConfigSpace,
    history: RunHistory,
    surrogate: RandomForestSurrogate,
    rng: StdRng,
    suggestions: usize,
    /// `None` until the first fit, and again whenever the fit became wrong
    /// (lies, a grown space): the next model-based pick must refit.
    fitted: Option<Fitted>,
    /// Acquisition is EI per predicted second (see [`CostModel`]).
    cost_aware: bool,
    cost_model: CostModel,
}

impl Smac {
    /// Creates a SMAC optimizer with standard settings.
    pub fn new(space: ConfigSpace, seed: u64) -> Self {
        Smac {
            space,
            history: RunHistory::new(),
            surrogate: RandomForestSurrogate::new(),
            rng: crate::rng::from_seed(seed),
            suggestions: 0,
            fitted: None,
            cost_aware: false,
            cost_model: CostModel::new(),
        }
    }

    /// This optimizer scoring EI per predicted second when `cost_aware`.
    /// Fixed for the run: the cost-model fit draws from the rng.
    pub fn with_cost_aware(self, cost_aware: bool) -> Self {
        Smac { cost_aware, ..self }
    }

    fn best_bits(&self) -> Option<u64> {
        self.history.best_loss().map(f64::to_bits)
    }

    /// Whether the next model-based pick refits (see the schedule above).
    fn refit_due(&self) -> bool {
        let Some(fitted) = self.fitted else {
            return true;
        };
        let n = self.history.len();
        let arrived = n - fitted.n;
        arrived > 0
            && (n <= REFIT_N0 || arrived >= n.div_ceil(REFIT_N0) || self.best_bits() != fitted.best)
    }

    fn refit(&mut self) {
        let full: Vec<&Observation> = self
            .history
            .observations()
            .iter()
            .filter(|o| o.loss.is_finite())
            .collect();
        if full.is_empty() {
            return;
        }
        let xs: Vec<Vec<f64>> = full.iter().map(|o| self.space.encode(&o.config)).collect();
        let ys: Vec<f64> = full.iter().map(|o| o.loss).collect();
        self.surrogate.fit(&xs, &ys, &mut self.rng);
        // The cost model trains on *every* observation with a real cost —
        // a trial that failed still spent real seconds. Fit strictly after
        // the loss surrogate and only in cost-aware mode so the cost-blind
        // rng stream (and hence resumes of cost-blind studies) is
        // byte-identical to before this feature existed.
        if self.cost_aware {
            let all = self.history.observations();
            let cxs: Vec<Vec<f64>> = all.iter().map(|o| self.space.encode(&o.config)).collect();
            let costs: Vec<f64> = all.iter().map(|o| o.cost).collect();
            self.cost_model.refit(&cxs, &costs, &mut self.rng);
        }
        self.fitted = Some(Fitted {
            n: self.history.len(),
            best: self.best_bits(),
        });
    }

    /// One pick against the current history: the default first, random
    /// draws during the initial design and on every `random_interleave`-th
    /// suggestion, the EI maximizer otherwise.
    fn pick(&mut self) -> (Configuration, f64) {
        self.suggestions += 1;
        if self.suggestions == 1 {
            return (self.space.default_configuration(), 1.0);
        }
        if self.history.len() < N_INIT || self.suggestions.is_multiple_of(RANDOM_INTERLEAVE) {
            return (self.space.sample(&mut self.rng), 1.0);
        }
        if self.refit_due() {
            self.refit();
        }
        let best_loss = self.history.best_loss().unwrap_or(1.0);
        let incumbent = self.history.best().map(|o| o.config.clone());
        let score = if self.cost_aware {
            AcquisitionScore::EiPerCost(&self.cost_model)
        } else {
            AcquisitionScore::Ei
        };
        let cfg = maximize_acquisition(
            &self.space,
            &self.surrogate,
            incumbent.as_ref(),
            best_loss,
            300,
            20,
            score,
            &mut self.rng,
        );
        (cfg, 1.0)
    }
}

impl Suggest for Smac {
    /// Constant-liar batch suggestion: after each pick but the last, a
    /// pseudo-observation at the incumbent loss ("the lie") is pushed so EI
    /// stops re-proposing the same region; once all `k` picks are made the
    /// lies are retracted. A lie, pushed or retracted, forces the next
    /// model-based pick to refit, so no pick scores against a surrogate
    /// fitted on lies. A batch of one tells no lie, so it is exactly one
    /// pick.
    fn suggest_batch(&mut self, k: usize) -> Vec<Suggestion> {
        let lie = self.history.best_loss().unwrap_or(1.0);
        let real_len = self.history.len();
        let mut out = Vec::with_capacity(k);
        for i in 0..k {
            let (cfg, fidelity) = self.pick();
            if i + 1 < k {
                self.history.push(Observation {
                    config: cfg.clone(),
                    loss: lie,
                    cost: 0.0,
                    fidelity,
                });
                self.fitted = None;
            }
            out.push((cfg, fidelity, TrialTag::NONE));
        }
        if self.history.len() > real_len {
            self.history.truncate(real_len);
            self.fitted = None;
        }
        out
    }

    fn observe(&mut self, config: Configuration, fidelity: f64, loss: f64, cost: f64) {
        self.history.push(Observation {
            config,
            loss,
            cost,
            fidelity,
        });
    }

    fn history(&self) -> &RunHistory {
        &self.history
    }

    fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// Growing forces a refit: the next model-based suggestion re-encodes
    /// the (remapped) history in the new space, so no surrogate migration
    /// is needed.
    fn grow_space(&mut self, new_space: ConfigSpace) {
        self.history = remap_history(&self.space, &new_space, &self.history);
        self.space = new_space;
        self.fitted = None;
    }

    /// Cost-aware runs add the cost model's fit summary to the snapshot so
    /// crash-resume verification proves the replayed cost model saw the
    /// same data. Cost-blind captures are unchanged (no extra lines).
    fn capture_scheduler_state(&self, path: &str, out: &mut Vec<String>) {
        if self.cost_aware {
            out.push(format!(
                "{path} smac cost_model obs={} ready={}",
                self.cost_model.observations(),
                self.cost_model.ready()
            ));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::space::Domain;

    /// Drives `engine` for `trials` trials, suggesting `k` at a time and
    /// observing the whole batch against `objective` (`(loss, cost)` at a
    /// fidelity), and digests what it scheduled: FNV-1a over one line per
    /// suggestion (config bits, fidelity bits, tag) followed by the final
    /// `capture_scheduler_state` lines.
    pub(crate) fn schedule_digest(
        engine: &mut dyn Suggest,
        trials: usize,
        k: usize,
        objective: impl Fn(&ConfigSpace, &Configuration, f64) -> (f64, f64),
    ) -> u64 {
        let mut lines = Vec::new();
        while lines.len() < trials {
            for (cfg, fidelity, tag) in engine.suggest_batch(k.min(trials - lines.len())) {
                lines.push(format!(
                    "{} {:016x} {} {}",
                    cfg.bits(),
                    fidelity.to_bits(),
                    tag.rung,
                    tag.bracket
                ));
                let (loss, cost) = objective(engine.space(), &cfg, fidelity);
                engine.observe(cfg, fidelity, loss, cost);
            }
        }
        engine.capture_scheduler_state("engine", &mut lines);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in lines.iter().flat_map(|l| l.bytes().chain(std::iter::once(b'\n'))) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Synthetic objective: conditional quadratic with a categorical branch.
    fn objective(space: &ConfigSpace, c: &Configuration) -> f64 {
        let m = space.to_map(c);
        let branch = *m.get("branch").unwrap_or(&0.0) as usize;
        match branch {
            0 => {
                let x = *m.get("x0").unwrap_or(&0.5);
                0.3 + (x - 0.2).powi(2) // best 0.3
            }
            _ => {
                let x = *m.get("x1").unwrap_or(&0.5);
                0.1 + 2.0 * (x - 0.8).powi(2) // best 0.1 — the good branch
            }
        }
    }

    fn branch_space() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        let b = s.add("branch", Domain::Cat { n: 2 }, 0.0).unwrap();
        s.add_conditional(
            "x0",
            Domain::Float { lo: 0.0, hi: 1.0, log: false },
            0.5,
            Some(crate::space::Condition { parent: b, values: vec![0] }),
        )
        .unwrap();
        s.add_conditional(
            "x1",
            Domain::Float { lo: 0.0, hi: 1.0, log: false },
            0.5,
            Some(crate::space::Condition { parent: b, values: vec![1] }),
        )
        .unwrap();
        s
    }

    fn run<S: Suggest>(opt: &mut S, n: usize) -> f64 {
        for _ in 0..n {
            let (cfg, fidelity, _) = opt.suggest();
            let loss = objective(opt.space(), &cfg);
            opt.observe(cfg, fidelity, loss, 1.0);
        }
        opt.history().best_loss().unwrap()
    }

    #[test]
    fn random_search_improves_over_default() {
        let mut rs = RandomSearch::new(branch_space(), 0);
        let best = run(&mut rs, 60);
        assert!(best < 0.35, "best {best}");
    }

    #[test]
    fn smac_finds_good_branch() {
        let mut smac = Smac::new(branch_space(), 0);
        let best = run(&mut smac, 60);
        assert!(best < 0.15, "best {best}");
        // The incumbent should be on branch 1.
        let inc = &smac.history().best().unwrap().config;
        assert_eq!(inc.get(0).map(|v| v as usize), Some(1));
    }

    #[test]
    fn smac_beats_random_on_average() {
        let mut smac_wins = 0;
        for seed in 0..5 {
            let mut smac = Smac::new(branch_space(), seed);
            let s = run(&mut smac, 40);
            let mut rs = RandomSearch::new(branch_space(), seed);
            let r = run(&mut rs, 40);
            if s <= r {
                smac_wins += 1;
            }
        }
        assert!(smac_wins >= 3, "SMAC won only {smac_wins}/5");
    }

    #[test]
    fn first_suggestion_is_default() {
        let mut smac = Smac::new(branch_space(), 0);
        let (cfg, f, _) = smac.suggest();
        assert_eq!(cfg, smac.space().default_configuration());
        assert_eq!(f, 1.0);
    }

    #[test]
    fn failed_evaluations_do_not_poison_surrogate() {
        let mut smac = Smac::new(branch_space(), 0);
        for i in 0..20 {
            let (cfg, f, _) = smac.suggest();
            let loss = if i % 3 == 0 {
                f64::INFINITY
            } else {
                objective(smac.space(), &cfg)
            };
            smac.observe(cfg, f, loss, 1.0);
        }
        assert!(smac.history().best_loss().unwrap().is_finite());
    }

    #[test]
    fn batch_suggestion_retracts_lies_and_decorrelates() {
        let mut smac = Smac::new(branch_space(), 0);
        // Burn in past n_init so EI drives the suggestions.
        for _ in 0..8 {
            let (cfg, f, _) = smac.suggest();
            let loss = objective(smac.space(), &cfg);
            smac.observe(cfg, f, loss, 1.0);
        }
        let before = smac.history().len();
        let batch = smac.suggest_batch(4);
        assert_eq!(batch.len(), 4);
        // The constant-liar pseudo-observations must be gone.
        assert_eq!(smac.history().len(), before);
        // A batch should not be four copies of one configuration.
        let distinct: std::collections::HashSet<Vec<Option<u64>>> = batch
            .iter()
            .map(|(c, ..)| c.values.iter().map(|v| v.map(f64::to_bits)).collect())
            .collect();
        assert!(distinct.len() > 1, "batch collapsed to one configuration");
        // Observing the real results keeps the optimizer consistent.
        for (cfg, f, _) in batch {
            let loss = objective(smac.space(), &cfg);
            smac.observe(cfg, f, loss, 1.0);
        }
        assert_eq!(smac.history().len(), before + 4);
    }

    /// Two branches with *equal* best loss (0.1) but a 10x cost gap:
    /// branch 0 is cheap-good, branch 1 expensive-equal.
    fn symmetric_objective(space: &ConfigSpace, c: &Configuration) -> (f64, f64) {
        let m = space.to_map(c);
        let branch = *m.get("branch").unwrap_or(&0.0) as usize;
        match branch {
            0 => {
                let x = *m.get("x0").unwrap_or(&0.5);
                (0.1 + (x - 0.2).powi(2), 1.0)
            }
            _ => {
                let x = *m.get("x1").unwrap_or(&0.5);
                (0.1 + (x - 0.8).powi(2), 10.0)
            }
        }
    }

    /// Drives `opt` until the incumbent reaches `target` (or `max_n`
    /// trials), returning total evaluation cost spent.
    fn cost_to_target(opt: &mut Smac, target: f64, max_n: usize) -> f64 {
        let mut total = 0.0;
        for _ in 0..max_n {
            let (cfg, fidelity, _) = opt.suggest();
            let (loss, cost) = symmetric_objective(opt.space(), &cfg);
            total += cost;
            opt.observe(cfg, fidelity, loss, cost);
            if opt.history().best_loss().is_some_and(|b| b <= target) {
                break;
            }
        }
        total
    }

    #[test]
    fn cost_aware_reaches_target_cheaper_on_cheap_good_vs_expensive_equal() {
        // Aggregated across seeds, EI-per-second must reach the target at
        // strictly less total cost than cost-blind EI — the two branches
        // offer the same loss, so steering by cost is pure win.
        // Tight enough that runs outlast the cost model's warm-up — an easy
        // target is hit during the random initial design where cost-aware
        // and cost-blind coincide by construction.
        let target = 0.1005;
        let mut blind_total = 0.0;
        let mut aware_total = 0.0;
        for seed in 0..10 {
            let mut blind = Smac::new(branch_space(), seed);
            blind_total += cost_to_target(&mut blind, target, 250);
            let mut aware = Smac::new(branch_space(), seed).with_cost_aware(true);
            aware_total += cost_to_target(&mut aware, target, 250);
        }
        assert!(
            aware_total < blind_total,
            "cost-aware spent {aware_total:.1}, cost-blind {blind_total:.1}"
        );
    }

    #[test]
    fn cost_aware_matches_cost_blind_during_initial_design() {
        // Before the surrogate activates (history < n_init), no refit runs,
        // so cost-aware and cost-blind draw from identical rng streams and
        // must produce identical suggestions. (Past that point the extra
        // cost-model fit advances the rng, so only distributional — not
        // bitwise — equivalence holds until the warm-up threshold.)
        let mut blind = Smac::new(branch_space(), 3);
        let mut aware = Smac::new(branch_space(), 3).with_cost_aware(true);
        for _ in 0..N_INIT {
            let (cb, fb, _) = blind.suggest();
            let (ca, fa, _) = aware.suggest();
            assert_eq!(cb.values, ca.values);
            assert_eq!(fb, fa);
            let (loss, cost) = symmetric_objective(blind.space(), &cb);
            blind.observe(cb, fb, loss, cost);
            aware.observe(ca, fa, loss, cost);
        }
    }

    /// Golden digests of a cost-aware `Smac` schedule on the loss-symmetric,
    /// cost-asymmetric branch space (60 trials, batches of 1 and 3), recorded
    /// while cost-awareness was still switched on by a setter after
    /// construction: an engine built cost-aware must schedule identically.
    /// The k=1 digest was re-recorded when refits went on a schedule (its
    /// last ten trials pass `REFIT_N0`); k=3 did not move, because every
    /// model-based pick of a constant-liar batch follows a lie or a
    /// retraction and refits.
    #[test]
    fn golden_cost_aware_smac_schedule() {
        let objective = |space: &ConfigSpace, c: &Configuration, _| symmetric_objective(space, c);
        for (k, want) in [(1, 0xab9d_c890_220b_f795u64), (3, 0xfd5b_4230_588e_57c4)] {
            let mut smac = Smac::new(branch_space(), 17).with_cost_aware(true);
            let got = schedule_digest(&mut smac, 60, k, objective);
            assert_eq!(got, want, "k={k} digest {got:#018x}");
        }
    }

    /// The same setup's first 50 trials, which no refit schedule may move:
    /// every pick of a history this short refits.
    #[test]
    fn golden_cost_aware_smac_first_50_trials() {
        let objective = |space: &ConfigSpace, c: &Configuration, _| symmetric_objective(space, c);
        for (k, want) in [(1, 0x4aa1_d083_22b3_834du64), (3, 0x2b5c_b433_56ca_e41a)] {
            let mut smac = Smac::new(branch_space(), 17).with_cost_aware(true);
            let got = schedule_digest(&mut smac, 50, k, objective);
            assert_eq!(got, want, "k={k} digest {got:#018x}");
        }
    }

    /// A 400-observation serial history refits only when the schedule says
    /// so, far less often than it picks; a constant-liar batch on top of it
    /// refits at every model-based pick after a lie, and its retraction
    /// forces the next one.
    #[test]
    fn refits_follow_the_schedule_and_lies_force_one() {
        use crate::surrogate::stats;
        let mut smac = Smac::new(branch_space(), 11);
        stats::take();
        // (history length, incumbent loss bits) at each refit.
        let mut refits: Vec<(usize, Option<u64>)> = Vec::new();
        for _ in 0..400 {
            let at = (smac.history().len(), smac.best_bits());
            let (cfg, f, _) = smac.suggest();
            if stats::take().fits > 0 {
                refits.push(at);
            }
            let loss = objective(smac.space(), &cfg);
            smac.observe(cfg, f, loss, 1.0);
        }
        for pair in refits.windows(2) {
            let ((last_n, last_best), (n, best)) = (pair[0], pair[1]);
            assert!(
                n <= REFIT_N0 || n - last_n >= n.div_ceil(REFIT_N0) || best != last_best,
                "refit at n={n} after one at n={last_n} with the same incumbent"
            );
        }
        let past_n0 = refits.iter().filter(|(n, _)| *n > REFIT_N0).count();
        assert!(past_n0 > 0 && past_n0 < 150, "{past_n0} refits past n0");

        // The batch's first pick refits only if due; every later
        // model-based pick follows a lie and must refit.
        let model_based = |pick: usize| !pick.is_multiple_of(RANDOM_INTERLEAVE);
        let first = smac.suggestions + 1;
        let want = usize::from(model_based(first) && smac.refit_due())
            + (first + 1..first + 3).filter(|&p| model_based(p)).count();
        assert!(want > 0);
        smac.suggest_batch(3);
        assert_eq!(stats::take().fits as usize, want);
        assert!(smac.refit_due(), "retracting the lies must force a refit");
    }

    /// `branch_space` grown by one trailing branch choice, one conditional
    /// child for it, and one new unconditional variable with a default.
    fn grown_branch_space() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        let b = s.add("branch", Domain::Cat { n: 3 }, 0.0).unwrap();
        s.add_conditional(
            "x0",
            Domain::Float { lo: 0.0, hi: 1.0, log: false },
            0.5,
            Some(crate::space::Condition { parent: b, values: vec![0] }),
        )
        .unwrap();
        s.add_conditional(
            "x1",
            Domain::Float { lo: 0.0, hi: 1.0, log: false },
            0.5,
            Some(crate::space::Condition { parent: b, values: vec![1] }),
        )
        .unwrap();
        s.add_conditional(
            "x2",
            Domain::Float { lo: 0.0, hi: 1.0, log: false },
            0.5,
            Some(crate::space::Condition { parent: b, values: vec![2] }),
        )
        .unwrap();
        s.add("extra", Domain::Cat { n: 2 }, 0.0).unwrap();
        s
    }

    #[test]
    fn grow_space_preserves_history_bitwise_and_keeps_optimizing() {
        for grow_smac in [false, true] {
            let mut opt: Box<dyn Suggest> = if grow_smac {
                Box::new(Smac::new(branch_space(), 4))
            } else {
                Box::new(RandomSearch::new(branch_space(), 4))
            };
            for _ in 0..12 {
                let (cfg, f, _) = opt.suggest();
                let loss = objective(opt.space(), &cfg);
                opt.observe(cfg, f, loss, 1.0);
            }
            let old_space = opt.space().clone();
            let old: Vec<(std::collections::HashMap<String, f64>, u64)> = opt
                .history()
                .observations()
                .iter()
                .map(|o| (old_space.to_map(&o.config), o.loss.to_bits()))
                .collect();
            let best_before = opt.history().best_loss().unwrap();
            opt.grow_space(grown_branch_space());
            assert_eq!(opt.space().len(), 5);
            assert_eq!(opt.history().len(), old.len());
            for (obs, (map, loss_bits)) in opt.history().observations().iter().zip(&old) {
                assert_eq!(obs.loss.to_bits(), *loss_bits);
                opt.space().validate(&obs.config).unwrap();
                let new_map = opt.space().to_map(&obs.config);
                // Shared variables keep their values bitwise…
                for (k, v) in map {
                    assert_eq!(new_map.get(k).map(|x| x.to_bits()), Some(v.to_bits()), "{k}");
                }
                // …and the new unconditional variable backfills its default.
                assert_eq!(new_map.get("extra"), Some(&0.0));
            }
            assert_eq!(opt.history().best_loss(), Some(best_before));
            // The grown engine keeps suggesting valid configurations and
            // can reach the new branch.
            for _ in 0..30 {
                let (cfg, f, _) = opt.suggest();
                opt.space().validate(&cfg).unwrap();
                let loss = objective(opt.space(), &cfg);
                opt.observe(cfg, f, loss, 1.0);
            }
        }
    }

    /// `suggest` is a batch of one for every engine: twin-seeded instances
    /// driven through either entry propose the same trials.
    #[test]
    fn suggest_equals_batch_of_one_for_every_engine() {
        use crate::multifidelity::BracketEngine;
        let engines: [fn() -> Box<dyn Suggest>; 5] = [
            || Box::new(RandomSearch::new(branch_space(), 9)),
            || Box::new(Smac::new(branch_space(), 9)),
            || Box::new(BracketEngine::successive_halving(branch_space(), 9, 1.0 / 9.0, 3, 9)),
            || Box::new(BracketEngine::hyperband(branch_space(), 1.0 / 9.0, 3, 9)),
            || Box::new(BracketEngine::mfes_hb(branch_space(), 1.0 / 9.0, 3, 9)),
        ];
        for (e, build) in engines.iter().enumerate() {
            let (mut single, mut batch) = (build(), build());
            for cycle in 0..30 {
                let (ca, fa, ta) = single.suggest();
                let (cb, fb, tb) = batch.suggest_batch(1).pop().expect("one pick");
                assert_eq!((&ca, fa, ta), (&cb, fb, tb), "engine {e} cycle {cycle}");
                let loss = objective(single.space(), &ca) + (1.0 - fa) * 0.05;
                single.observe(ca, fa, loss, fa);
                batch.observe(cb, fb, loss, fb);
            }
        }
    }
}
