//! Early-stopping / multi-fidelity optimization: one [`BracketEngine`] whose
//! three constructors give Successive Halving, Hyperband, and MFES-HB
//! (multi-fidelity ensemble surrogate Hyperband, Li et al. 2020) — the
//! engines the paper plugs into joint blocks for large datasets (§3.3.1).
//!
//! Fidelity is the training-set fraction in `(0, 1]`; the evaluator
//! subsamples accordingly. The engine implements the [`Suggest`] interface
//! *including* a real `suggest_batch`: brackets are asynchronous
//! (ASHA-style), so any number of configurations may be in flight at once
//! and a rung promotes its best observed survivor as soon as enough results
//! accumulate — no rung barrier, no full-fidelity random fallback. When the
//! active brackets cannot supply a requested batch slot, the next bracket
//! (for Hyperband: the next `s`) opens early instead.
//!
//! The engine stores each observation once, in its [`RunHistory`]: the
//! cost-aware bracket floor ([`cost_floor`]) and its snapshot lines are
//! per-fidelity sums read from that history, not a running table beside it.

use crate::acquisition::expected_improvement;
use crate::history::{Observation, RunHistory};
use crate::optimizer::{Suggest, Suggestion, TrialTag};
use crate::space::{ConfigSpace, Configuration};
use crate::surrogate::RandomForestSurrogate;
use rand::rngs::StdRng;
use std::collections::BTreeMap;

/// One observed result at a rung of an asynchronous bracket.
#[derive(Debug, Clone)]
struct RungResult {
    config: Configuration,
    loss: f64,
    /// Measured evaluation cost (seconds) of this trial — consulted only by
    /// cost-aware promotion.
    cost: f64,
    promoted: bool,
}

/// One asynchronous Successive-Halving bracket (ASHA-style).
///
/// Unlike the classic rung-barrier formulation, the bracket tracks a *set*
/// of in-flight `(config, rung)` entries: [`Bracket::next`] hands out work
/// (promotions first, then fresh rung-0 configurations) and
/// [`Bracket::record`] files results. A rung promotes its best *observed
/// finite* survivor as soon as `eta` observed results accumulate per
/// promotion slot; once a rung is closed (nothing more can arrive) at least
/// one survivor is promoted even when fewer than `eta` results exist, so
/// small brackets still finish their ladder. Non-finite losses (crashed or
/// timed-out trials) never count as survivors and can never climb.
#[derive(Debug, Clone)]
struct Bracket {
    /// Stable id for journal/trace attribution.
    id: u64,
    /// Fidelity per rung, ascending, last = 1.0.
    rungs: Vec<f64>,
    /// Index of `rungs[0]` in the engine's full ladder (Hyperband brackets
    /// start part-way up).
    rung_offset: usize,
    eta: usize,
    /// Rung-0 configurations not yet handed out.
    queue: Vec<Configuration>,
    /// In-flight `(config, rung)` entries awaiting observation.
    in_flight: Vec<(Configuration, usize)>,
    /// Observed results per rung.
    results: Vec<Vec<RungResult>>,
    /// When set, promotion ranks by loss-improvement per second instead of
    /// raw loss (see [`Bracket::promotable`]).
    cost_aware: bool,
}

impl Bracket {
    fn new(
        configs: Vec<Configuration>,
        rungs: Vec<f64>,
        rung_offset: usize,
        eta: usize,
        id: u64,
        cost_aware: bool,
    ) -> Bracket {
        let n_rungs = rungs.len();
        Bracket {
            id,
            rungs,
            rung_offset,
            eta: eta.max(2),
            queue: configs,
            in_flight: Vec::new(),
            results: vec![Vec::new(); n_rungs],
            cost_aware,
        }
    }

    /// Whether rung `r` can receive no further results: every upstream
    /// source of entrants is exhausted and nothing is in flight at `r`.
    fn closed(&self, r: usize) -> bool {
        if self.in_flight.iter().any(|(_, fr)| *fr == r) {
            return false;
        }
        if r == 0 {
            self.queue.is_empty()
        } else {
            self.closed(r - 1) && self.promotable(r - 1).is_none()
        }
    }

    /// Index into `results[r]` of the best observed finite configuration
    /// eligible for promotion to rung `r + 1` right now, if any.
    ///
    /// The asynchronous quota is `floor(finite_observed / eta)`; a closed
    /// rung with at least one finite result always gets a quota of ≥ 1 so
    /// under-populated brackets (Hyperband's small `n`) still promote.
    ///
    /// Cost-blind brackets rank candidates by raw loss. Cost-aware brackets
    /// rank by *loss improvement per second at this rung's measured cost* —
    /// `(worst_finite_loss − loss) / cost` — so a configuration that buys
    /// nearly the same loss at a fraction of the cost climbs first; ties
    /// (e.g. equal losses) break toward the cheaper trial, then lower loss.
    fn promotable(&self, r: usize) -> Option<usize> {
        if r + 1 >= self.rungs.len() {
            return None;
        }
        let mut finite: Vec<usize> = (0..self.results[r].len())
            .filter(|&i| self.results[r][i].loss.is_finite())
            .collect();
        if finite.is_empty() {
            return None;
        }
        if self.cost_aware {
            let worst = finite
                .iter()
                .map(|&i| self.results[r][i].loss)
                .fold(f64::NEG_INFINITY, f64::max);
            let rate = |i: usize| {
                let res = &self.results[r][i];
                (worst - res.loss) / res.cost.max(1e-9)
            };
            finite.sort_by(|&a, &b| {
                rate(b)
                    .total_cmp(&rate(a))
                    .then_with(|| self.results[r][a].cost.total_cmp(&self.results[r][b].cost))
                    .then_with(|| self.results[r][a].loss.total_cmp(&self.results[r][b].loss))
            });
        } else {
            finite.sort_by(|&a, &b| self.results[r][a].loss.total_cmp(&self.results[r][b].loss));
        }
        let promoted = self.results[r].iter().filter(|x| x.promoted).count();
        let mut quota = finite.len() / self.eta;
        if quota == 0 && self.closed(r) {
            quota = 1;
        }
        if promoted < quota {
            finite.into_iter().find(|&i| !self.results[r][i].promoted)
        } else {
            None
        }
    }

    /// All work handed out and observed, and no promotion remains. (The old
    /// single-in-flight `done()` had an `&&`/`||` precedence bug that made
    /// its `finished.len() <= 1` clause unreachable; the async predicate is
    /// simply "no work left anywhere".)
    fn done(&self) -> bool {
        self.queue.is_empty()
            && self.in_flight.is_empty()
            && (0..self.rungs.len().saturating_sub(1)).all(|r| self.promotable(r).is_none())
    }

    /// Pops the next unit of work: the most-advanced promotion available,
    /// else a fresh rung-0 configuration — tagged with the rung (in the
    /// engine's full ladder) and this bracket's id. `None` when every
    /// remaining step awaits an in-flight observation.
    fn next(&mut self) -> Option<Suggestion> {
        let promotion = (0..self.rungs.len().saturating_sub(1))
            .rev()
            .find_map(|r| Some((r, self.promotable(r)?)));
        let (config, r) = match promotion {
            Some((r, i)) => {
                self.results[r][i].promoted = true;
                (self.results[r][i].config.clone(), r + 1)
            }
            None => (self.queue.pop()?, 0),
        };
        self.in_flight.push((config.clone(), r));
        let tag = TrialTag {
            rung: (self.rung_offset + r) as i64,
            bracket: self.id as i64,
        };
        Some((config, self.rungs[r], tag))
    }

    /// Files an observation for an in-flight entry matching `(config,
    /// fidelity)`. Returns `false` when this bracket never issued the trial
    /// (the caller then routes it to history only), so foreign observations
    /// — meta-learning warm starts, constant-liar pseudo-observations — can
    /// never distort promotion quotas.
    fn record(&mut self, config: &Configuration, fidelity: f64, loss: f64, cost: f64) -> bool {
        let pos = self.in_flight.iter().position(|(c, r)| {
            c == config && (self.rungs[*r] - fidelity).abs() < 1e-9
        });
        match pos {
            Some(pos) => {
                let (config, r) = self.in_flight.swap_remove(pos);
                self.results[r].push(RungResult {
                    config,
                    loss,
                    cost,
                    promoted: false,
                });
                true
            }
            None => false,
        }
    }

    /// Remaps every stored configuration (queue, in-flight, rung results)
    /// from `old` into `new` — the bracket-side half of [`Suggest::grow_space`].
    fn remap_space(&mut self, old: &ConfigSpace, new: &ConfigSpace) {
        let remap = |c: &Configuration| new.from_map(&old.to_map(c));
        for c in &mut self.queue {
            *c = remap(c);
        }
        for (c, _) in &mut self.in_flight {
            *c = remap(c);
        }
        for rung in &mut self.results {
            for res in rung {
                res.config = remap(&res.config);
            }
        }
    }

    /// Appends canonical lines describing this bracket's full occupancy:
    /// shape, pending queue, in-flight set, and per-rung results. In-flight
    /// and result lines are sorted so pooled observation timing can never
    /// perturb the snapshot.
    fn capture_state(&self, path: &str, out: &mut Vec<String>) {
        let rungs = self
            .rungs
            .iter()
            .map(|f| format!("{:016x}", f.to_bits()))
            .collect::<Vec<_>>()
            .join(",");
        out.push(format!(
            "{path} bracket={} offset={} eta={} rungs={rungs} queued={}",
            self.id,
            self.rung_offset,
            self.eta,
            self.queue.len()
        ));
        for c in &self.queue {
            out.push(format!("{path} bracket={} queue config={}", self.id, c.bits()));
        }
        let mut in_flight: Vec<String> = self
            .in_flight
            .iter()
            .map(|(c, r)| {
                format!("{path} bracket={} in_flight rung={r} config={}", self.id, c.bits())
            })
            .collect();
        in_flight.sort();
        out.append(&mut in_flight);
        for (r, results) in self.results.iter().enumerate() {
            let mut rows: Vec<String> = results
                .iter()
                .map(|res| {
                    // Cost-aware promotion ranks on cost, so cost-aware
                    // snapshots must pin it bitwise; cost-blind snapshots
                    // keep the historical format (cost is inert there).
                    let cost = if self.cost_aware {
                        format!(" cost={:016x}", res.cost.to_bits())
                    } else {
                        String::new()
                    };
                    format!(
                        "{path} bracket={} rung={r} loss={:016x} promoted={}{cost} config={}",
                        self.id,
                        res.loss.to_bits(),
                        res.promoted,
                        res.config.bits()
                    )
                })
                .collect();
            rows.sort();
            out.append(&mut rows);
        }
    }
}

/// Measured cost per fidelity — the "per-arm cost model" behind cost-aware
/// bracket floors: fidelity bits → (total cost, count) over `history`'s
/// costs, summed in observation order. Non-finite and non-positive costs
/// (timed-out trials, journal rows for cached replays) carry no cost
/// information and are skipped. Fidelities are positive, so bit order equals
/// numeric order.
fn fidelity_costs(history: &RunHistory) -> BTreeMap<u64, (f64, usize)> {
    let mut table = BTreeMap::new();
    for o in history.observations() {
        if o.cost.is_finite() && o.cost > 0.0 {
            let e = table.entry(o.fidelity.to_bits()).or_insert((0.0, 0));
            e.0 += o.cost;
            e.1 += 1;
        }
    }
    table
}

/// Lowest viable starting rung of `ladder` given the costs measured in
/// `history`: the first rung that is either unmeasured (optimism — trust the
/// η-ladder until evidence arrives) or measured to cost at most `1/eta` of a
/// measured full-fidelity trial. A rung whose trials cost nearly as much as
/// full fidelity (fixed per-trial overhead dominating the subsample saving)
/// is a waste of ladder steps, so it is skipped. When every measured rung
/// fails the test, only full fidelity pays.
fn cost_floor(history: &RunHistory, ladder: &[f64], eta: usize) -> usize {
    let costs = fidelity_costs(history);
    let mean = |f: f64| costs.get(&f.to_bits()).map(|(sum, n)| sum / *n as f64);
    let Some(full) = mean(1.0) else {
        return 0;
    };
    for (i, &f) in ladder.iter().enumerate().take(ladder.len().saturating_sub(1)) {
        match mean(f) {
            None => return i,
            Some(c) if c * eta as f64 <= full => return i,
            Some(_) => continue,
        }
    }
    ladder.len().saturating_sub(1)
}

/// Standard Hyperband rung ladder for `eta` and `r_min` (smallest fidelity).
/// `eta` below 2 is clamped here, for every caller: a factor of 0 or 1 never
/// reaches 1.0.
fn rung_ladder(r_min: f64, eta: usize) -> Vec<f64> {
    let eta = eta.max(2) as f64;
    let mut rungs = Vec::new();
    let mut r = r_min.clamp(1e-3, 1.0);
    while r < 1.0 - 1e-9 {
        rungs.push(r);
        r *= eta;
    }
    rungs.push(1.0);
    rungs
}

/// How many seeds the next bracket takes and at which rung it starts.
#[derive(Debug)]
enum Shape {
    /// Successive Halving: every bracket takes `n0` seeds from rung 0.
    Fixed { n0: usize },
    /// Hyperband: bracket `s` starts at rung `s_max - s` with `n =
    /// ceil(eta^s * (s+1) / (s_max+1))` seeds — the standard allocation,
    /// modestly sized for interactive use — and `s` cycles `s_max → 0 →
    /// s_max …` (`s_max` = number of rungs − 1).
    Cycling { s: usize, s_max: usize },
}

/// Who proposes a new bracket's seeds.
#[derive(Debug)]
enum SeedSource {
    /// Uniform draws from the space.
    Random,
    /// MFES-HB: the top expected-improvement candidates under a
    /// multi-fidelity *ensemble* surrogate — one RF per fidelity level,
    /// weighted by each level's rank agreement with the highest fidelity
    /// observed so far. Random until some level has four finite results.
    Ensemble,
}

/// Candidate pool size per ensemble-guided proposal.
const MFES_CANDIDATES: usize = 100;

/// The bracket engine: asynchronous brackets climb the rung ladder, the top
/// `1/eta` surviving each rung, and a fresh bracket opens whenever the active
/// ones cannot supply more work (batch mode opens it early rather than
/// waiting on in-flight trials). Successive Halving, Hyperband and MFES-HB are
/// this one engine with a different bracket [`Shape`] and [`SeedSource`], both
/// fixed by the constructor.
#[derive(Debug)]
pub struct BracketEngine {
    space: ConfigSpace,
    history: RunHistory,
    /// Active brackets in opening order. Work is drawn oldest first, so
    /// earlier brackets finish their ladders before new exploration starts;
    /// finished brackets are dropped.
    brackets: Vec<Bracket>,
    /// Id of the next bracket to open.
    next_bracket_id: u64,
    rng: StdRng,
    eta: usize,
    r_min: f64,
    shape: Shape,
    seeds: SeedSource,
    cost_aware: bool,
}

impl BracketEngine {
    /// An engine of random seeds in brackets of `shape`.
    fn new(space: ConfigSpace, r_min: f64, eta: usize, seed: u64, shape: Shape) -> Self {
        BracketEngine {
            space,
            history: RunHistory::new(),
            brackets: Vec::new(),
            next_bracket_id: 0,
            rng: crate::rng::from_seed(seed),
            eta: eta.max(2),
            r_min,
            shape,
            seeds: SeedSource::Random,
            cost_aware: false,
        }
    }

    /// Successive Halving: `n0` random configurations per bracket, every
    /// bracket from the bottom rung.
    pub fn successive_halving(
        space: ConfigSpace,
        n0: usize,
        r_min: f64,
        eta: usize,
        seed: u64,
    ) -> Self {
        Self::new(space, r_min, eta, seed, Shape::Fixed { n0: n0.max(2) })
    }

    /// Hyperband: random configurations in brackets that cycle through the
    /// exploration/exploitation trade-offs (initial counts and starting
    /// rungs), widest bracket first.
    pub fn hyperband(space: ConfigSpace, r_min: f64, eta: usize, seed: u64) -> Self {
        let s_max = rung_ladder(r_min, eta).len() - 1;
        Self::new(space, r_min, eta, seed, Shape::Cycling { s: s_max, s_max })
    }

    /// MFES-HB (Li et al. 2020): Hyperband's brackets, seeded by the
    /// multi-fidelity ensemble surrogate.
    pub fn mfes_hb(space: ConfigSpace, r_min: f64, eta: usize, seed: u64) -> Self {
        BracketEngine {
            seeds: SeedSource::Ensemble,
            ..Self::hyperband(space, r_min, eta, seed)
        }
    }

    /// This engine promoting by loss improvement per second and opening
    /// brackets no lower than the measured cost floor when `cost_aware`.
    /// Fixed for the run: brackets and snapshots differ between the modes.
    pub fn with_cost_aware(self, cost_aware: bool) -> Self {
        BracketEngine { cost_aware, ..self }
    }

    /// Opens the next bracket. Cost-aware runs clamp its starting rung to the
    /// measured cost floor: a bracket may never start below a rung whose
    /// trials cost nearly as much as full fidelity (see [`cost_floor`]).
    fn open_bracket(&mut self) {
        let ladder = rung_ladder(self.r_min, self.eta);
        let (n, mut start) = match self.shape {
            Shape::Fixed { n0 } => (n0, 0),
            Shape::Cycling { s, s_max } => {
                let n = (self.eta.pow(s as u32) as f64) * (s as f64 + 1.0) / (s_max as f64 + 1.0);
                ((n.ceil() as usize).max(1), s_max - s)
            }
        };
        if self.cost_aware {
            start = start.max(cost_floor(&self.history, &ladder, self.eta));
        }
        let configs = match self.seeds {
            SeedSource::Random => (0..n).map(|_| self.space.sample(&mut self.rng)).collect(),
            SeedSource::Ensemble => self.propose(n),
        };
        let rungs = ladder[start..].to_vec();
        let id = self.next_bracket_id;
        self.next_bracket_id += 1;
        self.brackets.push(Bracket::new(
            configs,
            rungs,
            start,
            self.eta,
            id,
            self.cost_aware,
        ));
        if let Shape::Cycling { s, s_max } = &mut self.shape {
            *s = if *s == 0 { *s_max } else { *s - 1 };
        }
    }

    /// Fits the per-fidelity surrogates and their ensemble weights.
    fn ensemble(&mut self) -> Option<Vec<(RandomForestSurrogate, f64)>> {
        let ladder = rung_ladder(self.r_min, self.eta);
        let mut members = Vec::new();
        // Reference ranking: the highest fidelity with ≥4 observations.
        let reference: Option<Vec<(Vec<f64>, f64)>> = ladder
            .iter()
            .rev()
            .map(|&f| {
                self.history
                    .at_fidelity(f)
                    .iter()
                    .filter(|o| o.loss.is_finite())
                    .map(|o| (self.space.encode(&o.config), o.loss))
                    .collect::<Vec<_>>()
            })
            .find(|v: &Vec<(Vec<f64>, f64)>| v.len() >= 4);
        let reference = reference?;

        for &f in &ladder {
            let obs = self.history.at_fidelity(f);
            let finite: Vec<_> = obs.iter().filter(|o| o.loss.is_finite()).collect();
            if finite.len() < 4 {
                continue;
            }
            let xs: Vec<Vec<f64>> = finite
                .iter()
                .map(|o| self.space.encode(&o.config))
                .collect();
            let ys: Vec<f64> = finite.iter().map(|o| o.loss).collect();
            let mut surrogate = RandomForestSurrogate::new();
            surrogate.fit(&xs, &ys, &mut self.rng);
            // Weight: pairwise ranking agreement with the reference set.
            let predicted: Vec<f64> =
                reference.iter().map(|(x, _)| surrogate.predict(x).0).collect();
            let mut agree = 0usize;
            let mut total = 0usize;
            for i in 0..reference.len() {
                for j in i + 1..reference.len() {
                    let true_order = reference[i].1 < reference[j].1;
                    let pred_order = predicted[i] < predicted[j];
                    total += 1;
                    if true_order == pred_order {
                        agree += 1;
                    }
                }
            }
            let weight = if total == 0 {
                0.5
            } else {
                (agree as f64 / total as f64).max(0.05)
            };
            members.push((surrogate, weight));
        }
        if members.is_empty() {
            None
        } else {
            let total: f64 = members.iter().map(|(_, w)| w).sum();
            for (_, w) in &mut members {
                *w /= total;
            }
            Some(members)
        }
    }

    /// Proposes bracket seeds via the ensemble (falls back to random).
    fn propose(&mut self, n: usize) -> Vec<Configuration> {
        let best = self.history.best_loss().unwrap_or(1.0);
        match self.ensemble() {
            None => (0..n).map(|_| self.space.sample(&mut self.rng)).collect(),
            Some(ensemble) => {
                let mut scored: Vec<(f64, Configuration)> = (0..MFES_CANDIDATES.max(n))
                    .map(|_| {
                        let cfg = self.space.sample(&mut self.rng);
                        let enc = self.space.encode(&cfg);
                        let (mut mean, mut var) = (0.0, 0.0);
                        for (s, w) in &ensemble {
                            let (m, v) = s.predict(&enc);
                            mean += w * m;
                            var += w * v;
                        }
                        (expected_improvement(mean, var, best), cfg)
                    })
                    .collect();
                scored.sort_by(|a, b| b.0.total_cmp(&a.0));
                scored.into_iter().take(n).map(|(_, c)| c).collect()
            }
        }
    }
}

impl Suggest for BracketEngine {
    /// Fills all `k` slots from the bracket set, opening the next bracket
    /// early when the active ones cannot supply more work — never a random
    /// full-fidelity draw.
    fn suggest_batch(&mut self, k: usize) -> Vec<Suggestion> {
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            match self.brackets.iter_mut().find_map(Bracket::next) {
                Some(pick) => out.push(pick),
                None => self.open_bracket(),
            }
        }
        out
    }

    /// Files the result with the bracket that issued it (a foreign
    /// observation lands in history only) and drops finished brackets.
    fn observe(&mut self, config: Configuration, fidelity: f64, loss: f64, cost: f64) {
        self.brackets
            .iter_mut()
            .any(|b| b.record(&config, fidelity, loss, cost));
        self.brackets.retain(|b| !b.done());
        self.history.push(Observation {
            config,
            loss,
            cost,
            fidelity,
        });
    }

    fn capture_scheduler_state(&self, path: &str, out: &mut Vec<String>) {
        if let Shape::Cycling { s, s_max } = self.shape {
            out.push(format!("{path} hyperband.s={s} s_max={s_max}"));
        }
        if self.cost_aware {
            for (bits, (sum, n)) in fidelity_costs(&self.history) {
                out.push(format!(
                    "{path} fid_cost fidelity={bits:016x} total={:016x} n={n}",
                    sum.to_bits()
                ));
            }
        }
        // Active brackets in opening order plus the id counter, so two
        // engines dump identically iff their occupancy is identical.
        out.push(format!("{path} next_bracket_id={}", self.next_bracket_id));
        for bracket in &self.brackets {
            bracket.capture_state(path, out);
        }
    }

    fn history(&self) -> &RunHistory {
        &self.history
    }

    fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// Grows the space: history *and* bracket occupancy (queues, in-flight
    /// entries, rung results) remap into the new space so promotion
    /// bookkeeping — which matches configurations by equality — survives
    /// the expansion. Fresh brackets sample from the grown space, and the
    /// ensemble re-encodes the remapped history on every fit.
    fn grow_space(&mut self, new_space: ConfigSpace) {
        self.history = crate::optimizer::remap_history(&self.space, &new_space, &self.history);
        for bracket in &mut self.brackets {
            bracket.remap_space(&self.space, &new_space);
        }
        self.space = new_space;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Condition, Domain};
    use rand::RngExt;

    fn space_1d() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        s.add("x", Domain::Float { lo: 0.0, hi: 1.0, log: false }, 0.5)
            .unwrap();
        s
    }

    /// Quadratic objective with fidelity-dependent noise: low fidelity is a
    /// biased but correlated estimate (the realistic multi-fidelity regime).
    fn objective(c: &Configuration, fidelity: f64) -> f64 {
        let x = c.get(0).unwrap_or(0.5);
        let true_loss = (x - 0.7).powi(2);
        true_loss + (1.0 - fidelity) * 0.05 * ((x * 37.0).sin())
    }

    fn drive<S: Suggest>(opt: &mut S, n: usize) {
        for _ in 0..n {
            let (cfg, f, _) = opt.suggest();
            let loss = objective(&cfg, f);
            opt.observe(cfg, f, loss, f);
        }
    }

    /// Drives an optimizer through the batch interface: suggest `k` at a
    /// time, then observe all of them (the pooled execution pattern).
    fn drive_batched<S: Suggest>(opt: &mut S, rounds: usize, k: usize) {
        for _ in 0..rounds {
            let batch = opt.suggest_batch(k);
            assert_eq!(batch.len(), k, "suggest_batch must fill every slot");
            for (cfg, f, _) in batch {
                let loss = objective(&cfg, f);
                opt.observe(cfg, f, loss, f);
            }
        }
    }

    /// Golden digest of the per-fidelity surrogate ensemble, recorded on the
    /// commit before the surrogate's reusable tree builder: a conditional
    /// space driven for 120 trials, then every member's mean/variance at
    /// fixed points, its weight, and one draw from the engine's RNG.
    #[test]
    fn golden_mfes_hb_ensemble() {
        let mut space = ConfigSpace::new();
        let arm = space.add("arm", Domain::Cat { n: 3 }, 0.0).unwrap();
        for (k, name) in ["a", "b", "c"].iter().enumerate() {
            let cond = Some(Condition {
                parent: arm,
                values: vec![k],
            });
            let float = Domain::Float {
                lo: 0.0,
                hi: 1.0,
                log: false,
            };
            let int = Domain::Int {
                lo: 1,
                hi: 8,
                log: false,
            };
            space
                .add_conditional(format!("{name}.x"), float, 0.5, cond.clone())
                .unwrap();
            space
                .add_conditional(format!("{name}.k"), int, 4.0, cond)
                .unwrap();
        }
        space
            .add(
                "shared",
                Domain::Float {
                    lo: 1e-3,
                    hi: 1.0,
                    log: true,
                },
                0.1,
            )
            .unwrap();
        let mut engine = BracketEngine::mfes_hb(space.clone(), 1.0 / 9.0, 3, 41);
        for _ in 0..120 {
            let (cfg, f, _) = engine.suggest();
            let enc = space.encode(&cfg);
            let loss = enc[0] * 0.3
                + enc[1..7]
                    .iter()
                    .filter(|&&v| v >= 0.0)
                    .map(|v| (v - 0.4).powi(2))
                    .sum::<f64>()
                + (1.0 - f) * 0.05 * (enc[7] * 29.0).sin();
            engine.observe(cfg, f, loss, f);
        }
        let members = engine
            .ensemble()
            .expect("enough observations for an ensemble");
        let mut rng = crate::rng::from_seed(42);
        let queries: Vec<Vec<f64>> = (0..24)
            .map(|_| space.encode(&space.sample(&mut rng)))
            .collect();
        let mut values = Vec::new();
        for (surrogate, weight) in &members {
            for q in &queries {
                let (m, v) = surrogate.predict(q);
                values.extend([m, v]);
            }
            values.push(*weight);
        }
        values.push(engine.rng.random());
        let got = crate::surrogate::tests::fnv1a_bits(values);
        assert_eq!(got, 0xac31_ecbe_a82a_f704, "digest {got:#018x}");
    }

    #[test]
    fn rung_ladder_ends_at_one() {
        let l = rung_ladder(1.0 / 9.0, 3);
        assert_eq!(l.len(), 3);
        assert!((l[0] - 1.0 / 9.0).abs() < 1e-12);
        assert_eq!(*l.last().unwrap(), 1.0);
        assert_eq!(rung_ladder(1.0, 3), vec![1.0]);
    }

    /// Regression: `Hyperband::new` sized `s_max` from the raw `eta`, and a
    /// factor of 0 or 1 never climbs to 1.0, so the ladder loop never ended.
    #[test]
    fn degenerate_eta_is_clamped_in_every_constructor() {
        for eta in [0usize, 1] {
            assert_eq!(rung_ladder(0.25, eta), vec![0.25, 0.5, 1.0]);
            for mut engine in [
                BracketEngine::successive_halving(space_1d(), 4, 0.25, eta, 0),
                BracketEngine::hyperband(space_1d(), 0.25, eta, 0),
                BracketEngine::mfes_hb(space_1d(), 0.25, eta, 0),
            ] {
                drive(&mut engine, 30);
                assert!(!engine.history().at_fidelity(1.0).is_empty(), "eta {eta}");
            }
        }
    }

    #[test]
    fn sh_promotes_good_configs_to_full_fidelity() {
        let mut sh = BracketEngine::successive_halving(space_1d(), 9, 1.0 / 9.0, 3, 0);
        drive(&mut sh, 40);
        let best = sh.history().best_loss().expect("has full-fidelity obs");
        assert!(best < 0.1, "best {best}");
        // Fidelity mix: most evaluations cheap, some full.
        let full = sh.history().at_fidelity(1.0).len();
        let cheap = sh.history().at_fidelity(1.0 / 9.0).len();
        assert!(cheap > full, "cheap {cheap} full {full}");
    }

    #[test]
    fn hyperband_cycles_brackets() {
        let mut hb = BracketEngine::hyperband(space_1d(), 1.0 / 9.0, 3, 0);
        drive(&mut hb, 60);
        assert!(hb.history().best_loss().unwrap() < 0.1);
        // All three fidelities appear.
        for f in [1.0 / 9.0, 1.0 / 3.0, 1.0] {
            assert!(
                !hb.history().at_fidelity(f).is_empty(),
                "no observations at fidelity {f}"
            );
        }
    }

    #[test]
    fn mfes_hb_runs_and_improves() {
        let mut mfes = BracketEngine::mfes_hb(space_1d(), 1.0 / 9.0, 3, 0);
        drive(&mut mfes, 80);
        let best = mfes.history().best_loss().unwrap();
        assert!(best < 0.05, "best {best}");
    }

    #[test]
    fn mfes_not_worse_than_hyperband_on_average() {
        // On a 1-d quadratic both converge quickly; assert the ensemble
        // guidance does not hurt (the speedup shows on larger spaces, which
        // the blocks-ablation bench measures).
        let (mut m_sum, mut h_sum) = (0.0, 0.0);
        for seed in 0..5 {
            let mut mfes = BracketEngine::mfes_hb(space_1d(), 1.0 / 9.0, 3, seed);
            drive(&mut mfes, 60);
            m_sum += mfes.history().best_loss().unwrap();
            let mut hb = BracketEngine::hyperband(space_1d(), 1.0 / 9.0, 3, seed);
            drive(&mut hb, 60);
            h_sum += hb.history().best_loss().unwrap();
        }
        assert!(m_sum <= h_sum + 0.05, "mfes {m_sum} vs hb {h_sum}");
    }

    #[test]
    fn suggest_observe_contract_holds() {
        // Every suggested fidelity is in the ladder; bracket bookkeeping
        // never panics over a long run.
        let mut sh = BracketEngine::successive_halving(space_1d(), 5, 0.25, 2, 1);
        for _ in 0..100 {
            let (cfg, f, _) = sh.suggest();
            assert!(f > 0.0 && f <= 1.0);
            sh.observe(cfg, f, 0.5, f);
        }
    }

    /// Regression for the old `Bracket::done()` precedence bug: the
    /// `finished.len() <= 1` clause was unreachable (`a && b || (a && c)`
    /// parses as `(a && b) || (a && c)`), so `done()` reduced to "queue and
    /// in-flight empty at the last rung". The async bracket's predicate is
    /// "no work left anywhere" — verify it flips exactly when the last
    /// observation lands and pending promotions keep it false.
    #[test]
    fn bracket_done_flips_only_when_all_work_is_observed() {
        let mut rng = crate::rng::from_seed(7);
        let space = space_1d();
        let configs: Vec<Configuration> = (0..4).map(|_| space.sample(&mut rng)).collect();
        let mut b = Bracket::new(configs, vec![0.5, 1.0], 0, 2, 0, false);
        assert!(!b.done());
        // Hand out and observe all rung-0 work.
        let mut picks = Vec::new();
        while let Some(p) = b.next() {
            picks.push(p);
        }
        assert_eq!(picks.len(), 4);
        assert!(!b.done(), "in-flight work pending");
        for (i, (cfg, f, _)) in picks.into_iter().enumerate() {
            assert!(b.record(&cfg, f, 0.1 * i as f64, 1.0));
        }
        // 4 finite results at eta=2 → quota 2: promotions still pending, so
        // the bracket must NOT report done (the old bug's failure mode).
        assert!(!b.done(), "pending promotions must keep the bracket open");
        let mut promoted = Vec::new();
        while let Some((cfg, f, _)) = b.next() {
            assert_eq!(f, 1.0);
            promoted.push(cfg);
        }
        assert_eq!(promoted.len(), 2, "top 1/eta of 4 configs climb");
        assert!(!b.done());
        for cfg in promoted {
            assert!(b.record(&cfg, 1.0, 0.05, 1.0));
        }
        assert!(b.done(), "all rungs observed, nothing promotable");
    }

    /// NaN/infinite losses (crashed or timed-out trials) must never climb
    /// the ladder: promotion quotas count only finite results.
    #[test]
    fn non_finite_losses_never_promote() {
        let mut rng = crate::rng::from_seed(3);
        let space = space_1d();
        let configs: Vec<Configuration> = (0..4).map(|_| space.sample(&mut rng)).collect();
        let mut b = Bracket::new(configs, vec![0.25, 1.0], 0, 2, 0, false);
        let mut picks = Vec::new();
        while let Some(p) = b.next() {
            picks.push(p);
        }
        // Two crashes (NaN, +inf) and one finite survivor; one more finite.
        let losses = [f64::NAN, f64::INFINITY, 0.3, 0.1];
        let crashed: Vec<Configuration> = picks[..2].iter().map(|(c, ..)| c.clone()).collect();
        for ((cfg, f, _), loss) in picks.into_iter().zip(losses) {
            assert!(b.record(&cfg, f, loss, 1.0));
        }
        // quota = floor(2 finite / 2) = 1: exactly one promotion, and it is
        // the best finite config — never a crashed one.
        let (promoted, f, _) = b.next().expect("one promotion");
        assert_eq!(f, 1.0);
        assert!(!crashed.contains(&promoted), "crashed config climbed the ladder");
        b.record(&promoted, 1.0, 0.05, 1.0);
        // The remaining finite config promotes once the rung closes
        // (closed-rung quota ≥ 1 applies only to never-promoted rungs, so
        // nothing else climbs here), and the bracket finishes.
        while let Some((cfg, f, _)) = b.next() {
            assert!(!crashed.contains(&cfg));
            b.record(&cfg, f, 0.2, 1.0);
        }
        assert!(b.done());
    }

    /// A bracket whose rung-0 results are ALL non-finite must terminate
    /// without promoting anything to higher fidelity.
    #[test]
    fn all_crashed_bracket_terminates_without_promotions() {
        let mut rng = crate::rng::from_seed(5);
        let space = space_1d();
        let configs: Vec<Configuration> = (0..3).map(|_| space.sample(&mut rng)).collect();
        let mut b = Bracket::new(configs, vec![0.5, 1.0], 0, 2, 0, false);
        let mut picks = Vec::new();
        while let Some(p) = b.next() {
            picks.push(p);
        }
        for (cfg, f, _) in picks {
            assert_eq!(f, 0.5);
            assert!(b.record(&cfg, f, f64::INFINITY, 1.0));
        }
        assert!(b.next().is_none(), "no finite survivor may promote");
        assert!(b.done());
    }

    /// Observations for configurations the bracket never issued (warm
    /// starts, pseudo-observations) must be rejected, not appended to the
    /// rung results where they would distort promotion quotas.
    #[test]
    fn foreign_observations_route_to_history_only() {
        let mut sh = BracketEngine::successive_halving(space_1d(), 4, 0.5, 2, 0);
        // Observe a config the bracket never suggested.
        let mut rng = crate::rng::from_seed(99);
        let foreign = sh.space().sample(&mut rng);
        sh.observe(foreign.clone(), 1.0, 0.01, 1.0);
        // It lands in history…
        assert_eq!(sh.history().len(), 1);
        // …but no bracket claims it, so the schedule is unchanged: the
        // engine still hands out all n0 rung-0 configs first.
        let batch = sh.suggest_batch(4);
        assert!(batch.iter().all(|(_, f, _)| (*f - 0.5).abs() < 1e-12));
        assert!(batch.iter().all(|(c, ..)| *c != foreign));
    }

    /// The tentpole property: for every multi-fidelity engine and batch
    /// size k ∈ {1, 2, 4, 8}, `suggest_batch(k)` fills every slot with a
    /// fidelity from the η-ladder — the random full-fidelity fallback is
    /// gone — and sub-1.0 fidelities actually appear.
    #[test]
    fn suggest_batch_never_falls_back_to_random_full_fidelity() {
        let ladder = rung_ladder(1.0 / 9.0, 3);
        let on_ladder = |f: f64| ladder.iter().any(|&r| (r - f).abs() < 1e-9);
        for k in [1usize, 2, 4, 8] {
            let rounds = 48 / k.max(1);
            let check = |label: &str, fids: Vec<f64>| {
                assert!(
                    fids.iter().all(|&f| on_ladder(f)),
                    "{label} k={k}: off-ladder fidelity in {fids:?}"
                );
                assert!(
                    fids.iter().any(|&f| f < 1.0),
                    "{label} k={k}: no sub-1.0 fidelity exercised"
                );
            };
            let mut sh = BracketEngine::successive_halving(space_1d(), 9, 1.0 / 9.0, 3, 42);
            drive_batched(&mut sh, rounds, k);
            check("sh", sh.history().observations().iter().map(|o| o.fidelity).collect());
            let mut hb = BracketEngine::hyperband(space_1d(), 1.0 / 9.0, 3, 42);
            drive_batched(&mut hb, rounds, k);
            check("hyperband", hb.history().observations().iter().map(|o| o.fidelity).collect());
            let mut mfes = BracketEngine::mfes_hb(space_1d(), 1.0 / 9.0, 3, 42);
            drive_batched(&mut mfes, rounds, k);
            check("mfes-hb", mfes.history().observations().iter().map(|o| o.fidelity).collect());
        }
    }

    /// Batched execution keeps many configurations in flight: one
    /// `suggest_batch(8)` call on a fresh bracket yields 8 *distinct*
    /// configurations (the old single-slot bracket could supply only one).
    #[test]
    fn batch_slots_hold_distinct_in_flight_configs() {
        let mut sh = BracketEngine::successive_halving(space_1d(), 9, 1.0 / 9.0, 3, 1);
        let batch = sh.suggest_batch(8);
        let distinct: std::collections::HashSet<Vec<Option<u64>>> = batch
            .iter()
            .map(|(c, ..)| c.values.iter().map(|v| v.map(f64::to_bits)).collect())
            .collect();
        assert_eq!(distinct.len(), 8, "batch must not repeat configurations");
        assert!(batch.iter().all(|(_, f, _)| (*f - 1.0 / 9.0).abs() < 1e-12));
    }

    /// The bracket schedule is a deterministic function of the seed and the
    /// observed losses — replaying the same pooled run yields an identical
    /// (config, fidelity) sequence.
    #[test]
    fn pooled_schedule_is_deterministic_across_replays() {
        let run = || {
            let mut sh = BracketEngine::successive_halving(space_1d(), 6, 0.25, 2, 11);
            let mut sequence: Vec<(Vec<Option<u64>>, u64)> = Vec::new();
            for _ in 0..10 {
                let batch = sh.suggest_batch(4);
                for (cfg, f, _) in batch {
                    sequence.push((
                        cfg.values.iter().map(|v| v.map(f64::to_bits)).collect(),
                        f.to_bits(),
                    ));
                    let loss = objective(&cfg, f);
                    sh.observe(cfg, f, loss, f);
                }
            }
            sequence
        };
        assert_eq!(run(), run());
    }

    /// Serial and pooled drives of the same seeded engine agree on the
    /// result: same best loss within the low-fidelity noise band, and both
    /// exercise the full rung ladder up to fidelity 1.0.
    #[test]
    fn serial_and_pooled_reach_equivalent_best() {
        for seed in 0..3 {
            let mut serial = BracketEngine::mfes_hb(space_1d(), 1.0 / 9.0, 3, seed);
            drive(&mut serial, 48);
            let mut pooled = BracketEngine::mfes_hb(space_1d(), 1.0 / 9.0, 3, seed);
            drive_batched(&mut pooled, 12, 4);
            let s = serial.history().best_loss().unwrap();
            let p = pooled.history().best_loss().unwrap();
            assert!((s - p).abs() < 0.1, "seed {seed}: serial {s} vs pooled {p}");
            assert!(!pooled.history().at_fidelity(1.0).is_empty());
            assert!(!pooled.history().at_fidelity(1.0 / 9.0).is_empty());
        }
    }

    /// Every suggestion carries its rung (global ladder index) and bracket
    /// id: rung 0 of bracket 0 first, a higher rung — at a higher fidelity —
    /// once a promotion is due, and a Hyperband bracket that starts part-way
    /// up the ladder tags its seeds with that offset.
    #[test]
    fn suggestions_carry_rung_and_bracket() {
        let mut sh = BracketEngine::successive_halving(space_1d(), 4, 1.0 / 9.0, 3, 2);
        let (cfg, f, tag) = sh.suggest();
        assert_eq!(tag, TrialTag { rung: 0, bracket: 0 });
        sh.observe(cfg, f, 0.2, f);
        let mut saw_promotion = false;
        for _ in 0..20 {
            let (cfg, f, tag) = sh.suggest();
            assert_eq!(rung_ladder(1.0 / 9.0, 3)[tag.rung as usize], f);
            saw_promotion |= tag.rung > 0;
            sh.observe(cfg.clone(), f, objective(&cfg, f), f);
        }
        assert!(saw_promotion, "no promotion within 20 serial steps");

        let mut hb = BracketEngine::hyperband(space_1d(), 1.0 / 9.0, 3, 2);
        let mut offset_seeds = 0;
        for _ in 0..40 {
            let (cfg, f, tag) = hb.suggest();
            assert_eq!(rung_ladder(1.0 / 9.0, 3)[tag.rung as usize], f);
            offset_seeds += usize::from(tag.bracket == 1 && tag.rung == 1);
            hb.observe(cfg.clone(), f, objective(&cfg, f), f);
        }
        assert!(offset_seeds > 0, "bracket 1 never issued a rung-1 seed");
    }

    /// Growing the space mid-bracket must keep the promotion bookkeeping
    /// intact: queued, in-flight, and observed configurations remap into
    /// the wider space so observations filed after the grow still match
    /// their in-flight entries and the ladder completes.
    #[test]
    fn grow_space_mid_bracket_keeps_promotions_matching() {
        let grown = || {
            let mut s = ConfigSpace::new();
            s.add("x", Domain::Float { lo: 0.0, hi: 1.0, log: false }, 0.5)
                .unwrap();
            s.add("extra", Domain::Cat { n: 3 }, 0.0).unwrap();
            s
        };
        for engine in 0..3usize {
            let mut opt: Box<dyn Suggest> = match engine {
                0 => Box::new(BracketEngine::successive_halving(space_1d(), 6, 1.0 / 9.0, 3, 8)),
                1 => Box::new(BracketEngine::hyperband(space_1d(), 1.0 / 9.0, 3, 8)),
                _ => Box::new(BracketEngine::mfes_hb(space_1d(), 1.0 / 9.0, 3, 8)),
            };
            // Observe a few trials so the grow lands with rung results and
            // pending promotions live inside the bracket.
            for _ in 0..5 {
                let (cfg, f, _) = opt.suggest();
                let loss = objective(&cfg, f);
                opt.observe(cfg, f, loss, f);
            }
            let n_before = opt.history().len();
            opt.grow_space(grown());
            assert_eq!(opt.space().len(), 2, "engine {engine}");
            assert_eq!(opt.history().len(), n_before);
            for obs in opt.history().observations() {
                opt.space().validate(&obs.config).unwrap_or_else(|e| {
                    panic!("engine {engine}: remapped history invalid: {e:?}")
                });
            }
            // The ladder still promotes to full fidelity after the grow.
            for _ in 0..60 {
                let (cfg, f, _) = opt.suggest();
                opt.space().validate(&cfg).unwrap();
                let loss = objective(&cfg, f);
                opt.observe(cfg, f, loss, f);
            }
            assert!(
                !opt.history().at_fidelity(1.0).is_empty(),
                "engine {engine}: no full-fidelity trial after grow"
            );
            assert!(opt.history().best_loss().is_some());
        }
    }

    /// Cost-aware promotion ranks by loss-improvement per second: a config
    /// within a hair of the best at 1/100th the cost climbs first, while a
    /// cost-blind bracket fed the same results promotes the raw-loss best.
    #[test]
    fn cost_aware_promotion_prefers_improvement_per_second() {
        let mut rng = crate::rng::from_seed(21);
        let space = space_1d();
        let configs: Vec<Configuration> = (0..4).map(|_| space.sample(&mut rng)).collect();
        // (loss, cost): expensive-best, cheap-near-best, cheap-bad, cheap-mid.
        let outcomes = [(0.10, 100.0), (0.12, 1.0), (0.50, 1.0), (0.40, 1.0)];
        let run = |cost_aware: bool| -> Configuration {
            let mut b = Bracket::new(configs.clone(), vec![0.5, 1.0], 0, 2, 0, cost_aware);
            let mut picks = Vec::new();
            while let Some(p) = b.next() {
                picks.push(p);
            }
            // queue.pop() hands configs out in reverse; map results by pick
            // order so every run files identical (config, loss, cost) rows.
            for ((cfg, f, _), (loss, cost)) in picks.into_iter().zip(outcomes) {
                assert!(b.record(&cfg, f, loss, cost));
            }
            let (promoted, f, _) = b.next().expect("a promotion is due");
            assert_eq!(f, 1.0);
            promoted
        };
        let blind_pick = run(false);
        let aware_pick = run(true);
        // Identify which outcome each promoted config corresponds to: the
        // pick order is deterministic, so recompute it.
        let mut b = Bracket::new(configs.clone(), vec![0.5, 1.0], 0, 2, 0, false);
        let mut order = Vec::new();
        while let Some((cfg, ..)) = b.next() {
            order.push(cfg);
        }
        let loss_of = |c: &Configuration| {
            outcomes[order.iter().position(|o| o == c).unwrap()].0
        };
        assert_eq!(loss_of(&blind_pick), 0.10, "cost-blind promotes raw best");
        assert_eq!(
            loss_of(&aware_pick),
            0.12,
            "cost-aware promotes the near-best config that is 100x cheaper"
        );
    }

    /// Cost-aware snapshots pin per-result costs bitwise; cost-blind
    /// snapshots keep the historical format with no cost tokens.
    #[test]
    fn capture_state_includes_cost_only_when_cost_aware() {
        let mut rng = crate::rng::from_seed(23);
        let space = space_1d();
        let configs: Vec<Configuration> = (0..2).map(|_| space.sample(&mut rng)).collect();
        for cost_aware in [false, true] {
            let mut b = Bracket::new(configs.clone(), vec![0.5, 1.0], 0, 2, 7, cost_aware);
            while let Some((cfg, f, _)) = b.next() {
                if !b.record(&cfg, f, 0.3, 2.5) {
                    break;
                }
            }
            let mut lines = Vec::new();
            b.capture_state("p", &mut lines);
            let has_cost = lines.iter().any(|l| l.contains(" cost="));
            assert_eq!(has_cost, cost_aware, "lines: {lines:?}");
        }
    }

    /// The per-fidelity cost table's bracket floor: optimistic (0) while
    /// unmeasured, skips rungs measured to cost nearly as much as full
    /// fidelity, and collapses to full-only when no rung is worth it.
    #[test]
    fn fidelity_cost_floor_tracks_measured_costs() {
        let ladder = vec![1.0 / 9.0, 1.0 / 3.0, 1.0];
        let mut t = RunHistory::new();
        // Unmeasured: trust the ladder.
        assert_eq!(cost_floor(&t, &ladder, 3), 0);
        // Full fidelity measured at 9s; rung 0 measured at 1s → 1 * 3 ≤ 9
        // keeps the floor at 0.
        push_cost(&mut t, 1.0, 9.0);
        push_cost(&mut t, 1.0 / 9.0, 1.0);
        assert_eq!(cost_floor(&t, &ladder, 3), 0);
        // Rung 0 dominated by fixed overhead (8s ≈ full) → floor climbs to
        // the unmeasured middle rung.
        let mut t = RunHistory::new();
        push_cost(&mut t, 1.0, 9.0);
        push_cost(&mut t, 1.0 / 9.0, 8.0);
        assert_eq!(cost_floor(&t, &ladder, 3), 1);
        // Every sub-full rung measured and not worth eta× its cost → only
        // full fidelity pays.
        let mut t = RunHistory::new();
        push_cost(&mut t, 1.0, 9.0);
        push_cost(&mut t, 1.0 / 9.0, 8.0);
        push_cost(&mut t, 1.0 / 3.0, 8.5);
        assert_eq!(cost_floor(&t, &ladder, 3), 2);
    }

    /// Files one observation at `fidelity` that cost `cost` seconds.
    fn push_cost(history: &mut RunHistory, fidelity: f64, cost: f64) {
        history.push(Observation {
            config: Configuration {
                values: vec![Some(0.5)],
            },
            loss: 0.5,
            cost,
            fidelity,
        });
    }

    /// Costs that carry no information — zero (a cached replay's journal
    /// row), negative, non-finite (a timed-out trial) — leave the table.
    #[test]
    fn fidelity_costs_skip_uninformative_costs() {
        let mut h = RunHistory::new();
        for cost in [0.0, -1.0, f64::INFINITY, f64::NAN, 2.0, 3.0] {
            push_cost(&mut h, 1.0, cost);
        }
        let table = fidelity_costs(&h);
        assert_eq!(
            table.into_iter().collect::<Vec<_>>(),
            [(1.0f64.to_bits(), (5.0, 2))]
        );
    }

    /// End-to-end: a cost-aware SH engine whose low rungs are measured as
    /// overhead-dominated stops opening brackets at the bottom of the
    /// ladder, while the cost-blind twin keeps paying the overhead.
    #[test]
    fn cost_aware_sh_raises_bracket_floor_under_flat_costs() {
        let cost_of = |_f: f64| 1.0; // every fidelity costs the same second
        let run = |cost_aware: bool| {
            let mut sh = BracketEngine::successive_halving(space_1d(), 4, 1.0 / 9.0, 3, 5)
                .with_cost_aware(cost_aware);
            let mut low_fid = 0usize;
            // First bracket measures the costs; later brackets react.
            for _ in 0..60 {
                let (cfg, f, _) = sh.suggest();
                if f < 1.0 / 3.0 {
                    low_fid += 1;
                }
                let loss = objective(&cfg, f);
                sh.observe(cfg, f, loss, cost_of(f));
            }
            low_fid
        };
        let blind = run(false);
        let aware = run(true);
        assert!(
            aware < blind,
            "cost-aware drew {aware} bottom-rung trials, cost-blind {blind}"
        );
    }

    /// Golden digests of cost-aware Successive Halving and MFES-HB schedules
    /// (60 trials, batches of 1 and 3) under a cost with a fixed per-trial
    /// overhead, so both promotion-by-rate and the bracket floor engage.
    /// Recorded while cost-awareness was still switched on by a setter after
    /// construction: an engine built cost-aware must schedule identically.
    #[test]
    fn golden_cost_aware_bracket_schedules() {
        let loss_and_cost = |_: &ConfigSpace, c: &Configuration, f: f64| {
            let x = c.get(0).unwrap_or(0.5);
            (objective(c, f), 1.0 + f * (1.0 + 4.0 * x))
        };
        let build = |name: &str| match name {
            "sh" => BracketEngine::successive_halving(space_1d(), 9, 1.0 / 9.0, 3, 13),
            _ => BracketEngine::mfes_hb(space_1d(), 1.0 / 9.0, 3, 13),
        };
        for (name, k, want) in [
            ("sh", 1, 0x01c0_573d_bae6_76dcu64),
            ("sh", 3, 0x411d_d349_7aef_cd4f),
            ("mfes-hb", 1, 0x45c0_d41b_bd3e_0115),
            ("mfes-hb", 3, 0xb614_5a6b_2b70_516a),
        ] {
            let mut engine = build(name).with_cost_aware(true);
            let got = crate::optimizer::tests::schedule_digest(&mut engine, 60, k, loss_and_cost);
            assert_eq!(got, want, "{name} k={k} digest {got:#018x}");
        }
    }
}
