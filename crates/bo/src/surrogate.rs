//! Probabilistic random-forest surrogate over encoded configurations.
//!
//! A compact regression forest specialized for SMAC-style use: inputs are the
//! unit-cube encodings produced by [`crate::ConfigSpace::encode`] (with `-1`
//! sentinels for inactive conditional parameters), predictions expose
//! mean *and* variance across trees. Split search is histogram-based: the
//! encodings are quantized once per `fit` into at most
//! [`SURROGATE_MAX_BINS`] roughly equal-frequency bins per dimension, and
//! each node draws a handful of random candidate features whose bin
//! boundaries are scanned for the lowest-MSE split. Randomized feature
//! tries keep the trees decorrelated (well-calibrated ensemble variance)
//! while the bin scan finds locally exact thresholds fast.
//!
//! The scan skips work that cannot change the chosen split, so a fit is bit
//! for bit what a scan of every bin of every drawn dimension would give:
//!
//! - Only occupied bins are scored, in ascending order. An empty bin repeats
//!   the previous prefix `(sum, sum of squares, count)`, so its score ties the
//!   bin before it and the strict `<` keeps the earlier one; an empty leading
//!   prefix has count 0, below the minimum leaf size. Adding an empty bin's
//!   `+0.0` would not change a sum either, since no sum here is `-0.0`.
//! - A dimension whose rows all fall in one bin cannot split the node, nor
//!   any node below it, so it is skipped in the whole subtree; a dimension
//!   drawn twice at one node would only tie its first scan.
//! - Skipped dimensions are still drawn. The RNG stream, and so every later
//!   draw and every tree, is the same as if they had been scanned.
//! - A node's rows are partitioned in place and stably, so each child sums
//!   its rows in the order the parent saw them.

use rand::rngs::StdRng;
use rand::RngExt;

/// Bins per encoded dimension; encodings live in the unit cube (plus `-1`
/// sentinels), so a modest resolution loses nothing.
const SURROGATE_MAX_BINS: usize = 64;

/// Quantized view of the fitted configurations (column-major codes).
struct BinnedConfigs {
    n: usize,
    d: usize,
    /// `codes[f * n + i]` is row `i`'s bin for dimension `f`.
    codes: Vec<u8>,
    /// `cuts[f][b]` is the raw threshold between bins `b` and `b + 1`.
    cuts: Vec<Vec<f64>>,
}

impl BinnedConfigs {
    fn from_rows(xs: &[Vec<f64>]) -> BinnedConfigs {
        let n = xs.len();
        let d = xs[0].len();
        let mut codes = vec![0u8; n * d];
        let mut cuts = Vec::with_capacity(d);
        let mut sorted: Vec<f64> = Vec::with_capacity(n);
        for f in 0..d {
            sorted.clear();
            sorted.extend(xs.iter().map(|x| x[f]));
            sorted.sort_by(f64::total_cmp);
            let mut distinct: Vec<(f64, usize)> = Vec::new();
            for &v in sorted.iter() {
                match distinct.last_mut() {
                    Some((last, count)) if v - *last < 1e-12 => *count += 1,
                    _ => distinct.push((v, 1)),
                }
            }
            let feature_cuts: Vec<f64> = if distinct.len() <= SURROGATE_MAX_BINS {
                distinct.windows(2).map(|w| (w[0].0 + w[1].0) / 2.0).collect()
            } else {
                let target = n.div_ceil(SURROGATE_MAX_BINS);
                let mut c = Vec::new();
                let mut in_bin = 0usize;
                for (j, &(v, count)) in distinct.iter().enumerate() {
                    in_bin += count;
                    if in_bin >= target
                        && j + 1 < distinct.len()
                        && c.len() + 2 <= SURROGATE_MAX_BINS
                    {
                        c.push((v + distinct[j + 1].0) / 2.0);
                        in_bin = 0;
                    }
                }
                c
            };
            let col = &mut codes[f * n..(f + 1) * n];
            for (i, code) in col.iter_mut().enumerate() {
                *code = feature_cuts.partition_point(|&c| xs[i][f] > c) as u8;
            }
            cuts.push(feature_cuts);
        }
        BinnedConfigs { n, d, codes, cuts }
    }

    fn column(&self, f: usize) -> &[u8] {
        &self.codes[f * self.n..(f + 1) * self.n]
    }

    fn n_bins(&self, f: usize) -> usize {
        self.cuts[f].len() + 1
    }
}

/// One fitted surrogate tree (flattened node array).
#[derive(Debug, Clone)]
struct SurrogateTree {
    // (feature, threshold, left, right); feature == usize::MAX marks a leaf
    // whose prediction is stored in threshold.
    nodes: Vec<(usize, f64, usize, usize)>,
}

impl SurrogateTree {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            let (feature, threshold, left, right) = self.nodes[i];
            if feature == usize::MAX {
                return threshold;
            }
            i = if x[feature] <= threshold { left } else { right };
        }
    }
}

/// Surrogate-fit work tallied on the thread that fits: how often a forest
/// was fitted and on how many rows in total. Thread-local, taken and reset
/// by the caller around the work it wants to attribute (a study's suggest
/// path runs on its coordinator thread).
pub mod stats {
    use std::cell::Cell;

    /// Counts of surrogate-fit work.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Tally {
        /// Forests fitted ([`super::RandomForestSurrogate::fit`] calls on a
        /// non-empty history).
        pub fits: u64,
        /// Sum of the rows (observations) over those fits.
        pub rows: u64,
    }

    impl Tally {
        /// Adds `other` to `self`, counter by counter.
        pub fn add(&mut self, other: &Tally) {
            self.fits += other.fits;
            self.rows += other.rows;
        }
    }

    thread_local! {
        static TALLY: Cell<Tally> = Cell::new(Tally::default());
    }

    /// Counts one fit on `rows` rows on this thread.
    pub(crate) fn bump(rows: usize) {
        TALLY.with(|cell| {
            let mut tally = cell.get();
            tally.fits += 1;
            tally.rows += rows as u64;
            cell.set(tally);
        });
    }

    /// This thread's tally since the last call; resets it to zero.
    pub fn take() -> Tally {
        TALLY.take()
    }
}

/// Random-forest regression surrogate with predictive variance.
#[derive(Debug, Clone)]
pub struct RandomForestSurrogate {
    /// Number of trees.
    pub n_trees: usize,
    /// Minimum leaf size.
    pub min_leaf: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    trees: Vec<SurrogateTree>,
}

impl RandomForestSurrogate {
    /// Creates an unfitted surrogate with SMAC-ish defaults.
    pub fn new() -> Self {
        RandomForestSurrogate {
            n_trees: 24,
            min_leaf: 2,
            max_depth: 18,
            trees: Vec::new(),
        }
    }

    /// True once `fit` has run on at least one point.
    pub fn is_fitted(&self) -> bool {
        !self.trees.is_empty()
    }

    /// Fits the forest on encoded configurations `xs` and losses `ys`.
    pub fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64], rng: &mut StdRng) {
        self.trees.clear();
        if xs.is_empty() || xs.len() != ys.len() {
            return;
        }
        let n = xs.len();
        stats::bump(n);
        let binned = BinnedConfigs::from_rows(xs);
        let mut builder = TreeBuilder::new(&binned, ys, self.max_depth, self.min_leaf);
        let mut idx = Vec::with_capacity(n);
        for _ in 0..self.n_trees {
            // Bootstrap sample.
            idx.clear();
            idx.extend((0..n).map(|_| rng.random_range(0..n)));
            let nodes = builder.tree(&mut idx, rng);
            self.trees.push(SurrogateTree { nodes });
        }
    }

    /// Predictive mean and variance at one encoded point.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        if self.trees.is_empty() {
            return (0.5, 1.0); // uninformed prior
        }
        let preds: Vec<f64> = self.trees.iter().map(|t| t.predict(x)).collect();
        let mean = preds.iter().sum::<f64>() / preds.len() as f64;
        let var = preds
            .iter()
            .map(|p| (p - mean) * (p - mean))
            .sum::<f64>()
            / preds.len() as f64;
        (mean, var)
    }
}

impl Default for RandomForestSurrogate {
    fn default() -> Self {
        RandomForestSurrogate::new()
    }
}

/// Grows the trees of one `fit`. The scratch space a node needs is
/// allocated once here and reused by every node of every tree.
struct TreeBuilder<'a> {
    xs: &'a BinnedConfigs,
    /// `(y, y * y)` per row, squared once per fit: the same product as a
    /// per-scan `y * y`, so the same bits.
    moments: Vec<(f64, f64)>,
    max_depth: usize,
    min_leaf: usize,
    /// `(sum, sum of squares, count)` per bin; all zero between scans.
    hist: [(f64, f64, usize); SURROGATE_MAX_BINS],
    /// The right-hand rows while a node's index range is partitioned.
    scratch: Vec<usize>,
    /// `constant[f]`: every row of the current node shares one bin of `f`.
    constant: Vec<bool>,
    /// Dimensions marked constant below the root, in marking order; a node
    /// unmarks its own marks when its subtree is done.
    marked: Vec<usize>,
    /// `scanned[f] == stamp` once `f` has been scanned at the current node.
    scanned: Vec<usize>,
    stamp: usize,
    nodes: Vec<(usize, f64, usize, usize)>,
}

// A scan records its occupied bins as the set bits of one `u64`.
const _: () = assert!(SURROGATE_MAX_BINS <= 64);

impl<'a> TreeBuilder<'a> {
    fn new(xs: &'a BinnedConfigs, ys: &[f64], max_depth: usize, min_leaf: usize) -> Self {
        TreeBuilder {
            xs,
            moments: ys.iter().map(|&y| (y, y * y)).collect(),
            max_depth,
            // An empty side can never win a split; the empty-bin argument in
            // the module doc needs `lc = 0` to fail this check.
            min_leaf: min_leaf.max(1),
            hist: [(0.0, 0.0, 0); SURROGATE_MAX_BINS],
            scratch: Vec::with_capacity(xs.n),
            constant: (0..xs.d).map(|f| xs.n_bins(f) < 2).collect(),
            marked: Vec::new(),
            scanned: vec![0; xs.d],
            stamp: 0,
            nodes: Vec::new(),
        }
    }

    /// Grows one tree on the bootstrap rows `idx` (reordered in place).
    fn tree(&mut self, idx: &mut [usize], rng: &mut StdRng) -> Vec<(usize, f64, usize, usize)> {
        self.grow(idx, 0, rng);
        std::mem::take(&mut self.nodes)
    }

    /// Grows the subtree over `idx` and returns its root's node index.
    fn grow(&mut self, idx: &mut [usize], depth: usize, rng: &mut StdRng) -> usize {
        let n = idx.len();
        let mean = idx.iter().map(|&i| self.moments[i].0).sum::<f64>() / n.max(1) as f64;
        let me = self.nodes.len();
        self.nodes.push((usize::MAX, mean, 0, 0));
        if depth >= self.max_depth || n < 2 * self.min_leaf {
            return me;
        }
        let var = idx
            .iter()
            .map(|&i| (self.moments[i].0 - mean) * (self.moments[i].0 - mean))
            .sum::<f64>()
            / n as f64;
        if var < 1e-14 {
            return me;
        }
        let marks = self.marked.len();
        if let Some((f, bin)) = self.best_split(idx, rng) {
            let n_left = self.partition(idx, f, bin);
            let (left_idx, right_idx) = idx.split_at_mut(n_left);
            let left = self.grow(left_idx, depth + 1, rng);
            let right = self.grow(right_idx, depth + 1, rng);
            self.nodes[me] = (f, self.xs.cuts[f][bin], left, right);
        }
        for f in self.marked.drain(marks..) {
            self.constant[f] = false;
        }
        me
    }

    /// Draws the node's candidate dimensions and scans the occupied bins of
    /// each for the lowest weighted child MSE: `(dimension, last left bin)`.
    /// Every draw is made, scanned or not, so the RNG stream does not depend
    /// on what is skipped.
    fn best_split(&mut self, idx: &[usize], rng: &mut StdRng) -> Option<(usize, usize)> {
        let xs = self.xs;
        let n = idx.len();
        let (mut ts, mut tq) = (0.0, 0.0);
        for &i in idx {
            ts += self.moments[i].0;
            tq += self.moments[i].1;
        }
        self.stamp += 1;
        let mut best: Option<(usize, usize, f64)> = None;
        for _ in 0..xs.d.clamp(4, 24) {
            let f = rng.random_range(0..xs.d);
            if self.constant[f] || self.scanned[f] == self.stamp {
                continue;
            }
            self.scanned[f] = self.stamp;
            let col = xs.column(f);
            let mut occupied = 0u64;
            for &i in idx {
                // Codes are below SURROGATE_MAX_BINS; the `%` only lets the
                // compiler drop the bounds check.
                let code = usize::from(col[i]) % SURROGATE_MAX_BINS;
                let (y, yy) = self.moments[i];
                let b = &mut self.hist[code];
                b.0 += y;
                b.1 += yy;
                b.2 += 1;
                occupied |= 1 << code;
            }
            if occupied.is_power_of_two() {
                // One bin here, so one bin in every subset of these rows.
                self.constant[f] = true;
                self.marked.push(f);
            } else {
                let below_last = occupied & ((1u64 << (xs.n_bins(f) - 1)) - 1);
                let (mut ls, mut lq, mut lc) = (0.0, 0.0, 0usize);
                for b in set_bits(below_last) {
                    let (s, q, c) = self.hist[b];
                    ls += s;
                    lq += q;
                    lc += c;
                    let rc = n - lc;
                    if lc < self.min_leaf || rc < self.min_leaf {
                        continue;
                    }
                    let lvar = lq / lc as f64 - (ls / lc as f64).powi(2);
                    let rvar = (tq - lq) / rc as f64 - ((ts - ls) / rc as f64).powi(2);
                    let score = (lc as f64 * lvar + rc as f64 * rvar) / n as f64;
                    if best.is_none_or(|(_, _, bs)| score < bs) {
                        best = Some((f, b, score));
                    }
                }
            }
            for b in set_bits(occupied) {
                self.hist[b] = (0.0, 0.0, 0);
            }
        }
        best.map(|(f, bin, _)| (f, bin))
    }

    /// Moves the rows with `code <= bin` in dimension `f` to the front of
    /// `idx`, keeping the order of both sides, and returns how many there
    /// are. Each child then sums its rows in the order the parent saw them.
    fn partition(&mut self, idx: &mut [usize], f: usize, bin: usize) -> usize {
        let col = self.xs.column(f);
        self.scratch.clear();
        let mut n_left = 0;
        for k in 0..idx.len() {
            let i = idx[k];
            if usize::from(col[i]) <= bin {
                idx[n_left] = i;
                n_left += 1;
            } else {
                self.scratch.push(i);
            }
        }
        idx[n_left..].copy_from_slice(&self.scratch);
        n_left
    }
}

/// Positions of the set bits of `mask`, ascending.
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            b
        })
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rng::from_seed;

    fn quadratic_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = from_seed(seed);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.random::<f64>(), rng.random::<f64>()])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x[0] - 0.3).powi(2) + 0.5 * (x[1] - 0.7).powi(2))
            .collect();
        (xs, ys)
    }

    #[test]
    fn fits_smooth_function() {
        let (xs, ys) = quadratic_data(300, 0);
        let mut s = RandomForestSurrogate::new();
        let mut rng = from_seed(1);
        s.fit(&xs, &ys, &mut rng);
        // Predict near the optimum and far from it.
        let (near, _) = s.predict(&[0.3, 0.7]);
        let (far, _) = s.predict(&[1.0, 0.0]);
        assert!(near < far, "near {near} far {far}");
    }

    #[test]
    fn unfitted_returns_prior() {
        let s = RandomForestSurrogate::new();
        let (m, v) = s.predict(&[0.0]);
        assert_eq!((m, v), (0.5, 1.0));
    }

    #[test]
    fn variance_nonnegative_and_varies() {
        let (xs, ys) = quadratic_data(100, 2);
        let mut s = RandomForestSurrogate::new();
        let mut rng = from_seed(3);
        s.fit(&xs, &ys, &mut rng);
        let mut vars = Vec::new();
        for x in &xs {
            let (_, v) = s.predict(x);
            assert!(v >= 0.0);
            vars.push(v);
        }
        assert!(vars.iter().any(|&v| v > 0.0));
    }

    #[test]
    fn handles_sentinel_encoding() {
        // Points where the second slot is -1 (inactive) vs active.
        let xs = vec![
            vec![0.1, -1.0],
            vec![0.9, -1.0],
            vec![0.1, 0.5],
            vec![0.9, 0.5],
        ];
        let ys = vec![0.0, 0.0, 1.0, 1.0];
        let mut s = RandomForestSurrogate::new();
        let mut rng = from_seed(4);
        s.fit(&xs, &ys, &mut rng);
        let (inactive, _) = s.predict(&[0.5, -1.0]);
        let (active, _) = s.predict(&[0.5, 0.5]);
        assert!(inactive < active, "{inactive} vs {active}");
    }

    #[test]
    fn single_point_fit_is_safe() {
        let mut s = RandomForestSurrogate::new();
        let mut rng = from_seed(5);
        s.fit(&[vec![0.5]], &[0.3], &mut rng);
        let (m, _) = s.predict(&[0.5]);
        assert!((m - 0.3).abs() < 1e-9);
    }

    #[test]
    fn mismatched_input_is_noop() {
        let mut s = RandomForestSurrogate::new();
        let mut rng = from_seed(6);
        s.fit(&[vec![0.5]], &[0.3, 0.4], &mut rng);
        assert!(!s.is_fitted());
    }

    /// FNV-1a over the little-endian bit patterns of `values`.
    pub(crate) fn fnv1a_bits(values: impl IntoIterator<Item = f64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Digest of a fit: mean and variance bits at every query point, then
    /// one draw from the RNG the fit consumed (pins the draw count too).
    fn fit_digest(xs: &[Vec<f64>], ys: &[f64], queries: &[Vec<f64>], seed: u64) -> u64 {
        let mut s = RandomForestSurrogate::new();
        let mut rng = from_seed(seed);
        s.fit(xs, ys, &mut rng);
        let after: f64 = rng.random();
        fnv1a_bits(
            queries
                .iter()
                .flat_map(|q| {
                    let (m, v) = s.predict(q);
                    [m, v]
                })
                .chain([after]),
        )
    }

    fn assert_golden(got: u64, want: u64) {
        assert_eq!(got, want, "digest {got:#018x}, golden {want:#018x}");
    }

    /// A history shaped like a joint CASH search: `d = 30` encoded
    /// dimensions — an algorithm choice over six arms, five shared
    /// preprocessing dimensions (two of them conditional on a third), and
    /// four hyper-parameters per arm that hold the `-1` sentinel whenever
    /// another arm is chosen. About one row in eight repeats an earlier row,
    /// as a search that revisits a configuration does.
    fn conditional_history(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        const ARMS: usize = 6;
        let mut rng = from_seed(seed);
        let mut xs: Vec<Vec<f64>> = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            if !xs.is_empty() && rng.random_range(0..8usize) == 0 {
                let j = rng.random_range(0..xs.len());
                xs.push(xs[j].clone());
                ys.push(ys[j]);
                continue;
            }
            let arm = rng.random_range(0..ARMS);
            let mut x = vec![-1.0; 30];
            x[0] = arm as f64 / (ARMS - 1) as f64;
            let scaler = rng.random_range(0..3usize);
            x[1] = scaler as f64 / 2.0;
            x[2] = f64::from(u8::from(rng.random::<bool>()));
            x[3] = rng.random::<f64>();
            if scaler == 2 {
                x[4] = rng.random::<f64>();
                x[5] = rng.random_range(0..8usize) as f64 / 7.0;
            }
            let block = 6 + 4 * arm;
            x[block] = rng.random::<f64>();
            x[block + 1] = rng.random::<f64>().powi(3);
            x[block + 2] = rng.random_range(0..8usize) as f64 / 7.0;
            x[block + 3] = rng.random_range(0..3usize) as f64 / 2.0;
            let loss = 0.1 * arm as f64
                + (x[block] - 0.3).powi(2)
                + 0.2 * x[block + 2]
                + 0.05 * x[3]
                + 0.02 * rng.random::<f64>();
            xs.push(x);
            ys.push(loss);
        }
        (xs, ys)
    }

    /// Query points for a conditional history: its first rows plus fresh
    /// rows from another seed.
    fn conditional_queries(xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let (fresh, _) = conditional_history(32, 99);
        xs.iter().take(32).cloned().chain(fresh).collect()
    }

    fn uniform_rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = from_seed(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.random::<f64>()).collect())
            .collect()
    }

    // Golden digests recorded on the commit before the reusable tree builder
    // (occupied-bin scans, skipped constant and repeated dimensions, in-place
    // partitions); the builder must reproduce every bit.
    #[test]
    fn golden_single_point() {
        let xs = vec![vec![0.5, -1.0]];
        let queries = vec![vec![0.5, -1.0], vec![0.0, 0.3], vec![1.0, 1.0]];
        assert_golden(fit_digest(&xs, &[0.3], &queries, 11), 0x2f8e_564e_5ccb_7253);
    }

    #[test]
    fn golden_all_equal_losses() {
        let xs = uniform_rows(30, 3, 12);
        let ys = vec![0.25; 30];
        let queries = uniform_rows(16, 3, 13);
        assert_golden(fit_digest(&xs, &ys, &queries, 14), 0x37e7_bcc4_1121_87d4);
    }

    #[test]
    fn golden_all_sentinel_column() {
        let mut xs = uniform_rows(60, 3, 15);
        for x in &mut xs {
            x[1] = -1.0;
        }
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x[0] - 0.4).powi(2) + 0.3 * x[2])
            .collect();
        let queries = uniform_rows(16, 3, 16);
        assert_golden(fit_digest(&xs, &ys, &queries, 17), 0xa34c_7ff0_686b_6cf0);
    }

    #[test]
    fn golden_exactly_max_bins_distinct_values() {
        // Column 0 holds exactly 64 distinct values: 64 bins, the widest
        // occupancy mask.
        let mut xs = uniform_rows(192, 2, 18);
        for (i, x) in xs.iter_mut().enumerate() {
            x[0] = ((i * 37) % SURROGATE_MAX_BINS) as f64 / 63.0;
        }
        let binned = BinnedConfigs::from_rows(&xs);
        assert_eq!(binned.n_bins(0), SURROGATE_MAX_BINS);
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x[0] - 0.6).powi(2) + 0.1 * x[1])
            .collect();
        let queries = uniform_rows(24, 2, 19);
        assert_golden(fit_digest(&xs, &ys, &queries, 20), 0x0e92_c091_42a2_5435);
    }

    /// 400 distinct values per column: the quantile cuts, not one bin per
    /// value.
    #[test]
    fn golden_quantile_cut_columns() {
        let xs = uniform_rows(400, 4, 21);
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x[0] - 0.3).powi(2) + 0.5 * (x[1] - 0.7).powi(2) + 0.1 * x[2] * x[3])
            .collect();
        let queries = uniform_rows(24, 4, 22);
        assert_golden(fit_digest(&xs, &ys, &queries, 23), 0x0abf_8f84_2dde_a4d2);
    }

    #[test]
    fn golden_heavy_duplicate_rows() {
        let distinct = uniform_rows(7, 3, 24);
        let mut rng = from_seed(25);
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|_| distinct[rng.random_range(0..distinct.len())].clone())
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| x[0] + 0.1 * rng.random::<f64>())
            .collect();
        let queries: Vec<Vec<f64>> = distinct
            .iter()
            .cloned()
            .chain(uniform_rows(8, 3, 26))
            .collect();
        assert_golden(fit_digest(&xs, &ys, &queries, 27), 0x3736_5cc5_e319_dc8e);
    }

    #[test]
    fn golden_conditional_history_n50() {
        let (xs, ys) = conditional_history(50, 30);
        assert_golden(
            fit_digest(&xs, &ys, &conditional_queries(&xs), 31),
            0xf43e_5b8a_17a4_f438,
        );
    }

    #[test]
    fn golden_conditional_history_n300() {
        let (xs, ys) = conditional_history(300, 32);
        assert_golden(
            fit_digest(&xs, &ys, &conditional_queries(&xs), 33),
            0x2744_124d_5769_d756,
        );
    }

    #[test]
    fn golden_conditional_history_n500() {
        let (xs, ys) = conditional_history(500, 34);
        assert_golden(
            fit_digest(&xs, &ys, &conditional_queries(&xs), 35),
            0xcf34_69c1_85fe_b8c9,
        );
    }

    /// The cost model is the same forest on `ln(cost)` of the rows with a
    /// real cost.
    #[test]
    fn golden_cost_model_refit() {
        let (xs, ys) = conditional_history(200, 36);
        let costs: Vec<f64> = ys
            .iter()
            .enumerate()
            .map(|(i, &y)| match i % 9 {
                0 => 0.0,
                4 => f64::INFINITY,
                _ => 0.01 + y * y,
            })
            .collect();
        let mut model = crate::cost::CostModel::new();
        let mut rng = from_seed(37);
        model.refit(&xs, &costs, &mut rng);
        let after: f64 = rng.random();
        let got = fnv1a_bits(
            conditional_queries(&xs)
                .iter()
                .map(|q| model.predict_cost(q))
                .chain([after]),
        );
        assert_golden(got, 0xb913_ac90_1975_0e12);
    }
}
