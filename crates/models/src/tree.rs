//! CART decision trees (classification and regression).
//!
//! A single implementation handles both tasks: leaves store a value vector —
//! a class-probability histogram for classification, a single mean for
//! regression. Splits are exact (sort-based scan) by default; the
//! [`SplitStrategy::Random`] mode draws thresholds uniformly at random
//! (extra-trees style), which the forest module uses for `ExtraTrees`; the
//! [`SplitStrategy::Histogram`] mode scans per-node bin histograms over a
//! [`BinnedMatrix`] (LightGBM-style) instead of re-sorting, with
//! parent-minus-sibling histogram subtraction and index-range node
//! partitioning. Ensembles bin once and call [`Tree::fit_binned`] per tree.

use crate::binned::{BinCode, BinnedMatrix, CodesRef};
use crate::parallel::parallel_map;
use crate::{check_fit_inputs, infer_n_classes, Estimator, ModelError, Result};
use rand::rngs::StdRng;
use rand::RngExt;
use std::cell::RefCell;
use std::ops::Range;
use volcanoml_data::rand_util::{rng_from_seed, sample_without_replacement};
use volcanoml_linalg::Matrix;

/// Impurity criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Gini impurity (classification).
    Gini,
    /// Shannon entropy (classification).
    Entropy,
    /// Sum of squared errors (regression).
    Mse,
}

impl Criterion {
    /// Impurity of a node from its sufficient statistics: the weighted class
    /// histogram and total weight (classification) or the weighted sum and
    /// sum of squares (regression). Shared by the exact and the histogram
    /// builder, which must agree bit for bit.
    #[inline]
    fn impurity(self, hist: &[f64], wsum: f64, sum: f64, sum_sq: f64) -> f64 {
        match self {
            Criterion::Gini => {
                if wsum <= 0.0 {
                    return 0.0;
                }
                let mut g = 1.0;
                for &h in hist {
                    let p = h / wsum;
                    g -= p * p;
                }
                g
            }
            Criterion::Entropy => {
                if wsum <= 0.0 {
                    return 0.0;
                }
                let mut e = 0.0;
                for &h in hist {
                    if h > 0.0 {
                        let p = h / wsum;
                        e -= p * p.log2();
                    }
                }
                e
            }
            Criterion::Mse => {
                if wsum <= 0.0 {
                    0.0
                } else {
                    sum_sq / wsum - (sum / wsum) * (sum / wsum)
                }
            }
        }
    }
}

/// Sample weight of row `i` (1 when the fit is unweighted).
#[inline]
fn row_weight(weights: Option<&[f64]>, i: usize) -> f64 {
    weights.map_or(1.0, |w| w[i])
}

/// How many features to consider per split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaxFeatures {
    /// All features (classic CART).
    All,
    /// ⌈√d⌉ random features (random-forest default for classification).
    Sqrt,
    /// ⌈log₂ d⌉ random features.
    Log2,
    /// A fixed fraction of features (clamped to at least one).
    Fraction(f64),
}

impl MaxFeatures {
    fn resolve(&self, d: usize) -> usize {
        let m = match self {
            MaxFeatures::All => d,
            MaxFeatures::Sqrt => (d as f64).sqrt().ceil() as usize,
            MaxFeatures::Log2 => (d as f64).log2().ceil().max(1.0) as usize,
            MaxFeatures::Fraction(f) => (d as f64 * f).ceil() as usize,
        };
        m.clamp(1, d)
    }
}

/// Threshold-selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStrategy {
    /// Exact best split via sorted scan.
    Best,
    /// One uniformly random threshold per candidate feature (extra-trees).
    Random,
    /// Best split over quantile-binned feature values (histogram scan).
    /// Equivalent to `Best` whenever every feature has at most
    /// [`TreeConfig::max_bins`] distinct values; much faster on large data.
    Histogram,
}

/// Histogram-kernel variant. [`HistKernel::Flat`] is the fast default:
/// node-major contiguous arenas, fused per-row statistics, pooled slabs.
/// [`HistKernel::PerNode`] keeps the PR 2 per-feature-vector kernel as a
/// bitwise-equivalence oracle for tests and as the bench baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HistKernel {
    /// Flat node-major arena, fused accumulation (default).
    #[default]
    Flat,
    /// Legacy per-node `Vec<Vec<f64>>` histograms (test/bench oracle).
    PerNode,
}

/// Tree hyper-parameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Impurity criterion; must match the task.
    pub criterion: Criterion,
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to split an internal node.
    pub min_samples_split: usize,
    /// Minimum samples required in each leaf.
    pub min_samples_leaf: usize,
    /// Features considered per split.
    pub max_features: MaxFeatures,
    /// Threshold strategy.
    pub split_strategy: SplitStrategy,
    /// Bins per feature for [`SplitStrategy::Histogram`] (ignored otherwise).
    pub max_bins: usize,
    /// Worker threads for feature-parallel histogram accumulation inside a
    /// single tree (ignored outside histogram mode). Features are split
    /// into contiguous chunks and the partial arenas merged in feature
    /// order, so fits are bit-identical for any value. Ensembles that
    /// already parallelize across trees should leave this at 1.
    pub hist_n_jobs: usize,
    /// Histogram-kernel variant (leave at the default outside benches).
    pub hist_kernel: HistKernel,
    /// RNG seed (feature subsets / random thresholds).
    pub seed: u64,
}

impl TreeConfig {
    /// Sensible classification defaults.
    pub fn classification() -> Self {
        TreeConfig {
            criterion: Criterion::Gini,
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
            split_strategy: SplitStrategy::Best,
            max_bins: crate::binned::DEFAULT_MAX_BINS,
            hist_n_jobs: 1,
            hist_kernel: HistKernel::Flat,
            seed: 0,
        }
    }

    /// Sensible regression defaults.
    pub fn regression() -> Self {
        TreeConfig {
            criterion: Criterion::Mse,
            ..TreeConfig::classification()
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    /// `usize::MAX` marks a leaf.
    feature: usize,
    threshold: f64,
    left: usize,
    right: usize,
}

/// A fitted CART tree. Usually constructed through
/// [`DecisionTreeClassifier`] / [`DecisionTreeRegressor`], or internally by
/// ensembles.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<Node>,
    /// Node `i`'s value — class histogram (classification) or `[mean]`
    /// (regression) — at `values[i * n_outputs..][..n_outputs]`: one flat
    /// array instead of a heap allocation per node, which halves a forest's
    /// resident size.
    values: Vec<f64>,
    n_outputs: usize,
    n_features: usize,
}

impl Tree {
    /// Fits a tree on `(x, y)` with optional per-sample weights.
    ///
    /// For classification, `n_outputs` is the class count and `y` holds
    /// class indices; for regression pass `n_outputs = 1`.
    pub fn fit(
        x: &Matrix,
        y: &[f64],
        weights: Option<&[f64]>,
        n_outputs: usize,
        config: &TreeConfig,
    ) -> Result<Tree> {
        check_fit_inputs(x, y)?;
        if let Some(w) = weights {
            if w.len() != y.len() {
                return Err(ModelError::Invalid(format!(
                    "{} weights for {} samples",
                    w.len(),
                    y.len()
                )));
            }
        }
        if config.split_strategy == SplitStrategy::Histogram {
            let bm = BinnedMatrix::from_matrix(x, config.max_bins);
            return Tree::fit_binned(&bm, y, weights, n_outputs, config);
        }
        let mut builder = Builder {
            x,
            y,
            weights,
            n_outputs,
            config,
            nodes: Vec::new(),
            values: Vec::new(),
            rng: rng_from_seed(config.seed),
        };
        // Zero-weight rows carry no signal and would distort count-based
        // stopping rules (min_samples_*), so they never enter the root.
        let indices: Vec<usize> = match weights {
            Some(w) => (0..x.rows()).filter(|&i| w[i] > 0.0).collect(),
            None => (0..x.rows()).collect(),
        };
        if indices.is_empty() {
            return Err(ModelError::Invalid("all sample weights are zero".into()));
        }
        builder.build(&indices, 0);
        debug_assert_eq!(builder.values.len(), builder.nodes.len() * n_outputs);
        Ok(Tree {
            nodes: builder.nodes,
            values: builder.values,
            n_outputs,
            n_features: x.cols(),
        })
    }

    /// Fits a tree on an already-binned dataset (histogram splits).
    ///
    /// This is the fast path ensembles use: bin once with
    /// [`BinnedMatrix::from_matrix`], then fit every tree against the shared
    /// binned layout. Thresholds are mapped back to raw feature space, so
    /// the fitted tree predicts on raw rows. The `split_strategy` field of
    /// `config` is ignored (this entry point is always histogram-mode);
    /// `max_features`, seeding, and stopping rules behave exactly as in
    /// [`Tree::fit`].
    pub fn fit_binned(
        bm: &BinnedMatrix,
        y: &[f64],
        weights: Option<&[f64]>,
        n_outputs: usize,
        config: &TreeConfig,
    ) -> Result<Tree> {
        let n = bm.n_rows();
        if n == 0 || bm.n_features() == 0 {
            return Err(ModelError::Invalid("empty binned training set".into()));
        }
        if y.len() != n {
            return Err(ModelError::Invalid(format!(
                "{} rows but {} targets",
                n,
                y.len()
            )));
        }
        if let Some(w) = weights {
            if w.len() != n {
                return Err(ModelError::Invalid(format!(
                    "{} weights for {} samples",
                    w.len(),
                    n
                )));
            }
        }
        let idx: Vec<u32> = match weights {
            Some(w) => (0..n).filter(|&i| w[i] > 0.0).map(|i| i as u32).collect(),
            None => (0..n).map(|i| i as u32).collect(),
        };
        if idx.is_empty() {
            return Err(ModelError::Invalid("all sample weights are zero".into()));
        }
        // Monomorphize the hot kernels on the stored code width.
        match bm.codes() {
            CodesRef::U8(codes) => fit_binned_codes(bm, codes, idx, y, weights, n_outputs, config),
            CodesRef::U16(codes) => fit_binned_codes(bm, codes, idx, y, weights, n_outputs, config),
        }
    }

    /// Returns the leaf value vector for one sample.
    pub fn predict_row(&self, row: &[f64]) -> &[f64] {
        let mut node = 0usize;
        loop {
            let n = &self.nodes[node];
            if n.feature == usize::MAX {
                return &self.values[node * self.n_outputs..][..self.n_outputs];
            }
            node = if row[n.feature] <= n.threshold {
                n.left
            } else {
                n.right
            };
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf values per node (classes or 1).
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// Feature count the tree was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], i: usize) -> usize {
            let n = &nodes[i];
            if n.feature == usize::MAX {
                0
            } else {
                1 + walk(nodes, n.left).max(walk(nodes, n.right))
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }
}

struct Builder<'a> {
    x: &'a Matrix,
    y: &'a [f64],
    weights: Option<&'a [f64]>,
    n_outputs: usize,
    config: &'a TreeConfig,
    nodes: Vec<Node>,
    values: Vec<f64>,
    rng: StdRng,
}

impl Builder<'_> {
    /// Leaf value: normalized class histogram or weighted mean.
    fn leaf_value(&self, indices: &[usize]) -> Vec<f64> {
        if self.config.criterion == Criterion::Mse {
            let mut sum = 0.0;
            let mut wsum = 0.0;
            for &i in indices {
                let w = row_weight(self.weights, i);
                sum += w * self.y[i];
                wsum += w;
            }
            vec![if wsum > 0.0 { sum / wsum } else { 0.0 }]
        } else {
            let mut hist = vec![0.0; self.n_outputs];
            let mut wsum = 0.0;
            for &i in indices {
                let w = row_weight(self.weights, i);
                hist[self.y[i] as usize] += w;
                wsum += w;
            }
            if wsum > 0.0 {
                for h in &mut hist {
                    *h /= wsum;
                }
            }
            hist
        }
    }

    fn is_pure(&self, indices: &[usize]) -> bool {
        let first = self.y[indices[0]];
        indices.iter().all(|&i| (self.y[i] - first).abs() < 1e-12)
    }

    /// Builds the subtree for `indices`, returning the node id.
    fn build(&mut self, indices: &[usize], depth: usize) -> usize {
        let make_leaf = |b: &mut Builder, idx: &[usize]| -> usize {
            let value = b.leaf_value(idx);
            b.values.extend_from_slice(&value);
            b.nodes.push(Node {
                feature: usize::MAX,
                threshold: 0.0,
                left: 0,
                right: 0,
            });
            b.nodes.len() - 1
        };

        if depth >= self.config.max_depth
            || indices.len() < self.config.min_samples_split
            || indices.len() < 2 * self.config.min_samples_leaf
            || self.is_pure(indices)
        {
            return make_leaf(self, indices);
        }

        let d = self.x.cols();
        let n_candidates = self.config.max_features.resolve(d);
        let features: Vec<usize> = if n_candidates == d {
            (0..d).collect()
        } else {
            sample_without_replacement(&mut self.rng, d, n_candidates)
        };

        let best = match self.config.split_strategy {
            // Histogram configs are routed to `fit_binned` before this
            // builder runs; the exact scan is the equivalent fallback.
            SplitStrategy::Best | SplitStrategy::Histogram => self.best_split(indices, &features),
            SplitStrategy::Random => self.random_split(indices, &features),
        };

        let Some((feature, threshold)) = best else {
            return make_leaf(self, indices);
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| self.x.get(i, feature) <= threshold);
        if left_idx.len() < self.config.min_samples_leaf
            || right_idx.len() < self.config.min_samples_leaf
        {
            return make_leaf(self, indices);
        }

        // Reserve this node's slot before recursing so child ids are stable.
        let value = self.leaf_value(indices);
        self.values.extend_from_slice(&value);
        let me = self.nodes.len();
        self.nodes.push(Node {
            feature,
            threshold,
            left: 0,
            right: 0,
        });
        let left = self.build(&left_idx, depth + 1);
        let right = self.build(&right_idx, depth + 1);
        self.nodes[me].left = left;
        self.nodes[me].right = right;
        me
    }

    /// Exact best split across candidate features (sorted scan).
    fn best_split(&mut self, indices: &[usize], features: &[usize]) -> Option<(usize, f64)> {
        let min_leaf = self.config.min_samples_leaf;
        let is_mse = self.config.criterion == Criterion::Mse;
        let k = if is_mse { 0 } else { self.n_outputs };

        // Parent statistics.
        let mut total_hist = vec![0.0; k];
        let (mut total_w, mut total_sum, mut total_sq) = (0.0, 0.0, 0.0);
        for &i in indices {
            let w = row_weight(self.weights, i);
            total_w += w;
            if is_mse {
                total_sum += w * self.y[i];
                total_sq += w * self.y[i] * self.y[i];
            } else {
                total_hist[self.y[i] as usize] += w;
            }
        }
        let parent_impurity = self.config.criterion.impurity(&total_hist, total_w, total_sum, total_sq);
        if parent_impurity <= 1e-12 {
            return None;
        }

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        let mut sorted: Vec<usize> = Vec::with_capacity(indices.len());
        for &f in features {
            sorted.clear();
            sorted.extend_from_slice(indices);
            sorted.sort_by(|&a, &b| self.x.get(a, f).total_cmp(&self.x.get(b, f)));
            let mut left_hist = vec![0.0; k];
            let (mut lw, mut lsum, mut lsq) = (0.0, 0.0, 0.0);
            for pos in 0..sorted.len() - 1 {
                let i = sorted[pos];
                let w = row_weight(self.weights, i);
                lw += w;
                if is_mse {
                    lsum += w * self.y[i];
                    lsq += w * self.y[i] * self.y[i];
                } else {
                    left_hist[self.y[i] as usize] += w;
                }
                let n_left = pos + 1;
                let n_right = sorted.len() - n_left;
                if n_left < min_leaf || n_right < min_leaf {
                    continue;
                }
                let a = self.x.get(i, f);
                let b = self.x.get(sorted[pos + 1], f);
                if b - a < 1e-12 {
                    continue; // no threshold separates identical values
                }
                let rw = total_w - lw;
                let (left_imp, right_imp) = if is_mse {
                    (
                        self.config.criterion.impurity(&[], lw, lsum, lsq),
                        self.config.criterion.impurity(&[], rw, total_sum - lsum, total_sq - lsq),
                    )
                } else {
                    let right_hist: Vec<f64> = total_hist
                        .iter()
                        .zip(left_hist.iter())
                        .map(|(t, l)| t - l)
                        .collect();
                    (
                        self.config.criterion.impurity(&left_hist, lw, 0.0, 0.0),
                        self.config.criterion.impurity(&right_hist, rw, 0.0, 0.0),
                    )
                };
                let weighted = (lw * left_imp + rw * right_imp) / total_w;
                let gain = parent_impurity - weighted;
                if gain > 1e-12 && best.is_none_or(|(_, _, bg)| gain > bg) {
                    best = Some((f, (a + b) / 2.0, gain));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }

    /// Extra-trees split: one random threshold per feature, pick the best.
    fn random_split(&mut self, indices: &[usize], features: &[usize]) -> Option<(usize, f64)> {
        let is_mse = self.config.criterion == Criterion::Mse;
        let k = if is_mse { 0 } else { self.n_outputs };
        let min_leaf = self.config.min_samples_leaf;

        let mut total_hist = vec![0.0; k];
        let (mut total_w, mut total_sum, mut total_sq) = (0.0, 0.0, 0.0);
        for &i in indices {
            let w = row_weight(self.weights, i);
            total_w += w;
            if is_mse {
                total_sum += w * self.y[i];
                total_sq += w * self.y[i] * self.y[i];
            } else {
                total_hist[self.y[i] as usize] += w;
            }
        }
        let parent_impurity = self.config.criterion.impurity(&total_hist, total_w, total_sum, total_sq);
        if parent_impurity <= 1e-12 {
            return None;
        }

        let mut best: Option<(usize, f64, f64)> = None;
        for &f in features {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &i in indices {
                let v = self.x.get(i, f);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi - lo < 1e-12 {
                continue;
            }
            let threshold = lo + self.rng.random::<f64>() * (hi - lo);
            let mut left_hist = vec![0.0; k];
            let (mut lw, mut lsum, mut lsq) = (0.0, 0.0, 0.0);
            let mut n_left = 0usize;
            for &i in indices {
                if self.x.get(i, f) <= threshold {
                    let w = row_weight(self.weights, i);
                    n_left += 1;
                    lw += w;
                    if is_mse {
                        lsum += w * self.y[i];
                        lsq += w * self.y[i] * self.y[i];
                    } else {
                        left_hist[self.y[i] as usize] += w;
                    }
                }
            }
            let n_right = indices.len() - n_left;
            if n_left < min_leaf || n_right < min_leaf {
                continue;
            }
            let rw = total_w - lw;
            let (left_imp, right_imp) = if is_mse {
                (
                    self.config.criterion.impurity(&[], lw, lsum, lsq),
                    self.config.criterion.impurity(&[], rw, total_sum - lsum, total_sq - lsq),
                )
            } else {
                let right_hist: Vec<f64> = total_hist
                    .iter()
                    .zip(left_hist.iter())
                    .map(|(t, l)| t - l)
                    .collect();
                (
                    self.config.criterion.impurity(&left_hist, lw, 0.0, 0.0),
                    self.config.criterion.impurity(&right_hist, rw, 0.0, 0.0),
                )
            };
            let weighted = (lw * left_imp + rw * right_imp) / total_w;
            let gain = parent_impurity - weighted;
            if gain > 1e-12 && best.is_none_or(|(_, _, bg)| gain > bg) {
                best = Some((f, threshold, gain));
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

/// Channel count of regression histograms: `[wsum, w·y, w·y², count]`.
const REG_CHANNELS: usize = 4;

/// Minimum `node rows × candidate features` before a feature-parallel
/// histogram fill can pay for its scoped-thread spawns; smaller nodes stay
/// on the serial fill even when `hist_n_jobs > 1`.
const FEATURE_PARALLEL_MIN_CELLS: usize = 8192;

/// Cap on retired slabs kept per thread. Slabs are `total candidate bins ×
/// channels` floats, so a handful per worker covers the deepest recursion
/// without pinning unbounded memory after a wide ensemble fit.
const SLAB_POOL_CAP: usize = 64;

/// Largest node (rows) whose fill records its touched bins row by row, an
/// OR into the feature's bitmap per row. A node this small populates at
/// most `rows` of a feature's bins. Larger nodes, which touch most of a
/// many-valued feature's bins anyway, take the plain fill and every real
/// bin as their set (see [`Touched::set_all`]).
const TRACKED_MAX_ROWS: usize = 256;

/// Bins per feature region in the flat u8 kernel's padded slab layout.
/// Every feature gets a fixed `PAD_BINS × channels` region regardless of
/// its real bin count, so the fill loops can view a region as a
/// `[[f64; CH]; PAD_BINS]` array: a u8 bin code masked to `PAD_BINS - 1`
/// provably fits, and the bounds checks (and per-access slice arithmetic)
/// disappear. Pad cells are never written (u8 codes bin below `PAD_BINS`)
/// and never read (scans walk a feature's real bins only), so they stay
/// zero and the padding is bitwise neutral.
const PAD_BINS: usize = 256;

/// Views a padded feature region as a fixed-size array of bin cells — the
/// shape that lets the fill loop's indexing compile without bounds checks.
fn fixed_region<const CH: usize>(region: &mut [f64]) -> &mut [[f64; CH]; PAD_BINS] {
    let (cells, rest) = region.as_chunks_mut::<CH>();
    debug_assert!(rest.is_empty());
    cells.try_into().expect("padded region is PAD_BINS cells")
}

/// Calls `f` for each set bit, in ascending order.
fn for_each_bit(bits: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in bits.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            f(wi * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// Calls `f` with each maximal run of consecutive set bits below `limit`,
/// in ascending order — a sparse set yields single bins, a dense one a few
/// long ranges that subtraction and zeroing sweep as contiguous slices.
fn for_each_bit_run(bits: &[u64], limit: usize, mut f: impl FnMut(Range<usize>)) {
    let mut run = 0..0;
    'words: for (wi, &word) in bits.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let tz = w.trailing_zeros();
            let start = wi * 64 + tz as usize;
            if start >= limit {
                break 'words;
            }
            let end = (start + (w >> tz).trailing_ones() as usize).min(limit);
            // Clear the lowest run of ones: adding its lowest bit carries
            // through it.
            w &= w.wrapping_add(1 << tz);
            if start == run.end {
                run.end = end;
            } else {
                if !run.is_empty() {
                    f(run);
                }
                run = start..end;
            }
        }
    }
    if !run.is_empty() {
        f(run);
    }
}

/// Per-candidate-feature bitmaps of the bins outside which a slab's cells
/// are exactly `0.0`: `words` words per feature, bin `b` of candidate `fi`
/// at bit `b % 64` of word `fi * words + b / 64`. A small node's fill ORs
/// in the bins its rows hit; every other fill marks every real bin. A slab
/// that inherits its parent's cells through sibling subtraction keeps the
/// parent's sets: the child's rows are a subset of the parent's, and
/// subtraction writes only inside the sibling's (smaller) sets. A bin a
/// child's rows left empty stays in the set with a count of exactly `0.0`,
/// which the split scan skips.
#[derive(Default)]
struct Touched {
    words: usize,
    bits: Vec<u64>,
}

impl Touched {
    /// Empties the sets and sizes them for `n_features` candidates of
    /// `words` words each.
    fn clear(&mut self, n_features: usize, words: usize) {
        self.words = words;
        self.bits.clear();
        self.bits.resize(n_features * words, 0);
    }

    /// Candidate `fi`'s bitmap.
    fn feature(&self, fi: usize) -> &[u64] {
        &self.bits[fi * self.words..(fi + 1) * self.words]
    }

    fn feature_mut(&mut self, fi: usize) -> &mut [u64] {
        &mut self.bits[fi * self.words..(fi + 1) * self.words]
    }

    /// Marks every real bin (`0..n_bins`) of candidate `fi`: a superset of
    /// any node's touched bins that costs nothing to record, and a single
    /// run, so the sweeps over it stay contiguous.
    fn set_all(&mut self, fi: usize, n_bins: usize) {
        for (wi, word) in self.feature_mut(fi).iter_mut().enumerate() {
            let below = n_bins.saturating_sub(wi * 64);
            *word = if below >= 64 { u64::MAX } else { (1u64 << below) - 1 };
        }
    }

    /// Calls `f` with each maximal run of candidate `fi`'s set bins below
    /// `limit`, ascending. Bins outside the set hold exact `0.0`s, so a
    /// walk that skips them adds and subtracts the same bits.
    fn for_each_run(&self, fi: usize, limit: usize, f: impl FnMut(Range<usize>)) {
        for_each_bit_run(self.feature(fi), limit, f)
    }

    /// [`Touched::for_each_run`], one bin at a time — cheaper than finding
    /// runs in the sparse set of a small node.
    fn for_each_bin(&self, fi: usize, limit: usize, mut f: impl FnMut(usize)) {
        for_each_bit(self.feature(fi), |b| {
            if b < limit {
                f(b);
            }
        })
    }
}

/// A node's histograms — candidate features in order, one region apiece —
/// together with the touched sets that bound where its cells are non-zero.
/// The sets travel with the cells through sibling subtraction and back
/// into the pool, so subtraction, split scans and retirement all walk
/// only the touched bins.
#[derive(Default)]
struct Slab {
    cells: Vec<f64>,
    touched: Touched,
}

thread_local! {
    /// Retired flat histogram slabs, reused across nodes and across every
    /// tree an ensemble fits on this worker thread. The tree visits
    /// thousands of small nodes; without pooling, per-node arena
    /// allocation dominates deep-tree fit time.
    static SLAB_POOL: RefCell<Vec<Slab>> = const { RefCell::new(Vec::new()) };
}

/// A zeroed histogram slab of `len` floats, from the pool when possible
/// (its touched-set buffer comes along for reuse; the caller sets it).
fn take_slab(len: usize) -> Slab {
    let pooled = SLAB_POOL.with(|p| p.borrow_mut().pop());
    match pooled {
        Some(mut slab) => {
            crate::binned::stats::bump(|t| t.arena_reuses += 1);
            // Pooled slabs are all-zero (the `put_slab` invariant), so no
            // clearing pass: shrinking truncates a zeroed prefix, growing
            // appends zeros. This is where deep trees win — a full memset
            // of a ~255-bin slab dwarfs the fill cost of a small node.
            slab.cells.resize(len, 0.0);
            slab
        }
        None => Slab {
            cells: vec![0.0; len],
            ..Slab::default()
        },
    }
}

/// Retires a slab into the thread-local pool.
///
/// Invariant: `slab.cells` must be all-zero — `take_slab` skips the
/// clearing memset and hands pooled slabs straight to the fill loop.
/// Retiring nodes restore the invariant by zeroing only their touched
/// cells ([`HistBuilder::retire_slab`]), which for a small node is far
/// cheaper than clearing the whole arena.
fn put_slab(slab: Slab) {
    if slab.cells.capacity() == 0 {
        return;
    }
    debug_assert!(slab.cells.iter().all(|&v| v == 0.0), "pooled slab not zeroed");
    SLAB_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < SLAB_POOL_CAP {
            pool.push(slab);
        }
    });
}

/// Everything one flat histogram fill pass reads, bundled so the
/// feature-parallel workers can share it without borrowing the builder
/// (whose RNG and node vector must stay on the fitting thread).
///
/// The fused per-row statistics are the bandwidth trick: weights and the
/// `w·y` / `w·y²` products are computed once per tree instead of once per
/// `(row, feature)` pair per node, so the fill loop is pure reads + adds.
struct FillCtx<'a, C: BinCode> {
    bm: &'a BinnedMatrix,
    codes: &'a [C],
    /// The node's rows (`idx[start..end]` of the builder).
    rows: &'a [u32],
    channels: usize,
    is_mse: bool,
    /// Per-row weight (`1.0` when unweighted).
    row_w: &'a [f64],
    /// Per-row `w·y` (regression only).
    row_wy: &'a [f64],
    /// Per-row `(w·y)·y` — left-associated to match the unfused kernel's
    /// `w * y[i] * y[i]` bit for bit (regression only).
    row_wyy: &'a [f64],
    /// Per-row class index (classification only).
    row_cls: &'a [u32],
    /// Padded slab layout (`PAD_BINS` bins per feature region) — set for
    /// the flat kernel over u8 codes, where it enables the fixed-array
    /// fill paths.
    pad: bool,
}

impl<C: BinCode> FillCtx<'_, C> {
    /// Region width (floats) of feature `f` under the active layout.
    fn width(&self, f: usize) -> usize {
        if self.pad {
            PAD_BINS * self.channels
        } else {
            self.bm.n_bins(f) * self.channels
        }
    }

    /// Slab length (floats) for a candidate feature list.
    fn slab_len(&self, features: &[usize]) -> usize {
        features.iter().map(|&f| self.width(f)).sum()
    }

    /// Fills `slab` — features laid out in order, `n_bins(f) × channels`
    /// apiece — from the node's rows. Accumulation per feature touches only
    /// that feature's bins, which is what makes the feature-parallel path
    /// bitwise identical to this serial walk.
    ///
    /// Features are processed in pairs sharing one pass over the rows: the
    /// row index and its fused statistics are loaded once and feed two
    /// independent histogram regions, halving the sequential-read traffic
    /// and giving the FPU two dependency chains. Per-feature accumulation
    /// order is still row order, so the slab is bitwise identical to a
    /// feature-at-a-time walk.
    fn fill(&self, features: &[usize], slab: &mut [f64]) {
        if self.pad {
            match self.channels {
                3 => return self.fill_fixed::<3>(features, slab),
                4 => return self.fill_fixed::<4>(features, slab),
                _ => {}
            }
        }
        let ch = self.channels;
        let n = self.bm.n_rows();
        let mut off = 0usize;
        let mut pairs = features.chunks_exact(2);
        for pair in pairs.by_ref() {
            let col0 = &self.codes[pair[0] * n..(pair[0] + 1) * n];
            let col1 = &self.codes[pair[1] * n..(pair[1] + 1) * n];
            let w0 = self.width(pair[0]);
            let w1 = self.width(pair[1]);
            let (h0, rest) = slab[off..].split_at_mut(w0);
            let h1 = &mut rest[..w1];
            if self.is_mse {
                for &i in self.rows {
                    let i = i as usize;
                    let b0 = col0[i].bin() * ch;
                    let b1 = col1[i].bin() * ch;
                    let (w, wy, wyy) = (self.row_w[i], self.row_wy[i], self.row_wyy[i]);
                    h0[b0] += w;
                    h0[b0 + 1] += wy;
                    h0[b0 + 2] += wyy;
                    h0[b0 + 3] += 1.0;
                    h1[b1] += w;
                    h1[b1 + 1] += wy;
                    h1[b1 + 2] += wyy;
                    h1[b1 + 3] += 1.0;
                }
            } else {
                for &i in self.rows {
                    let i = i as usize;
                    let b0 = col0[i].bin() * ch;
                    let b1 = col1[i].bin() * ch;
                    let (w, c) = (self.row_w[i], self.row_cls[i] as usize);
                    h0[b0 + c] += w;
                    h0[b0 + ch - 1] += 1.0;
                    h1[b1 + c] += w;
                    h1[b1 + ch - 1] += 1.0;
                }
            }
            off += w0 + w1;
        }
        for &f in pairs.remainder() {
            let col = &self.codes[f * n..(f + 1) * n];
            let width = self.width(f);
            let h = &mut slab[off..off + width];
            if self.is_mse {
                for &i in self.rows {
                    let i = i as usize;
                    let base = col[i].bin() * ch;
                    h[base] += self.row_w[i];
                    h[base + 1] += self.row_wy[i];
                    h[base + 2] += self.row_wyy[i];
                    h[base + 3] += 1.0;
                }
            } else {
                for &i in self.rows {
                    let i = i as usize;
                    let base = col[i].bin() * ch;
                    h[base + self.row_cls[i] as usize] += self.row_w[i];
                    h[base + ch - 1] += 1.0;
                }
            }
            off += width;
        }
    }

    /// [`FillCtx::fill`] for the padded u8 layout with a compile-time
    /// channel count: every region is a `[[f64; CH]; PAD_BINS]` array and
    /// every index is provably in range (bins masked to `PAD_BINS - 1` —
    /// a no-op for u8 codes — and the class channel clamped to its
    /// `CH - 2` maximum), so the accumulation loop is pure loads and adds.
    /// Same adds in the same order as the generic walk, bitwise identical.
    fn fill_fixed<const CH: usize>(&self, features: &[usize], slab: &mut [f64]) {
        debug_assert_eq!(self.channels, CH);
        let n = self.bm.n_rows();
        let mut off = 0usize;
        let mut pairs = features.chunks_exact(2);
        for pair in pairs.by_ref() {
            let col0 = &self.codes[pair[0] * n..(pair[0] + 1) * n];
            let col1 = &self.codes[pair[1] * n..(pair[1] + 1) * n];
            let (r0, rest) = slab[off..].split_at_mut(PAD_BINS * CH);
            let h0 = fixed_region::<CH>(r0);
            let h1 = fixed_region::<CH>(&mut rest[..PAD_BINS * CH]);
            if self.is_mse {
                for &i in self.rows {
                    let i = i as usize;
                    let b0 = col0[i].bin() & (PAD_BINS - 1);
                    let b1 = col1[i].bin() & (PAD_BINS - 1);
                    let (w, wy, wyy) = (self.row_w[i], self.row_wy[i], self.row_wyy[i]);
                    let c0 = &mut h0[b0];
                    c0[0] += w;
                    c0[1] += wy;
                    c0[2] += wyy;
                    c0[CH - 1] += 1.0;
                    let c1 = &mut h1[b1];
                    c1[0] += w;
                    c1[1] += wy;
                    c1[2] += wyy;
                    c1[CH - 1] += 1.0;
                }
            } else {
                for &i in self.rows {
                    let i = i as usize;
                    let b0 = col0[i].bin() & (PAD_BINS - 1);
                    let b1 = col1[i].bin() & (PAD_BINS - 1);
                    let (w, c) = (self.row_w[i], (self.row_cls[i] as usize).min(CH - 2));
                    let c0 = &mut h0[b0];
                    c0[c] += w;
                    c0[CH - 1] += 1.0;
                    let c1 = &mut h1[b1];
                    c1[c] += w;
                    c1[CH - 1] += 1.0;
                }
            }
            off += 2 * PAD_BINS * CH;
        }
        for &f in pairs.remainder() {
            let col = &self.codes[f * n..(f + 1) * n];
            let h = fixed_region::<CH>(&mut slab[off..off + PAD_BINS * CH]);
            if self.is_mse {
                for &i in self.rows {
                    let i = i as usize;
                    let cell = &mut h[col[i].bin() & (PAD_BINS - 1)];
                    cell[0] += self.row_w[i];
                    cell[1] += self.row_wy[i];
                    cell[2] += self.row_wyy[i];
                    cell[CH - 1] += 1.0;
                }
            } else {
                for &i in self.rows {
                    let i = i as usize;
                    let cell = &mut h[col[i].bin() & (PAD_BINS - 1)];
                    cell[(self.row_cls[i] as usize).min(CH - 2)] += self.row_w[i];
                    cell[CH - 1] += 1.0;
                }
            }
            off += PAD_BINS * CH;
        }
    }

    /// [`FillCtx::fill`] plus touched-bin tracking: each row's bin is ORed
    /// into its feature's bitmap in `touched` (idempotent, so no 0 → 1 test
    /// and no sort). Small nodes touch a handful of a feature's bins, and
    /// the sets let subtraction, split search and slab retirement walk only
    /// those cells instead of the whole slab. Accumulation arithmetic is
    /// untouched, so the slab is bitwise identical to the plain fill's.
    fn fill_tracked(&self, features: &[usize], slab: &mut [f64], touched: &mut Touched) {
        if self.pad {
            match self.channels {
                3 => return self.fill_tracked_fixed::<3>(features, slab, touched),
                4 => return self.fill_tracked_fixed::<4>(features, slab, touched),
                _ => {}
            }
        }
        let ch = self.channels;
        let n = self.bm.n_rows();
        let mut off = 0usize;
        for (fi, &f) in features.iter().enumerate() {
            let col = &self.codes[f * n..(f + 1) * n];
            let width = self.width(f);
            let h = &mut slab[off..off + width];
            let bits = touched.feature_mut(fi);
            for &i in self.rows {
                let i = i as usize;
                let bin = col[i].bin();
                bits[bin >> 6] |= 1u64 << (bin & 63);
                let base = bin * ch;
                if self.is_mse {
                    h[base] += self.row_w[i];
                    h[base + 1] += self.row_wy[i];
                    h[base + 2] += self.row_wyy[i];
                    h[base + 3] += 1.0;
                } else {
                    h[base + self.row_cls[i] as usize] += self.row_w[i];
                    h[base + ch - 1] += 1.0;
                }
            }
            off += width;
        }
    }

    /// [`FillCtx::fill_tracked`] on the padded fixed-array layout — the
    /// same bounds-check-free accumulation as [`FillCtx::fill_fixed`], with
    /// each feature's words viewed as a `PAD_BINS / 64` array so the OR
    /// is unchecked too.
    fn fill_tracked_fixed<const CH: usize>(
        &self,
        features: &[usize],
        slab: &mut [f64],
        touched: &mut Touched,
    ) {
        debug_assert_eq!(self.channels, CH);
        let n = self.bm.n_rows();
        let mut off = 0usize;
        for (fi, &f) in features.iter().enumerate() {
            let col = &self.codes[f * n..(f + 1) * n];
            let h = fixed_region::<CH>(&mut slab[off..off + PAD_BINS * CH]);
            let bits: &mut [u64; PAD_BINS / 64] =
                touched.feature_mut(fi).try_into().expect("padded bitmap is PAD_BINS bits");
            for &i in self.rows {
                let i = i as usize;
                let bin = col[i].bin() & (PAD_BINS - 1);
                bits[bin >> 6] |= 1u64 << (bin & 63);
                let cell = &mut h[bin];
                if self.is_mse {
                    cell[0] += self.row_w[i];
                    cell[1] += self.row_wy[i];
                    cell[2] += self.row_wyy[i];
                    cell[CH - 1] += 1.0;
                } else {
                    cell[(self.row_cls[i] as usize).min(CH - 2)] += self.row_w[i];
                    cell[CH - 1] += 1.0;
                }
            }
            off += PAD_BINS * CH;
        }
    }
}

/// Histogram-mode tree builder, monomorphized on the bin-code width `C`
/// (`u8` for ≤ 256 bins, `u16` beyond) so the hot loops never branch on
/// storage width.
///
/// Rows live in a single shared index buffer (`idx`); each node owns the
/// contiguous range `idx[start..end]` and splitting stably partitions that
/// range in place (via `scratch`), so no per-node index vectors are
/// allocated. A node's histograms are one flat node-major slab — candidate
/// features in order, `n_bins(f) × channels` floats apiece — taken from a
/// thread-local pool and walked with running offsets. Classification bins
/// carry per-class weight sums plus a row count, regression bins carry
/// `[wsum, w·y, w·y², count]`, with the per-row products fused into arrays
/// computed once per tree. When both children can still split and the
/// candidate set is all features, only the smaller child's slab is built
/// from data — the larger child's is the parent's minus the smaller's
/// (LightGBM's subtraction trick), taken over the smaller slab's touched
/// bins only (see [`Slab`]).
struct HistBuilder<'a, C: BinCode> {
    bm: &'a BinnedMatrix,
    codes: &'a [C],
    y: &'a [f64],
    weights: Option<&'a [f64]>,
    n_outputs: usize,
    config: &'a TreeConfig,
    nodes: Vec<Node>,
    values: Vec<f64>,
    rng: StdRng,
    idx: Vec<u32>,
    scratch: Vec<u32>,
    channels: usize,
    /// Fused per-row statistics (empty under [`HistKernel::PerNode`], which
    /// recomputes them per access exactly as the PR 2 kernel did).
    row_w: Vec<f64>,
    row_wy: Vec<f64>,
    row_wyy: Vec<f64>,
    row_cls: Vec<u32>,
    /// [`HistKernel::PerNode`]'s builder-local slab pool, mirroring the
    /// PR 2 kernel's recycling so the bench baseline keeps its real costs.
    local_pool: Vec<Slab>,
    /// Padded slab layout — flat kernel over u8 codes (see [`PAD_BINS`]).
    pad: bool,
    /// Touched-bitmap words per candidate feature: `PAD_BINS / 64` on the
    /// padded layout, enough for the widest feature otherwise.
    words: usize,
}

impl<C: BinCode> HistBuilder<'_, C> {
    /// Slab region width (floats) of feature `f` under the active
    /// kernel's layout — `PAD_BINS` bins for the padded flat u8 layout,
    /// the feature's real bin count otherwise (PerNode, u16 codes).
    fn width(&self, f: usize) -> usize {
        if self.pad {
            PAD_BINS * self.channels
        } else {
            self.bm.n_bins(f) * self.channels
        }
    }

    fn is_mse(&self) -> bool {
        self.config.criterion == Criterion::Mse
    }

    fn leaf_value(&self, start: usize, end: usize) -> Vec<f64> {
        // The flat kernel's fused per-row arrays serve here too: `row_wy`
        // holds exactly the `w * y` product and `row_cls` the class cast,
        // so node values come out bitwise identical to the per-access
        // walk the PerNode oracle keeps.
        let fused = !self.row_w.is_empty();
        if self.is_mse() {
            let mut sum = 0.0;
            let mut wsum = 0.0;
            if fused {
                for &i in &self.idx[start..end] {
                    sum += self.row_wy[i as usize];
                    wsum += self.row_w[i as usize];
                }
            } else {
                for &i in &self.idx[start..end] {
                    let w = row_weight(self.weights, i as usize);
                    sum += w * self.y[i as usize];
                    wsum += w;
                }
            }
            vec![if wsum > 0.0 { sum / wsum } else { 0.0 }]
        } else {
            let mut hist = vec![0.0; self.n_outputs];
            let mut wsum = 0.0;
            if fused {
                for &i in &self.idx[start..end] {
                    let w = self.row_w[i as usize];
                    hist[self.row_cls[i as usize] as usize] += w;
                    wsum += w;
                }
            } else {
                for &i in &self.idx[start..end] {
                    let w = row_weight(self.weights, i as usize);
                    hist[self.y[i as usize] as usize] += w;
                    wsum += w;
                }
            }
            if wsum > 0.0 {
                for h in &mut hist {
                    *h /= wsum;
                }
            }
            hist
        }
    }

    fn is_pure(&self, start: usize, end: usize) -> bool {
        let first = self.y[self.idx[start] as usize];
        self.idx[start..end]
            .iter()
            .all(|&i| (self.y[i as usize] - first).abs() < 1e-12)
    }

    fn make_leaf(&mut self, start: usize, end: usize) -> usize {
        let value = self.leaf_value(start, end);
        self.values.extend_from_slice(&value);
        self.nodes.push(Node {
            feature: usize::MAX,
            threshold: 0.0,
            left: 0,
            right: 0,
        });
        self.nodes.len() - 1
    }

    /// One pass over the node's rows fills every candidate feature's bins
    /// into a single flat slab (features in candidate order, running
    /// offsets) and sets the slab's touched bitmaps with it: a node of at
    /// most [`TRACKED_MAX_ROWS`] rows ORs in the bins its rows hit, while
    /// larger nodes, feature-parallel fills and the PerNode oracle mark
    /// every real bin. Also charges the bandwidth counters: each fill reads
    /// `rows × features × C::BYTES` of bin codes.
    fn build_hists(&mut self, start: usize, end: usize, features: &[usize]) -> Slab {
        crate::binned::stats::bump(|t| {
            t.hist_node_scans += 1;
            t.hist_bytes_scanned += ((end - start) * features.len() * C::BYTES) as u64;
        });
        let mut slab = match self.config.hist_kernel {
            HistKernel::PerNode => self.build_hists_per_node(start, end, features),
            HistKernel::Flat => {
                let ctx = FillCtx {
                    bm: self.bm,
                    codes: self.codes,
                    rows: &self.idx[start..end],
                    channels: self.channels,
                    is_mse: self.is_mse(),
                    row_w: &self.row_w,
                    row_wy: &self.row_wy,
                    row_wyy: &self.row_wyy,
                    row_cls: &self.row_cls,
                    pad: self.pad,
                };
                let mut slab = take_slab(ctx.slab_len(features));
                let Slab { cells, touched } = &mut slab;
                touched.clear(features.len(), self.words);
                let jobs = self.config.hist_n_jobs;
                let n_cells = (end - start) * features.len();
                if jobs > 1 && features.len() > 1 && n_cells >= FEATURE_PARALLEL_MIN_CELLS {
                    fill_parallel(&ctx, features, cells, jobs);
                } else if end - start <= TRACKED_MAX_ROWS {
                    ctx.fill_tracked(features, cells, touched);
                    return slab;
                } else {
                    ctx.fill(features, cells);
                }
                slab
            }
        };
        for (fi, &f) in features.iter().enumerate() {
            slab.touched.set_all(fi, self.bm.n_bins(f));
        }
        slab
    }

    /// The PR 2 kernel, kept verbatim in spirit: per-access weight lookup
    /// and `w·y` / `w·y²` products, builder-local buffer recycling, always
    /// serial. Produces the same slab layout (and, channel by channel, the
    /// same sums in the same order) as the flat kernel — the bitwise
    /// equivalence the property tests pin down.
    fn build_hists_per_node(&mut self, start: usize, end: usize, features: &[usize]) -> Slab {
        let is_mse = self.is_mse();
        let ch = self.channels;
        let n = self.bm.n_rows();
        let len: usize = features.iter().map(|&f| self.bm.n_bins(f) * ch).sum();
        let mut slab = self.local_pool.pop().unwrap_or_default();
        slab.cells.clear();
        slab.cells.resize(len, 0.0);
        slab.touched.clear(features.len(), self.words);
        crate::binned::stats::bump(|t| t.slab_cells_swept += len as u64);
        let mut off = 0usize;
        for &f in features {
            let col = &self.codes[f * n..(f + 1) * n];
            let width = self.bm.n_bins(f) * ch;
            let h = &mut slab.cells[off..off + width];
            for &i in &self.idx[start..end] {
                let i = i as usize;
                let w = self.weights.map_or(1.0, |w| w[i]);
                let base = col[i].bin() * ch;
                if is_mse {
                    h[base] += w;
                    h[base + 1] += w * self.y[i];
                    h[base + 2] += w * self.y[i] * self.y[i];
                    h[base + 3] += 1.0;
                } else {
                    h[base + self.y[i] as usize] += w;
                    h[base + ch - 1] += 1.0;
                }
            }
            off += width;
        }
        slab
    }

    /// Returns a node's histogram slab to the matching pool.
    ///
    /// The flat pool's invariant is that parked slabs are all-zero, so the
    /// retiring node pays the clearing cost: it zeroes the runs of its
    /// touched sets — recorded by its own fill or inherited through
    /// subtraction — which for a small node is far cheaper than clearing
    /// the whole slab.
    fn retire_slab(&mut self, mut slab: Slab, features: &[usize]) {
        if self.config.hist_kernel == HistKernel::PerNode {
            return self.local_pool.push(slab);
        }
        let swept = self.for_each_touched_cells(&slab.touched, features, |cells| {
            slab.cells[cells].fill(0.0)
        });
        crate::binned::stats::bump(|t| t.slab_cells_swept += swept as u64);
        put_slab(slab);
    }

    /// Scans bin boundaries for the best split; returns the winning
    /// candidate's position in `features` and the boundary bin.
    ///
    /// The walk visits only the slab's touched bins, in ascending order: a
    /// superset of the non-empty bins the full walk would not have skipped,
    /// and every bin outside it holds exact `0.0`s, which add nothing to
    /// the parent sums, so skipping them is bitwise neutral. A set of every
    /// real bin (large nodes, the PerNode oracle) makes it the full walk,
    /// empty-skip included.
    fn scan_split(&self, slab: &Slab, features: &[usize], n_node: usize) -> Option<(usize, usize)> {
        let (cells, touched) = (&slab.cells, &slab.touched);
        let is_mse = self.is_mse();
        let ch = self.channels;
        let k = if is_mse { 0 } else { self.n_outputs };
        let min_leaf = self.config.min_samples_leaf.max(1);

        // Parent statistics = any feature's histogram summed over bins.
        let mut total_hist = vec![0.0; k];
        let (mut total_w, mut total_sum, mut total_sq) = (0.0, 0.0, 0.0);
        // Bins read by the parent-total walk and the boundary scans.
        let mut bins_visited = 0usize;
        {
            let nb0 = self.bm.n_bins(features[0]);
            let h0 = &cells[..nb0 * ch];
            let mut add_parent = |bin: &[f64]| {
                bins_visited += 1;
                if is_mse {
                    total_w += bin[0];
                    total_sum += bin[1];
                    total_sq += bin[2];
                } else {
                    for (t, b) in total_hist.iter_mut().zip(bin[..k].iter()) {
                        *t += b;
                    }
                }
            };
            touched.for_each_bin(0, nb0, |b| add_parent(&h0[b * ch..(b + 1) * ch]));
        }
        if !is_mse {
            total_w = total_hist.iter().sum();
        }
        let parent_impurity = self.config.criterion.impurity(&total_hist, total_w, total_sum, total_sq);
        if parent_impurity <= 1e-12 {
            crate::binned::stats::bump(|t| t.slab_cells_swept += (bins_visited * ch) as u64);
            return None;
        }

        let mut best: Option<(usize, usize, f64)> = None; // (feature pos, bin, gain)
        let mut left_hist = vec![0.0; k];
        let mut right_hist = vec![0.0; k];
        let mut off = 0usize;
        for (fi, &f) in features.iter().enumerate() {
            let nb = self.bm.n_bins(f);
            // Scan only the feature's real bins; padding (if any) sits
            // between `nb * ch` and the region width and is never read.
            let h = &cells[off..off + nb * ch];
            off += self.width(f);
            if nb < 2 {
                continue;
            }
            left_hist.iter_mut().for_each(|v| *v = 0.0);
            let (mut lw, mut lsum, mut lsq) = (0.0, 0.0, 0.0);
            let mut n_left = 0usize;
            // An empty bin leaves the partition unchanged, so boundary `b`
            // duplicates boundary `b - 1`; only the first boundary of each
            // run (where the added bin is non-empty) can win under the
            // strictly-greater gain rule. The walk skips them by testing the
            // count channel (a touched set may still hold bins this node's
            // rows left empty).
            let visit = |b: usize| {
                bins_visited += 1;
                let bin = &h[b * ch..(b + 1) * ch];
                if bin[ch - 1] == 0.0 {
                    return;
                }
                if is_mse {
                    lw += bin[0];
                    lsum += bin[1];
                    lsq += bin[2];
                } else {
                    for (l, v) in left_hist.iter_mut().zip(bin[..k].iter()) {
                        *l += v;
                        lw += v;
                    }
                }
                n_left += bin[ch - 1] as usize;
                let n_right = n_node - n_left;
                if n_left < min_leaf || n_right < min_leaf {
                    return;
                }
                let rw = total_w - lw;
                let (left_imp, right_imp) = if is_mse {
                    (
                        self.config.criterion.impurity(&[], lw, lsum, lsq),
                        self.config.criterion.impurity(&[], rw, total_sum - lsum, total_sq - lsq),
                    )
                } else {
                    for ((r, t), l) in right_hist
                        .iter_mut()
                        .zip(total_hist.iter())
                        .zip(left_hist.iter())
                    {
                        *r = t - l;
                    }
                    (
                        self.config.criterion.impurity(&left_hist, lw, 0.0, 0.0),
                        self.config.criterion.impurity(&right_hist, rw, 0.0, 0.0),
                    )
                };
                let weighted = (lw * left_imp + rw * right_imp) / total_w;
                let gain = parent_impurity - weighted;
                if gain > 1e-12 && best.is_none_or(|(_, _, bg)| gain > bg) {
                    best = Some((fi, b, gain));
                }
            };
            // The last real bin is never a boundary.
            touched.for_each_bin(fi, nb - 1, visit);
        }
        crate::binned::stats::bump(|t| t.slab_cells_swept += (bins_visited * ch) as u64);
        best.map(|(fi, b, _)| (fi, b))
    }

    /// Stably partitions `idx[start..end]` on `code <= bin`; returns the
    /// boundary position (start of the right child's range).
    fn partition(&mut self, start: usize, end: usize, feature: usize, bin: usize) -> usize {
        let n = self.bm.n_rows();
        let col = &self.codes[feature * n..(feature + 1) * n];
        self.scratch.clear();
        let mut write = start;
        for r in start..end {
            let i = self.idx[r];
            if col[i as usize].bin() <= bin {
                self.idx[write] = i;
                write += 1;
            } else {
                self.scratch.push(i);
            }
        }
        self.idx[write..end].copy_from_slice(&self.scratch);
        write
    }

    /// Could a node of `n` rows at `depth` still be split?
    fn may_split(&self, n: usize, depth: usize) -> bool {
        depth < self.config.max_depth
            && n >= self.config.min_samples_split
            && n >= 2 * self.config.min_samples_leaf
    }

    /// `large -= small`, cell by cell, over the small slab's touched bins
    /// only: its other cells are the pool's exact `0.0`, and `x - 0.0 == x`
    /// bit for bit.
    fn subtract(&self, large: &mut [f64], small: &Slab, features: &[usize]) {
        let swept = self.for_each_touched_cells(&small.touched, features, |cells| {
            for (a, b) in large[cells.clone()].iter_mut().zip(&small.cells[cells]) {
                *a -= b;
            }
        });
        crate::binned::stats::bump(|t| t.slab_cells_swept += swept as u64);
    }

    /// Calls `f` with the slab cell range of each run of touched bins,
    /// feature by feature in candidate order; returns the number of cells
    /// covered.
    fn for_each_touched_cells(
        &self,
        touched: &Touched,
        features: &[usize],
        mut f: impl FnMut(Range<usize>),
    ) -> usize {
        let ch = self.channels;
        let mut off = 0usize;
        let mut cells = 0usize;
        for (fi, &feature) in features.iter().enumerate() {
            let width = self.width(feature);
            touched.for_each_run(fi, width / ch, |run| {
                f(off + run.start * ch..off + run.end * ch);
                cells += run.len() * ch;
            });
            off += width;
        }
        cells
    }

    /// Builds the subtree for `idx[start..end]`, returning the node id.
    /// `inherited` carries the slab precomputed by the parent (the
    /// subtraction trick); it is only ever `Some` in all-features mode,
    /// where parent and child candidate sets (and thus slab layouts)
    /// coincide.
    fn build(
        &mut self,
        start: usize,
        end: usize,
        depth: usize,
        inherited: Option<Slab>,
    ) -> usize {
        let n_node = end - start;
        if !self.may_split(n_node, depth) || self.is_pure(start, end) {
            if let Some(h) = inherited {
                // Inherited slabs cover all features, in order.
                let all: Vec<usize> = (0..self.bm.n_features()).collect();
                self.retire_slab(h, &all);
            }
            return self.make_leaf(start, end);
        }

        let d = self.bm.n_features();
        let n_candidates = self.config.max_features.resolve(d);
        let all_features = n_candidates == d;
        let features: Vec<usize> = if all_features {
            (0..d).collect()
        } else {
            sample_without_replacement(&mut self.rng, d, n_candidates)
        };

        let hists = match inherited {
            Some(h) => h,
            None => self.build_hists(start, end, &features),
        };

        let Some((fpos, bin)) = self.scan_split(&hists, &features, n_node) else {
            self.retire_slab(hists, &features);
            return self.make_leaf(start, end);
        };
        let feature = features[fpos];
        let threshold = self.bm.cut(feature, bin);
        let mid = self.partition(start, end, feature, bin);
        let (ln, rn) = (mid - start, end - mid);
        if ln < self.config.min_samples_leaf || rn < self.config.min_samples_leaf {
            self.retire_slab(hists, &features);
            return self.make_leaf(start, end);
        }

        let value = self.leaf_value(start, end);
        self.values.extend_from_slice(&value);
        let me = self.nodes.len();
        self.nodes.push(Node {
            feature,
            threshold,
            left: 0,
            right: 0,
        });

        let subtract = all_features
            && self.may_split(ln, depth + 1)
            && self.may_split(rn, depth + 1);
        let (left_h, right_h) = if subtract {
            let (s_start, s_end, small_is_left) = if ln <= rn {
                (start, mid, true)
            } else {
                (mid, end, false)
            };
            let small = self.build_hists(s_start, s_end, &features);
            // The large child reuses the parent's slab, touched sets and all.
            let mut large = hists;
            self.subtract(&mut large.cells, &small, &features);
            if small_is_left {
                (Some(small), Some(large))
            } else {
                (Some(large), Some(small))
            }
        } else {
            self.retire_slab(hists, &features);
            (None, None)
        };

        let left = self.build(start, mid, depth + 1, left_h);
        let right = self.build(mid, end, depth + 1, right_h);
        self.nodes[me].left = left;
        self.nodes[me].right = right;
        me
    }
}

/// Feature-parallel flat fill: contiguous feature chunks are filled into
/// private sub-slabs on worker threads, then copied back in feature order.
/// Per-feature accumulation is independent (each feature owns its bins) and
/// the merge is a positional copy, so the result is bitwise identical to
/// [`FillCtx::fill`] for any job count.
fn fill_parallel<C: BinCode>(ctx: &FillCtx<'_, C>, features: &[usize], slab: &mut [f64], jobs: usize) {
    crate::binned::stats::bump(|t| t.feature_parallel_merges += 1);
    let jobs = jobs.min(features.len());
    let chunk = features.len().div_ceil(jobs);
    let n_chunks = features.len().div_ceil(chunk);
    let parts: Vec<Vec<f64>> = parallel_map(jobs, n_chunks, |ci| {
        let fs = &features[ci * chunk..((ci + 1) * chunk).min(features.len())];
        let mut sub = vec![0.0; ctx.slab_len(fs)];
        ctx.fill(fs, &mut sub);
        sub
    });
    let mut off = 0usize;
    for mut part in parts {
        slab[off..off + part.len()].copy_from_slice(&part);
        off += part.len();
        part.fill(0.0);
        crate::binned::stats::bump(|t| t.slab_cells_swept += part.len() as u64);
        put_slab(Slab {
            cells: part,
            ..Slab::default()
        });
    }
}

/// Entry point below [`Tree::fit_binned`], monomorphized on the code width.
/// Builds the fused per-row statistic arrays (flat kernel only — the
/// PerNode oracle recomputes per access, as PR 2 did), then grows the tree.
fn fit_binned_codes<C: BinCode>(
    bm: &BinnedMatrix,
    codes: &[C],
    idx: Vec<u32>,
    y: &[f64],
    weights: Option<&[f64]>,
    n_outputs: usize,
    config: &TreeConfig,
) -> Result<Tree> {
    let n = bm.n_rows();
    let is_mse = config.criterion == Criterion::Mse;
    let channels = if is_mse { REG_CHANNELS } else { n_outputs + 1 };
    let (mut row_w, mut row_wy, mut row_wyy, mut row_cls) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    if config.hist_kernel == HistKernel::Flat {
        row_w = match weights {
            Some(w) => w.to_vec(),
            None => vec![1.0; n],
        };
        if is_mse {
            row_wy = Vec::with_capacity(n);
            row_wyy = Vec::with_capacity(n);
            for i in 0..n {
                // Left-associated products so bins match the PerNode
                // kernel's `w * y * y` bit for bit.
                let wy = row_w[i] * y[i];
                row_wy.push(wy);
                row_wyy.push(wy * y[i]);
            }
        } else {
            row_cls = y.iter().map(|&v| v as u32).collect();
        }
    }
    let n_rows_fit = idx.len();
    let pad = config.hist_kernel == HistKernel::Flat && C::BYTES == 1;
    let widest = (0..bm.n_features()).map(|f| bm.n_bins(f)).max().unwrap_or(0);
    let mut builder = HistBuilder {
        bm,
        codes,
        y,
        weights,
        n_outputs,
        config,
        nodes: Vec::new(),
        values: Vec::new(),
        rng: rng_from_seed(config.seed),
        idx,
        scratch: Vec::with_capacity(n_rows_fit),
        channels,
        row_w,
        row_wy,
        row_wyy,
        row_cls,
        local_pool: Vec::new(),
        pad,
        words: if pad { PAD_BINS / 64 } else { widest.div_ceil(64) },
    };
    builder.build(0, n_rows_fit, 0, None);
    debug_assert_eq!(builder.values.len(), builder.nodes.len() * n_outputs);
    Ok(Tree {
        nodes: builder.nodes,
        values: builder.values,
        n_outputs,
        n_features: bm.n_features(),
    })
}

/// Single-tree classifier.
#[derive(Debug, Clone)]
pub struct DecisionTreeClassifier {
    /// Tree hyper-parameters.
    pub config: TreeConfig,
    tree: Option<Tree>,
    n_classes: usize,
}

impl DecisionTreeClassifier {
    /// Creates an untrained classifier.
    pub fn new(config: TreeConfig) -> Self {
        DecisionTreeClassifier {
            config,
            tree: None,
            n_classes: 0,
        }
    }

    /// Access to the fitted tree.
    pub fn tree(&self) -> Option<&Tree> {
        self.tree.as_ref()
    }
}

impl Estimator for DecisionTreeClassifier {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        self.n_classes = infer_n_classes(y);
        self.tree = Some(Tree::fit(x, y, None, self.n_classes, &self.config)?);
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let p = self.predict_proba(x)?;
        Ok((0..p.rows())
            .map(|i| volcanoml_linalg::stats::argmax(p.row(i)).unwrap_or(0) as f64)
            .collect())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Matrix> {
        let tree = self.tree.as_ref().ok_or(ModelError::NotFitted)?;
        if x.cols() != tree.n_features() {
            return Err(ModelError::Invalid(format!(
                "predict expects {} features, got {}",
                tree.n_features(),
                x.cols()
            )));
        }
        let mut out = Matrix::zeros(x.rows(), self.n_classes);
        for i in 0..x.rows() {
            let v = tree.predict_row(x.row(i));
            out.row_mut(i).copy_from_slice(v);
        }
        Ok(out)
    }
}

/// Single-tree regressor.
#[derive(Debug, Clone)]
pub struct DecisionTreeRegressor {
    /// Tree hyper-parameters.
    pub config: TreeConfig,
    tree: Option<Tree>,
}

impl DecisionTreeRegressor {
    /// Creates an untrained regressor.
    pub fn new(config: TreeConfig) -> Self {
        DecisionTreeRegressor { config, tree: None }
    }

    /// Access to the fitted tree.
    pub fn tree(&self) -> Option<&Tree> {
        self.tree.as_ref()
    }
}

impl Estimator for DecisionTreeRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        let mut config = self.config.clone();
        config.criterion = Criterion::Mse;
        self.tree = Some(Tree::fit(x, y, None, 1, &config)?);
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let tree = self.tree.as_ref().ok_or(ModelError::NotFitted)?;
        if x.cols() != tree.n_features() {
            return Err(ModelError::Invalid(format!(
                "predict expects {} features, got {}",
                tree.n_features(),
                x.cols()
            )));
        }
        Ok((0..x.rows())
            .map(|i| tree.predict_row(x.row(i))[0])
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{discretize, easy_binary, easy_multiclass, nonlinear_binary, split};
    use volcanoml_data::metrics::{accuracy, r2};
    use volcanoml_data::synthetic::{make_piecewise, make_xor};

    #[test]
    fn tree_fits_xor_perfectly() {
        let d = make_xor(300, 2, 4, 0.0, 5);
        let mut m = DecisionTreeClassifier::new(TreeConfig::classification());
        m.fit(&d.x, &d.y).unwrap();
        let acc = accuracy(&d.y, &m.predict(&d.x).unwrap());
        assert!(acc > 0.98, "train accuracy {acc}");
    }

    #[test]
    fn tree_generalizes_on_moons() {
        let d = nonlinear_binary();
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut m = DecisionTreeClassifier::new(TreeConfig::classification());
        m.fit(&xt, &yt).unwrap();
        let acc = accuracy(&yv, &m.predict(&xv).unwrap());
        assert!(acc > 0.85, "test accuracy {acc}");
    }

    #[test]
    fn max_depth_limits_tree() {
        let d = easy_binary();
        let mut cfg = TreeConfig::classification();
        cfg.max_depth = 2;
        let mut m = DecisionTreeClassifier::new(cfg);
        m.fit(&d.x, &d.y).unwrap();
        assert!(m.tree().unwrap().depth() <= 2);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let d = easy_binary();
        let mut cfg = TreeConfig::classification();
        cfg.min_samples_leaf = 30;
        let mut m = DecisionTreeClassifier::new(cfg);
        m.fit(&d.x, &d.y).unwrap();
        // A 240-sample dataset with 30-sample leaves has at most 8 leaves ->
        // at most 15 nodes.
        assert!(m.tree().unwrap().n_nodes() <= 15);
    }

    #[test]
    fn entropy_criterion_also_learns() {
        let d = easy_multiclass();
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut cfg = TreeConfig::classification();
        cfg.criterion = Criterion::Entropy;
        let mut m = DecisionTreeClassifier::new(cfg);
        m.fit(&xt, &yt).unwrap();
        let acc = accuracy(&yv, &m.predict(&xv).unwrap());
        assert!(acc > 0.9, "{acc}");
    }

    #[test]
    fn random_split_strategy_learns() {
        let d = nonlinear_binary();
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut cfg = TreeConfig::classification();
        cfg.split_strategy = SplitStrategy::Random;
        cfg.max_depth = 16;
        let mut m = DecisionTreeClassifier::new(cfg);
        m.fit(&xt, &yt).unwrap();
        let acc = accuracy(&yv, &m.predict(&xv).unwrap());
        assert!(acc > 0.75, "{acc}");
    }

    #[test]
    fn regressor_fits_piecewise_signal() {
        let d = make_piecewise(400, 3, 3, 0.05, 1);
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut m = DecisionTreeRegressor::new(TreeConfig::regression());
        m.fit(&xt, &yt).unwrap();
        let score = r2(&yv, &m.predict(&xv).unwrap());
        assert!(score > 0.85, "r2 {score}");
    }

    #[test]
    fn weighted_fit_shifts_leaf_values() {
        // Two classes at the same x; weights decide the histogram.
        let x = Matrix::from_vec(4, 1, vec![0.0, 0.0, 0.0, 0.0]).unwrap();
        let y = vec![0.0, 0.0, 1.0, 1.0];
        let w = vec![1.0, 1.0, 3.0, 3.0];
        let cfg = TreeConfig::classification();
        let tree = Tree::fit(&x, &y, Some(&w), 2, &cfg).unwrap();
        let v = tree.predict_row(&[0.0]);
        assert!((v[1] - 0.75).abs() < 1e-12, "{v:?}");
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let x = Matrix::from_vec(5, 1, vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let y = vec![1.0; 5];
        let tree = Tree::fit(&x, &y, None, 2, &TreeConfig::classification()).unwrap();
        assert_eq!(tree.n_nodes(), 1);
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(10), 10);
        assert_eq!(MaxFeatures::Sqrt.resolve(9), 3);
        assert_eq!(MaxFeatures::Log2.resolve(8), 3);
        assert_eq!(MaxFeatures::Fraction(0.5).resolve(10), 5);
        assert_eq!(MaxFeatures::Fraction(0.0).resolve(10), 1);
    }

    #[test]
    fn proba_rows_sum_to_one() {
        let d = easy_multiclass();
        let mut m = DecisionTreeClassifier::new(TreeConfig::classification());
        m.fit(&d.x, &d.y).unwrap();
        let p = m.predict_proba(&d.x).unwrap();
        for i in 0..p.rows() {
            let s: f64 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_weight_length_mismatch() {
        let x = Matrix::zeros(3, 1);
        let r = Tree::fit(&x, &[0.0, 1.0, 0.0], Some(&[1.0]), 2, &TreeConfig::classification());
        assert!(r.is_err());
    }

    /// With enough bins every distinct value gets its own bin and the cut
    /// points are exactly the exact splitter's candidate midpoints, so the
    /// two strategies must grow identical trees.
    fn assert_histogram_matches_best(
        x: &Matrix,
        y: &[f64],
        n_outputs: usize,
        base: &TreeConfig,
    ) {
        let mut exact_cfg = base.clone();
        exact_cfg.split_strategy = SplitStrategy::Best;
        let mut hist_cfg = base.clone();
        hist_cfg.split_strategy = SplitStrategy::Histogram;
        hist_cfg.max_bins = u16::MAX as usize + 1;
        let exact = Tree::fit(x, y, None, n_outputs, &exact_cfg).unwrap();
        let hist = Tree::fit(x, y, None, n_outputs, &hist_cfg).unwrap();
        assert_eq!(exact.n_nodes(), hist.n_nodes(), "node counts diverge");
        for i in 0..x.rows() {
            let a = exact.predict_row(x.row(i));
            let b = hist.predict_row(x.row(i));
            for (va, vb) in a.iter().zip(b.iter()) {
                assert!((va - vb).abs() < 1e-9, "row {i}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn histogram_matches_best_on_classification() {
        let d = easy_binary();
        assert_histogram_matches_best(&d.x, &d.y, 2, &TreeConfig::classification());
        let m = easy_multiclass();
        assert_histogram_matches_best(&m.x, &m.y, 3, &TreeConfig::classification());
        let mut entropy = TreeConfig::classification();
        entropy.criterion = Criterion::Entropy;
        assert_histogram_matches_best(&d.x, &d.y, 2, &entropy);
    }

    #[test]
    fn histogram_matches_best_on_regression() {
        let d = make_piecewise(300, 3, 3, 0.05, 9);
        assert_histogram_matches_best(&d.x, &d.y, 1, &TreeConfig::regression());
    }

    #[test]
    fn histogram_matches_best_with_min_samples_leaf() {
        let d = easy_binary();
        let mut cfg = TreeConfig::classification();
        cfg.min_samples_leaf = 7;
        cfg.max_depth = 6;
        assert_histogram_matches_best(&d.x, &d.y, 2, &cfg);
    }

    #[test]
    fn histogram_with_few_bins_still_learns() {
        let d = nonlinear_binary();
        let ((xt, yt), (xv, yv)) = split(&d);
        let mut cfg = TreeConfig::classification();
        cfg.split_strategy = SplitStrategy::Histogram;
        cfg.max_bins = 16;
        let mut m = DecisionTreeClassifier::new(cfg);
        m.fit(&xt, &yt).unwrap();
        let acc = accuracy(&yv, &m.predict(&xv).unwrap());
        assert!(acc > 0.85, "test accuracy {acc}");
    }

    #[test]
    fn binned_fit_respects_weights() {
        let x = Matrix::from_vec(4, 1, vec![0.0, 0.0, 0.0, 0.0]).unwrap();
        let y = vec![0.0, 0.0, 1.0, 1.0];
        let w = vec![1.0, 1.0, 3.0, 3.0];
        let bm = BinnedMatrix::from_matrix(&x, 255);
        let tree = Tree::fit_binned(&bm, &y, Some(&w), 2, &TreeConfig::classification()).unwrap();
        let v = tree.predict_row(&[0.0]);
        assert!((v[1] - 0.75).abs() < 1e-12, "{v:?}");
    }

    #[test]
    fn zero_weight_rows_are_ignored() {
        // Rows 4..8 would flip the majority class were they not zeroed out.
        let x = Matrix::from_vec(8, 1, vec![0.0; 8]).unwrap();
        let y = vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let w = vec![1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        for strategy in [SplitStrategy::Best, SplitStrategy::Histogram] {
            let mut cfg = TreeConfig::classification();
            cfg.split_strategy = strategy;
            let tree = Tree::fit(&x, &y, Some(&w), 2, &cfg).unwrap();
            let v = tree.predict_row(&[0.0]);
            assert!((v[0] - 0.75).abs() < 1e-12, "{strategy:?}: {v:?}");
        }
        let all_zero = Tree::fit(&x, &y, Some(&[0.0; 8]), 2, &TreeConfig::classification());
        assert!(all_zero.is_err());
    }

    /// Exact (bitwise) equality of two fitted trees: same shape, and every
    /// training row lands in a leaf with identical value bits.
    fn assert_trees_identical(a: &Tree, b: &Tree, x: &Matrix, label: &str) {
        assert_eq!(a.n_nodes(), b.n_nodes(), "{label}: node counts");
        assert_eq!(a.depth(), b.depth(), "{label}: depths");
        for i in 0..x.rows() {
            assert_eq!(
                a.predict_row(x.row(i)),
                b.predict_row(x.row(i)),
                "{label}: row {i} leaf values"
            );
        }
    }

    /// Deterministic per-row weights exercising the weighted kernels.
    fn varied_weights(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.5).collect()
    }

    /// An `(x, y, weights, n_outputs)` fit instance for kernel-parity tests.
    type FitCase<'a> = (&'a Matrix, &'a [f64], Option<&'a [f64]>, usize);

    #[test]
    fn u8_and_u16_codes_grow_identical_trees() {
        let d = easy_multiclass();
        let r = make_piecewise(250, 4, 3, 0.05, 11);
        let w = varied_weights(d.x.rows());
        let wr = varied_weights(r.x.rows());
        let cases: [(FitCase, TreeConfig); 3] = [
            ((&d.x, &d.y, None, 3), TreeConfig::classification()),
            ((&d.x, &d.y, Some(&w), 3), TreeConfig::classification()),
            ((&r.x, &r.y, Some(&wr), 1), TreeConfig::regression()),
        ];
        for ((x, y, weights, n_outputs), cfg) in cases {
            let narrow = BinnedMatrix::from_matrix(x, cfg.max_bins);
            let wide = BinnedMatrix::from_matrix_u16(x, cfg.max_bins);
            assert!(narrow.is_u8() && !wide.is_u8());
            let a = Tree::fit_binned(&narrow, y, weights, n_outputs, &cfg).unwrap();
            let b = Tree::fit_binned(&wide, y, weights, n_outputs, &cfg).unwrap();
            assert_trees_identical(&a, &b, x, "u8 vs u16");
        }
    }

    #[test]
    fn flat_and_per_node_kernels_are_bitwise_identical() {
        let d = easy_multiclass();
        let r = make_piecewise(250, 4, 3, 0.05, 13);
        let w = varied_weights(d.x.rows());
        let wr = varied_weights(r.x.rows());
        // A root above 256 rows, and four-level columns whose bins hold
        // rows of both children of most splits.
        let big = make_piecewise(700, 5, 3, 0.05, 17);
        let wb = varied_weights(big.x.rows());
        let tied = discretize(make_piecewise(300, 5, 3, 0.05, 19), 3);
        let tied_cls = discretize(easy_multiclass(), 3);
        for max_features in [MaxFeatures::All, MaxFeatures::Sqrt] {
            let mut cls = TreeConfig::classification();
            cls.max_features = max_features;
            let mut reg = TreeConfig::regression();
            reg.max_features = max_features;
            reg.seed = 42;
            let cases: [(FitCase, &TreeConfig); 7] = [
                ((&d.x, &d.y, Some(&w), 3), &cls),
                ((&d.x, &d.y, None, 3), &cls),
                ((&r.x, &r.y, Some(&wr), 1), &reg),
                ((&big.x, &big.y, Some(&wb), 1), &reg),
                ((&big.x, &big.y, None, 1), &reg),
                ((&tied.x, &tied.y, None, 1), &reg),
                ((&tied_cls.x, &tied_cls.y, Some(&w), 3), &cls),
            ];
            for ((x, y, weights, n_outputs), cfg) in cases {
                let bm = BinnedMatrix::from_matrix(x, cfg.max_bins);
                let flat = Tree::fit_binned(&bm, y, weights, n_outputs, cfg).unwrap();
                let mut legacy_cfg = cfg.clone();
                legacy_cfg.hist_kernel = HistKernel::PerNode;
                let legacy = Tree::fit_binned(&bm, y, weights, n_outputs, &legacy_cfg).unwrap();
                assert_trees_identical(&flat, &legacy, x, "flat vs per-node");
            }
        }
    }

    #[test]
    fn feature_parallel_fill_is_bitwise_identical() {
        // Large enough that the root (and several descendants) clear
        // FEATURE_PARALLEL_MIN_CELLS, so the chunked fill + merge really
        // runs instead of falling back to the serial path.
        let d = make_xor(1400, 8, 4, 0.05, 21);
        let cfg = TreeConfig::classification();
        let bm = BinnedMatrix::from_matrix(&d.x, cfg.max_bins);
        crate::binned::stats::take();
        let serial = Tree::fit_binned(&bm, &d.y, None, 2, &cfg).unwrap();
        let serial_tally = crate::binned::stats::take();
        assert_eq!(serial_tally.feature_parallel_merges, 0);
        let mut merges = Vec::new();
        for jobs in [2, 3, 8] {
            let mut par_cfg = cfg.clone();
            par_cfg.hist_n_jobs = jobs;
            let par = Tree::fit_binned(&bm, &d.y, None, 2, &par_cfg).unwrap();
            assert_trees_identical(&par, &serial, &d.x, "feature-parallel vs serial");
            let tally = crate::binned::stats::take();
            assert_eq!(tally.hist_node_scans, serial_tally.hist_node_scans, "jobs={jobs}");
            assert_eq!(tally.hist_bytes_scanned, serial_tally.hist_bytes_scanned, "jobs={jobs}");
            merges.push(tally.feature_parallel_merges);
        }
        // Which nodes clear the threshold is a property of the tree, not of
        // the job count.
        assert!(merges[0] > 0, "parallel fill never ran");
        assert!(merges.iter().all(|&m| m == merges[0]), "{merges:?}");
    }

    #[test]
    fn touched_bins_and_runs_walk_exactly_the_set() {
        let mut rng = rng_from_seed(5);
        for case in 0..200 {
            // Densities from sparse to full, so runs cross word edges; the
            // padded width, and wider features whose runs cross more than
            // four words, one of them ending mid-word.
            let density = (case % 9) as f64 / 8.0;
            let n_bins = [PAD_BINS, 300, 384][case % 3];
            let mut touched = Touched::default();
            touched.clear(2, n_bins.div_ceil(64));
            touched.set_all(0, n_bins);
            let mut set = Vec::new();
            for b in 0..n_bins {
                if rng.random::<f64>() < density {
                    touched.feature_mut(1)[b / 64] |= 1 << (b % 64);
                    set.push(b);
                }
            }
            let limit = rng.random_range(0..=n_bins);
            let mut all = Vec::new();
            touched.for_each_run(0, limit, |run| all.push(run));
            let want_all: Vec<Range<usize>> = (limit > 0).then_some(0..limit).into_iter().collect();
            assert_eq!(all, want_all, "case {case}: set_all");
            // The second feature's words follow the first's.
            let want: Vec<usize> = set.into_iter().filter(|&b| b < limit).collect();
            let mut runs: Vec<Range<usize>> = Vec::new();
            touched.for_each_run(1, limit, |run| runs.push(run));
            let got: Vec<usize> = runs.iter().flat_map(|r| r.clone()).collect();
            assert_eq!(got, want, "case {case}");
            assert!(runs.iter().all(|r| !r.is_empty()), "case {case}");
            let maximal = runs.windows(2).all(|w| w[0].end < w[1].start);
            assert!(maximal, "case {case}: runs not maximal");
            let mut bins = Vec::new();
            touched.for_each_bin(1, limit, |b| bins.push(b));
            assert_eq!(bins, want, "case {case}");
        }
    }

    #[test]
    fn arena_pool_is_reused_within_a_tree() {
        let d = make_xor(600, 4, 4, 0.05, 3);
        let bm = BinnedMatrix::from_matrix(&d.x, 255);
        let fit = || {
            crate::binned::stats::take();
            let _ = Tree::fit_binned(&bm, &d.y, None, 2, &TreeConfig::classification()).unwrap();
            crate::binned::stats::take()
        };
        // This test's thread starts with an empty pool: the first fit
        // allocates as many slabs as are ever live at once and recycles the
        // rest; the second finds the pool warm and allocates nothing.
        let cold = fit();
        assert!(cold.arena_reuses > 0 && cold.arena_reuses < cold.hist_node_scans, "{cold:?}");
        let warm = fit();
        assert_eq!(warm.hist_node_scans, cold.hist_node_scans);
        assert_eq!(warm.arena_reuses, warm.hist_node_scans, "a warm pool serves every node");
    }
}
