//! Binned (histogram) dataset layout for fast tree training.
//!
//! [`BinnedMatrix`] quantizes every feature column once into at most
//! `max_bins` ordered bins (LightGBM-style), storing column-major bin codes
//! plus the raw-value cut points between adjacent bins. Tree builders then
//! scan per-node *bin histograms* instead of re-sorting rows at every node,
//! and an ensemble can share one binned layout across all of its trees.
//! Chosen thresholds are mapped back to raw feature space, so a tree fitted
//! on a `BinnedMatrix` predicts directly on raw [`Matrix`] rows.
//!
//! Memory layout (bandwidth-lean, PR 7):
//! - Bin codes are `u8` whenever `max_bins <= 256` (the default 255 fits),
//!   halving code-array traffic on every per-node histogram fill; the `u16`
//!   path remains for callers that raise `max_bins`.
//! - Cut points live in one flat `Vec<f64>` with per-feature offsets
//!   instead of a ragged `Vec<Vec<f64>>`, and the per-feature *bin offsets*
//!   ([`BinnedMatrix::bin_offset`]) double as the layout of the flat
//!   node-major histogram arenas the tree builder fills.
//! - Binning itself parallelizes across features ([`from_matrix_jobs`];
//!   each feature's cuts and codes are independent, and columns are
//!   reassembled in feature order, so any job count is bit-identical).
//!
//! [`from_matrix_jobs`]: BinnedMatrix::from_matrix_jobs
//!
//! Binning rules:
//! - When a feature has at most `max_bins` distinct values, each distinct
//!   value gets its own bin and the cuts are the midpoints between adjacent
//!   distinct values — exactly the candidate-threshold set of the exact
//!   sorted-scan splitter, which is what makes `Histogram` splits equivalent
//!   to `Best` splits on such features.
//! - Otherwise bins are (approximately) equal-frequency: distinct values are
//!   greedily grouped until each bin holds roughly `n / max_bins` rows.
//! - Values closer than `1e-12` are treated as identical (the exact
//!   splitter's guard), so no cut can fall inside a tie group.

use crate::parallel::parallel_map;
use volcanoml_linalg::Matrix;

/// Per-thread tally of work on the binned-tree training path. The thread
/// that does the work counts it; [`crate::parallel`] hands each scoped
/// worker's tally back to the thread that spawned it, so after a fit the
/// calling thread's tally covers the whole fit whatever its `n_jobs`.
/// Whoever wants a stretch of work counted calls [`stats::take`] before it
/// (discarding what the thread did earlier) and again after it.
pub mod stats {
    use std::cell::Cell;

    /// Counts of binned-path work.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Tally {
        /// Number of [`super::BinnedMatrix`] layouts built.
        pub matrices_built: u64,
        /// Total `rows * features` cells quantized across all layouts.
        pub cells_encoded: u64,
        /// Number of per-node histogram fill passes during tree training.
        pub hist_node_scans: u64,
        /// Bin-code bytes read by histogram fill passes (`rows × candidate
        /// features × code width` per pass) — the bandwidth the u8 layout
        /// halves.
        pub hist_bytes_scanned: u64,
        /// Histogram arena slabs served from the thread-local pool instead
        /// of a fresh allocation.
        pub arena_reuses: u64,
        /// Per-node histogram fills that split features across workers and
        /// merged the partial arenas deterministically.
        pub feature_parallel_merges: u64,
        /// Histogram-slab cells (one `f64` each) visited by the passes that
        /// sweep a slab rather than fill it: sibling subtraction, split
        /// scans and slab zeroing on retirement.
        pub slab_cells_swept: u64,
    }

    impl Tally {
        /// Adds `other` to `self`, counter by counter.
        pub fn add(&mut self, other: &Tally) {
            self.matrices_built += other.matrices_built;
            self.cells_encoded += other.cells_encoded;
            self.hist_node_scans += other.hist_node_scans;
            self.hist_bytes_scanned += other.hist_bytes_scanned;
            self.arena_reuses += other.arena_reuses;
            self.feature_parallel_merges += other.feature_parallel_merges;
            self.slab_cells_swept += other.slab_cells_swept;
        }
    }

    thread_local! {
        static TALLY: Cell<Tally> = Cell::new(Tally::default());
    }

    /// Updates this thread's tally.
    pub(crate) fn bump(update: impl FnOnce(&mut Tally)) {
        TALLY.with(|cell| {
            let mut tally = cell.get();
            update(&mut tally);
            cell.set(tally);
        });
    }

    /// This thread's tally since the last call; resets it to zero.
    pub fn take() -> Tally {
        TALLY.take()
    }
}

/// Default number of bins per feature. 255 keeps codes in `u8` storage
/// (≤ 256 bins) for half the code-array bandwidth of the `u16` fallback.
pub const DEFAULT_MAX_BINS: usize = 255;

/// A bin-code element: `u8` for up to 256 bins, `u16` beyond. The trait is
/// what lets the tree builder's hot loops monomorphize per width instead of
/// branching per access.
pub trait BinCode: Copy + Send + Sync + 'static {
    /// Storage width in bytes (bandwidth accounting).
    const BYTES: usize;
    /// Encodes a bin index (caller guarantees it fits).
    fn from_bin(bin: usize) -> Self;
    /// The bin index this code denotes.
    fn bin(self) -> usize;
}

impl BinCode for u8 {
    const BYTES: usize = 1;
    #[inline]
    fn from_bin(bin: usize) -> Self {
        bin as u8
    }
    #[inline]
    fn bin(self) -> usize {
        self as usize
    }
}

impl BinCode for u16 {
    const BYTES: usize = 2;
    #[inline]
    fn from_bin(bin: usize) -> Self {
        bin as u16
    }
    #[inline]
    fn bin(self) -> usize {
        self as usize
    }
}

/// Column-major code storage at the width chosen from `max_bins`.
#[derive(Debug, Clone)]
enum Codes {
    U8(Vec<u8>),
    U16(Vec<u16>),
}

/// Borrowed view of the full code array; `codes[f * n_rows + i]` is row
/// `i`'s bin for feature `f` at either width.
#[derive(Debug, Clone, Copy)]
pub enum CodesRef<'a> {
    /// `u8` codes (`max_bins <= 256`).
    U8(&'a [u8]),
    /// `u16` codes.
    U16(&'a [u16]),
}

/// A column-major quantized view of a feature matrix.
#[derive(Debug, Clone)]
pub struct BinnedMatrix {
    n_rows: usize,
    n_features: usize,
    codes: Codes,
    /// Flat cut storage: feature `f`'s cuts are
    /// `cut_values[cut_offsets[f]..cut_offsets[f + 1]]`.
    cut_values: Vec<f64>,
    /// `n_features + 1` entries.
    cut_offsets: Vec<usize>,
    /// `bin_offsets[f]` = total bins of features `< f`; `n_features + 1`
    /// entries. This is the node-major arena layout: feature `f`'s bins of a
    /// node's flat histogram start at `bin_offsets[f] * channels`.
    bin_offsets: Vec<usize>,
}

/// One feature's quantization: cut points plus this column's codes.
fn bin_feature<C: BinCode>(
    n: usize,
    max_bins: usize,
    raw: impl Fn(usize) -> f64,
) -> (Vec<f64>, Vec<C>) {
    let mut sorted: Vec<f64> = (0..n).map(&raw).collect();
    sorted.sort_by(f64::total_cmp);
    // Distinct values with multiplicities, merging ties (< 1e-12).
    let mut distinct: Vec<(f64, usize)> = Vec::new();
    for &v in sorted.iter() {
        match distinct.last_mut() {
            Some((last, count)) if v - *last < 1e-12 => *count += 1,
            _ => distinct.push((v, 1)),
        }
    }
    let cuts = if distinct.len() <= max_bins {
        // One bin per distinct value; cuts at midpoints.
        distinct
            .windows(2)
            .map(|w| (w[0].0 + w[1].0) / 2.0)
            .collect::<Vec<f64>>()
    } else {
        // Equal-frequency grouping of distinct values.
        let target = n.div_ceil(max_bins);
        let mut c = Vec::with_capacity(max_bins - 1);
        let mut in_bin = 0usize;
        for (j, &(v, count)) in distinct.iter().enumerate() {
            in_bin += count;
            if in_bin >= target && j + 1 < distinct.len() && c.len() + 2 <= max_bins {
                c.push((v + distinct[j + 1].0) / 2.0);
                in_bin = 0;
            }
        }
        c
    };
    let codes = (0..n)
        .map(|i| C::from_bin(cuts.partition_point(|&c| raw(i) > c)))
        .collect();
    (cuts, codes)
}

/// Quantizes all `d` features at width `C`, `n_jobs`-parallel across
/// features. Columns are reassembled in feature order, so the result is
/// bit-identical for any job count.
fn bin_all<C: BinCode>(
    x: &Matrix,
    max_bins: usize,
    n_jobs: usize,
) -> (Vec<C>, Vec<f64>, Vec<usize>, Vec<usize>) {
    let (n, d) = (x.rows(), x.cols());
    let per_feature: Vec<(Vec<f64>, Vec<C>)> =
        parallel_map(n_jobs, d, |f| bin_feature(n, max_bins, |i| x.get(i, f)));
    let mut codes: Vec<C> = Vec::with_capacity(n * d);
    let mut cut_values = Vec::new();
    let mut cut_offsets = Vec::with_capacity(d + 1);
    let mut bin_offsets = Vec::with_capacity(d + 1);
    cut_offsets.push(0);
    bin_offsets.push(0);
    for (cuts, col) in per_feature {
        codes.extend_from_slice(&col);
        bin_offsets.push(bin_offsets.last().unwrap() + cuts.len() + 1);
        cut_values.extend_from_slice(&cuts);
        cut_offsets.push(cut_values.len());
    }
    (codes, cut_values, cut_offsets, bin_offsets)
}

impl BinnedMatrix {
    fn build(x: &Matrix, max_bins: usize, n_jobs: usize, force_u16: bool) -> BinnedMatrix {
        let (n, d) = (x.rows(), x.cols());
        stats::bump(|t| {
            t.matrices_built += 1;
            t.cells_encoded += (n * d) as u64;
        });
        let max_bins = max_bins.clamp(2, u16::MAX as usize + 1);
        let (codes, cut_values, cut_offsets, bin_offsets) =
            if max_bins <= u8::MAX as usize + 1 && !force_u16 {
                let (c, cv, co, bo) = bin_all::<u8>(x, max_bins, n_jobs);
                (Codes::U8(c), cv, co, bo)
            } else {
                let (c, cv, co, bo) = bin_all::<u16>(x, max_bins, n_jobs);
                (Codes::U16(c), cv, co, bo)
            };
        BinnedMatrix {
            n_rows: n,
            n_features: d,
            codes,
            cut_values,
            cut_offsets,
            bin_offsets,
        }
    }

    /// Quantizes `x` with at most `max_bins` bins per feature (serial).
    pub fn from_matrix(x: &Matrix, max_bins: usize) -> BinnedMatrix {
        BinnedMatrix::from_matrix_jobs(x, max_bins, 1)
    }

    /// Quantizes `x` with up to `n_jobs` workers splitting the features.
    pub fn from_matrix_jobs(x: &Matrix, max_bins: usize, n_jobs: usize) -> BinnedMatrix {
        BinnedMatrix::build(x, max_bins, n_jobs, false)
    }

    /// Forces `u16` code storage regardless of `max_bins`. Cut points are
    /// identical to [`BinnedMatrix::from_matrix`]'s, which makes this the
    /// equivalence oracle for u8-vs-u16 kernel tests and the PR 2 baseline
    /// for the bench rig.
    #[doc(hidden)]
    pub fn from_matrix_u16(x: &Matrix, max_bins: usize) -> BinnedMatrix {
        BinnedMatrix::build(x, max_bins, 1, true)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Bin count of feature `f` (≥ 1; constant features have one bin).
    pub fn n_bins(&self, f: usize) -> usize {
        self.cut_offsets[f + 1] - self.cut_offsets[f] + 1
    }

    /// Total bins of features `< f` — the flat-arena bin offset of feature
    /// `f`. `bin_offset(n_features)` is the total bin count of the layout.
    pub fn bin_offset(&self, f: usize) -> usize {
        self.bin_offsets[f]
    }

    /// Total bins across all features (the flat-arena row length in bins).
    pub fn total_bins(&self) -> usize {
        self.bin_offsets[self.n_features]
    }

    /// True when codes are stored as `u8` (`max_bins <= 256`).
    pub fn is_u8(&self) -> bool {
        matches!(self.codes, Codes::U8(_))
    }

    /// The full column-major code array at its storage width.
    pub fn codes(&self) -> CodesRef<'_> {
        match &self.codes {
            Codes::U8(c) => CodesRef::U8(c),
            Codes::U16(c) => CodesRef::U16(c),
        }
    }

    /// Row `i`'s bin for feature `f` (width-agnostic; convenience for tests
    /// and diagnostics — hot loops use [`BinnedMatrix::codes`]).
    pub fn code(&self, i: usize, f: usize) -> usize {
        match &self.codes {
            Codes::U8(c) => c[f * self.n_rows + i] as usize,
            Codes::U16(c) => c[f * self.n_rows + i] as usize,
        }
    }

    /// Raw-space threshold between bins `b` and `b + 1` of feature `f`:
    /// rows with `code <= b` satisfy `value <= cut(f, b)`.
    pub fn cut(&self, f: usize, b: usize) -> f64 {
        self.cut_values[self.cut_offsets[f] + b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_from_cols(cols: &[Vec<f64>]) -> Matrix {
        let n = cols[0].len();
        let d = cols.len();
        let mut m = Matrix::zeros(n, d);
        for (f, col) in cols.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                m.set(i, f, v);
            }
        }
        m
    }

    fn column(b: &BinnedMatrix, f: usize) -> Vec<usize> {
        (0..b.n_rows()).map(|i| b.code(i, f)).collect()
    }

    #[test]
    fn distinct_values_get_own_bins() {
        let x = matrix_from_cols(&[vec![3.0, 1.0, 2.0, 1.0, 3.0]]);
        let b = BinnedMatrix::from_matrix(&x, 255);
        assert!(b.is_u8(), "default max_bins must choose u8 codes");
        assert_eq!(b.n_bins(0), 3);
        assert_eq!(column(&b, 0), &[2, 0, 1, 0, 2]);
        assert!((b.cut(0, 0) - 1.5).abs() < 1e-12);
        assert!((b.cut(0, 1) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn constant_feature_has_one_bin() {
        let x = matrix_from_cols(&[vec![7.0; 6]]);
        let b = BinnedMatrix::from_matrix(&x, 255);
        assert_eq!(b.n_bins(0), 1);
        assert!(column(&b, 0).iter().all(|&c| c == 0));
    }

    #[test]
    fn many_distinct_values_are_capped() {
        let col: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let x = matrix_from_cols(&[col]);
        let b = BinnedMatrix::from_matrix(&x, 8);
        assert!(b.n_bins(0) <= 8, "{} bins", b.n_bins(0));
        assert!(b.n_bins(0) >= 4);
        // Codes must be monotone in the raw values.
        let codes = column(&b, 0);
        assert!(codes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn cuts_separate_codes() {
        let col: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).sin()).collect();
        let x = matrix_from_cols(std::slice::from_ref(&col));
        let b = BinnedMatrix::from_matrix(&x, 8);
        for (i, &v) in col.iter().enumerate() {
            let code = b.code(i, 0);
            if code > 0 {
                assert!(v > b.cut(0, code - 1));
            }
            if code + 1 < b.n_bins(0) {
                assert!(v <= b.cut(0, code));
            }
        }
    }

    #[test]
    fn near_ties_share_a_bin() {
        let x = matrix_from_cols(&[vec![1.0, 1.0 + 1e-14, 2.0]]);
        let b = BinnedMatrix::from_matrix(&x, 255);
        assert_eq!(b.n_bins(0), 2);
        assert_eq!(column(&b, 0), &[0, 0, 1]);
    }

    #[test]
    fn wide_max_bins_selects_u16() {
        let col: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let x = matrix_from_cols(&[col]);
        let b = BinnedMatrix::from_matrix(&x, 512);
        assert!(!b.is_u8());
        assert_eq!(b.n_bins(0), 300);
        assert_eq!(b.code(299, 0), 299);
    }

    #[test]
    fn u16_oracle_matches_u8_layout_exactly() {
        let cols: Vec<Vec<f64>> = (0..4)
            .map(|f| (0..60).map(|i| ((i * (f + 3)) as f64 * 0.37).sin()).collect())
            .collect();
        let x = matrix_from_cols(&cols);
        let a = BinnedMatrix::from_matrix(&x, 255);
        let b = BinnedMatrix::from_matrix_u16(&x, 255);
        assert!(a.is_u8() && !b.is_u8());
        for f in 0..x.cols() {
            assert_eq!(a.n_bins(f), b.n_bins(f), "feature {f} bin counts");
            for c in 0..a.n_bins(f) - 1 {
                assert_eq!(a.cut(f, c), b.cut(f, c), "feature {f} cut {c}");
            }
            assert_eq!(column(&a, f), column(&b, f), "feature {f} codes");
        }
    }

    #[test]
    fn parallel_binning_is_bit_identical() {
        let cols: Vec<Vec<f64>> = (0..7)
            .map(|f| (0..80).map(|i| ((i + f * 13) as f64 * 0.29).cos()).collect())
            .collect();
        let x = matrix_from_cols(&cols);
        let serial = BinnedMatrix::from_matrix_jobs(&x, 16, 1);
        for jobs in [2, 4, 8] {
            let par = BinnedMatrix::from_matrix_jobs(&x, 16, jobs);
            for f in 0..x.cols() {
                assert_eq!(serial.n_bins(f), par.n_bins(f), "jobs={jobs} feature {f}");
                assert_eq!(column(&serial, f), column(&par, f), "jobs={jobs} feature {f}");
                for c in 0..serial.n_bins(f) - 1 {
                    assert_eq!(serial.cut(f, c), par.cut(f, c));
                }
            }
        }
    }

    #[test]
    fn parallel_binning_keeps_cells_encoded_exact() {
        let x = matrix_from_cols(&[(0..50).map(|i| i as f64).collect(), vec![1.0; 50]]);
        let serial = BinnedMatrix::from_matrix_jobs(&x, 8, 1);
        stats::take();
        let par = BinnedMatrix::from_matrix_jobs(&x, 8, 4);
        let tally = stats::take();
        // Every cell is encoded exactly once whatever the job count.
        assert_eq!(par.n_rows() * par.n_features(), 100);
        for f in 0..x.cols() {
            assert_eq!(column(&serial, f), column(&par, f), "feature {f}");
        }
        assert_eq!(tally.cells_encoded, 100);
        assert_eq!(tally.matrices_built, 1);
    }

    #[test]
    fn bin_offsets_partition_the_arena() {
        let x = matrix_from_cols(&[
            (0..30).map(|i| i as f64).collect(),
            vec![2.0; 30],
            (0..30).map(|i| (i % 5) as f64).collect(),
        ]);
        let b = BinnedMatrix::from_matrix(&x, 8);
        assert_eq!(b.bin_offset(0), 0);
        let mut total = 0;
        for f in 0..3 {
            assert_eq!(b.bin_offset(f), total);
            total += b.n_bins(f);
        }
        assert_eq!(b.total_bins(), total);
    }
}
