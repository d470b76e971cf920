//! Zero-copy dataset views.
//!
//! A [`DatasetView`] is `Arc`-shared immutable storage plus an optional
//! row-index view. It is the unit of data passed along the whole trial
//! pipeline: fidelity subsampling, train/validation splits, and CV folds
//! all become index arithmetic over one shared [`Dataset`], and actual row
//! copies ("gathers") happen exactly once per pipeline fit — after the
//! evaluator's FE-cache lookup misses. A *full* view (no index array) hands
//! out borrowed references to the backing matrix, so full-fidelity trials
//! copy zero bytes.
//!
//! View-of-view composition flattens: `view.select(a).select(b)` holds a
//! single index array into the original storage, never a chain of
//! indirections, so gather cost is independent of how the view was built.
//!
//! Gather traffic is tallied on the thread that does it ([`stats`]); the
//! evaluator takes the tally of each trial it runs and sums those into the
//! run's `data.bytes_gathered` / `data.gathers_skipped`. Only feature-matrix
//! row gathers count toward `bytes_gathered`; target-vector copies are
//! excluded (they are two orders of magnitude smaller and would drown the
//! signal the counter exists to expose).

use crate::dataset::{Dataset, FeatureType, Task};
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::Arc;
use volcanoml_linalg::Matrix;

/// Per-thread gather accounting. Whoever wants a stretch of work counted
/// calls [`stats::take`] before it (discarding what the thread did earlier)
/// and again after it, on the same thread.
pub mod stats {
    use std::cell::Cell;

    thread_local! {
        static BYTES_GATHERED: Cell<u64> = const { Cell::new(0) };
        static GATHERS_SKIPPED: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn add_bytes(n: u64) {
        BYTES_GATHERED.with(|c| c.set(c.get() + n));
    }

    pub(super) fn add_skip() {
        GATHERS_SKIPPED.with(|c| c.set(c.get() + 1));
    }

    /// `(bytes_gathered, gathers_skipped)` tallied on this thread since the
    /// last call; resets both to zero.
    pub fn take() -> (u64, u64) {
        (BYTES_GATHERED.take(), GATHERS_SKIPPED.take())
    }
}

/// Bound on the per-thread gather buffer pool.
const POOL_MAX: usize = 8;

thread_local! {
    static BUF_POOL: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

fn take_buf(capacity: usize) -> Vec<f64> {
    let buf = BUF_POOL.with(|p| p.borrow_mut().pop());
    match buf {
        Some(mut v) => {
            v.clear();
            v.reserve(capacity);
            v
        }
        None => Vec::with_capacity(capacity),
    }
}

/// Returns a gathered matrix's buffer to the thread-local pool so the next
/// gather on this thread reuses the allocation. Call it on matrices produced
/// by [`DatasetView::features`]/[`DatasetView::features_targets`] once they
/// are no longer needed (e.g. after an FE pipeline consumed them).
pub fn recycle(m: Matrix) {
    let v = m.into_data();
    BUF_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < POOL_MAX {
            pool.push(v);
        }
    });
}

/// An immutable, cheaply clonable view of a [`Dataset`]: shared storage
/// plus an optional row selection. See the module docs for semantics.
#[derive(Debug, Clone)]
pub struct DatasetView {
    storage: Arc<Dataset>,
    /// `None` = the full dataset in storage order (zero-copy access);
    /// `Some` = the listed storage rows, in the listed order.
    rows: Option<Arc<[usize]>>,
}

impl DatasetView {
    /// A view of the whole dataset. Accessing its features borrows the
    /// backing matrix without copying.
    pub fn full(storage: Arc<Dataset>) -> DatasetView {
        DatasetView {
            storage,
            rows: None,
        }
    }

    /// Wraps an owned dataset into a full view.
    pub fn of(dataset: Dataset) -> DatasetView {
        DatasetView::full(Arc::new(dataset))
    }

    /// A zero-row view over the given storage — a placeholder that performs
    /// no gathers and holds no row data.
    pub fn empty(storage: Arc<Dataset>) -> DatasetView {
        DatasetView {
            storage,
            rows: Some(Arc::from(Vec::new())),
        }
    }

    /// Returns the view of `positions` *within this view* (view-of-view
    /// composition). The result always holds a single flattened index array
    /// into the original storage.
    pub fn select(&self, positions: &[usize]) -> DatasetView {
        let rows: Vec<usize> = match &self.rows {
            None => positions.to_vec(),
            Some(base) => positions.iter().map(|&p| base[p]).collect(),
        };
        DatasetView {
            storage: Arc::clone(&self.storage),
            rows: Some(rows.into()),
        }
    }

    /// The shared backing dataset.
    pub fn storage(&self) -> &Arc<Dataset> {
        &self.storage
    }

    /// True when the view covers the whole dataset in storage order (the
    /// zero-copy fast path).
    pub fn is_full(&self) -> bool {
        self.rows.is_none()
    }

    /// The storage row indices of an index view; `None` for a full view.
    pub fn row_indices(&self) -> Option<&[usize]> {
        self.rows.as_deref()
    }

    /// Number of rows visible through the view.
    pub fn n_samples(&self) -> usize {
        self.rows
            .as_ref()
            .map_or(self.storage.n_samples(), |r| r.len())
    }

    /// Number of features (view-invariant).
    pub fn n_features(&self) -> usize {
        self.storage.n_features()
    }

    /// Task of the backing dataset.
    pub fn task(&self) -> Task {
        self.storage.task
    }

    /// Number of classes of the backing dataset (0 for regression).
    pub fn n_classes(&self) -> usize {
        self.storage.n_classes
    }

    /// Per-column feature kinds (view-invariant).
    pub fn feature_types(&self) -> &[FeatureType] {
        &self.storage.feature_types
    }

    /// Target of the `i`-th visible row.
    #[inline]
    pub fn label(&self, i: usize) -> f64 {
        match &self.rows {
            None => self.storage.y[i],
            Some(r) => self.storage.y[r[i]],
        }
    }

    /// The target vector through the view — borrowed for full views, copied
    /// for index views. Target copies are *not* counted in [`stats`].
    pub fn targets(&self) -> Cow<'_, [f64]> {
        match &self.rows {
            None => Cow::Borrowed(&self.storage.y),
            Some(r) => Cow::Owned(r.iter().map(|&i| self.storage.y[i]).collect()),
        }
    }

    /// Per-class sample counts through the view. Empty for regression.
    pub fn class_counts(&self) -> Vec<usize> {
        if self.task() != Task::Classification {
            return Vec::new();
        }
        let mut counts = vec![0usize; self.n_classes()];
        match &self.rows {
            None => {
                for &label in &self.storage.y {
                    counts[label as usize] += 1;
                }
            }
            Some(r) => {
                for &i in r.iter() {
                    counts[self.storage.y[i] as usize] += 1;
                }
            }
        }
        counts
    }

    fn gather_x(&self, rows: &[usize]) -> Matrix {
        let cols = self.storage.x.cols();
        let mut data = take_buf(rows.len() * cols);
        for &i in rows {
            data.extend_from_slice(self.storage.x.row(i));
        }
        stats::add_bytes((rows.len() * cols * std::mem::size_of::<f64>()) as u64);
        Matrix::from_vec(rows.len(), cols, data).expect("gather buffer has exact size")
    }

    /// The feature matrix through the view. A full view borrows the backing
    /// matrix (counted as a skipped gather); an index view copies the
    /// selected rows through the pooled gather buffer (counted in
    /// `bytes_gathered`).
    pub fn features(&self) -> Cow<'_, Matrix> {
        match &self.rows {
            None => {
                stats::add_skip();
                Cow::Borrowed(&self.storage.x)
            }
            Some(r) => Cow::Owned(self.gather_x(r)),
        }
    }

    /// Features and targets in one call, with the same borrow/gather
    /// semantics as [`DatasetView::features`] and [`DatasetView::targets`].
    pub fn features_targets(&self) -> (Cow<'_, Matrix>, Cow<'_, [f64]>) {
        (self.features(), self.targets())
    }

    /// Materializes the view into an owned [`Dataset`]. Always copies (and
    /// counts the feature bytes as gathered) — use the `Cow` accessors on
    /// the trial path instead.
    pub fn materialize(&self) -> Dataset {
        match &self.rows {
            None => {
                stats::add_bytes(
                    (self.storage.x.rows() * self.storage.x.cols() * std::mem::size_of::<f64>())
                        as u64,
                );
                (*self.storage).clone()
            }
            Some(r) => Dataset {
                name: self.storage.name.clone(),
                x: self.gather_x(r),
                y: r.iter().map(|&i| self.storage.y[i]).collect(),
                feature_types: self.storage.feature_types.clone(),
                task: self.storage.task,
                n_classes: self.storage.n_classes,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::FeatureType;

    fn dataset(n: usize) -> Dataset {
        let x = Matrix::from_vec(n, 2, (0..2 * n).map(|v| v as f64).collect()).unwrap();
        let y: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        Dataset::classification("t", x, y, vec![FeatureType::Numerical; 2]).unwrap()
    }

    #[test]
    fn full_view_borrows_without_copy() {
        let v = DatasetView::of(dataset(10));
        assert!(v.is_full());
        assert_eq!(v.n_samples(), 10);
        let (x, y) = v.features_targets();
        assert!(matches!(x, Cow::Borrowed(_)));
        assert!(matches!(y, Cow::Borrowed(_)));
        assert_eq!(x.rows(), 10);
        assert_eq!(y.len(), 10);
    }

    #[test]
    fn index_view_gathers_selected_rows() {
        let d = dataset(6);
        let expected = d.subset(&[5, 1, 3]);
        let v = DatasetView::of(d).select(&[5, 1, 3]);
        assert_eq!(v.n_samples(), 3);
        let (x, y) = v.features_targets();
        assert_eq!(x.data(), expected.x.data());
        assert_eq!(y.as_ref(), expected.y.as_slice());
        assert_eq!(v.materialize().x.data(), expected.x.data());
    }

    #[test]
    fn view_of_view_flattens_to_storage_indices() {
        let d = dataset(8);
        let direct = d.subset(&[7, 2]);
        let outer = DatasetView::of(d).select(&[1, 3, 5, 7, 2]);
        let inner = outer.select(&[3, 4]); // rows 7 and 2 of storage
        assert_eq!(inner.row_indices(), Some(&[7usize, 2][..]));
        assert_eq!(inner.materialize().x.data(), direct.x.data());
        assert_eq!(inner.label(0), 1.0); // 7 % 3
    }

    #[test]
    fn empty_view_has_no_rows() {
        let v = DatasetView::empty(Arc::new(dataset(5)));
        assert_eq!(v.n_samples(), 0);
        assert!(!v.is_full());
        assert!(v.targets().is_empty());
        assert_eq!(v.class_counts(), vec![0, 0, 0]);
    }

    #[test]
    fn class_counts_follow_the_view() {
        let d = dataset(9); // labels 0,1,2 repeating
        let v = DatasetView::of(d);
        assert_eq!(v.class_counts(), vec![3, 3, 3]);
        let sel = v.select(&[0, 3, 6, 1]);
        assert_eq!(sel.class_counts(), vec![3, 1, 0]);
    }

    #[test]
    fn gather_counters_track_copies_and_skips() {
        let d = dataset(4);
        stats::take();
        let full = DatasetView::of(d);
        let _ = full.features();
        assert_eq!(stats::take(), (0, 1), "full-view access counts one skip");
        let sel = full.select(&[0, 2]);
        let x = sel.features();
        assert_eq!(stats::take(), (2 * 2 * 8, 0), "index gather counts its bytes");
        if let Cow::Owned(m) = x {
            recycle(m);
        }
        // Another thread's gathers land in that thread's tally, not here.
        std::thread::scope(|s| {
            s.spawn(|| {
                let _ = sel.features();
                assert_eq!(stats::take(), (2 * 2 * 8, 0));
            });
        });
        assert_eq!(stats::take(), (0, 0));
    }
}
