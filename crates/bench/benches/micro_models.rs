//! Timed model-kernel report, written to `results/BENCH_models.json`: the
//! comparisons no `benchmark/` metric makes — exact vs histogram forest at
//! AutoML-realistic scale (~10k rows) and at the small-data scale of the
//! benchmark's regression trials (225 rows), the flat u8 histogram kernel vs
//! the `PerNode` u16 reference kernel, and one kernel-SVM row. Per-family fit
//! times and the `n_jobs` speed-up are `benchmark/`'s `models.fit_s.*` and
//! `models.forest.n_jobs_speedup`.

use rand::RngExt;
use std::hint::black_box;
use std::time::Instant;
use volcanoml_data::rand_util::{derive_seed, rng_from_seed};
use volcanoml_data::synthetic::{
    make_classification, make_regression, ClassificationSpec, RegressionSpec,
};
use volcanoml_data::{metrics::accuracy, train_test_split};
use volcanoml_models::binned::{BinnedMatrix, DEFAULT_MAX_BINS};
use volcanoml_models::forest::{ForestClassifier, ForestConfig, ForestRegressor};
use volcanoml_models::svm::{Kernel, SvmClassifier};
use volcanoml_models::tree::{HistKernel, MaxFeatures, SplitStrategy, Tree, TreeConfig};
use volcanoml_models::Estimator;

/// Times one forest fit, taking the fastest of `reps` identical fits —
/// single-shot wall clocks on a busy box swing ±20 %, which is wider than
/// the ratios `scripts/ci.sh` gates on. Returns `(fit_ms, test_accuracy)`.
fn timed_forest_fit(
    train: &volcanoml_data::Dataset,
    test: &volcanoml_data::Dataset,
    strategy: SplitStrategy,
    reps: usize,
) -> (f64, f64) {
    let mut cfg = ForestConfig::random_forest();
    cfg.n_estimators = 40;
    cfg.split_strategy = strategy;
    let mut fit_ms = f64::INFINITY;
    let mut acc = 0.0;
    for _ in 0..reps.max(1) {
        let mut m = ForestClassifier::new(cfg.clone());
        let start = Instant::now();
        m.fit(&train.x, &train.y).unwrap();
        fit_ms = fit_ms.min(start.elapsed().as_secs_f64() * 1e3);
        acc = accuracy(&test.y, &m.predict(&test.x).unwrap());
    }
    (fit_ms, acc)
}

/// Times a 50-tree all-features random-forest regressor on 225 × 10 — the
/// shape of most fits in the benchmark's small regression workloads, where
/// nodes are small and per-node slab sweeps, not fills, decide the cost.
/// Returns the fastest of `reps` fits in ms.
fn timed_small_forest_reg(strategy: SplitStrategy, reps: usize) -> f64 {
    let d = make_regression(
        &RegressionSpec {
            n_samples: 225,
            n_features: 10,
            n_informative: 6,
            noise: 0.2,
            nonlinear: true,
        },
        5,
    );
    let mut cfg = ForestConfig::random_forest();
    cfg.max_features = MaxFeatures::All;
    cfg.split_strategy = strategy;
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let mut m = ForestRegressor::new(cfg.clone());
        let start = Instant::now();
        m.fit(&d.x, &d.y).unwrap();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        black_box(&m);
    }
    best
}

/// Fits `n_trees` bootstrapped histogram trees against a prebuilt binned
/// layout with one kernel. Both kernels are handed identical statistical
/// work (same seeds, same bootstrap weights, same cut points), so the
/// timing ratio isolates per-node kernel cost: u8 vs u16 code reads, fused
/// vs per-access row statistics, pooled flat arenas vs per-node buffers.
fn timed_kernel_fit(
    bm: &BinnedMatrix,
    y: &[f64],
    n_classes: usize,
    kernel: HistKernel,
    n_trees: u64,
    reps: usize,
) -> f64 {
    let n = bm.n_rows();
    // The bootstrap weights are statistical setup shared by both kernels,
    // not kernel work — build them outside the timed region.
    let counts: Vec<Vec<f64>> = (0..n_trees)
        .map(|t| {
            let mut rng = rng_from_seed(derive_seed(0, 5000 + t));
            let mut c = vec![0.0; n];
            for _ in 0..n {
                c[rng.random_range(0..n)] += 1.0;
            }
            c
        })
        .collect();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        for t in 0..n_trees {
            let mut cfg = TreeConfig::classification();
            cfg.split_strategy = SplitStrategy::Histogram;
            cfg.max_features = MaxFeatures::Sqrt;
            cfg.max_depth = 14;
            cfg.hist_kernel = kernel;
            cfg.seed = derive_seed(0, t);
            black_box(Tree::fit_binned(bm, y, Some(&counts[t as usize]), n_classes, &cfg).unwrap());
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Times a 3-class RBF SVC on 2000×30 — the shape of the benchmark's
/// `volcano_large` trials, so the fit runs on the capped 600-row working set
/// and predict scores all 2000 rows. Returns the fastest of `reps` as
/// `(fit_ms, predict_ms)`.
fn timed_kernel_svm(reps: usize) -> (f64, f64) {
    let d = make_classification(
        &ClassificationSpec {
            n_samples: 2000,
            n_features: 30,
            n_informative: 12,
            n_redundant: 4,
            n_classes: 3,
            class_sep: 1.0,
            flip_y: 0.02,
            weights: Vec::new(),
        },
        11,
    );
    let (mut fit_ms, mut predict_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        let mut m = SvmClassifier::new(1.0, Kernel::Rbf { gamma: 1.0 / 30.0 }, 0);
        let start = Instant::now();
        m.fit(&d.x, &d.y).unwrap();
        fit_ms = fit_ms.min(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        black_box(m.predict(&d.x).unwrap());
        predict_ms = predict_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (fit_ms, predict_ms)
}

/// Histogram forest training at ~10k rows: exact-vs-histogram headline, the
/// PR 2 kernel (forced-u16 codes + per-node buffers) against the flat u8
/// kernel, the small-data forest row, and one `kernel_svm` row for the
/// Gram-matrix SMO path. After the report is written the bench asserts its
/// three gates — `|accuracy_delta| ≤ 0.01`, `kernel_speedup ≥ 1.0` and a
/// small-data histogram fit at most 2× the exact one — so `cargo bench
/// --bench micro_models` fails when any does, with the numbers still on
/// disk.
fn main() {
    let d = make_classification(
        &ClassificationSpec {
            n_samples: 10_000,
            n_features: 20,
            n_informative: 10,
            n_redundant: 4,
            n_classes: 3,
            class_sep: 1.0,
            flip_y: 0.02,
            weights: Vec::new(),
        },
        7,
    );
    let (train, test) = train_test_split(&d, 0.2, 0).unwrap();
    // The exact fit is the slow one and only the numerator of a headline
    // ratio nothing gates on, so one rep; the histogram fit is best-of-2.
    let (exact_ms, exact_acc) = timed_forest_fit(&train, &test, SplitStrategy::Best, 1);
    let (hist_ms, hist_acc) = timed_forest_fit(&train, &test, SplitStrategy::Histogram, 2);

    // Kernel-isolated comparison: same trees, pre-binned layouts,
    // best-of-5 passes per kernel.
    let n_trees = 40u64;
    let bm_u8 = BinnedMatrix::from_matrix(&train.x, DEFAULT_MAX_BINS);
    let bm_u16 = BinnedMatrix::from_matrix_u16(&train.x, DEFAULT_MAX_BINS);
    // One warm-up pass so allocator and slab-pool state is steady for both.
    let _ = timed_kernel_fit(&bm_u8, &train.y, 3, HistKernel::Flat, 2, 1);
    let _ = timed_kernel_fit(&bm_u16, &train.y, 3, HistKernel::PerNode, 2, 1);
    let legacy_kernel_ms = timed_kernel_fit(&bm_u16, &train.y, 3, HistKernel::PerNode, n_trees, 5);
    let flat_kernel_ms = timed_kernel_fit(&bm_u8, &train.y, 3, HistKernel::Flat, n_trees, 5);

    let small_exact_ms = timed_small_forest_reg(SplitStrategy::Best, 3);
    let small_hist_ms = timed_small_forest_reg(SplitStrategy::Histogram, 3);
    let small_ratio = small_hist_ms / small_exact_ms;

    let (svm_fit_ms, svm_predict_ms) = timed_kernel_svm(3);

    let speedup = exact_ms / hist_ms;
    let kernel_speedup = legacy_kernel_ms / flat_kernel_ms;
    let n_cpus = volcanoml_models::parallel::hardware_parallelism();
    let json = format!(
        "{{\n  \"bench\": \"forest40_fit_{}x{}\",\n  \"n_rows\": {},\n  \"n_features\": {},\n  \
         \"n_trees\": 40,\n  \"n_cpus\": {n_cpus},\n  \"exact_fit_ms\": {exact_ms:.1},\n  \
         \"hist_fit_ms\": {hist_ms:.1},\n  \"speedup\": {speedup:.2},\n  \
         \"legacy_kernel_ms\": {legacy_kernel_ms:.1},\n  \
         \"flat_kernel_ms\": {flat_kernel_ms:.1},\n  \
         \"kernel_speedup\": {kernel_speedup:.2},\n  \
         \"exact_acc\": {exact_acc:.4},\n  \
         \"hist_acc\": {hist_acc:.4},\n  \"accuracy_delta\": {:.4},\n  \
         \"small_forest_reg\": {{\"bench\": \"rf_reg50_all_225x10\", \
         \"exact_fit_ms\": {small_exact_ms:.1}, \"hist_fit_ms\": {small_hist_ms:.1}, \
         \"hist_over_exact\": {small_ratio:.2}}},\n  \
         \"kernel_svm\": {{\"bench\": \"svc_rbf_3class_2000x30\", \
         \"fit_ms\": {svm_fit_ms:.1}, \"predict_ms\": {svm_predict_ms:.1}}}\n}}\n",
        train.n_samples(),
        train.n_features(),
        train.n_samples(),
        train.n_features(),
        hist_acc - exact_acc,
    );
    println!("\nhistogram vs exact forest fit ({} rows):", train.n_samples());
    print!("{json}");
    let dir = volcanoml_bench::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("BENCH_models.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    let delta = (hist_acc - exact_acc).abs();
    assert!(
        delta <= 0.01,
        "histogram accuracy drifted {delta:.4} from exact (> 0.01)"
    );
    assert!(
        kernel_speedup >= 1.0,
        "flat kernel slower than the per-node baseline ({kernel_speedup:.2}x)"
    );
    assert!(
        small_ratio <= 2.0,
        "small-data histogram forest {small_ratio:.2}x the exact fit (> 2.0x)"
    );
    println!(
        "micro_models gates ok: kernel_speedup {kernel_speedup:.2}x on {n_cpus} cpu(s), \
         accuracy_delta {:+.4}, small-data hist/exact {small_ratio:.2}x",
        hist_acc - exact_acc
    );
}
