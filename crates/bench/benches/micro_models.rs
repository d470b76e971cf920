//! Criterion micro-benchmarks for the model zoo — per-evaluation training
//! costs that dominate the AutoML budget — plus a timed exact-vs-histogram
//! forest comparison at AutoML-realistic scale (~10k rows) that emits
//! `results/BENCH_models.json`.

use criterion::{criterion_group, Criterion};
use rand::RngExt;
use std::hint::black_box;
use std::time::Instant;
use volcanoml_data::rand_util::{derive_seed, rng_from_seed};
use volcanoml_data::synthetic::{
    make_classification, make_regression, ClassificationSpec, RegressionSpec,
};
use volcanoml_data::{metrics::accuracy, train_test_split};
use volcanoml_models::binned::{BinnedMatrix, DEFAULT_MAX_BINS};
use volcanoml_models::forest::{ForestClassifier, ForestConfig};
use volcanoml_models::linear::{LogisticRegression, RidgeRegression};
use volcanoml_models::svm::{Kernel, SvmClassifier};
use volcanoml_models::tree::{
    DecisionTreeClassifier, HistKernel, MaxFeatures, SplitStrategy, Tree, TreeConfig,
};
use volcanoml_models::Estimator;

fn bench_models(c: &mut Criterion) {
    let d = make_classification(
        &ClassificationSpec {
            n_samples: 500,
            n_features: 12,
            n_informative: 6,
            n_redundant: 2,
            n_classes: 3,
            class_sep: 1.0,
            flip_y: 0.02,
            weights: Vec::new(),
        },
        0,
    );
    c.bench_function("models/tree_fit_500x12", |b| {
        b.iter(|| {
            let mut m = DecisionTreeClassifier::new(TreeConfig::classification());
            m.fit(&d.x, &d.y).unwrap();
            black_box(m)
        })
    });
    c.bench_function("models/forest50_fit_500x12", |b| {
        b.iter(|| {
            let mut m = ForestClassifier::new(ForestConfig::random_forest());
            m.fit(&d.x, &d.y).unwrap();
            black_box(m)
        })
    });
    c.bench_function("models/forest50_hist_fit_500x12", |b| {
        b.iter(|| {
            let mut cfg = ForestConfig::random_forest();
            cfg.split_strategy = SplitStrategy::Histogram;
            let mut m = ForestClassifier::new(cfg);
            m.fit(&d.x, &d.y).unwrap();
            black_box(m)
        })
    });
    c.bench_function("models/logistic_fit_500x12", |b| {
        b.iter(|| {
            let mut m = LogisticRegression::new(1e-4, 0.1, 30, 0);
            m.fit(&d.x, &d.y).unwrap();
            black_box(m)
        })
    });

    let r = make_regression(
        &RegressionSpec {
            n_samples: 500,
            n_features: 12,
            n_informative: 6,
            noise: 0.3,
            nonlinear: false,
        },
        1,
    );
    c.bench_function("models/ridge_fit_500x12", |b| {
        b.iter(|| {
            let mut m = RidgeRegression::new(1.0);
            m.fit(&r.x, &r.y).unwrap();
            black_box(m)
        })
    });

    // Prediction throughput.
    let mut forest = ForestClassifier::new(ForestConfig::random_forest());
    forest.fit(&d.x, &d.y).unwrap();
    c.bench_function("models/forest50_predict_500", |b| {
        b.iter(|| black_box(forest.predict(&d.x).unwrap()))
    });
}

/// Times one forest fit, taking the fastest of `reps` identical fits —
/// single-shot wall clocks on a busy box swing ±20 %, which is wider than
/// the ratios `scripts/ci.sh` gates on. Returns `(fit_ms, test_accuracy)`.
fn timed_forest_fit(
    train: &volcanoml_data::Dataset,
    test: &volcanoml_data::Dataset,
    strategy: SplitStrategy,
    n_jobs: usize,
    reps: usize,
) -> (f64, f64) {
    let mut cfg = ForestConfig::random_forest();
    cfg.n_estimators = 40;
    cfg.split_strategy = strategy;
    cfg.n_jobs = n_jobs;
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

/// Histogram forest training at ~10k rows: exact-vs-histogram headline,
/// per-`n_jobs` rows, the PR 2 kernel (forced-u16 codes + per-node buffers)
/// against the flat u8 kernel, and one
/// `kernel_svm` row for the Gram-matrix SMO path. Written to
/// `results/BENCH_models.json`; `scripts/ci.sh` gates on the accuracy and
/// parallel fields.
fn histogram_speedup_report() {
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
    // The exact fit is the slow headline-only number (no ratio gate), one
    // rep; the histogram fits feed the ci.sh ratio gates, best-of-2.
    let (exact_ms, exact_acc) = timed_forest_fit(&train, &test, SplitStrategy::Best, 1, 1);
    let (hist_ms, hist_acc) = timed_forest_fit(&train, &test, SplitStrategy::Histogram, 1, 2);
    let (hist2_ms, hist2_acc) =
        timed_forest_fit(&train, &test, SplitStrategy::Histogram, 2, 2);
    let (hist4_ms, hist4_acc) =
        timed_forest_fit(&train, &test, SplitStrategy::Histogram, 4, 2);
    assert_eq!(hist_acc, hist2_acc, "n_jobs must not change the fit");
    assert_eq!(hist_acc, hist4_acc, "n_jobs must not change the fit");

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

    let (svm_fit_ms, svm_predict_ms) = timed_kernel_svm(3);

    let speedup = exact_ms / hist_ms;
    let parallel_speedup = hist_ms / hist4_ms;
    let kernel_speedup = legacy_kernel_ms / flat_kernel_ms;
    let n_cpus = volcanoml_models::parallel::hardware_parallelism();
    let json = format!(
        "{{\n  \"bench\": \"forest40_fit_{}x{}\",\n  \"n_rows\": {},\n  \"n_features\": {},\n  \
         \"n_trees\": 40,\n  \"n_cpus\": {n_cpus},\n  \"exact_fit_ms\": {exact_ms:.1},\n  \
         \"hist_fit_ms\": {hist_ms:.1},\n  \"speedup\": {speedup:.2},\n  \
         \"hist_fit_ms_n_jobs1\": {hist_ms:.1},\n  \"hist_fit_ms_n_jobs2\": {hist2_ms:.1},\n  \
         \"hist_fit_ms_n_jobs4\": {hist4_ms:.1},\n  \
         \"parallel_speedup\": {parallel_speedup:.2},\n  \
         \"legacy_kernel_ms\": {legacy_kernel_ms:.1},\n  \
         \"flat_kernel_ms\": {flat_kernel_ms:.1},\n  \
         \"kernel_speedup\": {kernel_speedup:.2},\n  \
         \"exact_acc\": {exact_acc:.4},\n  \
         \"hist_acc\": {hist_acc:.4},\n  \"accuracy_delta\": {:.4},\n  \
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
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_models
}

fn main() {
    // Quick mode (scripts/ci.sh smoke): skip the criterion micro-benches
    // and run only the JSON report, which the gate below parses.
    if volcanoml_bench::quick() {
        println!("VOLCANO_QUICK set: skipping criterion micro-benches");
    } else {
        benches();
    }
    histogram_speedup_report();
}
