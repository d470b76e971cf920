//! Golden digests of histogram-mode tree ensembles.
//!
//! Each test fits one ensemble on a fixed fixture and pins an FNV-1a digest
//! of its predictions on the training rows (every leaf a training row
//! reaches). The digests were recorded before the histogram slabs carried
//! their own touched-bin sets, so any change to how slabs are filled,
//! subtracted, scanned or retired must reproduce every bit. The fixtures
//! cover both fills on the padded u8 layout: the fixed-channel one
//! (regression and up to three classes) and the generic one (five classes),
//! roots above and below 256 rows, bootstrap and subsample weights, and
//! discrete columns whose bins hold rows of both children.

use crate::boosting::{GradientBoostingClassifier, GradientBoostingRegressor};
use crate::forest::{ForestClassifier, ForestConfig, ForestRegressor};
use crate::test_util::{discretize, fnv1a_bits};
use crate::tree::{MaxFeatures, SplitStrategy};
use crate::Estimator;
use volcanoml_data::synthetic::{
    make_classification, make_regression, ClassificationSpec, RegressionSpec,
};
use volcanoml_data::Dataset;

fn regression(n: usize, d: usize, seed: u64) -> Dataset {
    make_regression(
        &RegressionSpec {
            n_samples: n,
            n_features: d,
            n_informative: d.min(6),
            noise: 0.2,
            nonlinear: true,
        },
        seed,
    )
}

fn classification(n: usize, d: usize, n_classes: usize, seed: u64) -> Dataset {
    make_classification(
        &ClassificationSpec {
            n_samples: n,
            n_features: d,
            n_informative: d.min(5),
            n_redundant: 0,
            n_classes,
            class_sep: 1.0,
            flip_y: 0.05,
            weights: Vec::new(),
        },
        seed,
    )
}

fn forest(max_features: MaxFeatures, seed: u64) -> ForestConfig {
    ForestConfig {
        n_estimators: 12,
        max_features,
        split_strategy: SplitStrategy::Histogram,
        seed,
        ..ForestConfig::random_forest()
    }
}

fn predict_digest(m: &impl Estimator, d: &Dataset) -> u64 {
    fnv1a_bits(m.predict(&d.x).unwrap())
}

fn proba_digest(m: &impl Estimator, d: &Dataset) -> u64 {
    fnv1a_bits(m.predict_proba(&d.x).unwrap().data().iter().copied())
}

fn assert_golden(got: u64, want: u64) {
    assert_eq!(got, want, "digest {got:#018x}, golden {want:#018x}");
}

#[test]
fn golden_rf_reg_all_225x10() {
    let d = regression(225, 10, 1);
    let mut m = ForestRegressor::new(forest(MaxFeatures::All, 3));
    m.fit(&d.x, &d.y).unwrap();
    assert_golden(predict_digest(&m, &d), 0xfad1_84f4_6539_db6a);
}

#[test]
fn golden_rf_reg_all_600x10() {
    let d = regression(600, 10, 2);
    let mut m = ForestRegressor::new(forest(MaxFeatures::All, 4));
    m.fit(&d.x, &d.y).unwrap();
    assert_golden(predict_digest(&m, &d), 0xd4a2_6940_ec1c_e910);
}

#[test]
fn golden_rf_reg_half_features() {
    let d = regression(400, 10, 3);
    let mut m = ForestRegressor::new(forest(MaxFeatures::Fraction(0.5), 5));
    m.fit(&d.x, &d.y).unwrap();
    assert_golden(predict_digest(&m, &d), 0xa6c1_9cfe_561f_6f4f);
}

#[test]
fn golden_gbdt_reg_subsampled() {
    let d = regression(500, 8, 4);
    let mut m = GradientBoostingRegressor::new(20, 0.1, 4, 0.7, 1, 6);
    m.split_strategy = SplitStrategy::Histogram;
    m.fit(&d.x, &d.y).unwrap();
    assert_golden(predict_digest(&m, &d), 0xcaba_0abc_09d5_b64a);
}

#[test]
fn golden_rf_cls_binary() {
    let d = classification(300, 8, 2, 5);
    let mut m = ForestClassifier::new(forest(MaxFeatures::All, 7));
    m.fit(&d.x, &d.y).unwrap();
    assert_golden(proba_digest(&m, &d), 0xc6bb_17da_1c24_23d8);
}

#[test]
fn golden_rf_cls_three_classes() {
    let d = classification(450, 8, 3, 6);
    let mut m = ForestClassifier::new(forest(MaxFeatures::All, 8));
    m.fit(&d.x, &d.y).unwrap();
    assert_golden(proba_digest(&m, &d), 0x8b7a_177b_9a23_84a5);
}

#[test]
fn golden_gbdt_cls_three_classes() {
    let d = classification(300, 6, 3, 7);
    let mut m = GradientBoostingClassifier::new(8, 0.2, 3, 0.8, 1, 9);
    m.split_strategy = SplitStrategy::Histogram;
    m.fit(&d.x, &d.y).unwrap();
    assert_golden(proba_digest(&m, &d), 0x777a_d1f8_b45c_8390);
}

#[test]
fn golden_rf_reg_discrete_columns() {
    let d = discretize(regression(350, 8, 8), 5);
    let mut m = ForestRegressor::new(forest(MaxFeatures::All, 10));
    m.fit(&d.x, &d.y).unwrap();
    assert_golden(predict_digest(&m, &d), 0x76ed_39c8_2a87_d739);
}

#[test]
fn golden_rf_cls_discrete_columns() {
    let d = discretize(classification(320, 8, 3, 9), 6);
    let mut m = ForestClassifier::new(forest(MaxFeatures::All, 11));
    m.fit(&d.x, &d.y).unwrap();
    assert_golden(proba_digest(&m, &d), 0x9c67_c43c_dafd_18ce);
}

#[test]
fn golden_rf_cls_five_classes() {
    let d = classification(400, 8, 5, 10);
    let mut m = ForestClassifier::new(forest(MaxFeatures::All, 12));
    m.fit(&d.x, &d.y).unwrap();
    assert_golden(proba_digest(&m, &d), 0xb174_0d2d_c2f2_399f);
}

/// The sweep counter on the 225 × 10 forest: the fills (node scans, code
/// bytes) are those recorded before slabs carried their touched sets, and
/// the cells swept by subtraction, split scans and retirement are at least
/// ten times fewer than the 24 306 484 recorded then.
#[test]
fn touched_slabs_cut_cells_swept_tenfold() {
    let d = regression(225, 10, 1);
    let mut m = ForestRegressor::new(forest(MaxFeatures::All, 3));
    crate::binned::stats::take();
    m.fit(&d.x, &d.y).unwrap();
    let tally = crate::binned::stats::take();
    assert_eq!((tally.hist_node_scans, tally.hist_bytes_scanned), (1126, 69820), "{tally:?}");
    assert!(tally.slab_cells_swept * 10 <= 24_306_484, "{tally:?}");
}

/// The sweep counter on the five-class forest, the fixture whose six
/// channels take the generic fill on the padded layout: the fills are
/// those recorded before every flat slab carried a bitmap, and the cells
/// swept are no more than the 2 318 058 recorded then.
#[test]
fn five_class_slabs_sweep_no_more_cells() {
    let d = classification(400, 8, 5, 10);
    let mut m = ForestClassifier::new(forest(MaxFeatures::All, 12));
    crate::binned::stats::take();
    m.fit(&d.x, &d.y).unwrap();
    let tally = crate::binned::stats::take();
    assert_eq!((tally.hist_node_scans, tally.hist_bytes_scanned), (557, 79392), "{tally:?}");
    assert!(tally.slab_cells_swept <= 2_318_058, "{tally:?}");
}
