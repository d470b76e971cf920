//! Synthetic dataset generators.
//!
//! These play the role of the paper's OpenML/Kaggle corpus. Each generator
//! produces a different *regime* — linear, clustered, nonlinear manifold,
//! pure interaction, sparse high-dimensional, categorical, imbalanced — so
//! that no single model family dominates the benchmark suite, which is the
//! property average-rank comparisons rely on.

use crate::dataset::{Dataset, FeatureType};
use crate::rand_util::{normal, permutation, rng_from_seed, standard_normal};
use rand::rngs::StdRng;
use rand::RngExt;
use volcanoml_linalg::Matrix;

/// Options for [`make_classification`] (sklearn-style Gaussian clusters with
/// redundant and noise features).
#[derive(Debug, Clone)]
pub struct ClassificationSpec {
    /// Number of samples.
    pub n_samples: usize,
    /// Total feature count (informative + redundant + noise).
    pub n_features: usize,
    /// Number of informative dimensions.
    pub n_informative: usize,
    /// Number of redundant (linear combinations of informative) dimensions.
    pub n_redundant: usize,
    /// Number of classes.
    pub n_classes: usize,
    /// Distance between class centroids in the informative subspace.
    pub class_sep: f64,
    /// Fraction of labels flipped to a random class (label noise).
    pub flip_y: f64,
    /// Optional per-class sampling weights; uniform when empty.
    pub weights: Vec<f64>,
}

impl Default for ClassificationSpec {
    fn default() -> Self {
        ClassificationSpec {
            n_samples: 500,
            n_features: 10,
            n_informative: 5,
            n_redundant: 2,
            n_classes: 2,
            class_sep: 1.0,
            flip_y: 0.01,
            weights: Vec::new(),
        }
    }
}

/// Gaussian-cluster classification with redundant and noise features.
pub fn make_classification(spec: &ClassificationSpec, seed: u64) -> Dataset {
    let mut rng = rng_from_seed(seed);
    let n = spec.n_samples;
    let d = spec.n_features;
    let info = spec.n_informative.min(d).max(1);
    let redundant = spec.n_redundant.min(d - info);
    let k = spec.n_classes.max(2);

    // Class centroids on hypercube corners. Classes are assigned distinct
    // bit patterns whose differences spread over all informative dimensions:
    // feature j reads bit (j mod b) of the class index (b = bits needed for
    // k classes), XORed with a per-feature parity so the geometry varies.
    let bits = (usize::BITS - (k - 1).leading_zeros()).max(1) as usize;
    let mut centroids = vec![vec![0.0; info]; k];
    for (c, centroid) in centroids.iter_mut().enumerate() {
        for (j, v) in centroid.iter_mut().enumerate() {
            let feature_parity = (j / bits).wrapping_mul(0x9E37) >> 3 & 1;
            let bit = ((c >> (j % bits)) & 1) ^ feature_parity;
            let sign = if bit == 1 { 1.0 } else { -1.0 };
            *v = sign * spec.class_sep + 0.3 * standard_normal(&mut rng);
        }
    }

    // Redundant mixing matrix.
    let mix: Vec<Vec<f64>> = (0..redundant)
        .map(|_| (0..info).map(|_| standard_normal(&mut rng)).collect())
        .collect();

    // Class assignment respecting weights.
    let weights = if spec.weights.len() == k {
        spec.weights.clone()
    } else {
        vec![1.0 / k as f64; k]
    };
    let total_w: f64 = weights.iter().sum();

    let mut x = Matrix::zeros(n, d);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let u: f64 = rng.random::<f64>() * total_w;
        let mut acc = 0.0;
        let mut label = k - 1;
        for (c, &w) in weights.iter().enumerate() {
            acc += w;
            if u <= acc {
                label = c;
                break;
            }
        }
        let row = x.row_mut(i);
        for (j, v) in row.iter_mut().take(info).enumerate() {
            *v = centroids[label][j] + standard_normal(&mut rng);
        }
        // Redundant features.
        let informative: Vec<f64> = row[..info].to_vec();
        for (r, coeffs) in mix.iter().enumerate() {
            row[info + r] = coeffs
                .iter()
                .zip(informative.iter())
                .map(|(a, b)| a * b)
                .sum::<f64>()
                / (info as f64).sqrt();
        }
        // Noise features.
        for v in row.iter_mut().skip(info + redundant) {
            *v = standard_normal(&mut rng);
        }
        // Label flipping.
        let final_label = if rng.random::<f64>() < spec.flip_y {
            rng.random_range(0..k)
        } else {
            label
        };
        y.push(final_label as f64);
    }
    Dataset::classification(
        format!("synthetic_cls_{seed}"),
        x,
        y,
        vec![FeatureType::Numerical; d],
    )
    .expect("generator produces consistent data")
}

/// Two interleaving half-moons (binary, nonlinear boundary) padded with
/// `extra_noise_features` pure-noise columns.
pub fn make_moons(n: usize, noise: f64, extra_noise_features: usize, seed: u64) -> Dataset {
    let mut rng = rng_from_seed(seed);
    let d = 2 + extra_noise_features;
    let mut x = Matrix::zeros(n, d);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % 2;
        let t = std::f64::consts::PI * rng.random::<f64>();
        let (mut px, mut py) = if label == 0 {
            (t.cos(), t.sin())
        } else {
            (1.0 - t.cos(), 0.5 - t.sin())
        };
        px += noise * standard_normal(&mut rng);
        py += noise * standard_normal(&mut rng);
        let row = x.row_mut(i);
        row[0] = px;
        row[1] = py;
        for v in row.iter_mut().skip(2) {
            *v = standard_normal(&mut rng);
        }
        y.push(label as f64);
    }
    Dataset::classification(
        format!("moons_{seed}"),
        x,
        y,
        vec![FeatureType::Numerical; d],
    )
    .expect("generator produces consistent data")
}

/// Concentric circles (binary; radial boundary defeats linear models).
pub fn make_circles(n: usize, noise: f64, factor: f64, seed: u64) -> Dataset {
    let mut rng = rng_from_seed(seed);
    let mut x = Matrix::zeros(n, 2);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % 2;
        let r = if label == 0 { 1.0 } else { factor };
        let theta = 2.0 * std::f64::consts::PI * rng.random::<f64>();
        x.set(i, 0, r * theta.cos() + noise * standard_normal(&mut rng));
        x.set(i, 1, r * theta.sin() + noise * standard_normal(&mut rng));
        y.push(label as f64);
    }
    Dataset::classification(
        format!("circles_{seed}"),
        x,
        y,
        vec![FeatureType::Numerical; 2],
    )
    .expect("generator produces consistent data")
}

/// Axis-aligned XOR / checkerboard pattern over `parity_dims` dimensions —
/// pure feature interaction; trees excel, linear models are at chance.
pub fn make_xor(n: usize, parity_dims: usize, total_dims: usize, noise: f64, seed: u64) -> Dataset {
    let mut rng = rng_from_seed(seed);
    let d = total_dims.max(parity_dims);
    let mut x = Matrix::zeros(n, d);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let mut parity = 0usize;
        let row = x.row_mut(i);
        for (j, v) in row.iter_mut().enumerate() {
            let s = standard_normal(&mut rng);
            *v = s;
            if j < parity_dims && s > 0.0 {
                parity ^= 1;
            }
        }
        let label = if rng.random::<f64>() < noise {
            1 - parity
        } else {
            parity
        };
        y.push(label as f64);
    }
    Dataset::classification(
        format!("xor_{seed}"),
        x,
        y,
        vec![FeatureType::Numerical; d],
    )
    .expect("generator produces consistent data")
}

/// Isotropic Gaussian blobs; near-trivial for distance-based models.
pub fn make_blobs(n: usize, centers: usize, d: usize, cluster_std: f64, seed: u64) -> Dataset {
    let mut rng = rng_from_seed(seed);
    let mut centroids = vec![vec![0.0; d]; centers];
    for c in centroids.iter_mut() {
        for v in c.iter_mut() {
            *v = 6.0 * (rng.random::<f64>() - 0.5);
        }
    }
    let mut x = Matrix::zeros(n, d);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % centers;
        let row = x.row_mut(i);
        for (j, v) in row.iter_mut().enumerate() {
            *v = centroids[label][j] + cluster_std * standard_normal(&mut rng);
        }
        y.push(label as f64);
    }
    Dataset::classification(
        format!("blobs_{seed}"),
        x,
        y,
        vec![FeatureType::Numerical; d],
    )
    .expect("generator produces consistent data")
}

/// Classification driven by categorical feature interactions: `n_categorical`
/// integer-coded columns, label = hash-parity of two hidden columns.
pub fn make_categorical(
    n: usize,
    n_categorical: usize,
    cardinality: usize,
    n_numeric: usize,
    noise: f64,
    seed: u64,
) -> Dataset {
    let mut rng = rng_from_seed(seed);
    let d = n_categorical + n_numeric;
    let mut x = Matrix::zeros(n, d);
    let mut y = Vec::with_capacity(n);
    let card = cardinality.max(2);
    for i in 0..n {
        let mut cats = Vec::with_capacity(n_categorical);
        {
            let row = x.row_mut(i);
            for (j, v) in row.iter_mut().take(n_categorical).enumerate() {
                let c = rng.random_range(0..card);
                *v = c as f64;
                if j < 2 {
                    cats.push(c);
                }
            }
            for v in row.iter_mut().skip(n_categorical) {
                *v = standard_normal(&mut rng);
            }
        }
        let base = if cats.len() >= 2 {
            ((cats[0] + 2 * cats[1]) % 2) as f64
        } else {
            (cats.first().copied().unwrap_or(0) % 2) as f64
        };
        let label = if rng.random::<f64>() < noise {
            1.0 - base
        } else {
            base
        };
        y.push(label);
    }
    let mut feature_types = vec![FeatureType::Categorical(card); n_categorical];
    feature_types.extend(vec![FeatureType::Numerical; n_numeric]);
    Dataset::classification(format!("categorical_{seed}"), x, y, feature_types)
        .expect("generator produces consistent data")
}

/// Options for [`make_regression`] (linear model with noise and nuisance
/// features).
#[derive(Debug, Clone)]
pub struct RegressionSpec {
    /// Number of samples.
    pub n_samples: usize,
    /// Total feature count.
    pub n_features: usize,
    /// Number of features with non-zero coefficients.
    pub n_informative: usize,
    /// Standard deviation of additive Gaussian noise.
    pub noise: f64,
    /// Adds `tanh` saturation to make the response mildly nonlinear.
    pub nonlinear: bool,
}

impl Default for RegressionSpec {
    fn default() -> Self {
        RegressionSpec {
            n_samples: 400,
            n_features: 10,
            n_informative: 5,
            noise: 0.5,
            nonlinear: false,
        }
    }
}

/// (Mildly non)linear regression with sparse true coefficients.
pub fn make_regression(spec: &RegressionSpec, seed: u64) -> Dataset {
    let mut rng = rng_from_seed(seed);
    let n = spec.n_samples;
    let d = spec.n_features;
    let info = spec.n_informative.min(d).max(1);
    let coef: Vec<f64> = (0..info).map(|_| normal(&mut rng, 0.0, 2.0)).collect();
    let mut x = Matrix::zeros(n, d);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let row = x.row_mut(i);
        for v in row.iter_mut() {
            *v = standard_normal(&mut rng);
        }
        let mut target: f64 = row
            .iter()
            .take(info)
            .zip(coef.iter())
            .map(|(a, b)| a * b)
            .sum();
        if spec.nonlinear {
            target = 3.0 * (target / 3.0).tanh() + 0.3 * target;
        }
        target += spec.noise * standard_normal(&mut rng);
        y.push(target);
    }
    Dataset::regression(
        format!("synthetic_reg_{seed}"),
        x,
        y,
        vec![FeatureType::Numerical; d],
    )
    .expect("generator produces consistent data")
}

/// Friedman #1: y = 10 sin(π x₀ x₁) + 20 (x₂ − 0.5)² + 10 x₃ + 5 x₄ + ε,
/// over 5 informative + `extra` noise features in [0, 1].
pub fn make_friedman1(n: usize, extra: usize, noise: f64, seed: u64) -> Dataset {
    let mut rng = rng_from_seed(seed);
    let d = 5 + extra;
    let mut x = Matrix::zeros(n, d);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let row = x.row_mut(i);
        for v in row.iter_mut() {
            *v = rng.random::<f64>();
        }
        let target = 10.0 * (std::f64::consts::PI * row[0] * row[1]).sin()
            + 20.0 * (row[2] - 0.5).powi(2)
            + 10.0 * row[3]
            + 5.0 * row[4]
            + noise * standard_normal(&mut rng);
        y.push(target);
    }
    Dataset::regression(
        format!("friedman1_{seed}"),
        x,
        y,
        vec![FeatureType::Numerical; d],
    )
    .expect("generator produces consistent data")
}

/// Friedman #2: y = sqrt(x₀² + (x₁ x₂ − 1/(x₁ x₃))²) + ε, heteroscedastic
/// scales across inputs.
pub fn make_friedman2(n: usize, noise: f64, seed: u64) -> Dataset {
    let mut rng = rng_from_seed(seed);
    let mut x = Matrix::zeros(n, 4);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let x0 = 100.0 * rng.random::<f64>();
        let x1 = 40.0 * std::f64::consts::PI * rng.random::<f64>() + 40.0 * std::f64::consts::PI;
        let x2 = rng.random::<f64>();
        let x3 = 10.0 * rng.random::<f64>() + 1.0;
        let row = x.row_mut(i);
        row.copy_from_slice(&[x0, x1, x2, x3]);
        let target = (x0 * x0 + (x1 * x2 - 1.0 / (x1 * x3)).powi(2)).sqrt()
            + noise * standard_normal(&mut rng);
        y.push(target);
    }
    Dataset::regression(
        format!("friedman2_{seed}"),
        x,
        y,
        vec![FeatureType::Numerical; 4],
    )
    .expect("generator produces consistent data")
}

/// Piecewise-constant regression on axis-aligned cells — the regime where
/// tree ensembles beat all linear methods.
pub fn make_piecewise(n: usize, d: usize, cells_per_dim: usize, noise: f64, seed: u64) -> Dataset {
    let mut rng = rng_from_seed(seed);
    let cells = cells_per_dim.max(2);
    // A value table over the first two dims' cells.
    let mut table = vec![vec![0.0; cells]; cells];
    for r in table.iter_mut() {
        for v in r.iter_mut() {
            *v = normal(&mut rng, 0.0, 3.0);
        }
    }
    let mut x = Matrix::zeros(n, d.max(2));
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let row = x.row_mut(i);
        for v in row.iter_mut() {
            *v = rng.random::<f64>();
        }
        let c0 = ((row[0] * cells as f64) as usize).min(cells - 1);
        let c1 = ((row[1] * cells as f64) as usize).min(cells - 1);
        y.push(table[c0][c1] + noise * standard_normal(&mut rng));
    }
    Dataset::regression(
        format!("piecewise_{seed}"),
        x,
        y,
        vec![FeatureType::Numerical; d.max(2)],
    )
    .expect("generator produces consistent data")
}

/// Scale applied inside the tanh rendering of [`make_embedded_images`]; the
/// matched extractor in `volcanoml-fe::embedding` must divide by the same
/// constant when inverting.
pub const RENDER_TANH_SCALE: f64 = 0.15;

/// Vision-like task for the embedding-selection experiment (§5.3 of the
/// paper). The class is a latent-space *third-order interaction* — bit `b`
/// of the label fixes the sign of `z_{3b} · z_{3b+1} · z_{3b+2}` (a
/// third-moment statistic: per-class means *and* covariances of the latents
/// are identical, so linear models, QDA, and distance-based models see
/// nothing in pixel space) — and the latents are
/// pushed through a fixed random rendering `tanh(s (W z + b)) + ε` into
/// `n_pixels` raw features. In pixel space the signal is a second-order
/// surface diffused over all pixels (shallow models on raw pixels struggle,
/// linear models are at chance); after the matched extractor in
/// `volcanoml-fe::embedding` inverts the rendering, the interaction lives in
/// a handful of recovered latents and is easy to learn. Latents beyond the
/// signal pairs are high-variance class-irrelevant "style" factors: they
/// dominate raw-pixel distances (so distance-based models fail on pixels)
/// but are trivially normalized away once the latents are separated.
pub fn make_embedded_images(
    n: usize,
    n_latent: usize,
    n_pixels: usize,
    n_classes: usize,
    noise: f64,
    seed: u64,
) -> Dataset {
    let mut rng = rng_from_seed(seed);
    let k = n_classes.max(2);
    let bits = (usize::BITS - (k - 1).leading_zeros()).max(1) as usize;
    let n_latent = n_latent.max(3 * bits);
    // Rendering parameters fixed by the *dataset* seed so the paired
    // extractor (same seed convention) can invert them.
    let mut render_rng = rng_from_seed(rendering_seed(seed));
    let w: Vec<Vec<f64>> = (0..n_pixels)
        .map(|_| (0..n_latent).map(|_| standard_normal(&mut render_rng)).collect())
        .collect();
    let b: Vec<f64> = (0..n_pixels).map(|_| standard_normal(&mut render_rng)).collect();

    let mut x = Matrix::zeros(n, n_pixels);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % k;
        // Sample latents with a margin away from zero, then set the triple
        // product's sign from the label bit (1 ⇒ negative product).
        let mut z: Vec<f64> = (0..n_latent)
            .map(|j| {
                if j < 3 * bits {
                    // Signal latents with a margin away from zero.
                    let magnitude = 0.4 + standard_normal(&mut rng).abs();
                    if rng.random::<f64>() < 0.5 {
                        magnitude
                    } else {
                        -magnitude
                    }
                } else {
                    // Style latents: large variance, no class information.
                    3.0 * standard_normal(&mut rng)
                }
            })
            .collect();
        for bit in 0..bits {
            let want_negative = (label >> bit) & 1 == 1;
            let base = 3 * bit;
            let product_negative = z[base] * z[base + 1] * z[base + 2] < 0.0;
            if product_negative != want_negative {
                z[base + 2] = -z[base + 2];
            }
        }
        let row = x.row_mut(i);
        for (p, v) in row.iter_mut().enumerate() {
            let pre: f64 = w[p].iter().zip(z.iter()).map(|(a, b)| a * b).sum::<f64>() + b[p];
            *v = (pre * RENDER_TANH_SCALE).tanh() + noise * standard_normal(&mut rng);
        }
        y.push(label as f64);
    }
    Dataset::classification(
        format!("images_{seed}"),
        x,
        y,
        vec![FeatureType::Numerical; n_pixels],
    )
    .expect("generator produces consistent data")
}

/// Seed convention linking [`make_embedded_images`] with the "pre-trained"
/// extractor that can undo its rendering.
pub fn rendering_seed(dataset_seed: u64) -> u64 {
    dataset_seed ^ 0xABCD_EF01_2345_6789
}

/// Replaces a fraction of feature values with `NaN` (missing), uniformly at
/// random, leaving at least one observed value per column.
pub fn inject_missing(d: &Dataset, fraction: f64, seed: u64) -> Dataset {
    let mut rng = rng_from_seed(seed);
    let mut out = d.clone();
    let (n, cols) = out.x.shape();
    if n == 0 || cols == 0 {
        return out;
    }
    let per_col = ((n as f64 * fraction).round() as usize).min(n.saturating_sub(1));
    for c in 0..cols {
        let rows = permutation(&mut rng, n);
        for &r in rows.iter().take(per_col) {
            out.x.set(r, c, f64::NAN);
        }
    }
    out
}

/// Shuffles the samples of a dataset (useful after generators that interleave
/// classes deterministically).
pub fn shuffle(d: &Dataset, seed: u64) -> Dataset {
    let mut rng: StdRng = rng_from_seed(seed);
    let perm = permutation(&mut rng, d.n_samples());
    d.subset(&perm)
}

/// Names [`by_name`] knows: the generators the CLI's `generate` command and
/// the serve spec's `"dataset"` field offer.
pub const NAMED_KINDS: [&str; 5] = ["classification", "moons", "xor", "friedman1", "imbalanced"];

/// The fixed-shape 500-row dataset a front end means by `kind`, drawn with
/// `seed`; `None` for a name outside [`NAMED_KINDS`].
pub fn by_name(kind: &str, seed: u64) -> Option<Dataset> {
    Some(match kind {
        "classification" => make_classification(&ClassificationSpec::default(), seed),
        "moons" => make_moons(500, 0.15, 2, seed),
        "xor" => make_xor(500, 2, 8, 0.03, seed),
        "friedman1" => make_friedman1(500, 4, 0.5, seed),
        "imbalanced" => make_classification(
            &ClassificationSpec {
                weights: vec![0.9, 0.1],
                ..ClassificationSpec::default()
            },
            seed,
        ),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Task;

    #[test]
    fn every_named_kind_generates_and_unknown_names_do_not() {
        for kind in NAMED_KINDS {
            let d = by_name(kind, 3).unwrap_or_else(|| panic!("no generator for {kind}"));
            assert_eq!(d.n_samples(), 500, "{kind}");
            let want = if kind == "friedman1" { Task::Regression } else { Task::Classification };
            assert_eq!(d.task, want, "{kind}");
        }
        assert!(by_name("mnist", 3).is_none());
    }

    #[test]
    fn classification_shapes_and_labels() {
        let spec = ClassificationSpec {
            n_samples: 200,
            n_features: 12,
            n_informative: 4,
            n_redundant: 3,
            n_classes: 3,
            ..Default::default()
        };
        let d = make_classification(&spec, 1);
        assert_eq!(d.n_samples(), 200);
        assert_eq!(d.n_features(), 12);
        assert_eq!(d.n_classes, 3);
        assert_eq!(d.task, Task::Classification);
    }

    #[test]
    fn classification_is_deterministic() {
        let spec = ClassificationSpec::default();
        let a = make_classification(&spec, 5);
        let b = make_classification(&spec, 5);
        assert_eq!(a.x.data(), b.x.data());
        assert_eq!(a.y, b.y);
        let c = make_classification(&spec, 6);
        assert_ne!(a.x.data(), c.x.data());
    }

    #[test]
    fn weights_skew_class_distribution() {
        let spec = ClassificationSpec {
            n_samples: 1000,
            weights: vec![0.9, 0.1],
            flip_y: 0.0,
            ..Default::default()
        };
        let d = make_classification(&spec, 2);
        let counts = d.class_counts();
        assert!(counts[0] > 800, "{counts:?}");
        assert!(counts[1] < 200, "{counts:?}");
    }

    #[test]
    fn moons_has_two_balanced_classes() {
        let d = make_moons(100, 0.1, 3, 0);
        assert_eq!(d.n_features(), 5);
        let c = d.class_counts();
        assert_eq!(c[0], 50);
        assert_eq!(c[1], 50);
    }

    #[test]
    fn circles_radius_separation() {
        let d = make_circles(200, 0.0, 0.5, 0);
        for i in 0..d.n_samples() {
            let r = (d.x.get(i, 0).powi(2) + d.x.get(i, 1).powi(2)).sqrt();
            let expected = if d.y[i] == 0.0 { 1.0 } else { 0.5 };
            assert!((r - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn xor_labels_follow_parity() {
        let d = make_xor(300, 2, 6, 0.0, 3);
        for i in 0..d.n_samples() {
            let parity = (d.x.get(i, 0) > 0.0) as usize ^ (d.x.get(i, 1) > 0.0) as usize;
            assert_eq!(d.y[i], parity as f64);
        }
    }

    #[test]
    fn blobs_cover_all_centers() {
        let d = make_blobs(90, 3, 4, 0.3, 7);
        assert_eq!(d.n_classes, 3);
        assert!(d.class_counts().iter().all(|&c| c == 30));
    }

    #[test]
    fn categorical_marks_feature_types() {
        let d = make_categorical(100, 3, 4, 2, 0.0, 0);
        assert_eq!(d.categorical_columns(), vec![0, 1, 2]);
        assert!(d
            .x
            .col(0)
            .iter()
            .all(|&v| v.fract() == 0.0 && (0.0..4.0).contains(&v)));
    }

    #[test]
    fn regression_noise_free_is_linear() {
        let spec = RegressionSpec {
            n_samples: 50,
            noise: 0.0,
            nonlinear: false,
            ..Default::default()
        };
        let d = make_regression(&spec, 1);
        assert_eq!(d.task, Task::Regression);
        assert!(d.y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn friedman1_dimensions() {
        let d = make_friedman1(80, 5, 0.1, 0);
        assert_eq!(d.n_features(), 10);
        // y range should reflect the known formula bounds (roughly 0..30).
        assert!(d.y.iter().cloned().fold(f64::MIN, f64::max) < 40.0);
    }

    #[test]
    fn friedman2_is_positive() {
        let d = make_friedman2(80, 0.0, 0);
        assert!(d.y.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn piecewise_is_deterministic_per_cell() {
        let d = make_piecewise(200, 3, 3, 0.0, 4);
        // Two points in the same cell must share a target when noise = 0.
        let cell = |i: usize| {
            let c0 = ((d.x.get(i, 0) * 3.0) as usize).min(2);
            let c1 = ((d.x.get(i, 1) * 3.0) as usize).min(2);
            (c0, c1)
        };
        for i in 0..d.n_samples() {
            for j in i + 1..d.n_samples() {
                if cell(i) == cell(j) {
                    assert!((d.y[i] - d.y[j]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn embedded_images_shapes() {
        let d = make_embedded_images(60, 4, 32, 3, 0.05, 9);
        assert_eq!(d.n_features(), 32);
        assert_eq!(d.n_classes, 3);
        // Pixels are bounded by tanh plus noise.
        assert!(d.x.data().iter().all(|v| v.abs() < 3.0));
    }

    #[test]
    fn inject_missing_leaves_observed_values() {
        let spec = ClassificationSpec::default();
        let d = make_classification(&spec, 0);
        let m = inject_missing(&d, 0.2, 1);
        assert!(m.has_missing());
        for c in 0..m.n_features() {
            assert!(m.x.col(c).iter().any(|v| !v.is_nan()));
        }
        let nan_count = m.x.data().iter().filter(|v| v.is_nan()).count();
        let expected = (0.2 * d.n_samples() as f64).round() as usize * d.n_features();
        assert_eq!(nan_count, expected);
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let d = make_moons(50, 0.1, 0, 0);
        let s = shuffle(&d, 1);
        let mut a = d.y.clone();
        let mut b = s.y.clone();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b);
        assert_ne!(d.y, s.y);
    }
}
