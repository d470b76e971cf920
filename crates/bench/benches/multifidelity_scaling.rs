//! Pooled multi-fidelity scheduling study.
//!
//! The asynchronous bracket rework lets SH/Hyperband/MFES-HB fill worker
//! batches from their rung ladders instead of degrading to full-fidelity
//! random draws. This bench pins the two claims behind that change:
//!
//! 1. **Quality parity**: an end-to-end MFES-HB fit with 4 workers reaches
//!    a best loss comparable to the serial fit on the same data, seed, and
//!    evaluation budget (asynchronous promotion reorders observations, so
//!    "comparable" means within a noise band, not bit-identical).
//! 2. **Fidelity mix**: the pooled run actually exercises ≥ 2 distinct
//!    sub-1.0 fidelities — the schedule is doing multi-fidelity work, not
//!    random search at fidelity 1.0.
//!
//! Output: one table (`multifidelity_scaling.csv`) with per-run wall time,
//! best loss, and the fidelity mix.

use std::time::Instant;

use volcanoml_bench::{print_table, quick, scaled, write_csv};
use volcanoml_core::plans::p1_joint;
use volcanoml_core::{EngineKind, SpaceTier, VolcanoML, VolcanoMlOptions};
use volcanoml_data::synthetic::{make_classification, ClassificationSpec};
use volcanoml_data::Task;

fn dataset(seed: u64) -> volcanoml_data::Dataset {
    make_classification(
        &ClassificationSpec {
            n_samples: if quick() { 240 } else { 480 },
            n_features: 10,
            n_informative: 6,
            n_redundant: 2,
            n_classes: 2,
            class_sep: 1.0,
            flip_y: 0.05,
            weights: Vec::new(),
        },
        seed,
    )
}

/// One MFES-HB fit; returns (wall_s, best_loss, fidelity mix).
fn run_once(d: &volcanoml_data::Dataset, workers: usize, evals: usize) -> (f64, f64, Vec<(f64, usize)>) {
    let options = VolcanoMlOptions {
        plan: p1_joint(EngineKind::MfesHb),
        max_evaluations: evals,
        seed: 29,
        n_workers: workers,
        ..Default::default()
    };
    let engine = VolcanoML::with_tier(Task::Classification, SpaceTier::Small, options);
    let start = Instant::now();
    let fitted = engine.fit(d).expect("fit failed");
    (
        start.elapsed().as_secs_f64(),
        fitted.report.best_loss,
        fitted.report.fidelity_counts.clone(),
    )
}

fn mix_string(mix: &[(f64, usize)]) -> String {
    mix.iter()
        .map(|(f, n)| format!("{f:.3}x{n}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() {
    let d = dataset(13);
    let evals = scaled(36, 20);
    eprintln!(
        "Multi-fidelity scaling: MFES-HB, {evals} evaluations, quick={}",
        quick()
    );

    let headers: Vec<String> = ["workers", "wall_s", "best_loss", "fidelity_mix"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    let mut serial_best = None;
    for workers in [1usize, 4] {
        let (wall, best, mix) = run_once(&d, workers, evals);
        eprintln!(
            "  workers={workers}: {wall:.3}s, best loss {best:.4}, mix [{}]",
            mix_string(&mix)
        );
        // Claim 2: the pooled run exercises ≥ 2 distinct sub-1.0 fidelities
        // (the pre-fix batch path collapsed everything to fidelity 1.0).
        if workers > 1 {
            let sub_full = mix.iter().filter(|(f, _)| *f < 1.0 - 1e-9).count();
            assert!(
                sub_full >= 2,
                "pooled MFES-HB exercised only {sub_full} sub-1.0 fidelities: [{}]",
                mix_string(&mix)
            );
        }
        // Claim 1: pooled best loss within noise of serial.
        let reference = *serial_best.get_or_insert(best);
        assert!(
            (best - reference).abs() < 0.15,
            "pooled best {best} drifted from serial best {reference}"
        );
        rows.push(vec![
            workers.to_string(),
            format!("{wall:.3}"),
            format!("{best:.4}"),
            mix_string(&mix),
        ]);
    }
    print_table(
        "Pooled MFES-HB vs serial (same seed/budget, async brackets)",
        &headers,
        &rows,
    );
    write_csv("multifidelity_scaling.csv", &headers, &rows);
}
