//! Cost-aware search study (`results/BENCH_cost.json`).
//!
//! Measures the tentpole claim of the cost feedback loop: on a search
//! space where two branches offer the *same* best loss but a 10x gap in
//! per-trial cost, EI-per-second acquisition must reach a target loss at
//! no more total evaluation cost than cost-blind EI — steering toward the
//! cheap branch is pure win because no loss is sacrificed.
//!
//! Costs are *synthetic* (deterministic per configuration, in abstract
//! seconds), so the measurement is exact and seed-reproducible rather than
//! wall-clock noisy: `cost_to_target` sums the synthetic cost of every
//! trial until the incumbent reaches the target. Aggregated over fixed
//! seeds, the gate is `aware_total <= blind_total` (a ratio of at most
//! 1.0x) — asserted here and re-checked by CI against the emitted JSON.
//!
//! Run: `cargo bench --bench cost_aware` (`VOLCANO_QUICK=1` trims seeds).

use volcanoml_bench::{print_table, quick, scaled, write_csv};
use volcanoml_bo::{Condition, ConfigSpace, Configuration, Domain, Smac, Suggest};

/// Two branches with equal best loss (0.1) but a 10x cost gap: branch 0
/// is cheap-good, branch 1 expensive-equal — the canonical cost-aware
/// testbed (mirrors the `bo` crate's acceptance test).
fn branch_space() -> ConfigSpace {
    let mut s = ConfigSpace::new();
    let b = s.add("branch", Domain::Cat { n: 2 }, 0.0).unwrap();
    s.add_conditional(
        "x0",
        Domain::Float { lo: 0.0, hi: 1.0, log: false },
        0.5,
        Some(Condition { parent: b, values: vec![0] }),
    )
    .unwrap();
    s.add_conditional(
        "x1",
        Domain::Float { lo: 0.0, hi: 1.0, log: false },
        0.5,
        Some(Condition { parent: b, values: vec![1] }),
    )
    .unwrap();
    s
}

/// Deterministic `(loss, cost)` for a configuration.
fn objective(space: &ConfigSpace, c: &Configuration) -> (f64, f64) {
    let m = space.to_map(c);
    let branch = *m.get("branch").unwrap_or(&0.0) as usize;
    match branch {
        0 => {
            let x = *m.get("x0").unwrap_or(&0.5);
            (0.1 + (x - 0.2).powi(2), 1.0)
        }
        _ => {
            let x = *m.get("x1").unwrap_or(&0.5);
            (0.1 + (x - 0.8).powi(2), 10.0)
        }
    }
}

/// Drives `opt` until the incumbent reaches `target` (or `max_n` trials),
/// returning `(total synthetic cost, trials run)`.
fn cost_to_target(opt: &mut Smac, target: f64, max_n: usize) -> (f64, usize) {
    let mut total = 0.0;
    for n in 1..=max_n {
        let (cfg, fidelity, _) = opt.suggest();
        let (loss, cost) = objective(opt.space(), &cfg);
        total += cost;
        opt.observe(cfg, fidelity, loss, cost);
        if opt.history().best_loss().is_some_and(|b| b <= target) {
            return (total, n);
        }
    }
    (total, max_n)
}

fn main() {
    // Target tight enough that runs outlast the cost model's warm-up: an
    // easy target would be hit inside the random initial design, where
    // cost-aware and cost-blind coincide by construction.
    let target = 0.1005;
    let max_n = 250;
    let n_seeds = scaled(10, 6) as u64;
    eprintln!("cost_aware: target {target}, max {max_n} trials, {n_seeds} seeds");

    let mut blind_total = 0.0f64;
    let mut aware_total = 0.0f64;
    let mut blind_trials = 0usize;
    let mut aware_trials = 0usize;
    let mut rows = Vec::new();
    for seed in 0..n_seeds {
        let mut blind = Smac::new(branch_space(), seed);
        let (bc, bn) = cost_to_target(&mut blind, target, max_n);
        let mut aware = Smac::new(branch_space(), seed);
        aware.set_cost_aware(true);
        let (ac, an) = cost_to_target(&mut aware, target, max_n);
        blind_total += bc;
        aware_total += ac;
        blind_trials += bn;
        aware_trials += an;
        rows.push(vec![
            seed.to_string(),
            format!("{bc:.1}"),
            format!("{ac:.1}"),
            format!("{:.2}", ac / bc),
        ]);
    }
    let ratio = aware_total / blind_total;
    let headers: Vec<String> = ["seed", "blind_cost", "aware_cost", "ratio"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    print_table("cost to reach target loss (synthetic seconds)", &headers, &rows);
    write_csv("BENCH_cost.csv", &headers, &rows);
    println!(
        "aggregate: cost-aware {aware_total:.1}s vs cost-blind {blind_total:.1}s \
         ({ratio:.2}x) over {n_seeds} seeds"
    );

    let json = format!(
        "{{\n  \"bench\": \"cost_aware_time_to_target\",\n  \
         \"target_loss\": {target},\n  \"max_trials\": {max_n},\n  \
         \"n_seeds\": {n_seeds},\n  \
         \"cost_blind_total\": {blind_total:.2},\n  \
         \"cost_aware_total\": {aware_total:.2},\n  \
         \"cost_blind_trials\": {blind_trials},\n  \
         \"cost_aware_trials\": {aware_trials},\n  \
         \"cost_ratio\": {ratio:.4}\n}}\n"
    );
    let dir = volcanoml_bench::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("BENCH_cost.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    // The acceptance gate: reaching the target must cost no more with the
    // cost model in the loop. Costs are synthetic, so this is exact.
    assert!(
        ratio <= 1.0,
        "acceptance: cost-aware must reach the target at <= 1.0x the \
         cost-blind total (got {ratio:.2}x: aware {aware_total:.1} vs blind {blind_total:.1})"
    );
    if quick() {
        println!("quick mode: gate checked on {n_seeds} seeds");
    }
}
