//! Incremental vs fixed space construction, paired (`results/BENCH_space.json`).
//!
//! Growing the space on plateau evidence claims to save cost: a small space
//! is cheaper to model and its pipelines cheaper to fit. Each dataset of the
//! repository's classification and regression suites is split 75/25 and
//! searched per seed with a fixed space and with incremental construction at
//! the default threshold (P3 plan, BO leaves, Medium tier, 100 evaluations).
//! Charged seconds are the cumulative trial cost in `AutoMlReport::trajectory`.
//! Per pair, incremental is scored against fixed on best validation loss at
//! equal charged seconds (both cut at the cheaper run's total), charged
//! seconds to the common target (the worse final best) and held-out loss:
//! wins/ties/losses and a two-sided sign test over the untied pairs, plus the
//! median charged-seconds ratio for the same evaluations. No gate.
//!
//! Run: `cargo bench --bench space_growth` (`VOLCANO_QUICK=1`: 6 datasets x 2
//! seeds).

use std::cmp::Ordering;
use volcanoml_bench::{print_table, quick, results_dir, scaled, write_csv};
use volcanoml_core::growth::DEFAULT_EUI_THRESHOLD;
use volcanoml_core::{SpaceGrowth, SpaceTier, VolcanoML, VolcanoMlOptions};
use volcanoml_data::rand_util::derive_seed;
use volcanoml_data::repository::{medium_classification_suite, regression_suite};
use volcanoml_data::{train_test_split, Dataset, Metric};

const EVALS: usize = 100;

/// `(evaluation, charged seconds, best validation loss)` per full-fidelity
/// trial, and the refit winner's held-out loss.
fn search(
    train: &Dataset,
    test: &Dataset,
    seed: u64,
    space_growth: SpaceGrowth,
) -> (Vec<(usize, f64, f64)>, f64) {
    let options = VolcanoMlOptions {
        max_evaluations: EVALS,
        seed,
        space_growth,
        ..Default::default()
    };
    let fitted = VolcanoML::with_tier(train.task, SpaceTier::Medium, options)
        .fit(train)
        .expect("fit");
    let preds = fitted.predict(&test.x).expect("refit winner predicts");
    (
        fitted.report.trajectory,
        Metric::default_for(train.task).loss(&test.y, &preds),
    )
}

/// Incremental-vs-fixed wins, ties and losses (lower is better).
#[derive(Default)]
struct Tally([usize; 3]);

impl Tally {
    fn add(&mut self, incremental: f64, fixed: f64) {
        let slot = match incremental.total_cmp(&fixed) {
            Ordering::Less => 0,
            Ordering::Equal => 1,
            Ordering::Greater => 2,
        };
        self.0[slot] += 1;
    }

    /// Two-sided sign test: `2 P(X <= min(w, l))`, `X ~ Binomial(w + l, 1/2)`.
    fn p(&self) -> f64 {
        let [w, _, l] = self.0;
        let mut ln_pmf = -((w + l) as f64) * std::f64::consts::LN_2;
        let mut cdf = 0.0;
        for i in 0..=w.min(l) {
            cdf += ln_pmf.exp();
            ln_pmf += ((w + l - i) as f64 / (i + 1) as f64).ln();
        }
        (2.0 * cdf).min(1.0)
    }
}

fn main() {
    let mut datasets = medium_classification_suite();
    datasets.extend(regression_suite());
    if quick() {
        datasets = datasets.into_iter().step_by(9).collect();
    }
    let n_seeds = scaled(10, 2) as u64;
    let incremental = SpaceGrowth::Incremental {
        eui_threshold: DEFAULT_EUI_THRESHOLD,
    };
    let names = ["valid_at_equal_seconds", "seconds_to_target", "held_out"];
    let mut tallies: [Tally; 3] = Default::default();
    let (mut ratios, mut rows) = (Vec::new(), Vec::new());
    for (di, dataset) in datasets.iter().enumerate() {
        for seed in 0..n_seeds {
            let run_seed = derive_seed(di as u64, seed);
            let (train, test) =
                train_test_split(dataset, 0.25, derive_seed(run_seed, 0xdead)).expect("split");
            let runs =
                [incremental, SpaceGrowth::Fixed].map(|g| search(&train, &test, run_seed, g));
            let last = |i: usize| *runs[i].0.last().expect("a full-fidelity trial");
            let equal_s = last(0).1.min(last(1).1);
            let target = last(0).2.max(last(1).2);
            let stat = |i: usize| {
                let traj = &runs[i].0;
                let at_equal = traj.iter().take_while(|t| t.1 <= equal_s).last();
                let to_target = traj.iter().find(|t| t.2 <= target);
                [
                    at_equal.map_or(f64::INFINITY, |t| t.2),
                    to_target.map_or(f64::INFINITY, |t| t.1),
                    runs[i].1,
                ]
            };
            let (inc, fixed) = (stat(0), stat(1));
            for k in 0..3 {
                tallies[k].add(inc[k], fixed[k]);
            }
            ratios.push(last(0).1 / last(1).1);
            let mut row = vec![dataset.name.clone(), seed.to_string()];
            row.extend(
                inc.iter()
                    .chain(&fixed)
                    .chain([&last(0).1, &last(1).1])
                    .map(|v| format!("{v:.6}")),
            );
            rows.push(row);
        }
        eprintln!("  {} done ({}/{})", dataset.name, di + 1, datasets.len());
    }
    let mut headers = vec!["dataset".to_string(), "seed".to_string()];
    for arm in ["incremental", "fixed"] {
        headers.extend(names.iter().map(|n| format!("{arm}_{n}")));
    }
    headers.extend(["incremental_charged_s".into(), "fixed_charged_s".into()]);
    write_csv("BENCH_space.csv", &headers, &rows);

    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    let summary: Vec<Vec<String>> = names
        .iter()
        .zip(&tallies)
        .map(|(n, t)| {
            vec![
                n.to_string(),
                format!("{}/{}/{}", t.0[0], t.0[1], t.0[2]),
                format!("{:.2e}", t.p()),
            ]
        })
        .collect();
    print_table(
        "incremental vs fixed, paired",
        &["statistic", "W/T/L", "sign-test p"].map(String::from),
        &summary,
    );
    println!(
        "charged seconds for the same {EVALS} evaluations: incremental/fixed median {median:.2}x"
    );

    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output();
    let commit = commit.map_or("unknown".into(), |o| {
        String::from_utf8_lossy(&o.stdout).trim().to_string()
    });
    let mut json = format!(
        "{{\n  \"bench\": \"space_growth_paired\",\n  \"commit\": \"{commit}\",\n  \
         \"n_cpus\": {},\n  \"quick\": {},\n  \"plan\": \"P3-volcano/bo\",\n  \
         \"tier\": \"medium\",\n  \"evals\": {EVALS},\n  \
         \"eui_threshold\": {DEFAULT_EUI_THRESHOLD},\n  \"n_pairs\": {},\n  \
         \"charged_seconds_ratio_median\": {median:.4}",
        volcanoml_models::parallel::hardware_parallelism(),
        quick(),
        rows.len()
    );
    for (n, t) in names.iter().zip(&tallies) {
        let [w, ties, l] = t.0;
        json += &format!(
            ",\n  \"{n}\": {{\"wins\": {w}, \"ties\": {ties}, \"losses\": {l}, \"p\": {:.3e}}}",
            t.p()
        );
    }
    let path = results_dir().join("BENCH_space.json");
    std::fs::write(&path, json + "\n}\n")
        .unwrap_or_else(|e| eprintln!("could not write {}: {e}", path.display()));
}
