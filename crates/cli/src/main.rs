//! `volcanoml` — command-line front end for the VolcanoML engine.
//!
//! ```text
//! volcanoml fit data.csv [--evals N] [--tier small|medium|large]
//!                        [--plan p1|p2|p3|p4|p5] [--engine bo|random|sh|hyperband|mfes-hb]
//!                        [--seed S] [--cv K] [--ensemble N] [--smote]
//!                        [--workers N] [--n-jobs N]
//!                        [--cost-aware] [--objective loss|loss_and_cost[:WEIGHT]]
//!                        [--space fixed|incremental[:EUI_THRESHOLD]]
//!                        [--journal trials.jsonl] [--trace trace.jsonl]
//!                        [--metrics metrics.json] [--trial-timeout SECS]
//! volcanoml spaces                      # print the tiered search-space sizes
//! volcanoml plans                       # print the plan catalogue
//! volcanoml generate <kind> <out.csv>   # emit a synthetic benchmark dataset
//! volcanoml report <trace.jsonl> [--journal trials.jsonl] [--metrics metrics.json] [--live]
//! volcanoml serve --dir DIR [--port P] [--workers N] [--resume] [--log-requests]
//! ```
//!
//! CSV dialect: first line `#types:` declaration, then a header, then rows;
//! see `volcanoml_data::csv`. `volcanoml generate` produces compliant files.

use std::process::ExitCode;
use volcanoml_core::plans::{self, enumerate_coarse_plans};
use volcanoml_core::{
    EngineKind, Objective, SpaceDef, SpaceGrowth, SpaceTier, ValidationStrategy,
    VolcanoML, VolcanoMlOptions,
};
use volcanoml_data::{train_test_split, Metric, Task};
use volcanoml_fe::pipeline::FeSpaceOptions;

fn usage() -> &'static str {
    "usage:\n  volcanoml fit <data.csv> [--evals N] [--tier small|medium|large] \
     [--plan p1|p2|p3|p4|p5] [--engine bo|random|sh|hyperband|mfes-hb] [--seed S] \
     [--cv K] [--ensemble N] [--smote] [--workers N] [--n-jobs N] \
     [--cost-aware] [--objective loss|loss_and_cost[:WEIGHT]] \
     [--space fixed|incremental[:EUI_THRESHOLD]] \
     [--journal trials.jsonl] [--trace trace.jsonl] [--metrics metrics.json] \
     [--trial-timeout SECS]\n  volcanoml spaces\n  \
     volcanoml plans\n  \
     volcanoml generate <classification|moons|xor|friedman1|imbalanced> <out.csv> [--seed S]\n  \
     volcanoml report <trace.jsonl> [--journal trials.jsonl] [--metrics metrics.json] [--live]\n  \
     volcanoml serve --dir DIR [--port P] [--workers N] [--resume] [--log-requests]"
}

/// Minimal flag parser: `--key value` pairs after positional arguments.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'"));
            };
            // Switch-style flags take no value.
            if matches!(
                key,
                "smote" | "live" | "resume" | "log-requests" | "cost-aware"
            ) {
                switches.push(key.to_string());
                i += 1;
                continue;
            }
            let Some(value) = args.get(i + 1) else {
                return Err(format!("flag --{key} needs a value"));
            };
            pairs.push((key.to_string(), value.clone()));
            i += 2;
        }
        Ok(Flags { pairs, switches })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }
}

/// `loss` or `loss_and_cost[:WEIGHT]` (WEIGHT defaults to 100 loss units
/// per second of per-row inference latency).
fn parse_objective(s: &str) -> Result<Objective, String> {
    if s == "loss" {
        return Ok(Objective::Loss);
    }
    let Some(rest) = s.strip_prefix("loss_and_cost") else {
        return Err(format!("unknown objective '{s}' (use loss|loss_and_cost[:WEIGHT])"));
    };
    let latency_weight = match rest.strip_prefix(':') {
        None if rest.is_empty() => None,
        Some(w) => Some(
            w.parse()
                .map_err(|_| format!("invalid objective weight '{w}'"))?,
        ),
        None => return Err(format!("unknown objective '{s}'")),
    };
    Objective::loss_and_cost(latency_weight).map_err(|e| e.to_string())
}

fn cmd_fit(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("fit needs a CSV path".to_string());
    };
    let flags = Flags::parse(&args[1..])?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let dataset = volcanoml_data::csv::from_csv(path, &text).map_err(|e| e.to_string())?;
    println!(
        "loaded {}: {} samples x {} features, task {:?}",
        path,
        dataset.n_samples(),
        dataset.n_features(),
        dataset.task
    );

    let evals: usize = flags.get_parsed("evals", 60)?;
    let seed: u64 = flags.get_parsed("seed", 0)?;
    let ensemble: usize = flags.get_parsed("ensemble", 1)?;
    let workers: usize = flags.get_parsed("workers", 1)?;
    if workers == 0 {
        return Err("--workers must be >= 1".to_string());
    }
    // Threads inside each model fit; orthogonal to --workers (trials).
    let n_jobs: usize = flags.get_parsed("n-jobs", 1)?;
    if n_jobs == 0 {
        return Err("--n-jobs must be >= 1".to_string());
    }
    let cost_aware = flags.has("cost-aware");
    let objective = parse_objective(flags.get("objective").unwrap_or("loss"))?;
    let space_growth =
        SpaceGrowth::parse(flags.get("space").unwrap_or("fixed")).map_err(|e| e.to_string())?;
    let journal_path = flags.get("journal").map(std::path::PathBuf::from);
    let trace_path = flags.get("trace").map(std::path::PathBuf::from);
    let metrics_path = flags.get("metrics").map(std::path::PathBuf::from);
    // Seconds each pool job may take: a holdout trial is one job, a CV
    // trial one per fold, and it times out when any of them does.
    let trial_deadline = match flags.get("trial-timeout") {
        Some(v) => {
            let secs: f64 = v
                .parse()
                .map_err(|_| "invalid --trial-timeout".to_string())?;
            if !secs.is_finite() || secs <= 0.0 {
                return Err("--trial-timeout must be positive".to_string());
            }
            Some(std::time::Duration::from_secs_f64(secs))
        }
        None => None,
    };
    let tier = SpaceTier::from_name(flags.get("tier").unwrap_or("large"))?;
    let engine_kind = EngineKind::from_name(flags.get("engine").unwrap_or("bo"))?;
    let plan = match flags.get("plan") {
        Some(p) => plans::by_name(p, engine_kind)?,
        None => plans::p3_volcano(engine_kind),
    };
    let validation = match flags.get("cv") {
        Some(k) => ValidationStrategy::CrossValidation {
            folds: k.parse().map_err(|_| "invalid --cv".to_string())?,
        },
        None => ValidationStrategy::default(),
    };

    let space = if flags.has("smote") {
        if dataset.task != Task::Classification {
            return Err("--smote only applies to classification".to_string());
        }
        SpaceDef::enriched(
            dataset.task,
            FeSpaceOptions {
                include_smote: true,
                embedding: None,
            },
        )
    } else {
        SpaceDef::tiered(dataset.task, tier)
    };
    println!(
        "space: {} hyper-parameters over {} algorithms | plan: {}",
        space.len(),
        space.algorithms.len(),
        plan.render()
    );

    let (train, test) =
        train_test_split(&dataset, 0.2, seed).map_err(|e| e.to_string())?;
    let engine = VolcanoML::new(
        space,
        VolcanoMlOptions {
            plan,
            max_evaluations: evals,
            seed,
            ensemble_size: ensemble,
            validation,
            n_workers: workers,
            trial_deadline,
            journal_path: journal_path.clone(),
            trace_path: trace_path.clone(),
            metrics_path: metrics_path.clone(),
            model_n_jobs: n_jobs,
            cost_aware,
            objective,
            space_growth,
            ..Default::default()
        },
    );
    if workers > 1 {
        println!("executing trials on {workers} worker threads");
    }
    if n_jobs > 1 {
        println!("fitting tree ensembles with {n_jobs} threads per trial");
    }
    if cost_aware {
        println!("cost-aware scheduling: EI-per-second acquisition, loss-per-second promotion");
    }
    if let Objective::LossAndCost { latency_weight } = objective {
        println!("objective: loss + {latency_weight} x per-row inference seconds");
    }
    if let SpaceGrowth::Incremental { eui_threshold } = space_growth {
        println!(
            "incremental space construction: start minimal, expand when plateau EUI < {eui_threshold}"
        );
    }
    let fitted = engine.fit(&train).map_err(|e| e.to_string())?;
    println!("\nexecution plan after the run:\n{}", fitted.report.plan_explain);
    println!(
        "search: {} evaluations in {:.2}s, best validation loss {:.4}",
        fitted.report.n_evaluations, fitted.report.total_cost, fitted.report.best_loss
    );
    let mut best: Vec<_> = fitted.report.best_assignment.iter().collect();
    best.sort_by(|a, b| a.0.cmp(b.0));
    println!("\nwinning configuration:");
    for (k, v) in best {
        println!("  {k} = {v:.5}");
    }
    let r = &fitted.report;
    let hit_rate = |hits: u64, misses: u64| {
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            100.0 * hits as f64 / total as f64
        }
    };
    println!(
        "caches: result {} hits / {} misses ({:.1}%), FE {} hits / {} misses ({:.1}%)",
        r.cache_hits,
        r.cache_misses,
        hit_rate(r.cache_hits, r.cache_misses),
        r.fe_cache_hits,
        r.fe_cache_misses,
        hit_rate(r.fe_cache_hits, r.fe_cache_misses),
    );
    println!(
        "zero-copy: {} gathers skipped, {:.2} MiB gathered",
        r.gathers_skipped,
        r.bytes_gathered as f64 / (1024.0 * 1024.0),
    );
    if r.fidelity_counts.len() > 1 {
        let mix: Vec<String> = r
            .fidelity_counts
            .iter()
            .map(|(f, n)| format!("{f:.3}x{n}"))
            .collect();
        println!("fidelity mix: {}", mix.join(", "));
    }
    if !r.pareto_front.is_empty() && objective.is_cost_sensitive() {
        println!("\nloss / inference-latency Pareto front:");
        for (assignment, loss, infer) in &r.pareto_front {
            let alg = assignment.get("algorithm").copied().unwrap_or(-1.0);
            println!("  loss {loss:.4}  infer {:.2}us/row  algorithm {alg:.0}", infer * 1e6);
        }
    }
    let metric = Metric::default_for(dataset.task);
    let score = fitted.score(&test, metric).map_err(|e| e.to_string())?;
    println!("\nheld-out {}: {score:.4}", metric.name());
    if let Some(journal) = &journal_path {
        println!("trial journal written to {}", journal.display());
    }
    if let Some(trace) = &trace_path {
        println!("span trace written to {}", trace.display());
    }
    if let Some(metrics) = &metrics_path {
        println!("metrics snapshot written to {}", metrics.display());
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let Some(trace) = args.first() else {
        return Err("report needs a trace JSONL path".to_string());
    };
    let flags = Flags::parse(&args[1..])?;
    let trace_text =
        std::fs::read_to_string(trace).map_err(|e| format!("cannot read {trace}: {e}"))?;
    let journal_text = match flags.get("journal") {
        Some(p) => {
            Some(std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?)
        }
        None => None,
    };
    let metrics_text = match flags.get("metrics") {
        Some(p) => {
            Some(std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?)
        }
        None => None,
    };
    // --live tolerates a torn final line in trace/journal (the run may
    // still be writing them) and marks the report as running/partial.
    let report = if flags.has("live") {
        volcanoml_obs::report::render_live_report(
            &trace_text,
            journal_text.as_deref(),
            metrics_text.as_deref(),
            false,
        )?
    } else {
        volcanoml_obs::report::render_report(
            &trace_text,
            journal_text.as_deref(),
            metrics_text.as_deref(),
        )?
    };
    print!("{report}");
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let Some(dir) = flags.get("dir") else {
        return Err("serve needs --dir DIR for study state".to_string());
    };
    let config = volcanoml_serve::ServeConfig {
        dir: std::path::PathBuf::from(dir),
        workers: flags.get_parsed("workers", 2usize)?.max(1),
        port: flags.get_parsed("port", 0u16)?,
        resume: flags.has("resume"),
        log_requests: flags.has("log-requests"),
    };
    let resume = config.resume;
    let workers = config.workers;
    let server = volcanoml_serve::Server::start(config)?;
    println!(
        "volcanoml-serve listening on http://{} ({} workers{}); study state in {}",
        server.addr(),
        workers,
        if resume { ", resuming" } else { "" },
        dir
    );
    println!("POST /studies to submit; Ctrl-C to stop");
    // Serve until killed. The address is also in <dir>/serve.addr for
    // scripted clients using --port 0.
    loop {
        std::thread::park();
    }
}

fn cmd_spaces() {
    println!("{:<16} {:<8} {:>8} {:>12}", "task", "tier", "vars", "algorithms");
    for task in [Task::Classification, Task::Regression] {
        for (tier, name) in [
            (SpaceTier::Small, "small"),
            (SpaceTier::Medium, "medium"),
            (SpaceTier::Large, "large"),
        ] {
            let s = SpaceDef::tiered(task, tier);
            println!(
                "{:<16} {:<8} {:>8} {:>12}",
                format!("{task:?}"),
                name,
                s.len(),
                s.algorithms.len()
            );
        }
    }
}

fn cmd_plans() {
    for (name, plan) in enumerate_coarse_plans(EngineKind::Bo) {
        println!("{name:<14} {}", plan.render());
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let (Some(kind), Some(out)) = (args.first(), args.get(1)) else {
        return Err("generate needs <kind> <out.csv>".to_string());
    };
    let flags = Flags::parse(&args[2..])?;
    let seed: u64 = flags.get_parsed("seed", 0)?;
    let dataset = volcanoml_data::synthetic::by_name(kind, seed)
        .ok_or_else(|| format!("unknown generator '{kind}'"))?;
    let text = volcanoml_data::csv::to_csv(&dataset);
    std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {} ({} samples x {} features, {:?})",
        out,
        dataset.n_samples(),
        dataset.n_features(),
        dataset.task
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("fit") => cmd_fit(&args[1..]),
        Some("spaces") => {
            cmd_spaces();
            Ok(())
        }
        Some("plans") => {
            cmd_plans();
            Ok(())
        }
        Some("generate") => cmd_generate(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        _ => Err(usage().to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parser_pairs_and_switches() {
        let args: Vec<String> = ["--evals", "40", "--smote", "--cost-aware", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = Flags::parse(&args).unwrap();
        assert_eq!(f.get("evals"), Some("40"));
        assert_eq!(f.get_parsed("seed", 0u64).unwrap(), 7);
        assert!(f.has("smote"));
        assert!(f.has("cost-aware"));
        assert_eq!(f.get_parsed("missing", 3usize).unwrap(), 3);
    }

    #[test]
    fn flag_parser_rejects_bad_input() {
        let args: Vec<String> = ["positional"].iter().map(|s| s.to_string()).collect();
        assert!(Flags::parse(&args).is_err());
        let dangling: Vec<String> = ["--evals"].iter().map(|s| s.to_string()).collect();
        assert!(Flags::parse(&dangling).is_err());
    }

    #[test]
    fn parsers_accept_all_documented_values() {
        for p in ["p1", "p2", "p3", "p4", "p5"] {
            plans::by_name(p, EngineKind::Bo).unwrap();
        }
        assert!(plans::by_name("p9", EngineKind::Bo).is_err());
    }

    #[test]
    fn objective_flag_parses_and_rejects() {
        assert_eq!(parse_objective("loss").unwrap(), Objective::Loss);
        assert_eq!(
            parse_objective("loss_and_cost").unwrap(),
            Objective::LossAndCost { latency_weight: 100.0 }
        );
        assert_eq!(
            parse_objective("loss_and_cost:2.5").unwrap(),
            Objective::LossAndCost { latency_weight: 2.5 }
        );
        assert!(parse_objective("latency").is_err());
        assert!(parse_objective("loss_and_cost:-1").is_err());
        assert!(parse_objective("loss_and_cost:nope").is_err());
    }

    #[test]
    fn space_flag_parses_and_rejects() {
        let args: Vec<String> = ["--space", "incremental:0.05"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = Flags::parse(&args).unwrap();
        assert_eq!(
            SpaceGrowth::parse(f.get("space").unwrap()).unwrap(),
            SpaceGrowth::Incremental { eui_threshold: 0.05 }
        );
        assert_eq!(SpaceGrowth::parse("fixed").unwrap(), SpaceGrowth::Fixed);
        assert!(SpaceGrowth::parse("huge").is_err());
        assert!(SpaceGrowth::parse("incremental:-3").is_err());
    }

    #[test]
    fn cost_aware_switch_parses() {
        let args: Vec<String> = ["--cost-aware", "--objective", "loss_and_cost:10"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = Flags::parse(&args).unwrap();
        assert!(f.has("cost-aware"));
        assert_eq!(f.get("objective"), Some("loss_and_cost:10"));
    }

    #[test]
    fn executor_flags_parse() {
        let args: Vec<String> = [
            "--workers",
            "4",
            "--n-jobs",
            "2",
            "--journal",
            "trials.jsonl",
            "--trial-timeout",
            "2.5",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let f = Flags::parse(&args).unwrap();
        assert_eq!(f.get_parsed("workers", 1usize).unwrap(), 4);
        assert_eq!(f.get_parsed("n-jobs", 1usize).unwrap(), 2);
        assert_eq!(f.get("journal"), Some("trials.jsonl"));
        assert_eq!(f.get("trial-timeout"), Some("2.5"));
    }
}
