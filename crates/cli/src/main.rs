//! `volcanoml` — command-line front end for the VolcanoML engine.
//!
//! ```text
//! volcanoml fit [data.csv] [--dataset KIND [--data-seed S]] [--max-evaluations N]
//!               [--tier small|medium|large] [--plan p1|p2|p3|p4|p5]
//!               [--engine bo|random|sh|hyperband|mfes-hb] [--seed S] [--cost-aware]
//!               [--objective loss|loss_and_cost [--latency-weight W]]
//!               [--space fixed|incremental[:EUI_THRESHOLD]] [--name NAME]
//!               [--cv K] [--ensemble N] [--smote] [--workers N] [--n-jobs N]
//!               [--journal trials.jsonl] [--trace trace.jsonl]
//!               [--metrics metrics.json] [--trial-timeout SECS]
//! volcanoml spaces                      # print the tiered search-space sizes
//! volcanoml plans                       # print the plan catalogue
//! volcanoml generate <kind> <out.csv>   # emit a synthetic benchmark dataset
//! volcanoml report <trace.jsonl> [--journal trials.jsonl] [--metrics metrics.json] [--live]
//! volcanoml serve --dir DIR [--port P] [--workers N] [--resume] [--log-requests]
//! ```
//!
//! `fit`'s search flags are the fields of a [`StudySpec`], the document
//! `volcanoml serve` takes on `POST /studies`: `--max-evaluations 20` is
//! `"max_evaluations":20`, a leading CSV path is `"csv"`, and the line `fit`
//! prints first is that spec as JSON. The other nine flags say how the
//! search runs, not what it searches. An unknown flag is an error.
//!
//! CSV dialect: first line `#types:` declaration, then a header, then rows;
//! see `volcanoml_data::csv`. `volcanoml generate` produces compliant files.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use volcanoml_core::plans::enumerate_coarse_plans;
use volcanoml_core::spec::field_u64;
use volcanoml_core::{
    EngineKind, SpaceDef, SpaceTier, StudySpec, ValidationStrategy, VolcanoML, VolcanoMlOptions,
};
use volcanoml_data::{train_test_split, Metric, Task};
use volcanoml_fe::pipeline::FeSpaceOptions;
use volcanoml_obs::json::JsonValue;

fn usage() -> &'static str {
    "usage:\n  volcanoml fit [data.csv] [--dataset KIND [--data-seed S]] [--max-evaluations N] \
     [--tier small|medium|large] [--plan p1|p2|p3|p4|p5] \
     [--engine bo|random|sh|hyperband|mfes-hb] [--seed S] [--cost-aware] \
     [--objective loss|loss_and_cost [--latency-weight W]] \
     [--space fixed|incremental[:EUI_THRESHOLD]] [--name NAME] \
     [--cv K] [--ensemble N] [--smote] [--workers N] [--n-jobs N] \
     [--journal trials.jsonl] [--trace trace.jsonl] [--metrics metrics.json] \
     [--trial-timeout SECS]\n  volcanoml spaces\n  \
     volcanoml plans\n  \
     volcanoml generate <classification|moons|xor|friedman1|imbalanced> <out.csv> [--seed S]\n  \
     volcanoml report <trace.jsonl> [--journal trials.jsonl] [--metrics metrics.json] [--live]\n  \
     volcanoml serve --dir DIR [--port P] [--workers N] [--resume] [--log-requests]"
}

/// Flags that take no value; each reads as `true`.
const SWITCHES: [&str; 5] = ["smote", "live", "resume", "log-requests", "cost-aware"];

/// `--key value` flags as flat fields: `--a-b v` is field `a_b`, a value
/// that parses as a finite number is a number and any other a string, and a
/// switch is `true`. Each command takes the fields it reads.
#[derive(Debug)]
struct Flags(BTreeMap<String, JsonValue>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut fields = BTreeMap::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}'"));
            };
            let value = if SWITCHES.contains(&flag) {
                JsonValue::Bool(true)
            } else {
                let v = args.next().ok_or_else(|| format!("flag --{flag} needs a value"))?;
                match v.parse::<f64>() {
                    Ok(x) if x.is_finite() => JsonValue::Num(x),
                    _ => JsonValue::Str(v.clone()),
                }
            };
            if fields.insert(flag.replace('-', "_"), value).is_some() {
                return Err(format!("flag --{flag} given twice"));
            }
        }
        Ok(Flags(fields))
    }

    fn take(&mut self, key: &str) -> Option<JsonValue> {
        self.0.remove(key)
    }

    fn take_u64(&mut self, key: &str, default: u64) -> Result<u64, String> {
        self.take(key).map_or(Ok(default), |v| field_u64(key, &v))
    }

    fn take_str(&mut self, key: &str) -> Result<Option<String>, String> {
        match self.take(key) {
            None => Ok(None),
            Some(JsonValue::Str(s)) => Ok(Some(s)),
            Some(_) => Err(format!("field \"{key}\" must be a string")),
        }
    }

    /// Rejects any flag the command did not take.
    fn finish(self) -> Result<(), String> {
        match self.0.keys().next() {
            Some(key) => Err(format!("unknown flag --{}", key.replace('_', "-"))),
            None => Ok(()),
        }
    }
}

fn cmd_fit(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    if args.first().is_some_and(|a| !a.starts_with("--")) {
        args.insert(0, "--csv".to_string());
    }
    let mut flags = Flags::parse(&args)?;
    let workers = flags.take_u64("workers", 1)? as usize;
    if workers == 0 {
        return Err("--workers must be >= 1".to_string());
    }
    // Threads inside each model fit; orthogonal to --workers (trials).
    let n_jobs = flags.take_u64("n_jobs", 1)? as usize;
    if n_jobs == 0 {
        return Err("--n-jobs must be >= 1".to_string());
    }
    // Seconds each pool job may take: a holdout trial is one job, a CV
    // trial one per fold, and it times out when any of them does.
    let trial_deadline = match flags.take("trial_timeout") {
        None => None,
        Some(v) => Some(
            v.as_f64()
                .filter(|secs| *secs > 0.0)
                .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                .ok_or("--trial-timeout must be a positive number of seconds")?,
        ),
    };
    let validation = match flags.take("cv") {
        None => ValidationStrategy::default(),
        Some(k) => ValidationStrategy::CrossValidation {
            folds: field_u64("cv", &k)? as usize,
        },
    };
    let ensemble_size = flags.take_u64("ensemble", 1)? as usize;
    let smote = flags.take("smote").is_some();
    let journal_path = flags.take_str("journal")?.map(PathBuf::from);
    let trace_path = flags.take_str("trace")?.map(PathBuf::from);
    let metrics_path = flags.take_str("metrics")?.map(PathBuf::from);
    let spec = StudySpec::from_fields(&flags.0)?;
    // The SMOTE space is built over every algorithm, which is the large tier.
    if smote && spec.tier != SpaceTier::Large {
        return Err("--smote searches the large tier: add --tier large".to_string());
    }
    let dataset = spec.build_dataset()?;
    println!("{}", spec.to_json());

    let space = if smote {
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
        SpaceDef::tiered(dataset.task, spec.tier)
    };
    let options = VolcanoMlOptions {
        ensemble_size,
        validation,
        n_workers: workers,
        trial_deadline,
        journal_path: journal_path.clone(),
        trace_path: trace_path.clone(),
        metrics_path: metrics_path.clone(),
        model_n_jobs: n_jobs,
        ..spec.options()?
    };
    println!(
        "space: {} hyper-parameters over {} algorithms | plan: {}",
        space.len(),
        space.algorithms.len(),
        options.plan.render()
    );

    let (train, test) =
        train_test_split(&dataset, 0.2, spec.seed).map_err(|e| e.to_string())?;
    let fitted = VolcanoML::new(space, options)
        .fit(&train)
        .map_err(|e| e.to_string())?;
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
    if !r.pareto_front.is_empty() && spec.objective.is_cost_sensitive() {
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
    let Some((trace, rest)) = args.split_first() else {
        return Err("report needs a trace JSONL path".to_string());
    };
    let mut flags = Flags::parse(rest)?;
    let journal = flags.take_str("journal")?;
    let metrics = flags.take_str("metrics")?;
    let live = flags.take("live").is_some();
    flags.finish()?;
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let trace_text = read(trace)?;
    let journal_text = journal.as_deref().map(read).transpose()?;
    let metrics_text = metrics.as_deref().map(read).transpose()?;
    // --live tolerates a torn final line in trace/journal (the run may
    // still be writing them) and marks the report as running/partial.
    let report = if live {
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
    let mut flags = Flags::parse(args)?;
    let Some(dir) = flags.take_str("dir")? else {
        return Err("serve needs --dir DIR for study state".to_string());
    };
    let port = flags.take_u64("port", 0)?;
    let config = volcanoml_serve::ServeConfig {
        dir: PathBuf::from(&dir),
        workers: flags.take_u64("workers", 2)?.max(1) as usize,
        port: u16::try_from(port).map_err(|_| format!("--port {port} is above 65535"))?,
        resume: flags.take("resume").is_some(),
        log_requests: flags.take("log_requests").is_some(),
    };
    flags.finish()?;
    let server = volcanoml_serve::Server::start(config.clone())?;
    println!(
        "volcanoml-serve listening on http://{} ({} workers{}); study state in {}",
        server.addr(),
        config.workers,
        if config.resume { ", resuming" } else { "" },
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
    let mut flags = Flags::parse(&args[2..])?;
    let seed = flags.take_u64("seed", 0)?;
    flags.finish()?;
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
    use volcanoml_core::{plans, Objective, SpaceGrowth};

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parser_pairs_and_switches() {
        let f = Flags::parse(&args(&[
            "--max-evaluations", "40", "--smote", "--cost-aware", "--space", "incremental:0.05",
            "--seed", "inf",
        ]))
        .unwrap();
        let field = |k: &str| f.0.get(k).cloned();
        assert_eq!(field("max_evaluations"), Some(JsonValue::Num(40.0)));
        assert_eq!(field("smote"), Some(JsonValue::Bool(true)));
        assert_eq!(field("cost_aware"), Some(JsonValue::Bool(true)));
        assert_eq!(field("space"), Some(JsonValue::Str("incremental:0.05".into())));
        // A non-finite number stays a string, which no integer field takes.
        assert_eq!(field("seed"), Some(JsonValue::Str("inf".into())));
        assert!(StudySpec::from_fields(&f.0).unwrap_err().contains("\"smote\""));
    }

    #[test]
    fn executor_flags_parse() {
        let mut f = Flags::parse(&args(&[
            "--workers", "4", "--n-jobs", "2", "--journal", "trials.jsonl",
            "--trial-timeout", "2.5",
        ]))
        .unwrap();
        assert_eq!(f.take_u64("workers", 1).unwrap(), 4);
        assert_eq!(f.take_u64("n_jobs", 1).unwrap(), 2);
        assert_eq!(f.take_u64("ensemble", 1).unwrap(), 1);
        assert_eq!(f.take_str("journal").unwrap().as_deref(), Some("trials.jsonl"));
        assert_eq!(f.take("trial_timeout"), Some(JsonValue::Num(2.5)));
        f.finish().unwrap();
    }

    #[test]
    fn flag_parser_rejects_bad_input() {
        assert!(Flags::parse(&args(&["positional"])).is_err());
        assert!(Flags::parse(&args(&["--seed"])).is_err());
        let twice = Flags::parse(&args(&["--seed", "1", "--seed", "2"])).unwrap_err();
        assert!(twice.contains("twice"), "{twice}");
    }

    #[test]
    fn every_command_rejects_an_unknown_flag() {
        let fit = cmd_fit(&args(&["--dataset", "moons", "--max-evaluation", "5"])).unwrap_err();
        assert!(fit.contains("\"max_evaluation\""), "{fit}");
        for (cmd, a) in [
            (cmd_report as fn(&[String]) -> Result<(), String>, &["t.jsonl", "--jurnal", "j"][..]),
            (cmd_serve, &["--dir", "d", "--prot", "1"]),
            (cmd_generate, &["moons", "out.csv", "--sed", "1"]),
        ] {
            let err = cmd(&args(a)).unwrap_err();
            assert!(err.starts_with("unknown flag --"), "{a:?}: {err}");
        }
    }

    #[test]
    fn fit_flags_and_spec_json_read_the_same_spec() {
        let flags = Flags::parse(&args(&[
            "--dataset", "moons", "--engine", "mfes-hb", "--plan", "p1",
            "--max-evaluations", "24", "--seed", "3", "--cost-aware",
            "--objective", "loss_and_cost", "--latency-weight", "12.5",
            "--space", "incremental:0.05",
        ]))
        .unwrap();
        let from_flags = StudySpec::from_fields(&flags.0).unwrap();
        let from_json = StudySpec::from_json(
            r#"{"dataset":"moons","engine":"mfes-hb","plan":"p1","max_evaluations":24,
                "seed":3,"cost_aware":true,"objective":"loss_and_cost",
                "latency_weight":12.5,"space":"incremental:0.05"}"#,
        )
        .unwrap();
        assert_eq!(from_flags, from_json);
        assert_eq!(from_flags.to_json(), from_json.to_json());
    }

    #[test]
    fn space_flag_parses_and_rejects() {
        let spec = |space: &str| {
            let f = Flags::parse(&args(&["--dataset", "moons", "--space", space])).unwrap();
            StudySpec::from_fields(&f.0)
        };
        assert_eq!(
            spec("incremental:0.05").unwrap().space,
            SpaceGrowth::Incremental { eui_threshold: 0.05 }
        );
        assert_eq!(spec("fixed").unwrap().space, SpaceGrowth::Fixed);
        assert!(spec("huge").is_err());
        assert!(spec("incremental:-3").is_err());
    }

    #[test]
    fn cost_aware_switch_parses() {
        let f = Flags::parse(&args(&[
            "--dataset", "moons", "--cost-aware", "--objective", "loss_and_cost",
            "--latency-weight", "10",
        ]))
        .unwrap();
        let spec = StudySpec::from_fields(&f.0).unwrap();
        assert!(spec.cost_aware);
        assert_eq!(spec.objective, Objective::LossAndCost { latency_weight: 10.0 });
        let plain = Flags::parse(&args(&["--dataset", "moons"])).unwrap();
        assert!(!StudySpec::from_fields(&plain.0).unwrap().cost_aware);
    }

    #[test]
    fn smote_needs_the_large_tier() {
        let err = cmd_fit(&args(&["--dataset", "moons", "--smote", "--tier", "small"]));
        assert!(err.unwrap_err().contains("--tier large"));
    }

    #[test]
    fn run_flags_are_checked() {
        for (a, needle) in [
            (&["--workers", "0"][..], "--workers"),
            (&["--n-jobs", "0"], "--n-jobs"),
            (&["--trial-timeout", "-5"], "--trial-timeout"),
            (&["--trial-timeout", "1e300"], "--trial-timeout"),
            (&["--cv", "2.5"], "\"cv\""),
            (&["--journal", "7"], "\"journal\""),
        ] {
            let err = cmd_fit(&args(&[&["--dataset", "moons"], a].concat())).unwrap_err();
            assert!(err.contains(needle), "{a:?}: {err}");
        }
    }

    #[test]
    fn parsers_accept_all_documented_values() {
        for p in ["p1", "p2", "p3", "p4", "p5"] {
            plans::by_name(p, EngineKind::Bo).unwrap();
        }
        assert!(plans::by_name("p9", EngineKind::Bo).is_err());
    }
}
