//! End-to-end `fit` benchmark with a per-layer time account.
//!
//! Driver form, one workload in one trace mode, result on the last line:
//!
//! ```text
//! volcanoml-benchmark --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! Without `--workload` it runs every workload in both modes, each in a
//! process of its own, and prints every metric with its unit. `--aa` does
//! that twice and compares; `--record` appends the figures to the
//! trajectory file. See README.md.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use volcanoml_benchmark::workloads::{self, Workload, WORKLOADS};
use volcanoml_benchmark::{contract, e2e, layers, traced};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    scale: f64,
    aa: bool,
    record: bool,
    /// The benchmark's own directory: `out/` and `results/` live under it.
    home: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: contract::RUN_SECONDS,
        trace: None,
        scale: 1.0,
        aa: false,
        record: false,
        home: PathBuf::from("benchmark"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--scale" => {
                args.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--home" => args.home = PathBuf::from(value("--home")?),
            "--aa" => args.aa = true,
            "--record" => args.record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if !(args.scale > 0.0 && args.scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("volcanoml-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => run_workload(&args, name),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("volcanoml-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

/// One workload in this process. With `--trace` the last line is that mode's
/// result; without it both modes run and both result lines are printed.
fn run_workload(args: &Args, name: &str) -> Result<bool, String> {
    let w = workloads::find(name).ok_or(format!("unknown workload {name}"))?;
    let n_cpus = layers::n_cpus();
    let out_dir = args.home.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let modes: &[bool] = match args.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut ok = true;
    for &traced_mode in modes {
        let run = if traced_mode { traced::run } else { e2e::run };
        let out = run(w, args.seed, args.seconds, args.scale, n_cpus, &out_dir)?;
        for v in &out.violations {
            println!("CHECK FAILED [{name}]: {v}");
        }
        ok &= out.correct();
        println!("{}", out.to_json());
    }
    Ok(ok)
}

/// Every metric of one workload, as its child process reported them.
struct Reported {
    workload: &'static str,
    metrics: Vec<(String, f64, String)>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

/// Runs one workload in a child process of this program, so that
/// `peak_rss_mb` is the workload's own, and reads back its result lines.
fn run_child(args: &Args, w: &Workload) -> Result<Reported, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--scale", &args.scale.to_string()])
        .arg("--home")
        .arg(&args.home)
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut reported = Reported {
        workload: w.name,
        metrics: Vec::new(),
        correct: output.status.success(),
        attempted: 0,
        failed: 0,
    };
    for line in stdout.lines() {
        if line.starts_with("CHECK FAILED") {
            println!("{line}");
        } else if let Some(result) = contract::parse_result(line) {
            reported.correct &= result.correct;
            reported.attempted += result.attempted;
            reported.failed += result.failed;
            reported.metrics.extend(result.metrics);
        }
    }
    if reported.metrics.is_empty() {
        return Err(format!(
            "{} printed no result: {}",
            w.name,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(reported)
}

fn run_set(args: &Args) -> Result<Vec<Reported>, String> {
    WORKLOADS.iter().map(|w| run_child(args, w)).collect()
}

fn value_of(r: &Reported, name: &str) -> Option<f64> {
    r.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
}

fn run_all(args: &Args) -> Result<bool, String> {
    let first = run_set(args)?;
    let mut ok = first.iter().all(|r| r.correct);
    for r in &first {
        println!(
            "== {} (seed {}, {} operations, {} failed)",
            r.workload, args.seed, r.attempted, r.failed
        );
        for (name, value, unit) in &r.metrics {
            println!("{name:<36} {value:>16.6} {unit}");
        }
    }
    let ttt = |workload: &str| {
        first
            .iter()
            .find(|r| r.workload == workload)
            .and_then(|r| value_of(r, "core.time_to_target_s"))
    };
    if let (Some(joint), Some(volcano)) = (ttt("joint_small"), ttt("volcano_small")) {
        println!("== derived, not gated");
        println!(
            "{:<36} {:>16.6} ratio (joint_small / volcano_small)",
            "volcano_vs_joint_ttt",
            joint / volcano
        );
    }
    if args.aa {
        let second = run_set(args)?;
        ok &= second.iter().all(|r| r.correct);
        ok &= print_aa(&args.home, &first, &second)?;
    }
    if args.record {
        record(args, &first)?;
    }
    Ok(ok)
}

/// The A/A evidence: two sets of runs of one build, per workload and
/// end-to-end metric both values, their ratio and the bound; counts must
/// agree exactly.
fn print_aa(home: &Path, first: &[Reported], second: &[Reported]) -> Result<bool, String> {
    let declared = contract::load(&home.join("../BENCHMARK.json"))?;
    let mut ok = true;
    println!("== A/A: two sets of runs of the same build");
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "ratio", "bound"
    );
    for (a, b) in first.iter().zip(second) {
        for m in &declared.end_to_end {
            let (Some(x), Some(y)) = (value_of(a, &m.name), value_of(b, &m.name)) else {
                continue;
            };
            let worse = if m.lower_is_better {
                y / x - 1.0
            } else {
                x / y - 1.0
            };
            let within = worse.abs() <= m.bound;
            ok &= within;
            println!(
                "{:<16} {:<18} {:>14.6} {:>14.6} {:>9.4} {:>7.3}{}",
                a.workload,
                m.name,
                x,
                y,
                y / x,
                m.bound,
                if within { "" } else { "  OUTSIDE" }
            );
        }
        // Pool scheduling decides which trials a pooled run caches, so only
        // serial workloads owe exact counts.
        if value_of(a, "trace.pool_workers") == Some(1.0) {
            for name in traced::EXACT {
                let (x, y) = (value_of(a, name), value_of(b, name));
                if x != y {
                    ok = false;
                    println!("{:<16} {name}: {x:?} vs {y:?}  COUNT DIFFERS", a.workload);
                }
            }
        }
    }
    Ok(ok)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Appends one JSON line with the machine, the commit and every metric to
/// `results/trajectory.jsonl`. A plain run writes only under `out/`.
fn record(args: &Args, sets: &[Reported]) -> Result<(), String> {
    use layers::json::{escape, num};
    use std::io::Write;
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut line = format!(
        "{{\"commit\": \"{}\", \"n_cpus\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"seed\": {}, \"seconds\": {}, \"scale\": {}",
        escape(&command_line("git", &["rev-parse", "HEAD"])),
        layers::n_cpus(),
        escape(&cpu_model),
        escape(&command_line("rustc", &["-V"])),
        args.seed,
        num(args.seconds),
        num(args.scale),
    );
    for r in sets {
        line += &format!(", \"{}\": {{", r.workload);
        let fields: Vec<String> = r
            .metrics
            .iter()
            .map(|(name, value, _)| format!("\"{}\": {}", escape(name), num(*value)))
            .collect();
        line += &fields.join(", ");
        line += "}";
    }
    line += "}";
    let dir = args.home.join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join("trajectory.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("append {}: {e}", path.display()))?;
    println!("recorded to {}", path.display());
    Ok(())
}
