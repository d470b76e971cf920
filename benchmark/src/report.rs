//! Metric values, the result line, and the small statistics the harness uses.

use crate::layers::json::{escape, num};

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run of one workload in one trace mode produced.
#[derive(Default)]
pub struct RunOutput {
    pub metrics: Vec<Metric>,
    /// Operations: one per `fit` the run made, plus one per output check.
    pub attempted: u64,
    pub failed: u64,
    /// Every violated check, in words.
    pub violations: Vec<String>,
}

impl RunOutput {
    /// A metric that is not a finite number is a failed check: the result
    /// line cannot carry it.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.check(false, || format!("{name} is not a finite number"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one output check; a failed one is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON object the driver reads from the last line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(m.name),
                    if m.value.is_finite() {
                        num(m.value)
                    } else {
                        "-1".into()
                    },
                    escape(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest percentile that still has at least ten samples beyond it, as
/// `(percentile, value)`; the median when there are too few samples for one.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 21 {
        return (50.0, median(&v));
    }
    let rank = n - 10;
    (100.0 * rank as f64 / n as f64, v[rank - 1])
}

/// Starts a new peak-RSS window: asks the kernel to reset `VmHWM` to the
/// current resident size (`/proc/self/clear_refs`). Where the kernel refuses,
/// the peak stays the process's running maximum.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`) since the last
/// [`reset_peak_rss`].
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
