//! Deterministic data parallelism over scoped threads (std-only).
//!
//! Ensemble fitting parallelizes over *independent, individually seeded*
//! work items (trees, per-class boosting stages, prediction row ranges,
//! per-node feature chunks). Because every item derives its randomness from
//! its own index — never from a shared RNG stream — and results are
//! reassembled in submission order, the output is bit-identical for any
//! `n_jobs`, including 1.
//!
//! The requested job count is a *ceiling*, not a promise: it is clamped to
//! the machine's available hardware parallelism before any thread is
//! spawned. On a 1-CPU box a `n_jobs = 4` forest therefore takes the plain
//! serial path — scoped-thread spawns cost real time and buy nothing without
//! cores to run on (a 4-job fit once measured 0.97× of serial there).
//!
//! Work counters follow the work: each scoped worker hands its
//! [`binned::stats`](crate::binned::stats) tally back when it is joined, so
//! the calling thread's tally reads the same at any job count.

use crate::binned::stats;
use std::sync::OnceLock;

/// Hardware parallelism cap: [`std::thread::available_parallelism`], cached
/// after the first call.
pub fn hardware_parallelism() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Effective worker count for `n` items under `n_jobs` requested and `hw`
/// available cores: never more jobs than items or cores, never less than 1.
fn cap_jobs(n_jobs: usize, n: usize, hw: usize) -> usize {
    n_jobs.max(1).min(n.max(1)).min(hw.max(1))
}

/// Maps `f` over `0..n`, splitting the range into contiguous chunks executed
/// on scoped threads. Results come back in index order; with an effective
/// job count of 1 this is a plain serial map with zero thread spawns.
///
/// The effective job count is `min(n_jobs, n, hardware_parallelism())`, so
/// callers can pass their configured `n_jobs` unconditionally — tiny inputs
/// and single-core machines take the serial fast path automatically.
///
/// `f` must be pure with respect to the item index (no shared mutable
/// state), which is what guarantees thread-count-independent results.
pub fn parallel_map<T, F>(n_jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_capped(n_jobs, n, hardware_parallelism(), f)
}

/// [`parallel_map`] with an explicit hardware cap (testable core).
fn parallel_map_capped<T, F>(n_jobs: usize, n: usize, hw: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = cap_jobs(n_jobs, n, hw);
    if jobs <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(jobs);
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|scope| {
        let workers: Vec<_> = out
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, slots)| {
                let f = &f;
                scope.spawn(move || {
                    for (j, slot) in slots.iter_mut().enumerate() {
                        *slot = Some(f(ci * chunk + j));
                    }
                    stats::take()
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(tally) => stats::bump(|mine| mine.add(&tally)),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    out.into_iter()
        .map(|s| s.expect("parallel_map worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map_for_any_job_count() {
        let expect: Vec<usize> = (0..23).map(|i| i * i).collect();
        for jobs in [1, 2, 3, 4, 8, 64] {
            assert_eq!(parallel_map(jobs, 23, |i| i * i), expect, "jobs={jobs}");
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        assert_eq!(parallel_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn jobs_larger_than_items_is_fine() {
        assert_eq!(parallel_map(16, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn job_cap_respects_items_cores_and_floor() {
        assert_eq!(cap_jobs(4, 40, 1), 1, "1-CPU box must stay serial");
        assert_eq!(cap_jobs(4, 40, 2), 2);
        assert_eq!(cap_jobs(4, 2, 8), 2, "never more jobs than items");
        assert_eq!(cap_jobs(0, 10, 8), 1);
        assert_eq!(cap_jobs(3, 0, 8), 1);
    }

    #[test]
    fn serial_path_spawns_zero_threads() {
        // n_jobs = 1: serial regardless of the machine.
        let me = std::thread::current().id();
        let ids = parallel_map(1, 100, |_| std::thread::current().id());
        assert_eq!(ids.len(), 100);
        assert!(ids.iter().all(|id| *id == me), "n_jobs=1 must not spawn threads");
    }

    #[test]
    fn single_core_cap_spawns_zero_threads() {
        // The BENCH_models.json regression: 40 trees, n_jobs=4, 1 CPU. The
        // hardware clamp must take the serial path without a single spawn.
        let me = std::thread::current().id();
        let ids = parallel_map_capped(4, 40, 1, |_| std::thread::current().id());
        assert_eq!(ids.len(), 40);
        assert!(ids.iter().all(|id| *id == me), "hw=1 must not spawn threads");
    }

    #[test]
    fn parallel_path_runs_items_on_spawned_workers() {
        let me = std::thread::current().id();
        let ids = parallel_map_capped(2, 8, 4, |_| std::thread::current().id());
        assert_eq!(ids.len(), 8);
        assert!(ids.iter().all(|id| *id != me), "items must run on spawned workers");
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert!(distinct.len() <= 2, "2 jobs ran on {} threads", distinct.len());
    }

    #[test]
    fn workers_hand_their_tally_back_to_the_caller() {
        stats::take();
        parallel_map_capped(2, 8, 4, |_| stats::bump(|t| t.hist_node_scans += 1));
        assert_eq!(stats::take().hist_node_scans, 8);
        // Serial path: the items ran here, so they tallied here.
        parallel_map_capped(1, 8, 4, |_| stats::bump(|t| t.hist_node_scans += 1));
        assert_eq!(stats::take().hist_node_scans, 8);
    }

    #[test]
    fn forest_fit_tallies_the_same_work_at_any_job_count() {
        use crate::forest::{ForestClassifier, ForestConfig};
        use crate::tree::SplitStrategy;
        use crate::Estimator;
        let d = volcanoml_data::synthetic::make_xor(300, 4, 2, 0.05, 5);
        let tally = |n_jobs: usize| {
            let mut cfg = ForestConfig::random_forest();
            cfg.n_estimators = 6;
            cfg.split_strategy = SplitStrategy::Histogram;
            cfg.n_jobs = n_jobs;
            stats::take();
            ForestClassifier::new(cfg).fit(&d.x, &d.y).unwrap();
            stats::take()
        };
        // `parallel_map` clamps to the machine, so on one core both fits are
        // serial; with two or more the second really spawns.
        let (one, two) = (tally(1), tally(2));
        assert!(one.cells_encoded > 0 && one.hist_bytes_scanned > 0, "{one:?}");
        assert_eq!(one.matrices_built, two.matrices_built);
        assert_eq!(one.cells_encoded, two.cells_encoded);
        assert_eq!(one.hist_node_scans, two.hist_node_scans);
        assert_eq!(one.hist_bytes_scanned, two.hist_bytes_scanned);
    }
}
