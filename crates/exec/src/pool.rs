//! The fixed-size worker pool.
//!
//! Architecture: `ExecPool::new` spawns `workers` OS threads that loop over
//! a shared MPMC job queue (an `mpsc::Receiver` behind a mutex — the
//! classic std-only work queue). `run_batch` wraps each submitted closure
//! so it reports `(index, worker, timing, outcome)` back over a per-batch
//! channel, then reassembles results in submission order.
//!
//! A job is whatever closure the caller submits. The evaluator submits one
//! per `(trial, validation pair)` — a holdout trial is one job, a k-fold CV
//! trial is k — and folds the results back into trials itself, so the pool
//! knows nothing about trials beyond the names of its types.
//!
//! Crash isolation is per job: the closure runs under
//! `panic::catch_unwind`, so a panicking pipeline surfaces as
//! [`TrialStatus::Panicked`] and the worker keeps draining the queue.
//!
//! Deadlines: when [`PoolConfig::trial_deadline`] is set, the worker runs
//! each job on a *detached* helper thread and waits with `recv_timeout`.
//! On expiry the helper is abandoned (it cannot be killed safely in Rust;
//! it finishes in the background and its result is discarded) and the job
//! is reported as [`TrialStatus::TimedOut`]. This trades a leaked thread
//! for a live search — the fault-tolerance contract from the paper's
//! production requirements.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

std::thread_local! {
    static WORKER_ID: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The worker id of the current thread: `Some(0..workers)` inside a pool
/// worker or its trial helper thread, `None` elsewhere (serial execution).
pub fn current_worker() -> Option<usize> {
    WORKER_ID.with(|w| w.get())
}

/// Pool construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Number of worker threads (clamped to at least 1).
    pub workers: usize,
    /// Wall-clock budget of each job in a batch — for the evaluator, each
    /// `(trial, validation pair)`, so a CV trial times out when any one of
    /// its folds does; `None` disables deadline enforcement.
    pub trial_deadline: Option<Duration>,
}

impl PoolConfig {
    /// A pool of `workers` threads with no deadline.
    pub fn with_workers(workers: usize) -> PoolConfig {
        PoolConfig {
            workers,
            trial_deadline: None,
        }
    }
}

/// How one trial ended.
#[derive(Debug)]
pub enum TrialStatus<T> {
    /// The trial ran to completion.
    Done(T),
    /// The trial panicked; the payload is the panic message.
    Panicked(String),
    /// The trial exceeded the per-trial deadline and was abandoned.
    TimedOut,
}

impl<T> TrialStatus<T> {
    /// The completed value, if any.
    pub fn ok(self) -> Option<T> {
        match self {
            TrialStatus::Done(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the trial panicked.
    pub fn panicked(&self) -> bool {
        matches!(self, TrialStatus::Panicked(_))
    }

    /// Whether the trial timed out.
    pub fn timed_out(&self) -> bool {
        matches!(self, TrialStatus::TimedOut)
    }
}

/// One trial's execution record, as observed by the pool.
#[derive(Debug)]
pub struct TrialRun<T> {
    /// Index of the trial within its batch (submission order).
    pub index: usize,
    /// Worker thread that ran (or abandoned) the trial.
    pub worker: usize,
    /// Seconds from batch dispatch to trial start.
    pub started_s: f64,
    /// Seconds from batch dispatch to trial end (or deadline expiry).
    pub ended_s: f64,
    /// Outcome.
    pub status: TrialStatus<T>,
}

type Job = Box<dyn FnOnce(usize) + Send + 'static>;

/// A fixed-size pool of worker threads executing trial batches.
pub struct ExecPool {
    config: PoolConfig,
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// Workers currently inside a trial (occupancy gauge for /healthz
    /// and /metrics; incremented around `execute_one`).
    busy: Arc<AtomicUsize>,
    /// Jobs submitted but not yet picked up by a worker (queue depth).
    queued: Arc<AtomicUsize>,
}

impl ExecPool {
    /// Spawns the pool. `workers` is clamped to at least 1.
    pub fn new(config: PoolConfig) -> ExecPool {
        let n = config.workers.max(1);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..n)
            .map(|id| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("volcanoml-exec-{id}"))
                    .spawn(move || {
                        WORKER_ID.with(|w| w.set(Some(id)));
                        loop {
                            let job = {
                                let guard = rx.lock().expect("job queue poisoned");
                                guard.recv()
                            };
                            match job {
                                Ok(job) => job(id),
                                Err(_) => break, // pool dropped
                            }
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ExecPool {
            config: PoolConfig {
                workers: n,
                ..config
            },
            sender: Some(tx),
            workers,
            busy: Arc::new(AtomicUsize::new(0)),
            queued: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Convenience constructor: `workers` threads, no deadline.
    pub fn with_workers(workers: usize) -> ExecPool {
        ExecPool::new(PoolConfig::with_workers(workers))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// The configured per-job deadline.
    pub fn trial_deadline(&self) -> Option<Duration> {
        self.config.trial_deadline
    }

    /// Number of workers currently executing a trial.
    pub fn busy_workers(&self) -> usize {
        self.busy.load(Ordering::Relaxed)
    }

    /// Number of submitted jobs not yet picked up by a worker.
    pub fn queued_jobs(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    /// Runs a batch of trials to completion and returns one [`TrialRun`]
    /// per trial, in submission order. Panicking or timed-out trials are
    /// reported in their status; the pool itself never dies.
    pub fn run_batch<T, F>(&self, jobs: Vec<F>) -> Vec<TrialRun<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let epoch = Instant::now();
        let deadline = self.config.trial_deadline;
        let (done_tx, done_rx) = channel::<TrialRun<T>>();
        let sender = self
            .sender
            .as_ref()
            .expect("pool sender alive while pool exists");
        for (index, job) in jobs.into_iter().enumerate() {
            let done = done_tx.clone();
            let busy = Arc::clone(&self.busy);
            let queued = Arc::clone(&self.queued);
            let wrapped: Job = Box::new(move |worker| {
                queued.fetch_sub(1, Ordering::Relaxed);
                busy.fetch_add(1, Ordering::Relaxed);
                let run = execute_one(index, worker, job, deadline, epoch);
                busy.fetch_sub(1, Ordering::Relaxed);
                // The batch may have stopped listening only if run_batch
                // itself panicked; ignore send failures.
                let _ = done.send(run);
            });
            self.queued.fetch_add(1, Ordering::Relaxed);
            sender.send(wrapped).expect("pool workers alive");
        }
        drop(done_tx);
        let mut runs: Vec<TrialRun<T>> = done_rx.iter().take(n).collect();
        runs.sort_by_key(|r| r.index);
        runs
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        // Closing the channel wakes every idle worker with RecvError.
        self.sender.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Runs one trial on the current worker thread, honoring the deadline.
fn execute_one<T, F>(
    index: usize,
    worker: usize,
    job: F,
    deadline: Option<Duration>,
    epoch: Instant,
) -> TrialRun<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let started_s = epoch.elapsed().as_secs_f64();
    let status = match deadline {
        None => run_caught(job),
        Some(budget) => {
            // Run the trial on a detached helper so the worker can abandon
            // it at the deadline. The helper inherits the worker id for
            // journal attribution.
            let (tx, rx) = channel::<TrialStatus<T>>();
            let spawned = std::thread::Builder::new()
                .name(format!("volcanoml-trial-{worker}"))
                .spawn(move || {
                    WORKER_ID.with(|w| w.set(Some(worker)));
                    let _ = tx.send(run_caught(job));
                });
            match spawned {
                Err(e) => TrialStatus::Panicked(format!("failed to spawn trial thread: {e}")),
                Ok(_handle) => match rx.recv_timeout(budget) {
                    Ok(status) => status,
                    Err(RecvTimeoutError::Timeout) => TrialStatus::TimedOut,
                    // The helper can only disconnect without sending if the
                    // send itself failed, which recv_timeout surfaces here.
                    Err(RecvTimeoutError::Disconnected) => {
                        TrialStatus::Panicked("trial thread vanished".to_string())
                    }
                },
            }
        }
    };
    let ended_s = epoch.elapsed().as_secs_f64();
    TrialRun {
        index,
        worker,
        started_s,
        ended_s,
        status,
    }
}

/// `catch_unwind` wrapper translating panics into [`TrialStatus::Panicked`].
fn run_caught<T, F: FnOnce() -> T>(job: F) -> TrialStatus<T> {
    match panic::catch_unwind(AssertUnwindSafe(job)) {
        Ok(value) => TrialStatus::Done(value),
        Err(payload) => TrialStatus::Panicked(panic_message(payload.as_ref())),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn batch_results_come_back_in_submission_order() {
        let pool = ExecPool::with_workers(4);
        let jobs: Vec<_> = (0..16usize)
            .map(|i| {
                move || {
                    // Stagger so completion order differs from submission.
                    std::thread::sleep(Duration::from_millis(((16 - i) % 5) as u64));
                    i * 10
                }
            })
            .collect();
        let runs = pool.run_batch(jobs);
        assert_eq!(runs.len(), 16);
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.index, i);
            assert_eq!(*run.status.ok_ref().unwrap(), i * 10);
            assert!(run.worker < 4);
            assert!(run.ended_s >= run.started_s);
        }
    }

    impl<T> TrialStatus<T> {
        fn ok_ref(&self) -> Option<&T> {
            match self {
                TrialStatus::Done(v) => Some(v),
                _ => None,
            }
        }
    }

    #[test]
    fn single_worker_pool_works() {
        let pool = ExecPool::with_workers(1);
        let runs = pool.run_batch((0..5).map(|i| move || i).collect::<Vec<_>>());
        assert!(runs.iter().all(|r| r.worker == 0));
        assert_eq!(
            runs.iter().filter_map(|r| r.status.ok_ref()).sum::<i32>(),
            10
        );
    }

    #[test]
    fn panicking_trial_is_isolated_and_pool_keeps_draining() {
        let pool = ExecPool::with_workers(2);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8)
            .map(|i| {
                let job: Box<dyn FnOnce() -> usize + Send> = if i == 3 {
                    Box::new(|| panic!("injected trial failure"))
                } else {
                    Box::new(move || i)
                };
                job
            })
            .collect();
        let runs = pool.run_batch(jobs);
        assert_eq!(runs.len(), 8);
        assert!(runs[3].status.panicked());
        match &runs[3].status {
            TrialStatus::Panicked(msg) => assert!(msg.contains("injected")),
            _ => unreachable!(),
        }
        // Every other trial completed.
        assert_eq!(runs.iter().filter(|r| r.status.panicked()).count(), 1);
        assert!(runs
            .iter()
            .filter(|r| r.index != 3)
            .all(|r| r.status.ok_ref().is_some()));
        // The pool is still usable afterwards.
        let again = pool.run_batch(vec![|| 7usize]);
        assert_eq!(*again[0].status.ok_ref().unwrap(), 7);
    }

    #[test]
    fn runaway_trial_hits_deadline_and_pool_survives() {
        let pool = ExecPool::new(PoolConfig {
            workers: 2,
            trial_deadline: Some(Duration::from_millis(50)),
        });
        let finished = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..4)
            .map(|i| {
                let finished = Arc::clone(&finished);
                let job: Box<dyn FnOnce() -> usize + Send> = if i == 1 {
                    Box::new(move || {
                        // Far beyond the deadline.
                        std::thread::sleep(Duration::from_millis(400));
                        finished.fetch_add(1, Ordering::SeqCst);
                        i
                    })
                } else {
                    Box::new(move || {
                        finished.fetch_add(1, Ordering::SeqCst);
                        i
                    })
                };
                job
            })
            .collect();
        let start = Instant::now();
        let runs = pool.run_batch(jobs);
        assert!(runs[1].status.timed_out());
        assert_eq!(runs.iter().filter(|r| r.status.timed_out()).count(), 1);
        assert!(runs
            .iter()
            .filter(|r| r.index != 1)
            .all(|r| r.status.ok_ref().is_some()));
        // The batch returned near the deadline, not after the runaway's 400ms.
        assert!(start.elapsed() < Duration::from_millis(350));
        // Pool still alive.
        let again = pool.run_batch(vec![|| 1usize]);
        assert_eq!(*again[0].status.ok_ref().unwrap(), 1);
    }

    #[test]
    fn worker_id_is_visible_inside_trials() {
        let pool = ExecPool::with_workers(3);
        let runs = pool.run_batch(
            (0..9)
                .map(|_| move || current_worker())
                .collect::<Vec<_>>(),
        );
        for run in &runs {
            assert_eq!(*run.status.ok_ref().unwrap(), Some(run.worker));
        }
        assert_eq!(current_worker(), None);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = ExecPool::with_workers(2);
        let runs = pool.run_batch(Vec::<fn() -> ()>::new());
        assert!(runs.is_empty());
    }

    #[test]
    fn busy_and_queued_gauges_track_occupancy() {
        let pool = Arc::new(ExecPool::with_workers(2));
        assert_eq!(pool.busy_workers(), 0);
        assert_eq!(pool.queued_jobs(), 0);
        let observer = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                // Sample while the batch below holds both workers busy.
                let mut max_busy = 0;
                for _ in 0..200 {
                    max_busy = max_busy.max(pool.busy_workers());
                    std::thread::sleep(Duration::from_millis(1));
                }
                max_busy
            })
        };
        pool.run_batch(
            (0..6)
                .map(|_| || std::thread::sleep(Duration::from_millis(20)))
                .collect::<Vec<_>>(),
        );
        let max_busy = observer.join().unwrap();
        assert!(max_busy >= 1, "observer never saw a busy worker");
        assert!(max_busy <= 2, "busy gauge exceeded the worker count");
        // Everything drained: both gauges return to zero.
        assert_eq!(pool.busy_workers(), 0);
        assert_eq!(pool.queued_jobs(), 0);
    }

    #[test]
    fn parallelism_reduces_wall_time() {
        let trial = || std::thread::sleep(Duration::from_millis(25));
        let serial = ExecPool::with_workers(1);
        let start = Instant::now();
        serial.run_batch((0..8).map(|_| trial).collect::<Vec<_>>());
        let t1 = start.elapsed();
        let parallel = ExecPool::with_workers(4);
        let start = Instant::now();
        parallel.run_batch((0..8).map(|_| trial).collect::<Vec<_>>());
        let t4 = start.elapsed();
        assert!(
            t4 < t1,
            "4 workers ({t4:?}) should beat 1 worker ({t1:?})"
        );
    }
}
