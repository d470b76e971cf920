//! `volcanoml-exec` — the parallel trial-execution engine.
//!
//! VolcanoML's building blocks all bottleneck on the black-box pipeline
//! evaluation; this crate provides the worker-pool substrate that lets the
//! search evaluate *batches* of trials concurrently while surviving trials
//! that panic or run away:
//!
//! - [`ExecPool`]: a fixed-size pool of `std::thread` workers fed over
//!   channels. [`ExecPool::run_batch`] executes a batch of closures and
//!   returns per-trial outcomes in submission order.
//! - Crash isolation: every trial runs under `catch_unwind`; a panicking
//!   trial yields [`TrialStatus::Panicked`] instead of killing the pool.
//! - Deadlines: with a configured per-trial deadline, a runaway trial is
//!   abandoned after the budget elapses and reported as
//!   [`TrialStatus::TimedOut`] while its worker moves on.
//! - [`journal::Journal`]: a line-oriented JSONL record of every trial
//!   (id, worker, timing, fidelity, loss, cost, cache/panic/timeout flags)
//!   consumed by benches and experiment reports.
//!
//! The crate is std-only and sits *below* `volcanoml-core` in the workspace
//! graph: the evaluator builds jobs, the pool runs them. Its one dependency
//! is `volcanoml-obs`, which defines the journal's row formats (re-exported
//! here) so the tracer can take the same `TrialRecord` the journal appends.

mod journal;
mod pool;

pub use journal::{ExpansionRecord, Journal, JournalRow, TrialRecord, JOURNAL_SCHEMA_VERSION};
pub use pool::{current_worker, ExecPool, PoolConfig, TrialRun, TrialStatus};
