//! `volcanoml-obs` — the observability layer for VolcanoML runs.
//!
//! VolcanoML's speedups come from *where* the budget goes: which block of
//! the execution plan, which bandit arm, which fidelity each pull lands on.
//! This crate makes that visible without ad-hoc printlns:
//!
//! - [`Tracer`]: a hierarchical span tracer over the Volcano block tree.
//!   Every block pull, SMAC suggest, elimination decision, and trial
//!   becomes a parent-linked [`SpanEvent`] appended (one JSON line, torn-line
//!   free) to a JSONL stream alongside the trial journal. Parent links come
//!   from a thread-local stack of span ids — blocks open a [`SpanGuard`]
//!   around a pull and spans and events opened underneath (on the same
//!   thread) are linked to it; trials carry their path, arm and parent
//!   explicitly ([`TrialOrigin`]). Disabled tracers skip all serialization;
//!   the cost is one branch plus a small string clone per pull, far below
//!   one pipeline fit.
//! - [`MetricsRegistry`]: named counters, gauges, and fixed-bucket latency
//!   histograms sampled from the evaluator caches, the worker pool, and the
//!   binned-tree training path; snapshot-serializable to a stable JSON
//!   schema (`results/METRICS_run.json`).
//! - [`journal`]: the trial journal's row formats — [`journal::TrialRecord`], the one
//!   description of a finished trial that the evaluator hands to both the
//!   journal and [`Tracer::trial`], plus expansion rows and the row parser.
//!   (`volcanoml-exec` owns the durable file and re-exports these.)
//! - [`report`]: joins the trial journal and the trace stream into a
//!   human-readable run report — per-arm convergence, budget allocation by
//!   block-tree path, worker-utilization timeline, cache efficiency.
//! - [`EventBus`]: the *live* plane — a bounded ring of typed events
//!   (trials, eliminations, promotions, study lifecycle) fed by the same
//!   tracer hooks and streamed by `volcanoml-serve` with cursor resume.
//! - [`prometheus`]: text-exposition rendering of metrics snapshots for
//!   `GET /metrics` scrapes (namespaced families, `study` labels,
//!   cumulative `le` buckets).
//!
//! The crate is std-only, has no dependencies and sits at the bottom of the
//! workspace graph (`volcanoml-exec` appends the rows [`journal`] defines):
//! the evaluator and blocks emit, this crate records and renders.

pub mod events;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod prometheus;
pub mod report;
pub mod tracer;

pub use events::{BusEvent, EventBus, ObsEvent};
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use prometheus::PrometheusText;
pub use tracer::{span, EventFields, SpanEvent, SpanGuard, Tracer, TrialOrigin};
