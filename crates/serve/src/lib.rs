//! volcanoml-serve — a persistent, resumable, multi-tenant AutoML service.
//!
//! The crate turns the single-shot `VolcanoML::fit` engine into a daemon:
//! clients `POST` study specifications over a tiny std-only HTTP/JSON API,
//! each study's driver runs `fit`'s own `open`/`step`/`finish` loop on ONE
//! shared [`volcanoml_exec::ExecPool`], capping each step at a fair share
//! (each of the k active studies gets at most `workers / k` slots), and all
//! trial evidence streams to a per-study directory: `spec.json`, the
//! crash-safe trial journal, `trace.jsonl`, `metrics.json`, and a terminal
//! `result.json`.
//!
//! The keystone property is **crash-resume**: `kill -9` the server, restart
//! it with `resume`, and every interrupted study continues where it left
//! off. This works because engine schedules are deterministic functions of
//! the seed and the observed losses (replay-by-redrive): the driver rebuilds
//! the study's block tree from `spec.json`, attaches the journal as a replay
//! table, and re-drives the fit — journaled trials answer bitwise from the
//! replay table without re-executing or re-journaling, then fresh trials
//! continue with ids past the journal's maximum. No duplicate trial ids, and
//! the final [`volcanoml_core::StudyState`] matches an uninterrupted run.
//!
//! ```text
//! clients ──HTTP──▶ Server (accept loop, routes)
//!                     │ POST /studies      ──▶ Study dir + driver thread
//!                     │ GET  /studies/:id  ──▶ status + live journal stats
//!                     │ GET  .../report    ──▶ render_live_report (mid-run ok)
//!                     │ GET  .../events    ──▶ SSE stream of the study's EventBus
//!                     │ GET  /metrics      ──▶ Prometheus scrape (all tenants)
//!                     │ DELETE /studies/:id──▶ stop flag, read before each step
//!                     ▼
//!               driver: open → step(fair share)… → finish, on the shared ExecPool
//! ```
//!
//! The **live observability plane** (PR 8) rides on the same registry and
//! tracer hooks the archival artifacts use: each study owns a bounded
//! [`volcanoml_obs::EventBus`] fed from the evaluator's trial hook (no new
//! engine plumbing), `GET /studies/:id/events` streams it as SSE with
//! `Last-Event-ID` resume, and `GET /metrics` merges the server-level
//! registry (HTTP traffic, pool occupancy, fair-share decisions) with every
//! study's registry into one Prometheus text exposition, one `study` label
//! per tenant. The evaluator times its own recording work into an
//! `obs.self_overhead_s` histogram, so a scrape can prove the whole plane
//! costs well under 1% of trial wall time.

pub mod http;
pub mod server;
pub mod study;

pub use server::{ServeConfig, Server};
pub use study::{Study, StudyStatus};
