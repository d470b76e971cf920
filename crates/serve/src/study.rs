//! One tenant study: its spec, on-disk layout, lifecycle state, and the
//! driver thread that runs its search, one `step` at a time, against the
//! shared worker pool.
//!
//! On-disk layout per study (`<serve dir>/<id>/`):
//!
//! - `spec.json`    — the submitted [`StudySpec`], written before the driver
//!   starts; its presence is what the resume scan keys on.
//! - `journal.jsonl` — the trial journal (schema-versioned, crash-safe).
//! - `trace.jsonl` / `metrics.json` — obs artifacts for `volcanoml report`.
//! - `result.json`  — written ONLY on terminal state (done / failed /
//!   cancelled). Its absence after a crash marks the study as resumable.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use volcanoml_core::{StudySpec, VolcanoML, VolcanoMlOptions};
use volcanoml_exec::ExecPool;
use volcanoml_obs::events::{EventBus, ObsEvent};
use volcanoml_obs::json::{escape, num, parse_object};
use volcanoml_obs::metrics::MetricsRegistry;

/// Lifecycle of one study. `Running` covers queued-and-executing; the three
/// terminal states mirror what `result.json` records.
#[derive(Debug, Clone, PartialEq)]
pub enum StudyStatus {
    /// Driver thread is alive (or about to start).
    Running,
    /// Fit finished; headline numbers from the report.
    Done {
        /// Best validation loss found.
        best_loss: f64,
        /// Non-cached evaluations spent.
        n_evaluations: usize,
    },
    /// Fit returned an error.
    Failed {
        /// The error message.
        error: String,
    },
    /// A `DELETE /studies/:id` stopped the study early.
    Cancelled,
}

impl StudyStatus {
    /// Short machine-readable tag (`running`/`done`/`failed`/`cancelled`).
    pub fn tag(&self) -> &'static str {
        match self {
            StudyStatus::Running => "running",
            StudyStatus::Done { .. } => "done",
            StudyStatus::Failed { .. } => "failed",
            StudyStatus::Cancelled => "cancelled",
        }
    }

    /// Serializes to the `result.json` document.
    pub fn to_json(&self) -> String {
        match self {
            StudyStatus::Running => "{\"status\":\"running\"}".to_string(),
            StudyStatus::Done {
                best_loss,
                n_evaluations,
            } => format!(
                "{{\"status\":\"done\",\"best_loss\":{},\"n_evaluations\":{}}}",
                num(*best_loss),
                n_evaluations
            ),
            StudyStatus::Failed { error } => {
                format!("{{\"status\":\"failed\",\"error\":\"{}\"}}", escape(error))
            }
            StudyStatus::Cancelled => "{\"status\":\"cancelled\"}".to_string(),
        }
    }

    /// Parses a `result.json` document (used by the resume scan to decide
    /// whether a study already reached a terminal state).
    pub fn from_json(text: &str) -> Option<StudyStatus> {
        let doc = parse_object(text)?;
        match doc.get("status")?.as_str()? {
            "running" => Some(StudyStatus::Running),
            "done" => Some(StudyStatus::Done {
                best_loss: doc.get("best_loss")?.as_f64()?,
                n_evaluations: doc.get("n_evaluations")?.as_f64()? as usize,
            }),
            "failed" => Some(StudyStatus::Failed {
                error: doc.get("error")?.as_str()?.to_string(),
            }),
            "cancelled" => Some(StudyStatus::Cancelled),
            _ => None,
        }
    }
}

/// One study registered with the server.
pub struct Study {
    /// Server-unique id (also the directory name).
    pub id: String,
    /// The submitted spec.
    pub spec: StudySpec,
    /// `<serve dir>/<id>/`.
    pub dir: PathBuf,
    /// Set by `DELETE`; the driver reads it before every step.
    pub stop: Arc<AtomicBool>,
    /// The study's live metrics registry, shared with the fit so the status
    /// route streams counters mid-run (a snapshot still lands in
    /// `metrics.json` at the end).
    pub metrics: Arc<MetricsRegistry>,
    /// The study's live event bus: typed trial/elimination/lifecycle
    /// events, streamed by `GET /studies/:id/events` with cursor resume.
    pub bus: Arc<EventBus>,
    state: Mutex<StudyStatus>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Study {
    /// A freshly registered study in `Running` state.
    pub fn new(id: String, spec: StudySpec, dir: PathBuf) -> Study {
        Study {
            id,
            spec,
            dir,
            stop: Arc::new(AtomicBool::new(false)),
            metrics: Arc::new(MetricsRegistry::new()),
            bus: Arc::new(EventBus::new()),
            state: Mutex::new(StudyStatus::Running),
            handle: Mutex::new(None),
        }
    }

    /// Current lifecycle state.
    pub fn status(&self) -> StudyStatus {
        self.state.lock().expect("study state lock").clone()
    }

    /// Overrides the lifecycle state (used by the server's resume scan to
    /// restore terminal states recorded in `result.json`).
    pub fn set_status(&self, status: StudyStatus) {
        *self.state.lock().expect("study state lock") = status;
    }

    /// Path of this study's journal.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }

    /// Blocks until the driver thread (if any) has finished.
    pub fn join(&self) {
        let handle = self.handle.lock().expect("study handle lock").take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

/// Spawns the driver thread for `study`. `resume` asks the driver to replay
/// an existing journal instead of starting fresh; `workers` is the shared
/// pool's size (it must also be passed as `n_workers`, which bounds this
/// run's batch size); `active` counts concurrently running studies and sets
/// each step's fair share.
pub fn spawn_driver(
    study: Arc<Study>,
    pool: Arc<ExecPool>,
    workers: usize,
    active: Arc<AtomicUsize>,
    resume: bool,
) {
    let runner = Arc::clone(&study);
    let handle = std::thread::spawn(move || {
        runner.bus.publish(if resume {
            ObsEvent::StudyResumed {
                study: runner.id.clone(),
            }
        } else {
            ObsEvent::StudySubmitted {
                study: runner.id.clone(),
            }
        });
        active.fetch_add(1, Ordering::SeqCst);
        let status = fit_study(&runner, pool, workers, &active, resume)
            .unwrap_or_else(|error| StudyStatus::Failed { error });
        active.fetch_sub(1, Ordering::SeqCst);
        // result.json is the durable terminal marker; write it before
        // flipping the in-memory state so a crash between the two still
        // leaves the study resumable (it would just re-run the tail).
        let _ = std::fs::write(runner.dir.join("result.json"), status.to_json());
        // Publish the terminal event before flipping the in-memory state:
        // the event stream closes only once the study is terminal AND the
        // subscriber's cursor caught up, so this order guarantees the
        // terminal event is still in flight when the stream checks.
        runner.bus.publish(match &status {
            StudyStatus::Done {
                best_loss,
                n_evaluations,
            } => ObsEvent::StudyDone {
                study: runner.id.clone(),
                best_loss: *best_loss,
                n_evaluations: *n_evaluations as u64,
            },
            StudyStatus::Cancelled => ObsEvent::StudyCancelled {
                study: runner.id.clone(),
            },
            StudyStatus::Failed { error } => ObsEvent::StudyFailed {
                study: runner.id.clone(),
                error: error.clone(),
            },
            StudyStatus::Running => unreachable!("driver always ends terminal"),
        });
        *runner.state.lock().expect("study state lock") = status;
    });
    *study.handle.lock().expect("study handle lock") = Some(handle);
}

/// Runs the study's search loop on the shared pool to a terminal status:
/// `Cancelled` when the loop ended on the stop flag, whatever `finish`
/// returns; otherwise `Done` or `Failed`, even if a `DELETE` lands later.
fn fit_study(
    study: &Study,
    pool: Arc<ExecPool>,
    workers: usize,
    active: &AtomicUsize,
    resume: bool,
) -> Result<StudyStatus, String> {
    let data = study.spec.build_dataset()?;
    let journal_path = study.journal_path();
    let options = VolcanoMlOptions {
        // Without this the per-run batch size caps at
        // min(pool.workers(), n_workers) = 1 and the pool sits idle.
        n_workers: workers,
        journal_path: Some(journal_path.clone()),
        trace_path: Some(study.dir.join("trace.jsonl")),
        metrics_path: Some(study.dir.join("metrics.json")),
        resume: resume && journal_path.exists(),
        shared_pool: Some(pool),
        shared_metrics: Some(Arc::clone(&study.metrics)),
        event_bus: Some(Arc::clone(&study.bus)),
        ..study.spec.options()?
    };
    let engine = VolcanoML::with_tier(data.task, study.spec.tier, options);
    let mut search = engine.open(&data).map_err(|e| e.to_string())?;
    let cancelled = loop {
        if search.done() {
            break false;
        }
        if study.stop.load(Ordering::SeqCst) {
            break true;
        }
        // Fair share: each of the k active studies may occupy at most
        // workers/k slots per step, re-read every step so capacity
        // rebalances as studies come and go. Each decision is also
        // recorded (granted vs. requested share, decision count) so a
        // scrape can see how contention squeezed this tenant.
        let share = (workers / active.load(Ordering::SeqCst).max(1)).max(1);
        let metrics = &study.metrics;
        metrics.inc_counter("sched.batch_cap_decisions", 1);
        metrics.set_gauge("sched.share_granted", share as f64);
        metrics.set_gauge("sched.share_requested", workers as f64);
        let k = search.batch_size().min(share);
        search.step(k).map_err(|e| e.to_string())?;
    };
    // `finish` writes metrics.json and flushes the journal and trace even
    // for a cancelled study.
    let fitted = search.finish().map_err(|e| e.to_string());
    if cancelled {
        return Ok(StudyStatus::Cancelled);
    }
    let report = fitted?.report;
    Ok(StudyStatus::Done {
        best_loss: report.best_loss,
        n_evaluations: report.n_evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_round_trips_through_result_json() {
        for status in [
            StudyStatus::Running,
            StudyStatus::Done {
                best_loss: 0.125,
                n_evaluations: 17,
            },
            StudyStatus::Failed {
                error: "boom \"quoted\"".to_string(),
            },
            StudyStatus::Cancelled,
        ] {
            let again = StudyStatus::from_json(&status.to_json()).expect("parse back");
            assert_eq!(status, again);
        }
    }

    #[test]
    fn driver_runs_a_tiny_study_to_done() {
        let dir = std::env::temp_dir().join(format!(
            "volcanoml-serve-study-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = StudySpec::from_json(
            r#"{"dataset":"moons","engine":"random","max_evaluations":4,"seed":1}"#,
        )
        .unwrap();
        let study = Arc::new(Study::new("t0".to_string(), spec, dir.clone()));
        let pool = Arc::new(ExecPool::with_workers(2));
        let active = Arc::new(AtomicUsize::new(0));
        spawn_driver(Arc::clone(&study), pool, 2, active, false);
        study.join();
        match study.status() {
            StudyStatus::Done { n_evaluations, .. } => assert!(n_evaluations >= 1),
            other => panic!("expected Done, got {other:?}"),
        }
        assert!(dir.join("result.json").exists());
        assert!(dir.join("journal.jsonl").exists());
        // The live bus saw the full lifecycle: submit first, terminal last,
        // with the trials in between.
        let events = study.bus.read_after(None);
        assert_eq!(events.first().unwrap().event.kind(), "StudySubmitted");
        assert_eq!(events.last().unwrap().event.kind(), "StudyDone");
        assert!(
            events.iter().any(|e| e.event.kind() == "TrialFinished"),
            "no TrialFinished events on the bus"
        );
        // Fair-share instrumentation fired at least once per batch.
        assert!(study.metrics.counter("sched.batch_cap_decisions") >= 1);
        assert_eq!(study.metrics.gauge("sched.share_requested"), Some(2.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fresh, empty scratch directory for one test.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("volcanoml-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The columns of a journal the schedule determines (ids, workers and
    /// clocks excluded): digest, fidelity, rung, bracket, loss, cached, arm.
    fn schedule_columns(path: &std::path::Path) -> Vec<(String, u64, i64, i64, u64, bool, String)> {
        volcanoml_exec::Journal::resume_from_path(path)
            .unwrap()
            .records()
            .into_iter()
            .map(|r| {
                let fidelity = r.fidelity.to_bits();
                (
                    r.digest,
                    fidelity,
                    r.rung,
                    r.bracket,
                    r.loss.to_bits(),
                    r.cached,
                    r.arm,
                )
            })
            .collect()
    }

    #[test]
    fn serve_and_fit_run_the_same_search() {
        let dir = scratch_dir("parity");
        let spec = StudySpec::from_json(
            r#"{"dataset":"moons","engine":"mfes-hb","plan":"p1","max_evaluations":24,"seed":3}"#,
        )
        .unwrap();
        let study = Arc::new(Study::new("p0".to_string(), spec.clone(), dir.join("p0")));
        std::fs::create_dir_all(&study.dir).unwrap();
        let pool = Arc::new(ExecPool::with_workers(2));
        spawn_driver(
            Arc::clone(&study),
            pool,
            2,
            Arc::new(AtomicUsize::new(0)),
            false,
        );
        study.join();
        assert!(
            matches!(study.status(), StudyStatus::Done { .. }),
            "{:?}",
            study.status()
        );

        let data = spec.build_dataset().unwrap();
        let fit_journal = dir.join("fit.jsonl");
        let options = VolcanoMlOptions {
            n_workers: 2,
            journal_path: Some(fit_journal.clone()),
            ..spec.options().unwrap()
        };
        VolcanoML::with_tier(data.task, spec.tier, options)
            .fit(&data)
            .unwrap();

        let served = schedule_columns(&study.journal_path());
        assert!(!served.is_empty());
        assert_eq!(served, schedule_columns(&fit_journal));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_study_stopped_before_its_driver_starts_ends_cancelled() {
        let dir = scratch_dir("stopped");
        let spec = StudySpec::from_json(
            r#"{"dataset":"moons","engine":"random","max_evaluations":4,"seed":1}"#,
        )
        .unwrap();
        let study = Arc::new(Study::new("s0".to_string(), spec, dir.clone()));
        study.stop.store(true, Ordering::SeqCst);
        let pool = Arc::new(ExecPool::with_workers(2));
        spawn_driver(
            Arc::clone(&study),
            pool,
            2,
            Arc::new(AtomicUsize::new(0)),
            false,
        );
        study.join();
        assert_eq!(study.status(), StudyStatus::Cancelled);
        let result = std::fs::read_to_string(dir.join("result.json")).unwrap();
        assert_eq!(
            StudyStatus::from_json(&result),
            Some(StudyStatus::Cancelled)
        );
        let events = study.bus.read_after(None);
        assert_eq!(events.last().unwrap().event.kind(), "StudyCancelled");
        assert!(events.iter().all(|e| e.event.kind() != "StudyFailed"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
