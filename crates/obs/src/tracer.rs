//! The hierarchical span tracer.
//!
//! One [`SpanEvent`] per JSONL line, append-only, stable schema (all keys
//! always present, stable order):
//!
//! ```json
//! {"span":12,"parent":9,"kind":"trial","path":"root/algorithm=1/right",
//!  "arm":"algorithm=1","t_s":0.0132,"dur_s":0.0386,"trial":17,
//!  "digest":"9f3c2a11d04b77e6","fidelity":1,"rung":2,"bracket":0,
//!  "loss":0.2184,"cost":0.0386,"eu_opt":"nan","eu_pess":"nan","worker":2,
//!  "detail":"fe_cached"}
//! ```
//!
//! Non-finite floats are string-encoded (`"inf"`, `"-inf"`, `"nan"`); `-1`
//! in `trial`/`worker`/`rung`/`bracket` means "not applicable"; an empty
//! `digest` means the event is not a trial. `rung`/`bracket` attribute a
//! trial to its multi-fidelity scheduler slot (rung index in the engine's
//! full η-ladder, stable bracket id) and mirror the journal's fields of the
//! same name. `trial` is the join key into the trial journal: every journal
//! row's `trial` id appears on exactly one `kind:"trial"` span —
//! [`Tracer::trial`] is handed the journal's own [`TrialRecord`], so the
//! span's `trial`/`arm`/`digest`/`rung`/`bracket` are the row's.
//!
//! A tracer opened with [`Tracer::to_path`] writes events to its file and
//! keeps none; only [`Tracer::in_memory`] retains them for
//! [`Tracer::events`].
//!
//! Parent links of spans and instantaneous events come from a thread-local
//! stack of span ids: opening a [`SpanGuard`] (via [`span`]) pushes its id,
//! and any span or [`Tracer::event`] opened on the same thread before the
//! guard drops is linked to it. The stack holds ids only: an event's path
//! and arm are whatever its caller passes, and a trial's path, arm and
//! parent come from the [`TrialOrigin`] its issuing block handed the
//! evaluator. Span events are written when the guard drops, so a parent
//! appears *after* its children in the file — consumers re-link by id,
//! never by line order. A disabled tracer performs no locking and no I/O.
//!
//! Concurrency: the block tree is pulled from one coordinator thread, so
//! the stack discipline holds there. Trial events do not read the stack,
//! so they could be emitted from any thread. The tracer itself is fully
//! thread-safe — each event is serialized and appended under one mutex as
//! a single `writeln!`, so concurrent writers can never tear or interleave
//! lines.
//!
//! Work counters (`data.*`, `binned.*` in the metrics snapshot) use the
//! same thread-local idiom as the span stack — the thread that does the
//! work tallies it, the trial that ran there takes the tally — and appear
//! nowhere in this span schema.

use crate::journal::TrialRecord;
use crate::json::{escape, num};
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

std::thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Id of the innermost open span on this thread (0 = none).
pub fn current_span() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Where a batch of trials was issued: the issuing block's plan path, its
/// arm label (the nearest enclosing conditioning `var=value`, empty outside
/// any arm) and the id of the pull span it was issued under (0 = none). The
/// default, all empty, is a trial issued outside the block tree.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrialOrigin<'a> {
    /// Block-tree path of the issuing block.
    pub path: &'a str,
    /// Arm label, journaled and traced with each trial.
    pub arm: &'a str,
    /// The issuing pull span's id: each trial span's parent.
    pub span: u64,
}

/// One trace event. See the module docs for the line schema.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Event id (unique per tracer).
    pub span_id: u64,
    /// Enclosing span's id (0 = top level).
    pub parent_id: u64,
    /// Event kind: `pull`, `suggest`, `trial`, `eliminate`, `bo-observe`, …
    pub kind: String,
    /// Block-tree path (plan-compile labels, e.g. `root/algorithm=1/left`).
    pub path: String,
    /// Bandit-arm label (`algorithm=3`) when one is in scope, else empty.
    pub arm: String,
    /// Event start, seconds since the tracer epoch.
    pub t_s: f64,
    /// Duration in seconds (0 for instantaneous events).
    pub dur_s: f64,
    /// Trial-journal join key; -1 when the event is not a trial.
    pub trial_id: i64,
    /// Hex assignment digest for trials, empty otherwise.
    pub digest: String,
    /// Fidelity (NaN when not applicable).
    pub fidelity: f64,
    /// Multi-fidelity rung index; -1 when not bracket-scheduled.
    pub rung: i64,
    /// Issuing bracket's stable id; -1 when not bracket-scheduled.
    pub bracket: i64,
    /// Observed loss (NaN when not applicable).
    pub loss: f64,
    /// Budget spent in seconds (NaN when not applicable).
    pub cost: f64,
    /// Optimistic EU bound at an elimination decision (NaN otherwise).
    pub eu_optimistic: f64,
    /// Pessimistic EU bound at an elimination decision (NaN otherwise).
    pub eu_pessimistic: f64,
    /// Worker that ran a trial; -1 when not applicable.
    pub worker: i64,
    /// Free-form annotation (`cached`, `side=left eui_l=…`, …).
    pub detail: String,
}

impl SpanEvent {
    /// An event with every optional field at its "not applicable" value.
    pub fn new(kind: &str, path: &str) -> SpanEvent {
        SpanEvent {
            span_id: 0,
            parent_id: 0,
            kind: kind.to_string(),
            path: path.to_string(),
            arm: String::new(),
            t_s: 0.0,
            dur_s: 0.0,
            trial_id: -1,
            digest: String::new(),
            fidelity: f64::NAN,
            rung: -1,
            bracket: -1,
            loss: f64::NAN,
            cost: f64::NAN,
            eu_optimistic: f64::NAN,
            eu_pessimistic: f64::NAN,
            worker: -1,
            detail: String::new(),
        }
    }

    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"span\":{},\"parent\":{},\"kind\":\"{}\",\"path\":\"{}\",\
             \"arm\":\"{}\",\"t_s\":{:.6},\"dur_s\":{:.6},\"trial\":{},\
             \"digest\":\"{}\",\"fidelity\":{},\"rung\":{},\"bracket\":{},\
             \"loss\":{},\"cost\":{},\
             \"eu_opt\":{},\"eu_pess\":{},\"worker\":{},\"detail\":\"{}\"}}",
            self.span_id,
            self.parent_id,
            escape(&self.kind),
            escape(&self.path),
            escape(&self.arm),
            self.t_s,
            self.dur_s,
            self.trial_id,
            escape(&self.digest),
            num(self.fidelity),
            self.rung,
            self.bracket,
            num(self.loss),
            num(self.cost),
            num(self.eu_optimistic),
            num(self.eu_pessimistic),
            self.worker,
            escape(&self.detail)
        )
    }
}

/// Optional fields for an instantaneous event (see [`Tracer::event`]).
#[derive(Debug, Clone)]
pub struct EventFields {
    /// Block-tree path of the emitting block (empty outside the tree).
    pub path: String,
    /// Arm label of the emitting block (empty outside any arm).
    pub arm: String,
    /// Fidelity annotation.
    pub fidelity: f64,
    /// Loss annotation.
    pub loss: f64,
    /// EU bounds annotation (elimination decisions).
    pub eu: Option<(f64, f64)>,
    /// Free-form detail.
    pub detail: String,
}

impl Default for EventFields {
    fn default() -> Self {
        EventFields {
            path: String::new(),
            arm: String::new(),
            fidelity: f64::NAN,
            loss: f64::NAN,
            eu: None,
            detail: String::new(),
        }
    }
}

struct TracerState {
    /// Events emitted so far.
    emitted: usize,
    /// The events themselves, kept only by [`Tracer::in_memory`]: a
    /// file-backed tracer's record is its file.
    events: Option<Vec<SpanEvent>>,
    file: Option<std::io::BufWriter<std::fs::File>>,
}

/// Thread-safe span tracer. Cheap to share (`Arc`), cheap when disabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    next_trial: AtomicU64,
    state: Mutex<TracerState>,
    /// Optional live event bus. Fed from the same hooks that produce span
    /// events, but independent of `enabled`: a serve-managed study streams
    /// live events even when archival tracing is off.
    bus: Option<Arc<crate::events::EventBus>>,
}

impl Tracer {
    fn with_file(enabled: bool, file: Option<std::io::BufWriter<std::fs::File>>) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_trial: AtomicU64::new(0),
            state: Mutex::new(TracerState {
                emitted: 0,
                events: file.is_none().then(Vec::new),
                file,
            }),
            bus: None,
        }
    }

    /// A disabled tracer: nothing is recorded.
    pub fn disabled() -> Tracer {
        Tracer::with_file(false, None)
    }

    /// An enabled in-memory tracer (tests, programmatic consumption).
    pub fn in_memory() -> Tracer {
        Tracer::with_file(true, None)
    }

    /// An enabled tracer mirrored to a JSONL file at `path` (truncates).
    pub fn to_path(path: &std::path::Path) -> std::io::Result<Tracer> {
        let file = std::fs::File::create(path)?;
        Ok(Tracer::with_file(true, Some(std::io::BufWriter::new(file))))
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Attaches a live event bus. Must be called before the tracer is
    /// shared (takes `&mut self`); trial and elimination hooks then publish
    /// typed [`crate::events::ObsEvent`]s regardless of `enabled`.
    pub fn set_bus(&mut self, bus: Arc<crate::events::EventBus>) {
        self.bus = Some(bus);
    }

    /// Whether a live event bus is attached.
    pub fn has_bus(&self) -> bool {
        self.bus.is_some()
    }

    /// The attached live event bus, if any.
    pub fn bus(&self) -> Option<&Arc<crate::events::EventBus>> {
        self.bus.as_ref()
    }

    /// Seconds elapsed since the tracer was created.
    pub fn elapsed_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Allocates a trial id for runs without a journal (when a journal is
    /// attached its ids are used instead, so the two streams join).
    pub fn next_trial_id(&self) -> u64 {
        self.next_trial.fetch_add(1, Ordering::Relaxed)
    }

    fn next_span_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Appends one event: a single `writeln!` under the state mutex, so
    /// concurrent emitters never tear lines.
    pub fn emit(&self, event: SpanEvent) {
        if !self.enabled {
            return;
        }
        let mut state = self.state.lock().expect("tracer poisoned");
        state.emitted += 1;
        if let Some(file) = &mut state.file {
            let _ = writeln!(file, "{}", event.to_json());
        }
        if let Some(events) = &mut state.events {
            events.push(event);
        }
    }

    /// Emits an instantaneous event with the caller's path and arm,
    /// parented to the current span.
    pub fn event(&self, kind: &str, fields: EventFields) {
        if kind == "eliminate" {
            if let Some(bus) = &self.bus {
                let (eu_opt, eu_pess) = fields.eu.unwrap_or((f64::NAN, f64::NAN));
                bus.publish(crate::events::ObsEvent::ArmEliminated {
                    path: fields.path.clone(),
                    arm: fields.arm.clone(),
                    eu_opt,
                    eu_pess,
                    detail: fields.detail.clone(),
                });
            }
        }
        if !self.enabled {
            return;
        }
        let mut e = SpanEvent::new(kind, &fields.path);
        e.span_id = self.next_span_id();
        e.parent_id = current_span();
        e.arm = fields.arm;
        e.t_s = self.elapsed_s();
        e.fidelity = fields.fidelity;
        e.loss = fields.loss;
        if let Some((opt, pess)) = fields.eu {
            e.eu_optimistic = opt;
            e.eu_pessimistic = pess;
        }
        e.detail = fields.detail;
        self.emit(e);
    }

    /// Emits one `kind:"trial"` span from the record the journal gets, at
    /// `origin`'s path and parented to its pull span (the arm is the
    /// record's). `start_s`/`end_s` are journal-epoch relative; the event's
    /// `t_s` uses the tracer epoch for ordering consistency, while `dur_s`
    /// preserves the journal-measured wall window.
    pub fn trial(&self, t: &TrialRecord, origin: &TrialOrigin) {
        if let Some(bus) = &self.bus {
            // A config running at rung >= 1 got there by surviving the
            // rung below — the promotion decision itself happens inside
            // the bracket (no tracer in scope), so it is materialized
            // here, at the promoted run.
            if t.rung >= 1 {
                bus.publish(crate::events::ObsEvent::RungPromoted {
                    bracket: t.bracket,
                    rung: t.rung,
                    digest: t.digest.clone(),
                });
            }
            if t.timed_out {
                bus.publish(crate::events::ObsEvent::WorkerStalled {
                    worker: t.worker as i64,
                    stalled_s: (t.end_s - t.start_s).max(0.0),
                });
            }
            bus.publish(crate::events::ObsEvent::TrialFinished {
                trial: t.trial_id,
                digest: t.digest.clone(),
                fidelity: t.fidelity,
                rung: t.rung,
                bracket: t.bracket,
                loss: t.loss,
                cost: t.cost,
                worker: t.worker as i64,
                cached: t.cached,
            });
        }
        if !self.enabled {
            return;
        }
        let mut e = SpanEvent::new("trial", origin.path);
        e.span_id = self.next_span_id();
        e.parent_id = origin.span;
        e.arm = t.arm.clone();
        e.t_s = self.elapsed_s();
        e.dur_s = (t.end_s - t.start_s).max(0.0);
        e.trial_id = t.trial_id as i64;
        e.digest = t.digest.clone();
        e.fidelity = t.fidelity;
        e.rung = t.rung;
        e.bracket = t.bracket;
        e.loss = t.loss;
        e.cost = t.cost;
        e.worker = t.worker as i64;
        let mut flags: Vec<&str> = Vec::new();
        if t.cached {
            flags.push("cached");
        }
        if t.fe_cached {
            flags.push("fe_cached");
        }
        if t.panicked {
            flags.push("panicked");
        }
        if t.timed_out {
            flags.push("timed_out");
        }
        e.detail = flags.join(",");
        self.emit(e);
    }

    /// Number of events emitted so far.
    pub fn len(&self) -> usize {
        self.state.lock().expect("tracer poisoned").emitted
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all events, in emission order — empty for a file-backed
    /// tracer, which keeps none in memory.
    pub fn events(&self) -> Vec<SpanEvent> {
        let state = self.state.lock().expect("tracer poisoned");
        state.events.clone().unwrap_or_default()
    }

    /// Flushes buffered lines to the backing file, if any.
    pub fn flush(&self) {
        let mut state = self.state.lock().expect("tracer poisoned");
        if let Some(file) = &mut state.file {
            let _ = file.flush();
        }
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Opens a span: pushes its id onto the thread-local stack and returns a
/// guard that emits the span event (with measured duration) when dropped.
pub fn span(tracer: &Arc<Tracer>, kind: &'static str, path: &str, arm: &str) -> SpanGuard {
    let id = if tracer.enabled() {
        tracer.next_span_id()
    } else {
        0
    };
    let parent = current_span();
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard {
        tracer: Arc::clone(tracer),
        kind,
        id,
        parent,
        path: path.to_string(),
        arm: arm.to_string(),
        start_s: tracer.elapsed_s(),
        start: Instant::now(),
        loss: f64::NAN,
        cost: f64::NAN,
        detail: String::new(),
    }
}

/// An open span. Annotate it (`set_loss`, `set_detail`, …) before it drops;
/// dropping pops the stack and emits the event.
pub struct SpanGuard {
    tracer: Arc<Tracer>,
    kind: &'static str,
    id: u64,
    parent: u64,
    path: String,
    arm: String,
    start_s: f64,
    start: Instant,
    loss: f64,
    cost: f64,
    detail: String,
}

impl SpanGuard {
    /// This span's id (0 when the tracer is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Annotates the observed loss.
    pub fn set_loss(&mut self, loss: f64) {
        self.loss = loss;
    }

    /// Annotates the budget spent (seconds).
    pub fn set_cost(&mut self, cost: f64) {
        self.cost = cost;
    }

    /// Attaches a free-form detail string.
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        self.detail = detail.into();
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        if !self.tracer.enabled() {
            return;
        }
        let mut e = SpanEvent::new(self.kind, &self.path);
        e.span_id = self.id;
        e.parent_id = self.parent;
        e.arm = std::mem::take(&mut self.arm);
        e.t_s = self.start_s;
        e.dur_s = self.start.elapsed().as_secs_f64();
        e.loss = self.loss;
        e.cost = self.cost;
        e.detail = std::mem::take(&mut self.detail);
        self.tracer.emit(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_object;

    #[test]
    fn span_nesting_links_parents() {
        let tracer = Arc::new(Tracer::in_memory());
        {
            let outer = span(&tracer, "pull", "root", "algorithm=1");
            {
                let inner = span(&tracer, "suggest", "root/algorithm=1", "");
                assert_eq!(current_span(), inner.id());
            }
            assert_eq!(current_span(), outer.id());
        }
        assert_eq!(current_span(), 0);
        let events = tracer.events();
        // Children emit before parents (drop order).
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "suggest");
        assert_eq!(events[1].kind, "pull");
        assert_eq!(events[0].parent_id, events[1].span_id);
        assert_eq!(events[1].parent_id, 0);
        assert_eq!(events[1].arm, "algorithm=1");
    }

    /// A trial span takes its path and parent from the origin it is handed,
    /// never from the spans open on the emitting thread.
    #[test]
    fn trial_event_inherits_context_and_joins() {
        let tracer = Arc::new(Tracer::in_memory());
        let pull = span(&tracer, "pull", "root/algorithm=2", "algorithm=2");
        let _unrelated = span(&tracer, "suggest", "elsewhere", "");
        let origin = TrialOrigin {
            path: "root/algorithm=2",
            arm: "algorithm=2",
            span: pull.id(),
        };
        let record = TrialRecord {
            trial_id: 7,
            digest: format!("{:016x}", 0xdead_beefu64),
            arm: origin.arm.to_string(),
            worker: 1,
            start_s: 0.5,
            end_s: 0.75,
            fidelity: 1.0,
            rung: 2,
            bracket: 0,
            loss: 0.125,
            cost: 0.25,
            cached: false,
            fe_cached: true,
            panicked: false,
            timed_out: false,
        };
        tracer.trial(&record, &origin);
        let events = tracer.events();
        assert_eq!(events.len(), 1);
        let t = &events[0];
        assert_eq!(t.trial_id, 7);
        assert_eq!(t.arm, "algorithm=2");
        assert_eq!(t.path, "root/algorithm=2");
        assert_eq!(t.digest, format!("{:016x}", 0xdead_beefu64));
        assert_eq!(t.detail, "fe_cached");
        assert_eq!(t.rung, 2);
        assert_eq!(t.bracket, 0);
        assert_eq!(t.parent_id, pull.id());
    }

    #[test]
    fn json_lines_have_stable_schema_and_parse() {
        let mut e = SpanEvent::new("eliminate", "root");
        e.span_id = 3;
        e.arm = "algorithm=4".into();
        e.eu_optimistic = 0.1;
        e.eu_pessimistic = 0.4;
        let line = e.to_json();
        for key in [
            "\"span\":3",
            "\"parent\":0",
            "\"kind\":\"eliminate\"",
            "\"path\":\"root\"",
            "\"arm\":\"algorithm=4\"",
            "\"trial\":-1",
            "\"digest\":\"\"",
            "\"fidelity\":\"nan\"",
            "\"rung\":-1",
            "\"bracket\":-1",
            "\"loss\":\"nan\"",
            "\"eu_opt\":0.1",
            "\"eu_pess\":0.4",
            "\"worker\":-1",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        let parsed = parse_object(&line).unwrap();
        assert_eq!(parsed["kind"].as_str(), Some("eliminate"));
        assert!(parsed["loss"].as_f64().unwrap().is_nan());
    }

    /// A disabled tracer's guards push and pop id 0, so an enabled span
    /// opened inside one is top-level; nothing disabled is recorded.
    #[test]
    fn disabled_tracer_records_nothing_but_stack_works() {
        let tracer = Arc::new(Tracer::disabled());
        let enabled = Arc::new(Tracer::in_memory());
        {
            let g = span(&tracer, "pull", "root", "algorithm=0");
            assert_eq!((g.id(), current_span()), (0, 0));
            tracer.event("noop", EventFields::default());
            let inner = span(&enabled, "suggest", "root", "");
            assert_eq!(current_span(), inner.id());
        }
        assert_eq!(current_span(), 0);
        assert!(tracer.is_empty());
        assert_eq!(enabled.events()[0].parent_id, 0);
    }

    #[test]
    fn concurrent_appends_never_tear_lines() {
        // Many workers appending trace events concurrently must produce a
        // file where every line is intact, parseable JSON.
        let dir = std::env::temp_dir().join("volcanoml-obs-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.jsonl", std::process::id()));
        let n_threads = 8;
        let per_thread = 200;
        {
            let tracer = Arc::new(Tracer::to_path(&path).unwrap());
            let handles: Vec<_> = (0..n_threads)
                .map(|t| {
                    let tracer = Arc::clone(&tracer);
                    std::thread::spawn(move || {
                        for i in 0..per_thread {
                            let mut g = span(
                                &tracer,
                                "pull",
                                &format!("root/worker={t}"),
                                &format!("arm={t}"),
                            );
                            g.set_loss(i as f64);
                            g.set_detail(format!("iteration {i} with \"quotes\""));
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            tracer.flush();
            assert_eq!(tracer.len(), n_threads * per_thread);
            // The file is the record: no second copy grows in memory.
            assert!(tracer.events().is_empty());
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), n_threads * per_thread);
        let mut seen = std::collections::HashSet::new();
        for line in lines {
            let obj = parse_object(line).unwrap_or_else(|| panic!("torn line: {line}"));
            assert!(seen.insert(obj["span"].as_i64().unwrap()), "duplicate span id");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disabled_tracer_with_bus_still_publishes_typed_events() {
        use crate::events::{EventBus, ObsEvent};
        let mut tracer = Tracer::disabled();
        let bus = Arc::new(EventBus::new());
        tracer.set_bus(Arc::clone(&bus));
        assert!(tracer.has_bus());
        let tracer = Arc::new(tracer);
        let record = TrialRecord {
            trial_id: 3,
            digest: format!("{:016x}", 0xfeed),
            arm: String::new(),
            worker: 2,
            start_s: 0.0,
            end_s: 0.5,
            fidelity: 0.25,
            rung: 1,
            bracket: 0,
            loss: 0.3,
            cost: 0.5,
            cached: false,
            fe_cached: false,
            panicked: false,
            timed_out: true,
        };
        tracer.trial(&record, &TrialOrigin::default());
        tracer.event(
            "eliminate",
            EventFields {
                path: "root".into(),
                arm: "algorithm=2".into(),
                eu: Some((0.1, 0.4)),
                detail: "dominated".into(),
                ..EventFields::default()
            },
        );
        // Archival stream stays empty; the bus carries the typed events.
        assert!(tracer.is_empty());
        let kinds: Vec<&str> = bus
            .read_after(None)
            .iter()
            .map(|e| e.event.kind())
            .collect::<Vec<_>>();
        assert_eq!(
            kinds,
            vec!["RungPromoted", "WorkerStalled", "TrialFinished", "ArmEliminated"]
        );
        match &bus.read_after(None)[2].event {
            ObsEvent::TrialFinished { trial, loss, .. } => {
                assert_eq!(*trial, 3);
                assert!((loss - 0.3).abs() < 1e-12);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn file_tracer_flushes_on_drop() {
        let dir = std::env::temp_dir().join("volcanoml-obs-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("drop-{}.jsonl", std::process::id()));
        {
            let tracer = Arc::new(Tracer::to_path(&path).unwrap());
            let _g = span(&tracer, "pull", "root", "");
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        std::fs::remove_file(&path).ok();
    }
}
