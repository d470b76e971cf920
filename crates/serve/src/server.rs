//! The service itself: a `TcpListener` accept loop routing a small JSON API
//! onto the study registry, one shared [`ExecPool`] across all tenants, and
//! the startup resume scan that re-drives interrupted studies from their
//! journals.
//!
//! Routes (one request per connection, `Connection: close`):
//!
//! | method | path                  | effect                                   |
//! |--------|-----------------------|------------------------------------------|
//! | GET    | `/healthz`            | liveness + occupancy probe               |
//! | GET    | `/metrics`            | Prometheus text exposition (all tenants) |
//! | GET    | `/studies`            | list all studies with status             |
//! | POST   | `/studies`            | submit a [`StudySpec`], returns its id   |
//! | GET    | `/studies/:id`        | status + live journal statistics         |
//! | GET    | `/studies/:id/report` | rendered run report (works mid-run)      |
//! | GET    | `/studies/:id/events` | SSE event stream (`Last-Event-ID` resume)|
//! | DELETE | `/studies/:id`        | request cancellation                     |
//!
//! The observability plane: every request lands in the server-level
//! [`MetricsRegistry`] (per-route/status counters, per-route latency
//! histograms), `GET /metrics` merges that registry with every study's
//! registry (labeled `study="<id>"`) into one Prometheus scrape, and
//! `GET /studies/:id/events` long-polls the study's [`EventBus`] as a
//! close-delimited SSE stream — a subscriber that reconnects with
//! `Last-Event-ID` replays nothing twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use volcanoml_exec::{ExecPool, TrialRecord};
use volcanoml_obs::json::{escape, num};
use volcanoml_obs::metrics::MetricsRegistry;
use volcanoml_obs::prometheus::{labeled, PrometheusText};

use crate::http::{
    error_body, linger_close, read_request, write_response, write_stream_head, Request,
};
use crate::spec::StudySpec;
use crate::study::{spawn_driver, Study, StudyStatus};

/// Buckets for HTTP request latency: most routes answer in microseconds,
/// report rendering and SSE streams run much longer.
const HTTP_LATENCY_BUCKETS: [f64; 8] = [1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 0.1, 1.0, 10.0];

/// How long one SSE long-poll waits on the bus before re-checking the
/// study's lifecycle state and the client's liveness.
const EVENT_POLL: Duration = Duration::from_millis(200);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Root directory for study state (one subdirectory per study).
    pub dir: PathBuf,
    /// Shared worker-pool size.
    pub workers: usize,
    /// TCP port on 127.0.0.1; `0` binds an ephemeral port (the actual
    /// address is always written to `<dir>/serve.addr`).
    pub port: u16,
    /// Re-drive interrupted studies found in `dir` at startup.
    pub resume: bool,
    /// Print one structured JSON line per request to stdout (method, path,
    /// status, bytes, microseconds).
    pub log_requests: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            dir: PathBuf::from("volcano-serve"),
            workers: 2,
            port: 0,
            resume: false,
            log_requests: false,
        }
    }
}

struct ServerInner {
    dir: PathBuf,
    pool: Arc<ExecPool>,
    workers: usize,
    /// Studies whose driver thread is currently running; feeds fair-share.
    active: Arc<AtomicUsize>,
    studies: Mutex<BTreeMap<String, Arc<Study>>>,
    next_id: AtomicU64,
    stop_accept: AtomicBool,
    /// Server-level metrics (HTTP traffic, pool occupancy, study counts);
    /// merged with per-study registries by `GET /metrics`.
    metrics: Arc<MetricsRegistry>,
    started: Instant,
    log_requests: bool,
}

/// A running service instance. Dropping it does NOT stop the server; call
/// [`Server::shutdown`] (or let the process exit).
pub struct Server {
    inner: Arc<ServerInner>,
    accept: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl Server {
    /// Binds, performs the resume scan, and starts the accept loop.
    pub fn start(config: ServeConfig) -> Result<Server, String> {
        std::fs::create_dir_all(&config.dir)
            .map_err(|e| format!("cannot create {}: {e}", config.dir.display()))?;
        let workers = config.workers.max(1);
        let inner = Arc::new(ServerInner {
            dir: config.dir.clone(),
            pool: Arc::new(ExecPool::with_workers(workers)),
            workers,
            active: Arc::new(AtomicUsize::new(0)),
            studies: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            stop_accept: AtomicBool::new(false),
            metrics: Arc::new(MetricsRegistry::new()),
            started: Instant::now(),
            log_requests: config.log_requests,
        });
        inner.scan_existing(config.resume)?;
        let listener = TcpListener::bind(("127.0.0.1", config.port))
            .map_err(|e| format!("cannot bind 127.0.0.1:{}: {e}", config.port))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        // Publish the actual address so clients (and the CI smoke test) can
        // find an ephemeral-port server.
        std::fs::write(config.dir.join("serve.addr"), format!("{addr}\n"))
            .map_err(|e| format!("cannot write serve.addr: {e}"))?;
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_inner.stop_accept.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(mut stream) = stream {
                    let conn_inner = Arc::clone(&accept_inner);
                    std::thread::spawn(move || {
                        conn_inner.handle_connection(&mut stream);
                        linger_close(&stream);
                    });
                }
            }
        });
        Ok(Server {
            inner,
            accept: Some(accept),
            addr,
        })
    }

    /// The bound address (useful with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections, cancels running studies, and joins all
    /// threads. Already-terminal studies keep their results.
    pub fn shutdown(mut self) {
        self.inner.stop_accept.store(true, Ordering::SeqCst);
        // The accept loop only re-checks the flag on a new connection; poke
        // it once so it wakes up and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let studies: Vec<Arc<Study>> = {
            let map = self.inner.studies.lock().expect("studies lock");
            map.values().cloned().collect()
        };
        for s in &studies {
            s.stop.store(true, Ordering::SeqCst);
        }
        for s in &studies {
            s.join();
        }
    }
}

impl ServerInner {
    /// Startup scan: every subdirectory with a `spec.json` is a known study.
    /// Ones without a `result.json` were interrupted; with `resume` they are
    /// re-driven from their journal, otherwise they are listed as failed.
    fn scan_existing(self: &Arc<Self>, resume: bool) -> Result<(), String> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(_) => return Ok(()),
        };
        let mut max_numeric = 0u64;
        for entry in entries.flatten() {
            let dir = entry.path();
            let spec_path = dir.join("spec.json");
            if !spec_path.is_file() {
                continue;
            }
            let id = entry.file_name().to_string_lossy().to_string();
            if let Some(n) = id.strip_prefix("study-").and_then(|s| s.parse::<u64>().ok()) {
                max_numeric = max_numeric.max(n);
            }
            let spec_text = std::fs::read_to_string(&spec_path)
                .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
            let spec = StudySpec::from_json(&spec_text)
                .map_err(|e| format!("{}: {e}", spec_path.display()))?;
            let study = Arc::new(Study::new(id.clone(), spec, dir.clone()));
            let terminal = std::fs::read_to_string(dir.join("result.json"))
                .ok()
                .and_then(|t| StudyStatus::from_json(&t));
            match terminal {
                Some(status) => study.set_status(status),
                None if resume => {
                    // Interrupted: re-drive. The driver replays the journal
                    // (if one exists) before running fresh trials.
                    spawn_driver(
                        Arc::clone(&study),
                        Arc::clone(&self.pool),
                        self.workers,
                        Arc::clone(&self.active),
                        true,
                    );
                }
                None => study.set_status(StudyStatus::Failed {
                    error: "interrupted; restart the server with --resume".to_string(),
                }),
            }
            self.studies
                .lock()
                .expect("studies lock")
                .insert(id, study);
        }
        self.next_id.store(max_numeric + 1, Ordering::SeqCst);
        Ok(())
    }

    fn handle_connection(self: &Arc<Self>, stream: &mut TcpStream) {
        let t0 = Instant::now();
        let req = match read_request(stream) {
            Ok(r) => r,
            Err(e) => {
                let body = error_body(&e.message);
                write_response(stream, e.code, "application/json", &body);
                self.observe_request("-", "-", e.code, body.len(), t0.elapsed());
                return;
            }
        };
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        // The event stream cannot go through route() — it writes the body
        // incrementally on the raw stream instead of returning it sized.
        let (code, bytes) = if req.method == "GET"
            && matches!(segments.as_slice(), ["studies", _, "events"])
        {
            match self.get_study(segments[1]) {
                Some(study) => self.stream_events(stream, &study, req.last_event_id),
                None => {
                    let (code, content_type, body) = not_found(segments[1]);
                    write_response(stream, code, content_type, &body);
                    (code, body.len())
                }
            }
        } else {
            let (code, content_type, body) = self.route(&req);
            write_response(stream, code, content_type, &body);
            (code, body.len())
        };
        self.observe_request(&req.method, &req.path, code, bytes, t0.elapsed());
    }

    /// Records one finished request into the server metrics and, with
    /// `--log-requests`, prints the structured request log line.
    fn observe_request(
        &self,
        method: &str,
        path: &str,
        status: u16,
        bytes: usize,
        elapsed: Duration,
    ) {
        let route = route_template(path);
        let status_str = status.to_string();
        self.metrics.inc_counter(
            &labeled(
                "http.requests",
                &[("method", method), ("route", route), ("status", &status_str)],
            ),
            1,
        );
        self.metrics.observe_with(
            &labeled("http.request_seconds", &[("route", route)]),
            elapsed.as_secs_f64(),
            &HTTP_LATENCY_BUCKETS,
        );
        if self.log_requests {
            let t_unix = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs_f64())
                .unwrap_or(0.0);
            println!(
                "{{\"t_unix\":{t_unix:.3},\"method\":\"{}\",\"path\":\"{}\",\"status\":{status},\"bytes\":{bytes},\"us\":{}}}",
                escape(method),
                escape(path),
                elapsed.as_micros()
            );
        }
    }

    /// Streams `study`'s event bus as SSE until the study is terminal and
    /// the subscriber has caught up (or the client goes away / the server
    /// shuts down). Returns (status, body bytes written) for the request
    /// log. `cursor` is the client's `Last-Event-ID`, so a reconnect
    /// resumes exactly after the last event it saw.
    fn stream_events(
        &self,
        stream: &mut TcpStream,
        study: &Arc<Study>,
        cursor: Option<u64>,
    ) -> (u16, usize) {
        // A subscriber that stops reading must not pin this thread once the
        // kernel buffer fills; a stalled write aborts the stream.
        let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
        if !write_stream_head(stream, "text/event-stream") {
            return (200, 0);
        }
        let mut cursor = cursor;
        let mut sent = 0usize;
        loop {
            let events = study.bus.wait_after(cursor, EVENT_POLL);
            for event in &events {
                let frame = format!(
                    "id: {}\nevent: {}\ndata: {}\n\n",
                    event.id,
                    event.event.kind(),
                    event.to_json()
                );
                if stream.write_all(frame.as_bytes()).is_err() {
                    return (200, sent);
                }
                sent += frame.len();
                cursor = Some(event.id);
            }
            if stream.flush().is_err() {
                return (200, sent);
            }
            // Close once the study is terminal and everything published so
            // far has been delivered (the driver publishes the terminal
            // event before flipping the state, so it is never skipped).
            if study.status() != StudyStatus::Running
                && study.bus.last_id() <= cursor.unwrap_or(0)
            {
                let bye = "event: end\ndata: {}\n\n";
                if stream.write_all(bye.as_bytes()).is_ok() {
                    sent += bye.len();
                }
                let _ = stream.flush();
                return (200, sent);
            }
            if self.stop_accept.load(Ordering::SeqCst) {
                return (200, sent);
            }
            if events.is_empty() {
                // Idle heartbeat: an SSE comment keeps intermediaries from
                // timing the stream out and detects a vanished client.
                if stream.write_all(b": keep-alive\n\n").is_err()
                    || stream.flush().is_err()
                {
                    return (200, sent);
                }
            }
        }
    }

    /// Renders the merged Prometheus scrape: server-level series (refreshed
    /// at scrape time) plus every study's registry labeled `study="<id>"`.
    fn render_metrics(&self) -> String {
        let studies: Vec<(String, Arc<Study>)> = {
            let map = self.studies.lock().expect("studies lock");
            map.iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect()
        };
        let m = &self.metrics;
        m.set_gauge("serve.uptime_seconds", self.started.elapsed().as_secs_f64());
        m.set_gauge("serve.pool_workers", self.workers as f64);
        m.set_gauge("serve.pool_busy_workers", self.pool.busy_workers() as f64);
        m.set_gauge("serve.pool_queue_depth", self.pool.queued_jobs() as f64);
        m.set_gauge(
            "serve.active_studies",
            self.active.load(Ordering::SeqCst) as f64,
        );
        let mut by_status: BTreeMap<&'static str, usize> = BTreeMap::new();
        for tag in ["running", "done", "failed", "cancelled"] {
            by_status.insert(tag, 0);
        }
        for (_, study) in &studies {
            *by_status.entry(study.status().tag()).or_insert(0) += 1;
        }
        for (tag, count) in &by_status {
            m.set_gauge(&labeled("serve.studies", &[("status", tag)]), *count as f64);
        }
        // Per-tenant worker-seconds: the sum of the study's per-worker
        // busy-time gauges — how much pool time each tenant has consumed.
        let snapshots: Vec<(String, volcanoml_obs::MetricsSnapshot)> = studies
            .iter()
            .map(|(id, study)| (id.clone(), study.metrics.snapshot()))
            .collect();
        for (id, snap) in &snapshots {
            let worker_seconds: f64 = snap
                .gauges
                .iter()
                .filter(|(k, _)| k.starts_with("worker.") && k.ends_with(".busy_s"))
                .map(|(_, v)| *v)
                .sum();
            m.set_gauge(
                &labeled("serve.tenant_worker_seconds", &[("study", id)]),
                worker_seconds,
            );
        }
        let mut prom = PrometheusText::new("volcanoml");
        prom.add_snapshot(&m.snapshot(), &[]);
        for (id, snap) in &snapshots {
            prom.add_snapshot(snap, &[("study", id)]);
        }
        prom.render()
    }

    fn route(self: &Arc<Self>, req: &Request) -> (u16, &'static str, String) {
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => (200, "application/json", self.healthz()),
            ("GET", ["metrics"]) => (
                200,
                // The exposition content type; version pins the text format.
                "text/plain; version=0.0.4",
                self.render_metrics(),
            ),
            ("GET", ["studies"]) => (200, "application/json", self.list_studies()),
            ("POST", ["studies"]) => self.submit_study(&req.body),
            ("GET", ["studies", id]) => match self.get_study(id) {
                Some(study) => (200, "application/json", study_json(&study)),
                None => not_found(id),
            },
            ("GET", ["studies", id, "report"]) => match self.get_study(id) {
                Some(study) => render_study_report(&study),
                None => not_found(id),
            },
            ("DELETE", ["studies", id]) => match self.get_study(id) {
                Some(study) => {
                    study.stop.store(true, Ordering::SeqCst);
                    (
                        202,
                        "application/json",
                        format!("{{\"id\":\"{}\",\"status\":\"cancelling\"}}", escape(id)),
                    )
                }
                None => not_found(id),
            },
            (_, ["healthz"]) | (_, ["metrics"]) | (_, ["studies"]) | (_, ["studies", ..]) => (
                405,
                "application/json",
                error_body(&format!("method {} not allowed here", req.method)),
            ),
            _ => (
                404,
                "application/json",
                error_body(&format!("no such route {}", req.path)),
            ),
        }
    }

    /// The liveness probe, grown into an occupancy report: uptime, pool
    /// occupancy/queue depth, and study counts by lifecycle state.
    fn healthz(&self) -> String {
        let (running, done, failed, cancelled) = {
            let map = self.studies.lock().expect("studies lock");
            let mut counts = (0usize, 0usize, 0usize, 0usize);
            for study in map.values() {
                match study.status() {
                    StudyStatus::Running => counts.0 += 1,
                    StudyStatus::Done { .. } => counts.1 += 1,
                    StudyStatus::Failed { .. } => counts.2 += 1,
                    StudyStatus::Cancelled => counts.3 += 1,
                }
            }
            counts
        };
        format!(
            "{{\"status\":\"ok\",\"uptime_s\":{},\"workers\":{},\"busy_workers\":{},\
             \"queue_depth\":{},\"active_studies\":{},\"studies\":{{\"running\":{running},\
             \"done\":{done},\"failed\":{failed},\"cancelled\":{cancelled}}}}}",
            num(self.started.elapsed().as_secs_f64()),
            self.workers,
            self.pool.busy_workers(),
            self.pool.queued_jobs(),
            self.active.load(Ordering::SeqCst),
        )
    }

    fn get_study(&self, id: &str) -> Option<Arc<Study>> {
        self.studies.lock().expect("studies lock").get(id).cloned()
    }

    fn list_studies(&self) -> String {
        let map = self.studies.lock().expect("studies lock");
        let items: Vec<String> = map
            .values()
            .map(|s| {
                format!(
                    "{{\"id\":\"{}\",\"status\":\"{}\"}}",
                    escape(&s.id),
                    s.status().tag()
                )
            })
            .collect();
        format!("{{\"studies\":[{}]}}", items.join(","))
    }

    fn submit_study(self: &Arc<Self>, body: &str) -> (u16, &'static str, String) {
        let spec = match StudySpec::from_json(body) {
            Ok(s) => s,
            Err(e) => return (400, "application/json", error_body(&e)),
        };
        let id = match &spec.name {
            Some(name) => {
                let id = sanitize_id(name);
                if id.is_empty() {
                    return (
                        400,
                        "application/json",
                        error_body("name must contain at least one alphanumeric character"),
                    );
                }
                id
            }
            None => format!("study-{}", self.next_id.fetch_add(1, Ordering::SeqCst)),
        };
        let dir = self.dir.join(&id);
        let spec_json = spec.to_json();
        let study = Arc::new(Study::new(id.clone(), spec, dir.clone()));
        // Reserve the id under the lock, but do the filesystem work outside
        // it — otherwise every other request (health checks included) stalls
        // on this submit's disk latency.
        {
            let mut map = self.studies.lock().expect("studies lock");
            if map.contains_key(&id) {
                return (
                    409,
                    "application/json",
                    error_body(&format!("study '{id}' already exists")),
                );
            }
            map.insert(id.clone(), Arc::clone(&study));
        }
        let io = std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))
            .and_then(|()| {
                std::fs::write(dir.join("spec.json"), spec_json)
                    .map_err(|e| format!("cannot write spec.json: {e}"))
            });
        if let Err(e) = io {
            // Release the reservation so a retry isn't answered with 409.
            self.studies.lock().expect("studies lock").remove(&id);
            return (500, "application/json", error_body(&e));
        }
        spawn_driver(
            study,
            Arc::clone(&self.pool),
            self.workers,
            Arc::clone(&self.active),
            false,
        );
        (201, "application/json", format!("{{\"id\":\"{}\"}}", escape(&id)))
    }
}

/// Collapses a concrete request path onto its route template so HTTP
/// metrics stay bounded-cardinality (study ids never become label values).
fn route_template(path: &str) -> &'static str {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["healthz"] => "/healthz",
        ["metrics"] => "/metrics",
        ["studies"] => "/studies",
        ["studies", _] => "/studies/:id",
        ["studies", _, "report"] => "/studies/:id/report",
        ["studies", _, "events"] => "/studies/:id/events",
        _ => "other",
    }
}

fn not_found(id: &str) -> (u16, &'static str, String) {
    (
        404,
        "application/json",
        error_body(&format!("no such study '{id}'")),
    )
}

/// Client-chosen ids become directory names; keep them boring. Returns the
/// empty string (submit answers 400) when the name has no alphanumeric
/// character at all — that rejects `"."` and `".."`, which would otherwise
/// survive sanitization intact and let `dir.join(id)` escape the serve root.
fn sanitize_id(name: &str) -> String {
    let id = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect::<String>()
        .trim_matches('-')
        .to_string();
    if id.chars().any(|c| c.is_ascii_alphanumeric()) {
        id
    } else {
        String::new()
    }
}

/// Live journal statistics: total rows, non-cached evaluations, best finite
/// full-fidelity loss. Tolerates a torn final line (the journal may be
/// mid-write).
fn journal_stats(path: &Path) -> (usize, usize, Option<f64>) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(_) => return (0, 0, None),
    };
    let mut rows = 0usize;
    let mut evaluations = 0usize;
    let mut best: Option<f64> = None;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        // A torn final line (journal mid-write) just fails to parse; skip it.
        let Ok(rec) = TrialRecord::from_json(line) else {
            continue;
        };
        rows += 1;
        if !rec.cached {
            evaluations += 1;
        }
        if rec.fidelity >= 1.0 - 1e-9 && rec.loss.is_finite() {
            best = Some(match best {
                Some(b) => b.min(rec.loss),
                None => rec.loss,
            });
        }
    }
    (rows, evaluations, best)
}

fn study_json(study: &Study) -> String {
    let status = study.status();
    let (rows, evaluations, best) = journal_stats(&study.journal_path());
    let mut parts = vec![
        format!("\"id\":\"{}\"", escape(&study.id)),
        format!("\"status\":\"{}\"", status.tag()),
        format!("\"engine\":\"{}\"", study.spec.engine.name()),
        format!("\"max_evaluations\":{}", study.spec.max_evaluations),
        format!("\"journal_rows\":{rows}"),
        format!("\"evaluations\":{evaluations}"),
        // Streamed live from the study's shared MetricsRegistry (unlike the
        // journal stats, this counts trials not yet flushed to disk).
        format!("\"trials\":{}", study.metrics.counter("trial.total")),
    ];
    if let Some(b) = best {
        parts.push(format!("\"best_loss\":{}", num(b)));
    }
    match &status {
        StudyStatus::Done {
            best_loss,
            n_evaluations,
        } => {
            parts.push(format!("\"final_best_loss\":{}", num(*best_loss)));
            parts.push(format!("\"final_evaluations\":{n_evaluations}"));
        }
        StudyStatus::Failed { error } => {
            parts.push(format!("\"error\":\"{}\"", escape(error)));
        }
        _ => {}
    }
    format!("{{{}}}", parts.join(","))
}

fn render_study_report(study: &Study) -> (u16, &'static str, String) {
    let trace = std::fs::read_to_string(study.dir.join("trace.jsonl")).unwrap_or_default();
    let journal = std::fs::read_to_string(study.journal_path()).ok();
    let metrics = std::fs::read_to_string(study.dir.join("metrics.json")).ok();
    let complete = study.status() != StudyStatus::Running;
    match volcanoml_obs::report::render_live_report(
        &trace,
        journal.as_deref(),
        metrics.as_deref(),
        complete,
    ) {
        Ok(text) => (200, "text/plain", text),
        Err(e) => (500, "application/json", error_body(&e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sanitized_to_directory_safe_names() {
        assert_eq!(sanitize_id("exp one/2"), "exp-one-2");
        assert_eq!(sanitize_id("--weird--"), "weird");
        assert_eq!(sanitize_id("ok_name.v2"), "ok_name.v2");
        assert_eq!(sanitize_id("///"), "");
    }

    #[test]
    fn route_templates_bound_metric_cardinality() {
        assert_eq!(route_template("/healthz"), "/healthz");
        assert_eq!(route_template("/metrics"), "/metrics");
        assert_eq!(route_template("/studies"), "/studies");
        assert_eq!(route_template("/studies/exp-42"), "/studies/:id");
        assert_eq!(route_template("/studies/exp-42/report"), "/studies/:id/report");
        assert_eq!(route_template("/studies/exp-42/events"), "/studies/:id/events");
        assert_eq!(route_template("/nope/deeper/still"), "other");
    }

    #[test]
    fn path_escape_names_are_rejected() {
        // "." and ".." must never become directory names: `dir.join("..")`
        // would write study state outside the serve root.
        assert_eq!(sanitize_id("."), "");
        assert_eq!(sanitize_id(".."), "");
        // Separators collapse to '-', so the remaining dots are inert: the
        // id stays a single path component under the serve root.
        assert_eq!(sanitize_id("../../etc"), "..-..-etc");
        assert_eq!(sanitize_id("._."), "");
        assert_eq!(sanitize_id("..keep2"), "..keep2");
    }
}
