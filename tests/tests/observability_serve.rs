//! End-to-end tests for the live observability plane: the Prometheus
//! `/metrics` scrape while two tenants run concurrently, the
//! `/studies/:id/events` SSE stream with duplicate-free `Last-Event-ID`
//! resume across a reconnect, and per-tenant work counters that stay exact
//! while tenants share one worker.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use volcanoml_exec::JournalRow;
use volcanoml_integration::tmp_dir;
use volcanoml_serve::{ServeConfig, Server};

/// Minimal HTTP client: one request, one response, connection closed.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let code: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status code in {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (code, body)
}

fn wait_for_status(addr: SocketAddr, id: &str, wanted: &str, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        let (code, body) = request(addr, "GET", &format!("/studies/{id}"), "");
        assert_eq!(code, 200, "GET /studies/{id}: {body}");
        if body.contains(&format!("\"status\":\"{wanted}\"")) {
            return body;
        }
        assert!(
            Instant::now() < deadline,
            "study {id} did not reach '{wanted}' in time; last: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Trial rows in a finished study's journal.
fn journaled_trials(study_dir: &Path) -> usize {
    std::fs::read_to_string(study_dir.join("journal.jsonl"))
        .unwrap()
        .lines()
        .filter(|l| matches!(JournalRow::from_json(l), Ok(JournalRow::Trial(_))))
        .count()
}

/// One parsed SSE frame: the `id:`, `event:`, and `data:` fields.
#[derive(Debug, Clone)]
struct SseFrame {
    id: u64,
    event: String,
    data: String,
}

/// SSE client over a raw TcpStream: sends the GET (with `Last-Event-ID`
/// when resuming), then reads frames until `stop(frames)` says done or the
/// server closes the stream. Comment frames (keep-alives) are skipped.
fn read_sse<F: Fn(&[SseFrame]) -> bool>(
    addr: SocketAddr,
    path: &str,
    last_event_id: Option<u64>,
    timeout: Duration,
    stop: F,
) -> Vec<SseFrame> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let resume = match last_event_id {
        Some(id) => format!("Last-Event-ID: {id}\r\n"),
        None => String::new(),
    };
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n{resume}\r\n").as_bytes())
        .unwrap();
    stream.flush().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(250)))
        .unwrap();
    let deadline = Instant::now() + timeout;
    let mut raw = Vec::new();
    let mut frames: Vec<SseFrame> = Vec::new();
    let mut parsed_to = 0usize; // byte offset of the first unparsed frame
    let mut header_seen = false;
    let mut buf = [0u8; 4096];
    while Instant::now() < deadline {
        match stream.read(&mut buf) {
            Ok(0) => break, // server closed: stream complete
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => panic!("read error on event stream: {e}"),
        }
        let text = String::from_utf8_lossy(&raw).into_owned();
        if !header_seen {
            let Some(head_end) = text.find("\r\n\r\n") else {
                continue;
            };
            assert!(
                text.starts_with("HTTP/1.1 200"),
                "unexpected stream head: {}",
                &text[..head_end]
            );
            assert!(
                text[..head_end].contains("text/event-stream"),
                "not an SSE response: {}",
                &text[..head_end]
            );
            header_seen = true;
            parsed_to = head_end + 4;
        }
        // Parse complete frames (terminated by a blank line).
        while let Some(rel) = text[parsed_to..].find("\n\n") {
            let frame_text = &text[parsed_to..parsed_to + rel];
            parsed_to += rel + 2;
            let mut id = None;
            let mut event = String::new();
            let mut data = String::new();
            for line in frame_text.lines() {
                if let Some(v) = line.strip_prefix("id: ") {
                    id = v.trim().parse().ok();
                } else if let Some(v) = line.strip_prefix("event: ") {
                    event = v.trim().to_string();
                } else if let Some(v) = line.strip_prefix("data: ") {
                    data = v.trim().to_string();
                }
            }
            if event == "end" {
                return frames;
            }
            if let Some(id) = id {
                frames.push(SseFrame { id, event, data });
            }
        }
        if stop(&frames) {
            return frames;
        }
    }
    frames
}

/// Parses exposition text into `family-with-labels -> value` and validates
/// basic line grammar along the way.
fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    let mut samples = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line has no value: {line:?}"));
        let name_end = series.find('{').unwrap_or(series.len());
        let name = &series[..name_end];
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "illegal metric name {name:?} in line {line:?}"
        );
        assert!(
            !name.chars().next().unwrap().is_ascii_digit(),
            "metric name starts with a digit: {line:?}"
        );
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse()
                .unwrap_or_else(|_| panic!("unparseable value in line {line:?}")),
        };
        samples.insert(series.to_string(), value);
    }
    samples
}

/// Every `_bucket` series must be cumulative within its family+labels, and
/// every histogram closed by a `+Inf` bucket matching `_count`.
fn check_histogram_invariants(samples: &BTreeMap<String, f64>) {
    // Group bucket series by (family, labels-without-le).
    let mut groups: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for (series, value) in samples {
        let Some(open) = series.find('{') else { continue };
        if !series[..open].ends_with("_bucket") {
            continue;
        }
        let labels = &series[open + 1..series.len() - 1];
        let mut le = None;
        let mut rest: Vec<&str> = Vec::new();
        for part in labels.split(',') {
            match part.strip_prefix("le=\"") {
                Some(v) => le = Some(v.trim_end_matches('"').to_string()),
                None => rest.push(part),
            }
        }
        let le = le.unwrap_or_else(|| panic!("bucket without le: {series}"));
        let le_val = match le.as_str() {
            "+Inf" => f64::INFINITY,
            v => v.parse().unwrap(),
        };
        groups
            .entry(format!("{}|{}", &series[..open], rest.join(",")))
            .or_default()
            .push((le_val, *value));
    }
    assert!(!groups.is_empty(), "no histogram buckets in the scrape");
    for (key, mut buckets) in groups {
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert!(
            buckets.last().unwrap().0.is_infinite(),
            "histogram {key} not closed by +Inf"
        );
        let counts: Vec<f64> = buckets.iter().map(|(_, c)| *c).collect();
        assert!(
            counts.windows(2).all(|w| w[0] <= w[1]),
            "non-monotone buckets for {key}: {counts:?}"
        );
        let family = key.split('|').next().unwrap().trim_end_matches("_bucket");
        let labels = key.split('|').nth(1).unwrap();
        let count_series = if labels.is_empty() {
            format!("{family}_count")
        } else {
            format!("{family}_count{{{labels}}}")
        };
        let count = samples
            .get(&count_series)
            .unwrap_or_else(|| panic!("missing {count_series}"));
        assert_eq!(
            *counts.last().unwrap(),
            *count,
            "+Inf bucket != _count for {key}"
        );
    }
}

#[test]
fn metrics_scrape_covers_server_and_both_tenants_mid_run() {
    let dir = tmp_dir("metrics");
    let server = Server::start(ServeConfig {
        dir: dir.clone(),
        workers: 2,
        port: 0,
        resume: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    for (name, engine, dataset) in [("obs-a", "bo", "classification"), ("obs-b", "random", "moons")]
    {
        let spec = format!(
            r#"{{"name":"{name}","dataset":"{dataset}","engine":"{engine}","max_evaluations":16,"seed":5}}"#
        );
        let (code, body) = request(addr, "POST", "/studies", &spec);
        assert_eq!(code, 201, "{body}");
    }
    // Poll the scrape until both tenants show live trial counters. This is
    // the mid-run window: the server answers scrapes while fits execute.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mid_run = loop {
        let (code, text) = request(addr, "GET", "/metrics", "");
        assert_eq!(code, 200);
        let samples = parse_exposition(&text);
        let a = samples
            .get("volcanoml_trial_total{study=\"obs-a\"}")
            .copied()
            .unwrap_or(0.0);
        let b = samples
            .get("volcanoml_trial_total{study=\"obs-b\"}")
            .copied()
            .unwrap_or(0.0);
        if a >= 1.0 && b >= 1.0 {
            break text;
        }
        assert!(
            Instant::now() < deadline,
            "tenants never reported trials; last scrape:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let samples = parse_exposition(&mid_run);
    check_histogram_invariants(&samples);
    // Server-level series.
    assert_eq!(samples.get("volcanoml_serve_pool_workers"), Some(&2.0));
    assert!(samples.contains_key("volcanoml_serve_uptime_seconds"));
    assert!(samples.contains_key("volcanoml_serve_pool_busy_workers"));
    assert!(samples.contains_key("volcanoml_serve_pool_queue_depth"));
    assert!(
        samples
            .keys()
            .any(|k| k.starts_with("volcanoml_http_requests_total{")),
        "no HTTP request counters in scrape"
    );
    assert!(
        samples
            .keys()
            .any(|k| k.starts_with("volcanoml_http_request_seconds_bucket{")),
        "no HTTP latency histogram in scrape"
    );
    wait_for_status(addr, "obs-a", "done", Duration::from_secs(120));
    wait_for_status(addr, "obs-b", "done", Duration::from_secs(120));
    let (_, final_text) = request(addr, "GET", "/metrics", "");
    let finals = parse_exposition(&final_text);
    check_histogram_invariants(&finals);
    for study in ["obs-a", "obs-b"] {
        // Fair-share decisions were recorded and each tenant consumed pool time.
        assert!(
            finals[&format!("volcanoml_sched_batch_cap_decisions_total{{study=\"{study}\"}}")]
                >= 1.0
        );
        assert!(finals[&format!("volcanoml_serve_tenant_worker_seconds{{study=\"{study}\"}}")] > 0.0);
        // Self-overhead accounting, checked structurally: one observation
        // per journaled trial and a finite, non-negative sum. The ≤ 1 %
        // bound is a wall-clock threshold; it is gated in `scripts/ci.sh`.
        let overhead = |part: &str| {
            finals[&format!("volcanoml_obs_self_overhead_s_{part}{{study=\"{study}\"}}")]
        };
        assert_eq!(
            overhead("count"),
            journaled_trials(&dir.join(study)) as f64,
            "{study}"
        );
        assert!(
            overhead("sum").is_finite() && overhead("sum") >= 0.0,
            "{study}"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn event_stream_resumes_without_duplicates_across_reconnect() {
    let dir = tmp_dir("events");
    let server = Server::start(ServeConfig {
        dir: dir.clone(),
        workers: 2,
        port: 0,
        resume: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let spec = r#"{"name":"evstream","dataset":"moons","engine":"random","max_evaluations":24,"seed":9}"#;
    let (code, body) = request(addr, "POST", "/studies", spec);
    assert_eq!(code, 201, "{body}");

    // First subscription from the start of the stream: read a few trials,
    // then drop the connection mid-run (a dashboard losing its socket).
    let first = read_sse(
        addr,
        "/studies/evstream/events",
        None,
        Duration::from_secs(60),
        |frames| frames.iter().filter(|f| f.event == "TrialFinished").count() >= 3,
    );
    assert!(
        first.iter().filter(|f| f.event == "TrialFinished").count() >= 3,
        "first connection saw {} frames: {first:?}",
        first.len()
    );
    assert_eq!(first[0].id, 1, "stream must start at the first event");
    assert_eq!(
        first[0].event, "StudySubmitted",
        "lifecycle head missing: {first:?}"
    );
    assert!(
        first.windows(2).all(|w| w[1].id > w[0].id),
        "ids not strictly increasing on first connection"
    );
    let cursor = first.last().unwrap().id;

    // Resume with Last-Event-ID: replay must start exactly after the cursor
    // and run to the terminal event with no duplicates.
    let resumed = read_sse(
        addr,
        "/studies/evstream/events",
        Some(cursor),
        Duration::from_secs(120),
        |_| false, // read until the server closes the stream with `end`
    );
    assert!(
        !resumed.is_empty(),
        "resumed connection saw nothing after id {cursor}"
    );
    assert!(
        resumed.iter().all(|f| f.id > cursor),
        "resume replayed an already-seen event: {:?}",
        resumed.iter().map(|f| f.id).collect::<Vec<_>>()
    );
    assert!(
        resumed.windows(2).all(|w| w[1].id > w[0].id),
        "ids not strictly increasing after resume"
    );
    let all_ids: Vec<u64> = first
        .iter()
        .chain(resumed.iter())
        .map(|f| f.id)
        .collect();
    let mut deduped = all_ids.clone();
    deduped.dedup();
    assert_eq!(all_ids, deduped, "duplicate event ids across the reconnect");
    assert_eq!(
        resumed.last().unwrap().event,
        "StudyDone",
        "stream did not end with the terminal event: {resumed:?}"
    );
    // Typed payloads are well-formed JSON with matching ids.
    for frame in first.iter().chain(resumed.iter()) {
        let event = volcanoml_obs::BusEvent::from_json(&frame.data)
            .unwrap_or_else(|| panic!("unparseable event payload: {}", frame.data));
        assert_eq!(event.id, frame.id);
        assert_eq!(event.event.kind(), frame.event);
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The schedule-independent work counters from a finished study's
/// `metrics.json` (`binned.arena_reuses` depends on what the shared worker's
/// slab pool held, i.e. on the other tenant, and is left out).
fn study_work_counters(serve_dir: &Path, id: &str) -> Vec<u64> {
    use volcanoml_obs::json::{parse_object, JsonValue};
    let text = std::fs::read_to_string(serve_dir.join(id).join("metrics.json")).unwrap();
    let snapshot = parse_object(&text).unwrap();
    let counters = snapshot.get("counters").and_then(JsonValue::as_obj).unwrap();
    [
        "binned.matrices_built",
        "binned.cells_encoded",
        "binned.hist_node_scans",
        "binned.hist_bytes_scanned",
        "data.bytes_gathered",
        "data.gathers_skipped",
    ]
    .iter()
    .map(|name| counters[*name].as_i64().unwrap() as u64)
    .collect()
}

/// Runs the named studies (identical but for the name) to completion on a
/// one-worker server — fair share is then always 1, so every study pulls
/// the same trial sequence however many tenants there are — and returns
/// each study's work counters.
fn run_tenants(names: &[&str]) -> Vec<Vec<u64>> {
    let dir = tmp_dir(&format!("tenants{}", names.len()));
    let server = Server::start(ServeConfig {
        dir: dir.clone(),
        workers: 1,
        port: 0,
        resume: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    for name in names {
        let spec = format!(
            r#"{{"name":"{name}","dataset":"classification","engine":"bo","max_evaluations":16,"seed":5}}"#
        );
        let (code, body) = request(addr, "POST", "/studies", &spec);
        assert_eq!(code, 201, "{body}");
    }
    for name in names {
        wait_for_status(addr, name, "done", Duration::from_secs(120));
    }
    let counters = names.iter().map(|name| study_work_counters(&dir, name)).collect();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    counters
}

#[test]
fn two_tenants_sharing_a_worker_each_report_only_their_own_work() {
    let solo = run_tenants(&["solo"]).remove(0);
    assert!(solo[1] > 0 && solo[3] > 0, "study trained no binned trees: {solo:?}");
    for (tenant, counters) in ["a", "b"].iter().zip(run_tenants(&["a", "b"])) {
        assert_eq!(counters, solo, "tenant {tenant} read someone else's work");
    }
}
