//! End-to-end tests for volcanoml-serve: multi-tenant fair-share over one
//! pool, live status/report over HTTP, cancellation, and crash-resume of an
//! interrupted study (simulated in-process by truncating its journal).

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use volcanoml_exec::TrialRecord;
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

fn journal_rows(path: &std::path::Path) -> Vec<TrialRecord> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| TrialRecord::from_json(l).ok())
        .collect()
}

#[test]
fn two_tenants_share_the_pool_and_both_finish() {
    let dir = tmp_dir("tenants");
    let server = Server::start(ServeConfig {
        dir: dir.clone(),
        workers: 2,
        port: 0,
        resume: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let (code, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(code, 200, "{body}");
    assert!(body.contains("\"workers\":2"));

    let (code, body) = request(
        addr,
        "POST",
        "/studies",
        r#"{"name":"tenant-a","dataset":"moons","engine":"random","max_evaluations":25,"seed":1}"#,
    );
    assert_eq!(code, 201, "{body}");
    assert!(body.contains("\"id\":\"tenant-a\""));
    let (code, body) = request(
        addr,
        "POST",
        "/studies",
        r#"{"name":"tenant-b","dataset":"xor","engine":"random","max_evaluations":25,"seed":2}"#,
    );
    assert_eq!(code, 201, "{body}");

    // Fair-share evidence: observe a moment where BOTH journals hold rows
    // while NEITHER study has finished — their trial batches interleave on
    // the shared pool rather than running back to back.
    let ja = dir.join("tenant-a/journal.jsonl");
    let jb = dir.join("tenant-b/journal.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut saw_concurrent_progress = false;
    loop {
        let a_done = dir.join("tenant-a/result.json").exists();
        let b_done = dir.join("tenant-b/result.json").exists();
        if !a_done && !b_done && !journal_rows(&ja).is_empty() && !journal_rows(&jb).is_empty()
        {
            saw_concurrent_progress = true;
        }
        if a_done && b_done {
            break;
        }
        assert!(Instant::now() < deadline, "studies did not finish in time");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        saw_concurrent_progress,
        "never observed both studies journaling before either finished"
    );

    let body_a = wait_for_status(addr, "tenant-a", "done", Duration::from_secs(30));
    let body_b = wait_for_status(addr, "tenant-b", "done", Duration::from_secs(30));
    assert!(body_a.contains("\"final_best_loss\""), "{body_a}");
    assert!(body_b.contains("\"final_best_loss\""), "{body_b}");

    // Budgets respected: each journal's non-cached evaluations stay at the
    // submitted max_evaluations.
    for path in [&ja, &jb] {
        let evals = journal_rows(path).iter().filter(|r| !r.cached).count();
        assert!(evals <= 25, "{}: {evals} evaluations > budget", path.display());
        assert!(evals > 0, "{}: no evaluations journaled", path.display());
    }

    // Listing and report routes work on finished studies.
    let (code, body) = request(addr, "GET", "/studies", "");
    assert_eq!(code, 200);
    assert!(body.contains("tenant-a") && body.contains("tenant-b"), "{body}");
    let (code, report) = request(addr, "GET", "/studies/tenant-a/report", "");
    assert_eq!(code, 200, "{report}");
    assert!(report.contains("status: complete"), "{report}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_journal_study_resumes_to_the_same_answer() {
    let dir = tmp_dir("resume");
    let spec =
        r#"{"name":"resume-me","dataset":"moons","engine":"random","max_evaluations":12,"seed":3}"#;
    let server = Server::start(ServeConfig {
        dir: dir.clone(),
        workers: 2,
        port: 0,
        resume: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let (code, body) = request(server.addr(), "POST", "/studies", spec);
    assert_eq!(code, 201, "{body}");
    let body = wait_for_status(server.addr(), "resume-me", "done", Duration::from_secs(60));
    server.shutdown();

    let study_dir = dir.join("resume-me");
    let journal = study_dir.join("journal.jsonl");
    let full_rows = journal_rows(&journal);
    assert!(full_rows.len() >= 4, "need rows to truncate");
    let original_best = body
        .split("\"final_best_loss\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .map(|s| s.to_string())
        .expect("final_best_loss in status");

    // Simulate kill -9: journal cut mid-write, no terminal result.json.
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mut torn = lines[..lines.len() / 2].join("\n");
    torn.push_str("\n{\"schema\":1,\"trial\":9999,\"wor");
    std::fs::write(&journal, torn).unwrap();
    std::fs::remove_file(study_dir.join("result.json")).unwrap();

    // Without --resume the interrupted study is surfaced as failed, not
    // silently restarted.
    let server = Server::start(ServeConfig {
        dir: dir.clone(),
        workers: 2,
        port: 0,
        resume: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let (code, body) = request(server.addr(), "GET", "/studies/resume-me", "");
    assert_eq!(code, 200);
    assert!(body.contains("\"status\":\"failed\""), "{body}");
    server.shutdown();

    // With resume the study is re-driven from its journal to the same
    // terminal answer, with no duplicate trial ids.
    let server = Server::start(ServeConfig {
        dir: dir.clone(),
        workers: 2,
        port: 0,
        resume: true,
        ..ServeConfig::default()
    })
    .unwrap();
    let body = wait_for_status(server.addr(), "resume-me", "done", Duration::from_secs(60));
    server.shutdown();

    let resumed_rows = journal_rows(&journal);
    let mut ids: Vec<u64> = resumed_rows.iter().map(|r| r.trial_id).collect();
    let n = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "duplicate trial ids after resume");
    assert_eq!(
        resumed_rows.len(),
        full_rows.len(),
        "resumed schedule must re-derive the same trials"
    );
    assert!(
        body.contains(&format!("\"final_best_loss\":{original_best}")),
        "resumed best loss drifted: wanted {original_best}, got {body}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancellation_and_error_routes_behave() {
    let dir = tmp_dir("routes");
    let server = Server::start(ServeConfig {
        dir: dir.clone(),
        workers: 1,
        port: 0,
        resume: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Bad specs 400 with a reason.
    let (code, body) = request(addr, "POST", "/studies", r#"{"dataset":"mnist"}"#);
    assert_eq!(code, 400);
    assert!(body.contains("unknown synthetic dataset"), "{body}");

    // Unknown study / route → 404; wrong method → 405.
    let (code, _) = request(addr, "GET", "/studies/nope", "");
    assert_eq!(code, 404);
    let (code, _) = request(addr, "GET", "/nothing/here", "");
    assert_eq!(code, 404);
    let (code, _) = request(addr, "PUT", "/studies", "");
    assert_eq!(code, 405);

    // A long study can be cancelled; duplicate names conflict while the
    // first study holds the id.
    let spec =
        r#"{"name":"longrun","dataset":"classification","engine":"bo","max_evaluations":500}"#;
    let (code, _) = request(addr, "POST", "/studies", spec);
    assert_eq!(code, 201);
    let (code, body) = request(addr, "POST", "/studies", spec);
    assert_eq!(code, 409, "{body}");
    let (code, body) = request(addr, "DELETE", "/studies/longrun", "");
    assert_eq!(code, 202, "{body}");
    wait_for_status(addr, "longrun", "cancelled", Duration::from_secs(60));
    assert!(dir.join("longrun/result.json").exists());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The malformed-request corpus against a live server: each connection ends
/// in a 4xx or a closed socket (a reset counts), and the accept loop still
/// answers `/healthz` afterwards. Garbage pipelined after a valid request
/// gets that request's 200 or a reset (the server closes with it unread).
#[test]
fn malformed_requests_get_4xx_and_the_server_keeps_serving() {
    let dir = tmp_dir("malformed");
    let server = Server::start(ServeConfig {
        dir: dir.clone(),
        workers: 1,
        port: 0,
        resume: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut long_line = b"GET /healthz HTTP/1.1\r\nX-Big: ".to_vec();
    long_line.resize(long_line.len() + (1 << 20), b'a');
    let flood = [
        &b"GET /healthz HTTP/1.1\r\n"[..],
        &b"X-A: b\r\n".repeat(20_000),
        b"\r\n",
    ]
    .concat();
    let post = |length: &str, body: &[u8]| {
        [
            format!("POST /studies HTTP/1.1\r\nContent-Length: {length}\r\n\r\n").as_bytes(),
            body,
        ]
        .concat()
    };
    let corpus: Vec<(&str, Vec<u8>)> = vec![
        (
            "pipelined garbage",
            b"GET /healthz HTTP/1.1\r\n\r\nGARBAGE\x00\xff\r\n\r\n".to_vec(),
        ),
        ("oversized header line", long_line),
        ("header flood", flood),
        ("negative content-length", post("-1", b"{}")),
        ("non-numeric content-length", post("two", b"{}")),
        (
            "oversized content-length",
            post("99999999999999999999", b"{}"),
        ),
        ("non-UTF-8 body", post("2", b"\xff\xfe")),
        (
            "truncated head",
            b"GET /healthz HTTP/1.1\r\nHost: x".to_vec(),
        ),
    ];
    for (name, bytes) in corpus {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let _ = stream.write_all(&bytes);
        let _ = stream.shutdown(Shutdown::Write);
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        let head = String::from_utf8_lossy(&response);
        let code: Option<u16> = head.split_whitespace().nth(1).and_then(|c| c.parse().ok());
        let allowed = |c: u16| (400..500).contains(&c) || (name == "pipelined garbage" && c == 200);
        assert!(code.is_none_or(allowed), "{name}: answered {head:?}");
    }
    let (code, body) = request(server.addr(), "GET", "/healthz", "");
    assert_eq!(code, 200, "{body}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The server closes a connection without resetting it: a request with
/// 64 KiB pipelined behind it, read back only after a pause, still gets its
/// whole response and a clean EOF.
#[test]
fn pipelined_bytes_do_not_reset_a_served_response() {
    let dir = tmp_dir("linger");
    let server = Server::start(ServeConfig {
        dir: dir.clone(),
        workers: 1,
        port: 0,
        resume: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut bytes = b"GET /healthz HTTP/1.1\r\n\r\n".to_vec();
    bytes.extend(std::iter::repeat_n(b'#', 64 << 10));
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(&bytes).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .expect("response read to a clean EOF");
    let response = String::from_utf8(response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
