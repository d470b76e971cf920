//! A deliberately tiny HTTP/1.1 layer over `std::net::TcpStream` — just
//! enough for the service's JSON API (request line + headers + sized body,
//! one request per connection, `Connection: close`). Keeping it in-tree
//! keeps the workspace hermetic; the API surface is four methods on five
//! routes, not a web framework's worth of generality.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest request body the server accepts (study specs are < 1 KiB).
const MAX_BODY: usize = 1 << 20;

/// Largest request line plus headers the server reads before answering 400,
/// so a header that never ends (or ten thousand of them) cannot grow a
/// connection's buffers without bound.
const MAX_HEAD: usize = 16 << 10;

/// How long a client gets to deliver a complete request — one deadline for
/// the whole request, not a per-read limit. The server spawns one thread per
/// connection, so without it a client that connects and stalls, trickles
/// bytes, or under-delivers its Content-Length would pin a thread forever.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, `DELETE`, ...
    pub method: String,
    /// Path component only (no query handling — the API doesn't use one).
    pub path: String,
    /// Raw body bytes (UTF-8 JSON for this API).
    pub body: String,
    /// Parsed `Last-Event-ID` header: the event-stream resume cursor a
    /// reconnecting SSE client sends (unparseable values read as absent).
    pub last_event_id: Option<u64>,
}

/// Why a request could not be read: the status code to answer with (400 for
/// malformed framing, 408 for a client that stalled past [`READ_TIMEOUT`])
/// and the message for the JSON error body.
#[derive(Debug)]
pub struct RequestError {
    /// HTTP status to answer with.
    pub code: u16,
    /// Human-readable cause.
    pub message: String,
}

impl RequestError {
    fn bad(message: String) -> RequestError {
        RequestError { code: 400, message }
    }

    fn io(context: &str, e: &std::io::Error) -> RequestError {
        let code = match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => 408,
            _ => 400,
        };
        RequestError {
            code,
            message: format!("{context}: {e}"),
        }
    }
}

/// The socket as a reader with one deadline: every read waits at most what
/// is left of it (`SO_RCVTIMEO`), and a read after it fails with `TimedOut`.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads one `\n`-terminated head line, charging its bytes to `budget`: the
/// line that would take the head past [`MAX_HEAD`] is a 400, and so is one
/// the client cut off by closing before its newline.
fn read_head_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
    what: &str,
) -> Result<String, RequestError> {
    let mut line = Vec::new();
    let n = reader
        .take(*budget as u64 + 1)
        .read_until(b'\n', &mut line)
        .map_err(|e| RequestError::io(what, &e))?;
    if n > *budget {
        return Err(RequestError::bad(format!(
            "request line and headers exceed {MAX_HEAD} bytes"
        )));
    }
    if !line.ends_with(b"\n") {
        return Err(RequestError::bad(format!(
            "{what}: connection closed mid-line"
        )));
    }
    *budget -= n;
    String::from_utf8(line).map_err(|_| RequestError::bad(format!("{what}: not UTF-8")))
}

/// Reads one request from the stream, answering `Err` on malformed framing
/// (400) or a request not complete within [`READ_TIMEOUT`] (408); the
/// caller writes the error response and closes.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, RequestError> {
    read_request_with_timeout(stream, READ_TIMEOUT)
}

/// [`read_request`] with an explicit timeout (separated out for tests).
fn read_request_with_timeout(
    stream: &mut TcpStream,
    timeout: Duration,
) -> Result<Request, RequestError> {
    let mut reader = BufReader::new(DeadlineReader {
        stream,
        deadline: Instant::now() + timeout,
    });
    let mut budget = MAX_HEAD;
    let line = read_head_line(&mut reader, &mut budget, "read request line")?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_uppercase();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || !path.starts_with('/') {
        return Err(RequestError::bad(format!("malformed request line: {line:?}")));
    }
    let mut content_length = 0usize;
    let mut last_event_id = None;
    loop {
        let header = read_head_line(&mut reader, &mut budget, "read header")?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((key, value)) = header.split_once(':') {
            let key = key.trim();
            if key.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| RequestError::bad(format!("bad content-length: {value:?}")))?;
            } else if key.eq_ignore_ascii_case("last-event-id") {
                last_event_id = value.trim().parse().ok();
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(RequestError::bad(format!(
            "body too large ({content_length} bytes)"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| RequestError::io("read body", &e))?;
    let body =
        String::from_utf8(body).map_err(|_| RequestError::bad("body is not UTF-8".to_string()))?;
    Ok(Request {
        method,
        path,
        body,
        last_event_id,
    })
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        408 => "Request Timeout",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes one response and flushes. `content_type` is `application/json`
/// for API routes, `text/plain` for rendered reports.
pub fn write_response(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(code),
        body.len()
    );
    // A client that hung up mid-response is its own problem; the server
    // moves on either way.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Writes the head of a close-delimited streaming response (no
/// Content-Length; the body ends when the server closes the connection,
/// which is how this `Connection: close` server frames SSE). Returns
/// whether the head reached the client.
pub fn write_stream_head(stream: &mut TcpStream, content_type: &str) -> bool {
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n"
    );
    stream.write_all(head.as_bytes()).is_ok() && stream.flush().is_ok()
}

/// JSON error body shared by every failure path.
pub fn error_body(message: &str) -> String {
    format!("{{\"error\":\"{}\"}}", volcanoml_obs::json::escape(message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Shutdown, TcpListener};

    /// Connects a client running `client` and reads one request from the
    /// server side with `timeout`, answering as the server does (200 when it
    /// parses). The client then holds its end open until the server closes
    /// it; a write or read the server's close cuts short is a closed socket,
    /// which the corpus accepts.
    fn serve_one(
        timeout: Duration,
        client: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            client(&mut s);
            let _ = s.read_to_end(&mut Vec::new());
        });
        let (mut stream, _) = listener.accept().unwrap();
        let result = read_request_with_timeout(&mut stream, timeout);
        let code = result.as_ref().map_or_else(|e| e.code, |_| 200);
        write_response(&mut stream, code, "application/json", "{}");
        drop(stream);
        client.join().unwrap();
        result
    }

    /// [`serve_one`] for a client that sends `bytes` in one write.
    fn serve_bytes(bytes: Vec<u8>) -> Result<Request, RequestError> {
        serve_one(READ_TIMEOUT, move |s| {
            let _ = s.write_all(&bytes);
        })
    }

    fn status(result: Result<Request, RequestError>) -> u16 {
        result.map_or_else(|e| e.code, |_| 200)
    }

    #[test]
    fn parses_request_with_body() {
        let req = serve_bytes(
            b"POST /studies HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}".to_vec(),
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/studies");
        assert_eq!(req.body, "{}");
    }

    #[test]
    fn parses_last_event_id_header() {
        let req =
            serve_bytes(b"GET /studies/a/events HTTP/1.1\r\nLast-Event-ID: 42\r\n\r\n".to_vec())
                .unwrap();
        assert_eq!(req.last_event_id, Some(42));
    }

    #[test]
    fn rejects_malformed_request_line() {
        assert_eq!(status(serve_bytes(b"garbage\r\n\r\n".to_vec())), 400);
    }

    #[test]
    fn stalled_client_times_out_with_408() {
        // Promise 100 body bytes, deliver none: without a deadline the
        // server-side read_exact would block forever.
        let result = serve_one(Duration::from_millis(100), |s| {
            s.write_all(b"POST /studies HTTP/1.1\r\nContent-Length: 100\r\n\r\n")
                .unwrap();
        });
        assert_eq!(status(result), 408);
    }

    /// One header line four times the head limit, never terminated.
    #[test]
    fn oversized_header_line_is_a_400() {
        let mut bytes = b"GET /studies HTTP/1.1\r\nX-Big: ".to_vec();
        bytes.resize(bytes.len() + 4 * MAX_HEAD, b'a');
        assert_eq!(status(serve_bytes(bytes)), 400);
    }

    /// Ten thousand short headers: each line is fine, their sum is not.
    #[test]
    fn header_flood_is_a_400() {
        let mut bytes = b"GET /studies HTTP/1.1\r\n".to_vec();
        for _ in 0..10_000 {
            bytes.extend_from_slice(b"X-A: b\r\n");
        }
        bytes.extend_from_slice(b"\r\n");
        assert_eq!(status(serve_bytes(bytes)), 400);
    }

    #[test]
    fn negative_non_numeric_and_oversized_content_lengths_are_400s() {
        for length in [
            "-5".to_string(),
            "twelve".to_string(),
            "99999999999999999999999".to_string(),
            (MAX_BODY + 1).to_string(),
        ] {
            let head = format!("POST /studies HTTP/1.1\r\nContent-Length: {length}\r\n\r\n{{}}");
            assert_eq!(
                status(serve_bytes(head.into_bytes())),
                400,
                "Content-Length: {length}"
            );
        }
    }

    #[test]
    fn non_utf8_body_is_a_400() {
        let bytes = b"POST /studies HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe".to_vec();
        assert_eq!(status(serve_bytes(bytes)), 400);
    }

    /// A head the client cuts off by closing its side before the blank line.
    #[test]
    fn truncated_head_is_a_400() {
        let result = serve_one(READ_TIMEOUT, |s| {
            s.write_all(b"GET /healthz HTTP/1.1\r\nHost: x").unwrap();
            s.shutdown(Shutdown::Write).unwrap();
        });
        assert_eq!(status(result), 400);
    }

    /// One header byte every 20 ms never lets a single read wait 200 ms, so
    /// only a whole-request deadline stops it.
    #[test]
    fn trickled_header_hits_the_request_deadline() {
        let result = serve_one(Duration::from_millis(200), |s| {
            let head = format!(
                "GET /studies HTTP/1.1\r\nX-Slow: {}\r\n\r\n",
                "z".repeat(40)
            );
            for b in head.bytes() {
                if s.write_all(&[b]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        assert_eq!(status(result), 408);
    }

    /// Bytes after a complete request are never read: the request parses
    /// as sent, and the connection closes after its one response.
    #[test]
    fn garbage_pipelined_after_a_request_is_ignored() {
        let mut bytes = b"POST /studies HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}".to_vec();
        bytes.extend_from_slice(b"\x00\xff\r\nNOT HTTP\r\n\r\n");
        bytes.extend(std::iter::repeat_n(b'#', 4096));
        let req = serve_bytes(bytes).unwrap();
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/studies")
        );
        assert_eq!(req.body, "{}");
    }
}
