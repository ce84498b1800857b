//! A minimal HTTP/1.1 front end: persistent (keep-alive) request reading
//! over a rolling per-connection buffer, and a response writer.
//!
//! The sandbox is offline and the workspace vendors no HTTP stack, so the
//! serve layer speaks the small, well-defined subset of HTTP/1.1 its JSON
//! API needs: persistent connections with `Content-Length`-delimited bodies
//! and pipelined requests parsed out of a rolling buffer. `Connection:
//! keep-alive|close` is honored (HTTP/1.1 defaults to keep-alive, HTTP/1.0
//! to close); there is no chunked transfer. Every parse failure is an error
//! value — client-supplied bytes must never panic the server — and every
//! wait is bounded: a fresh request must *start* within the caller's idle
//! deadline and *complete* within the request deadline, so neither silent
//! nor slow-drip clients can pin a worker.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method (`GET`, `POST`, …), uppercase as sent.
    pub method: String,
    /// The request path, query string stripped (the API uses none).
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: String,
    /// Whether the client allows the connection to persist after this
    /// exchange: `Connection: close` (or HTTP/1.0 without an explicit
    /// `keep-alive`) turns it off.
    pub keep_alive: bool,
}

/// Whether the connection persists after a response is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Persistence {
    /// The connection stays open for further exchanges.
    KeepAlive,
    /// The connection closes after this response.
    Close,
}

impl Persistence {
    /// The value of the `connection:` header that announces it.
    pub(crate) fn header_value(self) -> &'static str {
        match self {
            Persistence::KeepAlive => "keep-alive",
            Persistence::Close => "close",
        }
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// The bytes on the wire are not a well-formed HTTP/1.1 request.
    BadRequest(String),
    /// The declared `Content-Length` exceeds the configured limit.
    PayloadTooLarge(usize),
    /// The socket failed or timed out before a full request arrived.
    Io(std::io::Error),
    /// The peer closed the connection cleanly between requests — the normal
    /// end of a keep-alive session, not an error to answer.
    Closed,
    /// No new request started within the idle deadline; the caller should
    /// close the idle connection silently.
    IdleTimeout,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::BadRequest(why) => write!(f, "bad request: {why}"),
            RequestError::PayloadTooLarge(limit) => {
                write!(f, "request body exceeds {limit} bytes")
            }
            RequestError::Io(error) => write!(f, "i/o error: {error}"),
            RequestError::Closed => write!(f, "connection closed between requests"),
            RequestError::IdleTimeout => write!(f, "no request within the idle deadline"),
        }
    }
}

/// The receive side of one persistent connection: a rolling buffer that
/// survives across requests, so bytes of a pipelined follow-up request that
/// arrive in the same `read` as the current one are kept, not dropped.
#[derive(Debug, Default)]
pub struct ConnectionBuffer {
    buffer: Vec<u8>,
}

impl ConnectionBuffer {
    /// An empty rolling buffer for a fresh connection.
    pub fn new() -> Self {
        Self {
            buffer: Vec::with_capacity(1024),
        }
    }

    /// Bytes buffered but not yet consumed by a parsed request (a non-empty
    /// value means a pipelined request is already in flight).
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }
}

/// Reads the next HTTP/1.1 request of a persistent connection.
///
/// Timing is two-phase, which is what makes keep-alive safe to serve from a
/// bounded worker pool:
///
/// - **idle phase** — while the rolling buffer is empty and no byte of a
///   new request has arrived, the wait is bounded by `idle_deadline`;
///   expiry is [`RequestError::IdleTimeout`] (close silently, nothing to
///   answer). A clean EOF here is [`RequestError::Closed`].
/// - **request phase** — from the first buffered byte, the *whole* request
///   must complete within `request_deadline` (a per-read timeout alone
///   would reset on every byte, letting a slow-drip client hold a resident
///   worker indefinitely).
///
/// Bodies larger than `max_body_bytes` are rejected without being read.
/// Bytes beyond the parsed request (pipelined follow-ups) stay in `rolling`
/// for the next call.
pub fn read_request(
    stream: &mut TcpStream,
    rolling: &mut ConnectionBuffer,
    max_body_bytes: usize,
    idle_deadline: Duration,
    request_deadline: Duration,
) -> Result<Request, RequestError> {
    // Idle phase: wait (bounded) for the first byte of a new request.
    if rolling.buffer.is_empty() {
        let mut chunk = [0u8; 1024];
        let _ = stream.set_read_timeout(Some(idle_deadline.max(Duration::from_millis(1))));
        match stream.read(&mut chunk) {
            Ok(0) => return Err(RequestError::Closed),
            Ok(read) => rolling
                .buffer
                .extend_from_slice(chunk.get(..read).unwrap_or(chunk.as_slice())),
            Err(error)
                if matches!(
                    error.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(RequestError::IdleTimeout)
            }
            Err(error) => return Err(RequestError::Io(error)),
        }
    }

    // Request phase: the clock starts at the first byte.
    let started = Instant::now();
    // One bounded read: caps each wait at the time left before the overall
    // request deadline, and maps deadline exhaustion to a timeout error.
    let deadline_read = |stream: &mut TcpStream, chunk: &mut [u8]| -> Result<usize, RequestError> {
        let remaining = request_deadline.saturating_sub(started.elapsed());
        if remaining.is_zero() {
            return Err(RequestError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request did not complete within the deadline",
            )));
        }
        // set_read_timeout rejects a zero Duration; `remaining` is non-zero.
        let _ = stream.set_read_timeout(Some(remaining));
        stream.read(chunk).map_err(RequestError::Io)
    };

    // Read until the blank line terminating the head.
    let buffer = &mut rolling.buffer;
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(position) = find_head_end(buffer) {
            break position;
        }
        if buffer.len() > MAX_HEAD_BYTES {
            return Err(RequestError::BadRequest(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        let read = deadline_read(stream, &mut chunk)?;
        if read == 0 {
            return Err(RequestError::BadRequest(
                "connection closed mid-request".to_string(),
            ));
        }
        buffer.extend_from_slice(chunk.get(..read).unwrap_or(chunk.as_slice()));
    };

    // Parse the head into owned values: the borrow must end before the body
    // loop extends (and finally drains) the buffer.
    let (method, path, keep_alive, content_length) = {
        let head = buffer
            .get(..head_end)
            .and_then(|head| std::str::from_utf8(head).ok())
            .ok_or_else(|| RequestError::BadRequest("request head is not utf-8".to_string()))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
                _ => {
                    return Err(RequestError::BadRequest(format!(
                        "malformed request line `{request_line}`"
                    )))
                }
            };
        if !version.starts_with("HTTP/1.") {
            return Err(RequestError::BadRequest(format!(
                "unsupported protocol `{version}`"
            )));
        }
        // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
        // `Connection` header overrides either default.
        let mut keep_alive = version != "HTTP/1.0";

        let mut content_length = 0usize;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| RequestError::BadRequest("bad content-length".to_string()))?;
            } else if name.eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
        let path = target.split('?').next().unwrap_or(target).to_string();
        (method.to_string(), path, keep_alive, content_length)
    };
    if content_length > max_body_bytes {
        return Err(RequestError::PayloadTooLarge(max_body_bytes));
    }

    // The body: whatever followed the head in the buffer, plus the rest.
    // `body_end` cannot overflow: both terms are bounded by the head and
    // body caps just enforced.
    let body_start = head_end.saturating_add(4);
    let body_end = body_start.saturating_add(content_length);
    while buffer.len() < body_end {
        let read = deadline_read(stream, &mut chunk)?;
        if read == 0 {
            return Err(RequestError::BadRequest(
                "connection closed mid-body".to_string(),
            ));
        }
        buffer.extend_from_slice(chunk.get(..read).unwrap_or(chunk.as_slice()));
    }
    let body = buffer
        .get(body_start..body_end)
        .unwrap_or_default()
        .to_vec();
    // Consume this request; pipelined follow-up bytes stay for the next call.
    buffer.drain(..body_end.min(buffer.len()));
    let body = String::from_utf8(body)
        .map_err(|_| RequestError::BadRequest("request body is not utf-8".to_string()))?;

    Ok(Request {
        method,
        path,
        body,
        keep_alive,
    })
}

fn find_head_end(buffer: &[u8]) -> Option<usize> {
    buffer.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The reason phrase of the status codes the API emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete HTTP/1.1 response with a JSON body. `persistence`
/// controls the `connection:` header — the caller decides whether the
/// exchange ends the session (client asked to close, request cap reached,
/// error, shutdown) or the connection stays open for the next request.
/// Write errors are returned for the caller to log-and-drop; a client that
/// hung up mid-response is its own problem.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
    persistence: Persistence,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n",
        reason(status),
        body.len(),
        persistence.header_value()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    use std::time::Duration;

    const IDLE: Duration = Duration::from_secs(10);
    const REQUEST: Duration = Duration::from_secs(10);

    /// Round-trips raw bytes through a loopback socket into `read_request`.
    fn parse_raw(raw: &[u8]) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&raw).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let mut rolling = ConnectionBuffer::new();
        let request = read_request(&mut stream, &mut rolling, 4096, IDLE, REQUEST);
        writer.join().unwrap();
        request
    }

    #[test]
    fn parses_get_and_post_requests() {
        let request = parse_raw(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/healthz");
        assert_eq!(request.body, "");
        assert!(request.keep_alive, "HTTP/1.1 defaults to keep-alive");

        let request =
            parse_raw(b"POST /count?x=1 HTTP/1.1\r\nContent-Length: 7\r\nHost: x\r\n\r\n{\"a\":1}")
                .unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/count");
        assert_eq!(request.body, "{\"a\":1}");
    }

    #[test]
    fn connection_header_and_version_drive_keep_alive() {
        let close = parse_raw(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close.keep_alive);
        let case = parse_raw(b"GET / HTTP/1.1\r\nCONNECTION: Close\r\n\r\n").unwrap();
        assert!(
            !case.keep_alive,
            "header name and value are case-insensitive"
        );
        let old = parse_raw(b"GET / HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        assert!(!old.keep_alive, "HTTP/1.0 defaults to close");
        let old_ka = parse_raw(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(
            old_ka.keep_alive,
            "explicit keep-alive overrides the 1.0 default"
        );
    }

    #[test]
    fn pipelined_requests_parse_from_one_buffer() {
        // Two requests sent back-to-back in a single write: the first parse
        // must leave the second intact in the rolling buffer, and the second
        // parse must not need any fresh socket bytes.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(
                    b"POST /count HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}\
                      GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
                )
                .unwrap();
            // Keep the socket open so reads would block, proving the second
            // request comes from the buffer alone.
            std::thread::sleep(Duration::from_millis(300));
        });
        let (mut stream, _) = listener.accept().unwrap();
        let mut rolling = ConnectionBuffer::new();
        let first = read_request(&mut stream, &mut rolling, 4096, IDLE, REQUEST).unwrap();
        assert_eq!(first.path, "/count");
        assert_eq!(first.body, "{\"a\":1}");
        assert!(rolling.pending() > 0, "second request must be buffered");
        let second = read_request(
            &mut stream,
            &mut rolling,
            4096,
            IDLE,
            Duration::from_millis(100),
        )
        .unwrap();
        assert_eq!(second.path, "/healthz");
        assert!(!second.keep_alive);
        assert_eq!(rolling.pending(), 0);
        writer.join().unwrap();
    }

    #[test]
    fn pipelined_requests_survive_arbitrary_read_boundaries() {
        // The same two-request byte stream, dripped at every possible split
        // point: the rolling buffer must reassemble both requests no matter
        // where the reads land.
        let raw: &[u8] = b"POST /count HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}\
                           GET /healthz HTTP/1.1\r\n\r\n";
        for split in 1..raw.len() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let (first_half, second_half) = (raw[..split].to_vec(), raw[split..].to_vec());
            let writer = std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(&first_half).unwrap();
                stream.flush().unwrap();
                std::thread::sleep(Duration::from_millis(2));
                stream.write_all(&second_half).unwrap();
            });
            let (mut stream, _) = listener.accept().unwrap();
            let mut rolling = ConnectionBuffer::new();
            let first = read_request(&mut stream, &mut rolling, 4096, IDLE, REQUEST)
                .unwrap_or_else(|e| panic!("split {split}: first request failed: {e}"));
            assert_eq!(first.path, "/count", "split {split}");
            assert_eq!(first.body, "{\"a\":1}", "split {split}");
            let second = read_request(&mut stream, &mut rolling, 4096, IDLE, REQUEST)
                .unwrap_or_else(|e| panic!("split {split}: second request failed: {e}"));
            assert_eq!(second.path, "/healthz", "split {split}");
            writer.join().unwrap();
        }
    }

    #[test]
    fn rejects_malformed_and_oversized_requests() {
        assert!(matches!(
            parse_raw(b"NOT-HTTP\r\n\r\n"),
            Err(RequestError::BadRequest(_))
        ));
        assert!(matches!(
            parse_raw(b"GET / SPDY/3\r\n\r\n"),
            Err(RequestError::BadRequest(_))
        ));
        assert!(matches!(
            parse_raw(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
            Err(RequestError::BadRequest(_))
        ));
        assert!(matches!(
            parse_raw(b"POST / HTTP/1.1\r\nContent-Length: 100000\r\n\r\n"),
            Err(RequestError::PayloadTooLarge(_))
        ));
        assert!(matches!(
            parse_raw(b"GET / HTTP/1.1\r\nHo"),
            Err(RequestError::BadRequest(_))
        ));
    }

    #[test]
    fn clean_close_and_idle_silence_report_their_own_variants() {
        // EOF before any byte of a new request: Closed, not BadRequest.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            drop(stream);
        });
        let (mut stream, _) = listener.accept().unwrap();
        let mut rolling = ConnectionBuffer::new();
        let result = read_request(&mut stream, &mut rolling, 4096, IDLE, REQUEST);
        assert!(matches!(result, Err(RequestError::Closed)), "{result:?}");
        writer.join().unwrap();

        // A connection that sends nothing within the idle deadline: the
        // caller learns it timed out idle (close silently), distinct from a
        // mid-request timeout (answer 408).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let _stream = TcpStream::connect(addr).unwrap();
            std::thread::sleep(Duration::from_millis(500));
        });
        let (mut stream, _) = listener.accept().unwrap();
        let mut rolling = ConnectionBuffer::new();
        let started = Instant::now();
        let result = read_request(
            &mut stream,
            &mut rolling,
            4096,
            Duration::from_millis(100),
            REQUEST,
        );
        assert!(
            matches!(result, Err(RequestError::IdleTimeout)),
            "{result:?}"
        );
        assert!(started.elapsed() < Duration::from_secs(2));
        writer.join().unwrap();
    }

    #[test]
    fn slow_drip_requests_hit_the_overall_deadline() {
        // A client that keeps trickling bytes resets any per-read timeout,
        // but must not outlive the per-request deadline.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            // Drip a byte every 50 ms, far more often than any read times
            // out, without ever finishing the head.
            for _ in 0..40 {
                if stream.write_all(b"G").is_err() {
                    return; // server gave up — exactly what we assert below
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let (mut stream, _) = listener.accept().unwrap();
        let started = std::time::Instant::now();
        let mut rolling = ConnectionBuffer::new();
        let result = read_request(
            &mut stream,
            &mut rolling,
            4096,
            IDLE,
            Duration::from_millis(300),
        );
        assert!(
            matches!(result, Err(RequestError::Io(_))),
            "slow drip must time out, got {result:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "deadline did not bound the request"
        );
        drop(stream);
        writer.join().unwrap();
    }

    #[test]
    fn response_writer_emits_parseable_http() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            write_response(
                &mut stream,
                200,
                &[("x-test", "yes")],
                "{\"ok\":true}",
                Persistence::Close,
            )
            .unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        writer.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("x-test: yes\r\n"));
        assert!(response.contains("connection: close\r\n"));
        assert!(response.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn keep_alive_responses_carry_the_persistent_header() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            write_response(&mut stream, 200, &[], "{}", Persistence::KeepAlive).unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut head = [0u8; 256];
        let read = stream.read(&mut head).unwrap();
        let head = std::str::from_utf8(&head[..read]).unwrap();
        writer.join().unwrap();
        assert!(head.contains("connection: keep-alive\r\n"), "{head}");
    }
}
