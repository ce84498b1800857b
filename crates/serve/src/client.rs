//! A minimal keep-alive HTTP/1.1 client — the client's side of the wire
//! protocol [`crate::http`] serves.
//!
//! Like the server half, this exists because the sandbox is offline and the
//! workspace vendors no HTTP stack. It speaks exactly the subset the serve
//! layer emits: one `Content-Length`-framed JSON response per request over a
//! persistent connection. [`write_request`] and [`read_response`] are the
//! workspace's one request writer and one response reader: [`HttpClient`]
//! is built on them, and so are the loadtest, the `serve_client` example and
//! the server tests, which drive raw connections. Every request of an
//! [`HttpClient`] is bounded by a **whole-exchange deadline** (connect +
//! write + read), so a stalled peer turns into
//! [`ClientError::DeadlineExceeded`] rather than a wedged caller — the
//! property the coordinator's retry/reassignment logic is built on.
//!
//! A [`HttpClient`] keeps its connection open across requests. When a
//! reused connection turns out to be stale (the server closed it between
//! requests — request cap reached or idle deadline expired), the request is
//! transparently retried once on a fresh connection; deadline expiry is
//! never retried, so a stalled worker costs one deadline, not two.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::http::Persistence;

/// Upper bound on a response head (status line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a response body this client is willing to buffer.
const MAX_RESPONSE_BODY_BYTES: usize = 16 << 20;

/// A parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// The status code of the status line.
    pub status: u16,
    /// Response headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: String,
}

impl ClientResponse {
    /// The value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(key, _)| key.eq_ignore_ascii_case(name))
            .map(|(_, value)| value.as_str())
    }

    /// Whether the server announced `connection: close`: it ends the
    /// connection after this response.
    pub fn closes(&self) -> bool {
        self.header("connection")
            .is_some_and(|value| value.eq_ignore_ascii_case("close"))
    }
}

/// Why a request failed.
#[derive(Debug)]
pub enum ClientError {
    /// No connection could be established within the deadline.
    Connect(String),
    /// The connection failed mid-exchange.
    Io(String),
    /// The peer closed the connection before a response arrived.
    Closed,
    /// The bytes on the wire are not a well-formed HTTP/1.1 response.
    BadResponse(String),
    /// The whole exchange did not complete within the caller's deadline.
    DeadlineExceeded,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(why) => write!(f, "connect failed: {why}"),
            ClientError::Io(why) => write!(f, "i/o error: {why}"),
            ClientError::Closed => write!(f, "connection closed before a response"),
            ClientError::BadResponse(why) => write!(f, "bad response: {why}"),
            ClientError::DeadlineExceeded => write!(f, "request deadline exceeded"),
        }
    }
}

/// A keep-alive HTTP/1.1 client bound to one server address.
#[derive(Debug)]
pub struct HttpClient {
    addr: String,
    stream: Option<TcpStream>,
}

impl HttpClient {
    /// A client for `addr` (`host:port`). No connection is made until the
    /// first request.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            stream: None,
        }
    }

    /// The address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Issues one request and reads its response, all within `deadline`.
    ///
    /// The connection is kept open afterwards unless the server answered
    /// `connection: close`. A stale kept-alive connection (EOF or I/O error
    /// before any response byte) is retried once on a fresh connection
    /// within the same deadline; [`ClientError::DeadlineExceeded`] is never
    /// retried.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        deadline: Duration,
    ) -> Result<ClientResponse, ClientError> {
        let started = Instant::now();
        let reused = self.stream.is_some();
        match self.try_request(method, path, body, started, deadline) {
            Ok(response) => Ok(response),
            Err(error) => {
                self.stream = None;
                let retryable = matches!(error, ClientError::Io(_) | ClientError::Closed);
                if reused && retryable {
                    let retried = self.try_request(method, path, body, started, deadline);
                    if retried.is_err() {
                        self.stream = None;
                    }
                    retried
                } else {
                    Err(error)
                }
            }
        }
    }

    /// Convenience: `GET path` with an empty body.
    pub fn get(&mut self, path: &str, deadline: Duration) -> Result<ClientResponse, ClientError> {
        self.request("GET", path, "", deadline)
    }

    /// Convenience: `POST path` with a JSON body.
    pub fn post(
        &mut self,
        path: &str,
        body: &str,
        deadline: Duration,
    ) -> Result<ClientResponse, ClientError> {
        self.request("POST", path, body, deadline)
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        started: Instant,
        deadline: Duration,
    ) -> Result<ClientResponse, ClientError> {
        if self.stream.is_none() {
            let remaining = remaining(started, deadline)?;
            let resolved = self
                .addr
                .to_socket_addrs()
                .map_err(|error| ClientError::Connect(error.to_string()))?
                .next()
                .ok_or_else(|| {
                    ClientError::Connect(format!("`{}` resolves to no address", self.addr))
                })?;
            let stream = TcpStream::connect_timeout(&resolved, remaining)
                .map_err(|error| ClientError::Connect(error.to_string()))?;
            let _ = stream.set_nodelay(true);
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().ok_or(ClientError::Closed)?;

        // Write the request, bounded by the remaining deadline.
        let _ = stream.set_write_timeout(Some(remaining(started, deadline)?));
        write_request(
            stream,
            &self.addr,
            method,
            path,
            body,
            Persistence::KeepAlive,
        )?;
        let mut carry = Vec::with_capacity(1024);
        let response = read_response(stream, &mut carry, started, deadline)?;
        // Strictly one response per request: surplus bytes mean the framing
        // drifted, so resynchronize by dropping the connection.
        if response.closes() || !carry.is_empty() {
            self.stream = None;
        }
        Ok(response)
    }
}

/// Writes one JSON request: `method path` with `body` framed by
/// `content-length`, and a `connection` header that asks the server to keep
/// the connection open or to close it after answering.
pub fn write_request(
    stream: &mut TcpStream,
    host: &str,
    method: &str,
    path: &str,
    body: &str,
    persistence: Persistence,
) -> Result<(), ClientError> {
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nhost: {host}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: {}\r\n\r\n",
        body.len(),
        persistence.header_value()
    );
    request.push_str(body);
    stream.write_all(request.as_bytes()).map_err(map_io)
}

/// Reads one `Content-Length`-framed response off `stream` within
/// `deadline` of `started`.
///
/// `carry` holds the bytes already read off this connection but not yet
/// consumed: the response is parsed from them first, the socket is read only
/// for what is missing, and bytes past the response (a pipelined follow-up)
/// stay in `carry` for the next call. A connection that ends before the
/// first byte of the response is [`ClientError::Closed`].
pub fn read_response(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
    started: Instant,
    deadline: Duration,
) -> Result<ClientResponse, ClientError> {
    // Head: read until the blank line.
    let head_end = loop {
        if let Some(position) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break position;
        }
        if carry.len() > MAX_HEAD_BYTES {
            return Err(ClientError::BadResponse(format!(
                "response head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        if deadline_read(stream, carry, started, deadline)? == 0 {
            return Err(if carry.is_empty() {
                ClientError::Closed
            } else {
                ClientError::BadResponse("connection closed mid-head".to_string())
            });
        }
    };

    let (status, headers, content_length) = {
        let head = carry
            .get(..head_end)
            .and_then(|head| std::str::from_utf8(head).ok())
            .ok_or_else(|| ClientError::BadResponse("response head is not utf-8".to_string()))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let mut parts = status_line.splitn(3, ' ');
        let (version, status) = match (parts.next(), parts.next()) {
            (Some(version), Some(code)) => (version, code),
            _ => {
                return Err(ClientError::BadResponse(format!(
                    "malformed status line `{status_line}`"
                )))
            }
        };
        if !version.starts_with("HTTP/1.") {
            return Err(ClientError::BadResponse(format!(
                "unsupported protocol `{version}`"
            )));
        }
        let status: u16 = status.parse().map_err(|_| {
            ClientError::BadResponse(format!("non-numeric status in `{status_line}`"))
        })?;

        let mut headers: Vec<(String, String)> = Vec::new();
        let mut content_length = 0usize;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| ClientError::BadResponse("bad content-length".to_string()))?;
            }
            headers.push((name, value));
        }
        (status, headers, content_length)
    };
    if content_length > MAX_RESPONSE_BODY_BYTES {
        return Err(ClientError::BadResponse(format!(
            "response body of {content_length} bytes exceeds the {MAX_RESPONSE_BODY_BYTES}\
             -byte client limit"
        )));
    }

    // Body: whatever followed the head, plus the rest off the socket.
    let body_start = head_end.saturating_add(4);
    let body_end = body_start.saturating_add(content_length);
    while carry.len() < body_end {
        if deadline_read(stream, carry, started, deadline)? == 0 {
            return Err(ClientError::BadResponse(
                "connection closed mid-body".to_string(),
            ));
        }
    }
    let body = String::from_utf8(carry.get(body_start..body_end).unwrap_or_default().to_vec())
        .map_err(|_| ClientError::BadResponse("response body is not utf-8".to_string()))?;
    // Consume this response; pipelined follow-up bytes stay for the next call.
    carry.drain(..body_end.min(carry.len()));
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// One `read` bounded by the time left before the deadline, appended to
/// `buffer`; returns how many bytes arrived (0 = orderly EOF).
fn deadline_read(
    stream: &mut TcpStream,
    buffer: &mut Vec<u8>,
    started: Instant,
    deadline: Duration,
) -> Result<usize, ClientError> {
    let _ = stream.set_read_timeout(Some(remaining(started, deadline)?));
    let mut chunk = [0u8; 4096];
    let read = stream.read(&mut chunk).map_err(map_io)?;
    buffer.extend_from_slice(chunk.get(..read).unwrap_or(&[]));
    Ok(read)
}

fn remaining(started: Instant, deadline: Duration) -> Result<Duration, ClientError> {
    let remaining = deadline.saturating_sub(started.elapsed());
    if remaining.is_zero() {
        Err(ClientError::DeadlineExceeded)
    } else {
        Ok(remaining)
    }
}

fn map_io(error: std::io::Error) -> ClientError {
    match error.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            ClientError::DeadlineExceeded
        }
        _ => ClientError::Io(error.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const DEADLINE: Duration = Duration::from_secs(5);

    /// Serves `responses` verbatim, one per request read, on one connection.
    fn canned_server(
        responses: Vec<String>,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for response in responses {
                // Read until the end of the request head (requests here have
                // empty or small bodies; the blank line is enough to sync).
                let mut seen = Vec::new();
                let mut chunk = [0u8; 1024];
                loop {
                    let read = stream.read(&mut chunk).unwrap();
                    if read == 0 {
                        return;
                    }
                    seen.extend_from_slice(&chunk[..read]);
                    if seen.windows(4).any(|w| w == b"\r\n\r\n") {
                        break;
                    }
                }
                stream.write_all(response.as_bytes()).unwrap();
            }
        });
        (addr, handle)
    }

    fn framed(status: u16, headers: &str, body: &str) -> String {
        format!(
            "HTTP/1.1 {status} X\r\ncontent-length: {}\r\n{headers}\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn requests_parse_status_headers_and_body_over_keep_alive() {
        let (addr, server) = canned_server(vec![
            framed(200, "x-mochy-cache: miss\r\n", "{\"a\":1}"),
            framed(404, "", "{\"error\":{}}"),
        ]);
        let mut client = HttpClient::new(addr.to_string());
        let first = client.get("/v1/healthz", DEADLINE).unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.body, "{\"a\":1}");
        assert_eq!(first.header("x-mochy-cache"), Some("miss"));
        assert_eq!(first.header("X-Mochy-Cache"), Some("miss"));
        // Second exchange rides the same connection.
        let second = client.post("/v1/count", "{}", DEADLINE).unwrap();
        assert_eq!(second.status, 404);
        assert_eq!(second.body, "{\"error\":{}}");
        server.join().unwrap();
    }

    #[test]
    fn stalled_servers_hit_the_deadline_not_a_hang() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Accept, read the request, answer nothing for a while.
            let (mut stream, _) = listener.accept().unwrap();
            let mut chunk = [0u8; 1024];
            let _ = stream.read(&mut chunk);
            std::thread::sleep(Duration::from_millis(700));
        });
        let mut client = HttpClient::new(addr.to_string());
        let started = Instant::now();
        let result = client.get("/v1/healthz", Duration::from_millis(150));
        assert!(
            matches!(result, Err(ClientError::DeadlineExceeded)),
            "{result:?}"
        );
        assert!(started.elapsed() < Duration::from_millis(600));
        server.join().unwrap();
    }

    #[test]
    fn stale_keep_alive_connections_are_retried_once() {
        // First connection serves one response then closes; the second
        // request must transparently land on a fresh connection.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for body in ["first", "second"] {
                let (mut stream, _) = listener.accept().unwrap();
                let mut chunk = [0u8; 1024];
                let _ = stream.read(&mut chunk).unwrap();
                stream.write_all(framed(200, "", body).as_bytes()).unwrap();
                // Dropping the stream closes the connection after one
                // exchange, leaving the client's keep-alive handle stale.
            }
        });
        let mut client = HttpClient::new(addr.to_string());
        assert_eq!(client.get("/a", DEADLINE).unwrap().body, "first");
        assert_eq!(client.get("/b", DEADLINE).unwrap().body, "second");
        server.join().unwrap();
    }

    #[test]
    fn malformed_responses_are_typed_errors() {
        let padded_head = format!(
            "HTTP/1.1 200 OK\r\nx-pad: {}\r\ncontent-length: 0\r\n\r\n",
            "a".repeat(2 * MAX_HEAD_BYTES)
        );
        // Each response, with the error it must produce: the `Display` form
        // names the variant and carries its message.
        let cases = [
            (
                "HTTP/1.1 two-hundred OK\r\ncontent-length: 0\r\n\r\n".to_string(),
                "bad response: non-numeric status in `HTTP/1.1 two-hundred OK`",
            ),
            (
                padded_head,
                "bad response: response head exceeds 16384 bytes",
            ),
            (
                format!(
                    "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n",
                    MAX_RESPONSE_BODY_BYTES + 1
                ),
                "bad response: response body of 16777217 bytes exceeds the 16777216-byte client \
                 limit",
            ),
            (
                "HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\n{\"a\"".to_string(),
                "bad response: connection closed mid-body",
            ),
            (
                "HTTP/1.1 200 OK\r\ncontent-length: ten\r\n\r\n".to_string(),
                "bad response: bad content-length",
            ),
            (String::new(), "connection closed before a response"),
        ];
        for (response, expected) in cases {
            let (addr, server) = canned_server(vec![response]);
            let mut client = HttpClient::new(addr.to_string());
            let error = client.get("/", DEADLINE).unwrap_err();
            assert_eq!(error.to_string(), expected, "{error:?}");
            server.join().unwrap();
        }
    }

    #[test]
    fn pipelined_responses_survive_arbitrary_read_boundaries() {
        // Two responses written back to back, dripped at every possible
        // split point: one carry buffer must yield both, whole and in order,
        // wherever the reads land.
        let raw = framed(200, "x-mochy-cache: miss\r\n", "{\"a\":1}") + &framed(404, "", "{}");
        for split in 1..raw.len() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let (first_half, second_half) = raw.as_bytes().split_at(split);
            let (first_half, second_half) = (first_half.to_vec(), second_half.to_vec());
            let writer = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                stream.write_all(&first_half).unwrap();
                stream.flush().unwrap();
                std::thread::sleep(Duration::from_millis(2));
                stream.write_all(&second_half).unwrap();
            });
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut carry = Vec::new();
            let started = Instant::now();
            let first = read_response(&mut stream, &mut carry, started, DEADLINE)
                .unwrap_or_else(|e| panic!("split {split}: first response failed: {e}"));
            assert_eq!(first.status, 200, "split {split}");
            assert_eq!(first.body, "{\"a\":1}", "split {split}");
            assert_eq!(first.header("x-mochy-cache"), Some("miss"), "split {split}");
            let second = read_response(&mut stream, &mut carry, started, DEADLINE)
                .unwrap_or_else(|e| panic!("split {split}: second response failed: {e}"));
            assert_eq!(second.status, 404, "split {split}");
            assert_eq!(second.body, "{}", "split {split}");
            assert!(carry.is_empty(), "split {split}");
            writer.join().unwrap();
        }
    }
}
