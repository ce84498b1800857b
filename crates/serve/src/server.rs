//! The TCP accept loop: bounded dispatch onto the shared worker pool.
//!
//! The accept loop does exactly two cheap things per connection — accept and
//! `try_execute` onto a [`WorkerPool`] — so it can never be wedged by a slow
//! request or a slow client. Request reading, JSON handling, and counting
//! all happen on the pool's resident workers; a worker owns its connection
//! for the whole keep-alive session, serving pipelined requests back to back
//! until the client closes, the per-connection request cap is reached, or
//! the idle deadline expires. When every worker is busy and the bounded
//! queue is full, the loop answers `503 Service Unavailable` inline (with a
//! tiny JSON body and `connection: close`) and moves on. Overload degrades
//! service, it never stops it.
//!
//! Shutdown is cooperative: `POST /v1/admin/shutdown` (or
//! [`Server::shutdown`]) sets a flag and pokes the listener with a wake
//! connection so the blocking `accept` returns. Queued requests drain before
//! the workers exit, and persistent connections close after their in-flight
//! exchange.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mochy_hypergraph::parallel::{PoolSaturated, WorkerPool};

use crate::api::{self, ApiContext, QueryCache, Role};
use crate::http::{self, Persistence, RequestError};
use crate::registry::Registry;

/// Upper bound on bytes drained from an overloaded connection before the
/// inline 503 is written (see the overload arm of the accept loop).
const MAX_OVERLOAD_DRAIN_BYTES: usize = 64 * 1024;

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Resident request workers. Each busy worker owns one keep-alive
    /// connection, so this is also the concurrent-connection ceiling.
    pub workers: usize,
    /// Bounded queue of accepted-but-unclaimed connections beyond the busy
    /// workers; when full, new connections get 503.
    pub queue_depth: usize,
    /// Rendered-response cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Ceiling on the per-query `threads` parameter.
    pub max_threads: usize,
    /// Bound on each exchange's I/O: the total time allowed to read one
    /// request (a deadline, so slow-drip clients cannot pin a worker) and
    /// the per-call write timeout for the response.
    pub io_timeout: Duration,
    /// Maximum accepted request-body size, in bytes.
    pub max_body_bytes: usize,
    /// Requests served on one connection before the server closes it —
    /// bounds how long a single client can monopolize a resident worker.
    pub max_requests_per_connection: usize,
    /// How long a persistent connection may sit idle between requests
    /// before the server closes it silently.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 16,
            cache_capacity: 64,
            max_threads: 4,
            io_timeout: Duration::from_secs(10),
            max_body_bytes: 1 << 20,
            max_requests_per_connection: 128,
            idle_timeout: Duration::from_secs(5),
        }
    }
}

/// The per-connection limits a worker enforces, split out of
/// [`ServerConfig`] so a connection job captures one small `Copy` value.
#[derive(Debug, Clone, Copy)]
struct ConnectionLimits {
    max_body_bytes: usize,
    request_timeout: Duration,
    idle_timeout: Duration,
    max_requests: usize,
}

impl ConnectionLimits {
    fn from_config(config: &ServerConfig) -> Self {
        Self {
            max_body_bytes: config.max_body_bytes,
            request_timeout: config.io_timeout,
            idle_timeout: config.idle_timeout,
            max_requests: config.max_requests_per_connection.max(1),
        }
    }
}

/// A running `mochy-serve` instance.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, spins up the worker pool, and starts accepting
    /// as a standalone (non-distributed) instance.
    pub fn start(config: ServerConfig, registry: Registry) -> std::io::Result<Server> {
        Server::start_with_role(config, registry, Role::Standalone)
    }

    /// Like [`Server::start`], but with an explicit distributed [`Role`]:
    /// a shard worker ([`Role::Worker`]) or a fan-out coordinator
    /// ([`Role::Coordinator`]).
    pub fn start_with_role(
        config: ServerConfig,
        registry: Registry,
        role: Role,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let context = Arc::new(ApiContext {
            registry,
            cache: QueryCache::new(config.cache_capacity),
            max_threads: config.max_threads.max(1),
            num_workers: config.workers.max(1),
            queue_depth: config.queue_depth,
            max_requests_per_connection: config.max_requests_per_connection.max(1),
            idle_timeout_ms: u64::try_from(config.idle_timeout.as_millis()).unwrap_or(u64::MAX),
            started: Instant::now(),
            role,
        });
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::spawn(move || {
            accept_loop(&listener, local_addr, &config, &context, &accept_shutdown);
        });
        Ok(Server {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests shutdown and wakes the accept loop. Idempotent; does not
    /// wait — follow with [`Server::wait`] (or drop the server) to join.
    pub fn shutdown(&self) {
        request_shutdown(&self.shutdown, self.local_addr);
    }

    /// Blocks until the accept loop exits (via [`Server::shutdown`] or
    /// `POST /v1/admin/shutdown`), then joins it. The worker pool drains its
    /// queued requests before this returns.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            request_shutdown(&self.shutdown, self.local_addr);
            let _ = handle.join();
        }
    }
}

fn request_shutdown(shutdown: &AtomicBool, addr: SocketAddr) {
    shutdown.store(true, Ordering::SeqCst);
    // Wake the blocking accept; any connection attempt does.
    let _ = TcpStream::connect(addr);
}

fn accept_loop(
    listener: &TcpListener,
    local_addr: SocketAddr,
    config: &ServerConfig,
    context: &Arc<ApiContext>,
    shutdown: &Arc<AtomicBool>,
) {
    // Dropped at the end of this function: joins the workers only after the
    // queued connections have been served.
    let pool = WorkerPool::new(config.workers, config.queue_depth);
    let limits = ConnectionLimits::from_config(config);
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failures (e.g. fd exhaustion) must not
                // hot-spin the loop.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            break; // the stream (possibly the wake connection) just closes
        }
        let _ = stream.set_write_timeout(Some(config.io_timeout));
        let _ = stream.set_nodelay(true);

        // Keep a handle for the overload answer: the job owns the stream, so
        // a rejected submission hands back an opaque closure, not the socket.
        let overload_handle = stream.try_clone();
        let job_context = Arc::clone(context);
        let job_shutdown = Arc::clone(shutdown);
        let submission = pool.try_execute(move || {
            let mut stream = stream;
            handle_connection(&mut stream, &job_context, &job_shutdown, local_addr, limits);
        });
        match submission {
            Ok(()) => {}
            Err(PoolSaturated(job)) => {
                // Backpressure: drop the queued job (closing its socket
                // clone) and tell the client we are overloaded, inline —
                // this path must stay cheap enough to never wedge accept.
                drop(job);
                if let Ok(mut stream) = overload_handle {
                    // Drain whatever request bytes already arrived, without
                    // blocking: closing a socket with unread received data
                    // turns the close into a TCP reset, which can discard
                    // the 503 before the client reads it. The drain is
                    // capped — a client streaming an endless body at line
                    // rate must not pin the accept thread here.
                    use std::io::Read;
                    let _ = stream.set_nonblocking(true);
                    let mut scratch = [0u8; 4096];
                    let mut drained = 0usize;
                    while drained < MAX_OVERLOAD_DRAIN_BYTES {
                        match stream.read(&mut scratch) {
                            Ok(n) if n > 0 => drained += n,
                            _ => break,
                        }
                    }
                    let _ = stream.set_nonblocking(false);
                    let _ = http::write_response(
                        &mut stream,
                        503,
                        &[("retry-after", "1")],
                        &api::error_body(503, "overloaded", "server overloaded; retry shortly"),
                        Persistence::Close,
                    );
                }
            }
        }
    }
}

/// One keep-alive session, entirely on a worker thread: exchanges loop until
/// the client closes or asks to (`Connection: close`), the request cap is
/// reached, the idle deadline expires, or the server is shutting down.
fn handle_connection(
    stream: &mut TcpStream,
    context: &ApiContext,
    shutdown: &AtomicBool,
    local_addr: SocketAddr,
    limits: ConnectionLimits,
) {
    let mut rolling = http::ConnectionBuffer::new();
    let mut served = 0usize;
    loop {
        // `request_timeout` bounds the whole request read (not just each
        // read call — a slow-drip client must not pin a resident worker),
        // while `idle_timeout` bounds the silent wait *between* requests.
        let request = match http::read_request(
            stream,
            &mut rolling,
            limits.max_body_bytes,
            limits.idle_timeout,
            limits.request_timeout,
        ) {
            Ok(request) => request,
            // The normal ends of a keep-alive session: the peer hung up
            // between requests, or went idle past the deadline. Nothing to
            // answer.
            Err(RequestError::Closed) | Err(RequestError::IdleTimeout) => return,
            Err(error) => {
                let (status, kind) = match &error {
                    RequestError::BadRequest(_) => (400, "bad-request"),
                    RequestError::PayloadTooLarge(_) => (413, "payload-too-large"),
                    _ => (408, "timeout"),
                };
                // Framing is no longer trustworthy after a parse failure, so
                // the error response always closes the connection.
                let _ = http::write_response(
                    stream,
                    status,
                    &[],
                    &api::error_body(status, kind, &error.to_string()),
                    Persistence::Close,
                );
                return;
            }
        };
        served = served.saturating_add(1);
        let response = api::handle(context, &request);
        let closing = !request.keep_alive
            || response.shutdown
            || served >= limits.max_requests
            || shutdown.load(Ordering::SeqCst);
        let persistence = if closing {
            Persistence::Close
        } else {
            Persistence::KeepAlive
        };
        let mut headers: Vec<(&str, &str)> = Vec::new();
        if let Some(state) = response.cache_state {
            headers.push(("x-mochy-cache", state.as_str()));
        }
        let written = http::write_response(
            stream,
            response.status,
            &headers,
            &response.body,
            persistence,
        );
        if response.shutdown {
            request_shutdown(shutdown, local_addr);
        }
        if closing || written.is_err() {
            return;
        }
    }
}
