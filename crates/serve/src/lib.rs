//! `mochy-serve` — a concurrent motif-query service over shared dataset
//! snapshots.
//!
//! The counting engines of this workspace were, until now, only drivable as
//! a CLI/bench harness: every question about a hypergraph paid a full
//! process start and a full recount. The paper frames h-motif profiles as a
//! *query* primitive — characteristic profiles are compared across datasets
//! and re-requested by downstream analyses — which is exactly the access
//! pattern a long-lived caching service should own. This crate is that
//! service layer:
//!
//! - [`registry`] — named datasets as **immutable snapshots**
//!   (`Arc<Hypergraph>`): readers grab the current snapshot with one brief
//!   pointer clone and then compute entirely lock-free on it; a mutation
//!   serializes through a per-dataset writer (a
//!   [`StreamingEngine`](mochy_core::streaming::StreamingEngine), so counts
//!   are maintained incrementally) and *publishes a fresh snapshot* by
//!   swapping the shared pointer. Readers that started on the old snapshot
//!   finish on the old snapshot — queries are always internally consistent.
//! - [`api`] — the versioned JSON API under `/v1`: `GET /v1/healthz`,
//!   `GET /v1/datasets`, `POST /v1/datasets` (ingest an uploaded base64
//!   `.mochy` snapshot as a fresh dataset), `POST /v1/count`,
//!   `POST /v1/profile`, `POST /v1/mutate`, `POST /v1/admin/shutdown`, and
//!   the worker-internal `POST /v1/internal/count-shard`. The pre-versioning
//!   paths (`/healthz`, `/count`, …, `POST /shutdown`) remain as deprecated
//!   aliases answering identical bytes plus a `deprecation: true` header.
//!   Errors share one envelope: `{"error": {"code", "kind", "message",
//!   "detail"?}}`. Responses are rendered deterministically (no timestamps
//!   or timings in cacheable bodies) and memoized in an LRU
//!   [`api::QueryCache`] keyed by `(dataset, generation, normalized query)`
//!   — a cache hit returns the exact bytes the uncached run produced.
//! - [`http`] — a hand-rolled HTTP/1.1 front end over
//!   `std::net::TcpListener` (the sandbox is offline and vendors no HTTP
//!   stack; the subset implemented here — persistent keep-alive connections,
//!   pipelined requests out of a rolling buffer, `Content-Length` bodies —
//!   is all the API needs). `Connection: keep-alive|close` is honored, and
//!   every wait is bounded by an idle deadline between requests plus a
//!   whole-request deadline within one.
//! - [`server`] — the accept loop, driven by the shared
//!   [`mochy_hypergraph::parallel::WorkerPool`]: connections are handed to a
//!   fixed set of resident workers through a **bounded** queue, and a worker
//!   owns its connection for the whole keep-alive session (up to a
//!   per-connection request cap). When the queue is full the accept loop
//!   answers `503 Service Unavailable` inline instead of blocking —
//!   explicit backpressure, so overload never wedges accept.
//! - [`worker`], [`coordinator`], [`client`] — multi-process shard fan-out
//!   over one `.mochy` snapshot: a `--worker` loads and projects the whole
//!   snapshot at boot and answers `POST /v1/internal/count-shard` for any
//!   shard; a `--coordinator` reads the same file for its sizes and
//!   checksum and scatters a `POST /v1/count` across its worker set, one
//!   shard per worker, over keep-alive HTTP ([`client::HttpClient`]). Every
//!   shard request names the snapshot checksum, and a worker holding a
//!   different file refuses it. The coordinator gathers and merges the
//!   [`ShardPartial`](mochy_core::shard::ShardPartial)s in fixed shard
//!   order — bit-identical to the unsharded count, with deadline-bounded
//!   requests and retry/reassignment around dead or mismatched workers.
//!
//! ```no_run
//! use mochy_hypergraph::HypergraphBuilder;
//! use mochy_serve::registry::Registry;
//! use mochy_serve::server::{Server, ServerConfig};
//!
//! let registry = Registry::new();
//! registry.insert(
//!     "fig2",
//!     HypergraphBuilder::new()
//!         .with_edge([0u32, 1, 2])
//!         .with_edge([0, 3, 1])
//!         .with_edge([4, 5, 0])
//!         .with_edge([6, 7, 2])
//!         .build()
//!         .unwrap(),
//! );
//! let server = Server::start(ServerConfig::default(), registry).unwrap();
//! println!("listening on {}", server.local_addr());
//! server.wait(); // until POST /shutdown
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod b64;
pub mod client;
pub mod coordinator;
pub mod http;
pub mod registry;
pub mod server;
pub mod worker;
