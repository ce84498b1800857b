//! The JSON API of `mochy-serve`: versioned routing, request parsing, query
//! execution, response rendering, and the byte-identical LRU result cache.
//!
//! Routes are versioned under `/v1` (the only version). The historical
//! unversioned paths remain as **deprecated aliases**: they answer exactly
//! like their `/v1` spelling plus a `deprecation: true` response header, so
//! existing clients keep working while new ones can detect the old spelling.
//! A request under an unknown version prefix (`/v2/...`) is a structured
//! 404 (`kind: "unknown-version"`), distinct from a plain unknown path.
//!
//! | Route | Body | Answer |
//! |---|---|---|
//! | `GET /v1/healthz` | — | liveness, role, dataset/cache/pool stats |
//! | `GET /v1/datasets` | — | registered datasets with generation + sizes |
//! | `POST /v1/datasets` | `{"name", "snapshot"}` | ingests a base64 `.mochy` snapshot as a fresh dataset |
//! | `POST /v1/count` | `{"dataset", "method", …}` | 26 h-motif counts via the [`MotifEngine`] |
//! | `POST /v1/profile` | `{"dataset", "randomizations", …}` | characteristic profile (Eqs. 1–2) |
//! | `POST /v1/mutate` | `{"dataset", "insert", "remove"}` | applies churn, publishes a new snapshot |
//! | `POST /v1/admin/shutdown` | — | acknowledges, then stops the accept loop |
//! | `POST /v1/internal/count-shard` | `{"dataset", "snapshot", "shards", "shard", "threads"}` | one [`ShardPartial`], worker role only (`/v1`-only, no alias) |
//!
//! (`POST /shutdown` aliases `/v1/admin/shutdown`; the other aliases drop
//! the `/v1` prefix.)
//!
//! **Errors.** Every error response carries one uniform envelope,
//! `{"error": {"code", "kind", "message", "detail"?}}`, built through a
//! single typed [`ApiError`] constructor — including transport-level errors
//! (the accept loop's 503, the request reader's 400/408/413) via
//! [`error_body`]. Fan-out partial failures list per-worker outcomes under
//! `detail`.
//!
//! **Determinism and caching.** Every `/count` and `/profile` body is a pure
//! function of `(dataset snapshot, normalized query)`: the engine is
//! seed-deterministic and timings are deliberately excluded from response
//! bodies. Responses are memoized in a [`QueryCache`] keyed by
//! `(dataset, generation, normalized query)`; a hit therefore returns the
//! *exact bytes* the uncached computation produced (the `x-mochy-cache:
//! hit|miss` response header is the only difference). Mutations bump the
//! dataset generation, so stale entries are never served — they simply age
//! out of the LRU.
//!
//! **Misses share their generation's work.** A `/count` miss counts on what
//! its [`Snapshot`] carries instead of starting from the hypergraph: the
//! projected graph, which the generation's first query that counts on one
//! builds, and, for a generation `/mutate` published, the writer's exact
//! counts and |∧|, which answer `mochy-e` queries without `generalized` with
//! no recount. The bodies are byte-identical to counting from scratch, so
//! the cache contract above is unchanged.
//!
//! [`MotifEngine`]: mochy_core::engine::MotifEngine
//! [`ShardPartial`]: mochy_core::shard::ShardPartial

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mochy_analysis::profile::{CountingMethod, ProfileEstimator};
use mochy_core::engine::{wedge_ratio_samples, CountConfig, CountReport, Method};
use mochy_core::shard::merge_partials;
use mochy_core::AdaptiveConfig;
use mochy_hypergraph::{EdgeId, Hypergraph, NodeId};
use mochy_json::{self as json, JsonValue};
use mochy_motif::NUM_MOTIFS;
use mochy_projection::MemoPolicy;

use crate::b64;
use crate::coordinator::{Coordinator, FanoutError};
use crate::http::Request;
use crate::registry::{MutateError, Registry, Snapshot, MAX_NODE_ID};
use crate::worker::{parse_snapshot_hex, snapshot_hex, WorkerState};

/// Hard ceiling on per-request sample counts (keeps a single query bounded).
const MAX_SAMPLES: usize = 1_000_000;
/// Hard ceiling on the shard count K: the `shards` parameter of `/v1/count`
/// and of a worker's `count-shard` request, and a coordinator's peer count.
/// Every shard walks the one projection, so K costs no memory, but each
/// shard is one more partial to compute, ship and merge.
pub(crate) const MAX_SHARDS: usize = 64;
/// Hard ceiling on per-request null-model randomizations.
const MAX_RANDOMIZATIONS: usize = 16;
/// Longest accepted dataset name on the ingestion route.
const MAX_DATASET_NAME: usize = 100;

/// An LRU cache of rendered response bodies.
///
/// Values are `Arc<str>` so a hit hands back the identical allocation; the
/// eviction order is least-recently-*used* (a hit refreshes the entry).
#[derive(Debug)]
pub struct QueryCache {
    capacity: usize,
    /// Back of the vector = most recently used.
    entries: Mutex<Vec<(String, Arc<str>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl QueryCache {
    /// A cache holding at most `capacity` rendered bodies (0 disables
    /// caching entirely).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks `key` up, refreshing its recency. Counts a hit or miss.
    pub fn get(&self, key: &str) -> Option<Arc<str>> {
        // Cache lock poisoning is recoverable at every use: the guarded
        // vector only ever holds complete `(key, Arc<str>)` pairs (the
        // mutations below are remove/push, which never leave a torn entry
        // visible), and a degraded cache must not take down reads.
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(position) = entries.iter().position(|(k, _)| k == key) {
            let entry = entries.remove(position);
            let value = Arc::clone(&entry.1);
            entries.push(entry);
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(value)
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Stores `body` under `key`, evicting the least recently used entry
    /// when full. Re-inserting an existing key refreshes it.
    pub fn put(&self, key: String, body: Arc<str>) {
        if self.capacity == 0 {
            return;
        }
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(position) = entries.iter().position(|(k, _)| *k == key) {
            entries.remove(position);
        } else if entries.len() >= self.capacity {
            entries.remove(0);
        }
        entries.push((key, body));
    }

    /// `(hits, misses, current entry count)`.
    pub fn stats(&self) -> (u64, u64, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.entries
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len(),
        )
    }
}

/// Whether a response was served from the result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// Body returned straight from the cache.
    Hit,
    /// Body computed by this request (and now cached).
    Miss,
}

impl CacheState {
    /// Header value for `x-mochy-cache`.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheState::Hit => "hit",
            CacheState::Miss => "miss",
        }
    }
}

/// A routed API response.
#[derive(Debug)]
pub struct ApiResponse {
    /// HTTP status code.
    pub status: u16,
    /// Rendered JSON body.
    pub body: Arc<str>,
    /// Cache disposition of cacheable routes.
    pub cache_state: Option<CacheState>,
    /// Whether the server should stop accepting after this response.
    pub shutdown: bool,
    /// Whether the request used a deprecated unversioned path alias (the
    /// transport answers with a `deprecation: true` header).
    pub deprecated: bool,
}

impl ApiResponse {
    fn ok(body: impl Into<Arc<str>>) -> Self {
        Self {
            status: 200,
            body: body.into(),
            cache_state: None,
            shutdown: false,
            deprecated: false,
        }
    }
}

/// A request rejected before (or during) execution: the single constructor
/// of the uniform error envelope
/// `{"error": {"code", "kind", "message", "detail"?}}`.
///
/// `kind` is a stable machine-readable discriminator (`"bad-request"`,
/// `"not-found"`, `"unknown-version"`, `"fanout-failed"`, …); `message` is
/// for humans; `detail` carries structured context where one exists (e.g.
/// per-worker outcomes of a failed fan-out).
struct ApiError {
    status: u16,
    kind: &'static str,
    message: String,
    detail: Option<JsonValue>,
}

impl ApiError {
    fn new(status: u16, kind: &'static str, message: impl Into<String>) -> Self {
        Self {
            status,
            kind,
            message: message.into(),
            detail: None,
        }
    }

    fn bad(message: impl Into<String>) -> Self {
        Self::new(400, "bad-request", message)
    }

    fn not_found(message: impl Into<String>) -> Self {
        Self::new(404, "not-found", message)
    }

    fn with_detail(mut self, detail: JsonValue) -> Self {
        self.detail = Some(detail);
        self
    }

    fn into_response(self) -> ApiResponse {
        ApiResponse {
            status: self.status,
            body: render_error(self.status, self.kind, &self.message, self.detail).into(),
            cache_state: None,
            shutdown: false,
            deprecated: false,
        }
    }
}

fn render_error(status: u16, kind: &str, message: &str, detail: Option<JsonValue>) -> String {
    let mut members = vec![
        ("code".to_string(), JsonValue::Number(status as f64)),
        ("kind".to_string(), JsonValue::string(kind)),
        ("message".to_string(), JsonValue::string(message)),
    ];
    if let Some(detail) = detail {
        members.push(("detail".to_string(), detail));
    }
    JsonValue::Object(vec![("error".to_string(), JsonValue::Object(members))]).render()
}

/// Renders an error envelope without going through a handler — the transport
/// layer uses this for parse, timeout, and overload errors, so every
/// response on the wire carries the same `{"error": {...}}` shape.
pub fn error_body(status: u16, kind: &str, message: &str) -> String {
    render_error(status, kind, message, None)
}

/// What this server instance is in a (possibly distributed) deployment.
#[derive(Debug)]
pub enum Role {
    /// A self-contained server: every dataset is local, no fan-out.
    Standalone,
    /// A shard worker: boots from one `.mochy` snapshot that never changes
    /// and answers `POST /v1/internal/count-shard` with serialized partials
    /// for requests that name that snapshot's checksum.
    Worker(Arc<WorkerState>),
    /// A coordinator: reads the same snapshot's sizes and checksum and
    /// scatters `/v1/count` queries for its distributed dataset across a
    /// worker set, one shard per worker.
    Coordinator(Arc<Coordinator>),
}

impl Role {
    /// The role name `/healthz` reports.
    pub fn name(&self) -> &'static str {
        match self {
            Role::Standalone => "standalone",
            Role::Worker(_) => "worker",
            Role::Coordinator(_) => "coordinator",
        }
    }
}

/// Everything the request handlers need, shared across worker threads.
#[derive(Debug)]
pub struct ApiContext {
    /// The datasets this server exposes.
    pub registry: Registry,
    /// The rendered-body result cache.
    pub cache: QueryCache,
    /// Ceiling on the per-query `threads` parameter.
    pub max_threads: usize,
    /// Resident worker count (reported by `/healthz`).
    pub num_workers: usize,
    /// Bounded accept-queue depth (reported by `/healthz`).
    pub queue_depth: usize,
    /// Per-connection keep-alive request cap (reported by `/healthz`).
    pub max_requests_per_connection: usize,
    /// Keep-alive idle deadline, in milliseconds (reported by `/healthz`).
    pub idle_timeout_ms: u64,
    /// Server start time (reported by `/healthz`).
    pub started: Instant,
    /// Standalone, shard worker, or coordinator.
    pub role: Role,
}

/// Where a request path landed after version resolution.
enum Resolved {
    /// A `/v1/...` path, stripped to the canonical route.
    Canonical(String),
    /// An unversioned legacy path, mapped to its canonical route; the
    /// response carries `deprecation: true`.
    Legacy(String),
    /// A `/v{N}/...` prefix for an unsupported version `N`.
    UnknownVersion(String),
}

/// Resolves the versioned route space: `/v1/...` is canonical, a known
/// version prefix other than 1 is rejected as such, and everything else is
/// treated as a legacy alias of the same path (`/shutdown` specifically
/// aliases the canonical `/admin/shutdown`).
fn resolve_path(path: &str) -> Resolved {
    if let Some(rest) = path.strip_prefix("/v1") {
        if rest.is_empty() {
            return Resolved::Canonical("/".to_string());
        }
        if rest.starts_with('/') {
            return Resolved::Canonical(rest.to_string());
        }
    }
    if let Some(rest) = path.strip_prefix("/v") {
        let digits = rest.chars().take_while(char::is_ascii_digit).count();
        let after = rest.get(digits..).unwrap_or("");
        if digits > 0 && (after.is_empty() || after.starts_with('/')) {
            let version = rest.get(..digits).unwrap_or("");
            return Resolved::UnknownVersion(format!("/v{version}"));
        }
    }
    let canonical = match path {
        "/shutdown" => "/admin/shutdown",
        other => other,
    };
    Resolved::Legacy(canonical.to_string())
}

/// Routes a parsed request to its handler.
pub fn handle(ctx: &ApiContext, request: &Request) -> ApiResponse {
    let (canonical, deprecated) = match resolve_path(&request.path) {
        Resolved::Canonical(path) => (path, false),
        Resolved::Legacy(path) => (path, true),
        Resolved::UnknownVersion(prefix) => {
            return ApiError::new(
                404,
                "unknown-version",
                format!(
                    "unknown API version `{prefix}` (supported: /v1; unversioned paths are \
                     deprecated aliases of /v1)"
                ),
            )
            .into_response()
        }
    };
    // Internal routes exist only under /v1 — they are new with the
    // versioned API and deliberately get no legacy alias.
    let internal_only = canonical.starts_with("/internal/");
    let result = if internal_only && deprecated {
        Err(ApiError::not_found(format!(
            "no route for `{}` (internal routes are /v1-only)",
            request.path
        )))
    } else {
        match (request.method.as_str(), canonical.as_str()) {
            ("GET", "/healthz") => Ok(healthz(ctx)),
            ("GET", "/datasets") => Ok(datasets(ctx)),
            ("POST", "/datasets") => ingest(ctx, &request.body),
            ("POST", "/count") => count(ctx, &request.body),
            ("POST", "/profile") => profile(ctx, &request.body),
            ("POST", "/mutate") => mutate(ctx, &request.body),
            ("POST", "/internal/count-shard") => count_shard(ctx, &request.body),
            ("POST", "/admin/shutdown") => Ok(ApiResponse {
                shutdown: true,
                ..ApiResponse::ok(
                    JsonValue::Object(vec![(
                        "status".to_string(),
                        JsonValue::string("shutting-down"),
                    )])
                    .render(),
                )
            }),
            (
                _,
                "/healthz"
                | "/datasets"
                | "/count"
                | "/profile"
                | "/mutate"
                | "/admin/shutdown"
                | "/internal/count-shard",
            ) => Err(ApiError::new(
                405,
                "method-not-allowed",
                format!("method {} not allowed here", request.method),
            )),
            _ => Err(ApiError::not_found(format!(
                "no route for `{}`",
                request.path
            ))),
        }
    };
    let mut response = result.unwrap_or_else(ApiError::into_response);
    response.deprecated = deprecated;
    response
}

fn healthz(ctx: &ApiContext) -> ApiResponse {
    let (hits, misses, entries) = ctx.cache.stats();
    let mut members = vec![
        ("status".to_string(), JsonValue::string("ok")),
        ("role".to_string(), JsonValue::string(ctx.role.name())),
        (
            "datasets".to_string(),
            JsonValue::Number(ctx.registry.len() as f64),
        ),
        (
            "workers".to_string(),
            JsonValue::Number(ctx.num_workers as f64),
        ),
        (
            "queue_depth".to_string(),
            JsonValue::Number(ctx.queue_depth as f64),
        ),
        (
            "uptime_ms".to_string(),
            JsonValue::Number(ctx.started.elapsed().as_millis() as f64),
        ),
        (
            "keep_alive".to_string(),
            JsonValue::Object(vec![
                (
                    "max_requests".to_string(),
                    JsonValue::Number(ctx.max_requests_per_connection as f64),
                ),
                (
                    "idle_ms".to_string(),
                    JsonValue::Number(ctx.idle_timeout_ms as f64),
                ),
            ]),
        ),
        (
            "cache".to_string(),
            JsonValue::Object(vec![
                ("entries".to_string(), JsonValue::Number(entries as f64)),
                ("hits".to_string(), JsonValue::Number(hits as f64)),
                ("misses".to_string(), JsonValue::Number(misses as f64)),
            ]),
        ),
    ];
    match &ctx.role {
        Role::Standalone => {}
        Role::Worker(state) => {
            members.push((
                "worker".to_string(),
                JsonValue::Object(vec![
                    ("dataset".to_string(), JsonValue::string(state.dataset())),
                    (
                        "snapshot".to_string(),
                        JsonValue::String(snapshot_hex(state.snapshot())),
                    ),
                    (
                        "num_nodes".to_string(),
                        JsonValue::Number(state.num_nodes() as f64),
                    ),
                    (
                        "num_edges".to_string(),
                        JsonValue::Number(state.num_edges() as f64),
                    ),
                ]),
            ));
        }
        Role::Coordinator(coordinator) => {
            // The coordinator's health answer includes a live probe of its
            // worker table (each worker's /v1/healthz, short deadline), so
            // operators see reachability, not just configuration.
            let workers: Vec<JsonValue> = coordinator
                .probe_workers()
                .into_iter()
                .map(|(addr, healthy)| {
                    JsonValue::Object(vec![
                        ("addr".to_string(), JsonValue::string(addr)),
                        ("healthy".to_string(), JsonValue::Bool(healthy)),
                    ])
                })
                .collect();
            members.push((
                "fanout".to_string(),
                JsonValue::Object(vec![
                    (
                        "dataset".to_string(),
                        JsonValue::string(coordinator.dataset()),
                    ),
                    (
                        "snapshot".to_string(),
                        JsonValue::String(snapshot_hex(coordinator.snapshot())),
                    ),
                    (
                        "num_shards".to_string(),
                        JsonValue::Number(coordinator.num_shards() as f64),
                    ),
                    (
                        "deadline_ms".to_string(),
                        JsonValue::Number(coordinator.deadline_ms() as f64),
                    ),
                    (
                        "retries".to_string(),
                        JsonValue::Number(coordinator.retries() as f64),
                    ),
                    ("workers".to_string(), JsonValue::Array(workers)),
                ]),
            ));
        }
    }
    ApiResponse::ok(JsonValue::Object(members).render())
}

fn datasets(ctx: &ApiContext) -> ApiResponse {
    let listing: Vec<JsonValue> = ctx
        .registry
        .entries()
        .into_iter()
        .map(|(name, dataset)| {
            let snapshot = dataset.snapshot();
            JsonValue::Object(vec![
                ("name".to_string(), JsonValue::string(name)),
                (
                    "generation".to_string(),
                    JsonValue::Number(snapshot.generation as f64),
                ),
                (
                    "num_nodes".to_string(),
                    JsonValue::Number(snapshot.num_nodes() as f64),
                ),
                (
                    "num_edges".to_string(),
                    JsonValue::Number(snapshot.num_edges() as f64),
                ),
            ])
        })
        .collect();
    ApiResponse::ok(
        JsonValue::Object(vec![("datasets".to_string(), JsonValue::Array(listing))]).render(),
    )
}

// ---------------------------------------------------------------------------
// POST /datasets — snapshot ingestion.

/// Ingests a client-uploaded `.mochy` snapshot (base64 inside the JSON body,
/// keeping the wire JSON-only) as a **fresh** registry entry.
///
/// The snapshot decoder fully validates the payload (magic, version,
/// checksum, offsets, id ranges, incidence transpose) before a hypergraph
/// exists at all, and the same dense-index bound that guards `/mutate`
/// applies to the declared node count — an upload can never translate into
/// an unbounded allocation. Name collisions are a 409: replacing a live
/// dataset under concurrent readers is an operator action, not an upload
/// side effect.
fn ingest(ctx: &ApiContext, body: &str) -> Result<ApiResponse, ApiError> {
    let parsed = parse_body(body)?;
    let name = required_str(&parsed, "name")?.to_string();
    let valid_name = !name.is_empty()
        && name.len() <= MAX_DATASET_NAME
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    if !valid_name {
        return Err(ApiError::bad(format!(
            "`name` must be 1..={MAX_DATASET_NAME} characters of [A-Za-z0-9._-]"
        )));
    }
    let encoded = required_str(&parsed, "snapshot")?;
    let bytes = b64::decode(encoded)
        .map_err(|error| ApiError::bad(format!("`snapshot` is not valid base64: {error}")))?;
    let hypergraph = mochy_hypergraph::snapshot::read_snapshot_bytes(&bytes).map_err(|error| {
        ApiError::bad(format!("`snapshot` is not a valid .mochy file: {error}"))
    })?;
    if hypergraph.num_nodes() > MAX_NODE_ID as usize + 1 {
        return Err(ApiError::bad(format!(
            "snapshot declares {} nodes, above the maximum {} (node ids are a dense index)",
            hypergraph.num_nodes(),
            MAX_NODE_ID as usize + 1
        )));
    }
    let dataset = ctx
        .registry
        .insert_new(&name, hypergraph)
        .map_err(|error| ApiError::new(409, "conflict", error))?;
    let snapshot = dataset.snapshot();
    Ok(ApiResponse {
        status: 201,
        ..ApiResponse::ok(
            JsonValue::Object(vec![
                ("dataset".to_string(), JsonValue::string(name)),
                (
                    "generation".to_string(),
                    JsonValue::Number(snapshot.generation as f64),
                ),
                (
                    "num_nodes".to_string(),
                    JsonValue::Number(snapshot.num_nodes() as f64),
                ),
                (
                    "num_edges".to_string(),
                    JsonValue::Number(snapshot.num_edges() as f64),
                ),
            ])
            .render(),
        )
    })
}

// ---------------------------------------------------------------------------
// Request-body field helpers (client-supplied JSON must never panic).

fn parse_body(body: &str) -> Result<JsonValue, ApiError> {
    if body.trim().is_empty() {
        return Err(ApiError::bad("request body must be a JSON object"));
    }
    let value = json::parse(body).map_err(|e| ApiError::bad(format!("invalid JSON: {e}")))?;
    if matches!(value, JsonValue::Object(_)) {
        Ok(value)
    } else {
        Err(ApiError::bad("request body must be a JSON object"))
    }
}

fn required_str<'a>(body: &'a JsonValue, key: &str) -> Result<&'a str, ApiError> {
    body.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ApiError::bad(format!("missing or non-string `{key}`")))
}

fn optional_usize(
    body: &JsonValue,
    key: &str,
    default: usize,
    max: usize,
) -> Result<usize, ApiError> {
    match body.get(key) {
        None => Ok(default),
        Some(value) => {
            let n = value
                .as_u64()
                .ok_or_else(|| ApiError::bad(format!("`{key}` must be a non-negative integer")))?;
            if n as usize > max {
                return Err(ApiError::bad(format!("`{key}` must be at most {max}")));
            }
            Ok(n as usize)
        }
    }
}

/// The `ratio` field of the wedge-ratio methods: defaults to 0.1, must be a
/// finite number in (0, 100] when present (a wrong *type* is an error, not a
/// silent fallback to the default).
fn optional_ratio(body: &JsonValue) -> Result<f64, ApiError> {
    let ratio = match body.get("ratio") {
        None => 0.1,
        Some(value) => value
            .as_f64()
            .ok_or_else(|| ApiError::bad("`ratio` must be a number in (0, 100]"))?,
    };
    if ratio.is_finite() && 0.0 < ratio && ratio <= 100.0 {
        Ok(ratio)
    } else {
        Err(ApiError::bad("`ratio` must be a number in (0, 100]"))
    }
}

fn optional_u64(body: &JsonValue, key: &str, default: u64) -> Result<u64, ApiError> {
    match body.get(key) {
        None => Ok(default),
        Some(value) => value
            .as_u64()
            .ok_or_else(|| ApiError::bad(format!("`{key}` must be a non-negative integer"))),
    }
}

fn f64_array(values: &[f64]) -> JsonValue {
    JsonValue::Array(values.iter().map(|&v| JsonValue::Number(v)).collect())
}

// ---------------------------------------------------------------------------
// POST /count

/// A normalized `/count` query: parsing fills every default, so rendering
/// [`CountQuery::canonical`] yields the same key for every spelling of the
/// same query.
struct CountQuery {
    dataset: String,
    method: Method,
    threads: usize,
    /// Scatter-gather shard count for exact counting (1 = unsharded). The
    /// merged report is bit-identical either way, but the parameter is part
    /// of the cache key: it changes how the answer is computed, and the key
    /// must record exactly what was asked.
    shards: usize,
    seed: u64,
    generalized: Option<u32>,
}

impl CountQuery {
    /// The canonical cache-key fragment (generation is appended by the
    /// caller).
    fn canonical(&self) -> String {
        let mut members = vec![("method".to_string(), JsonValue::string(self.method.name()))];
        match self.method {
            Method::Exact => {}
            Method::EdgeSample { samples } | Method::WedgeSample { samples } => {
                members.push(("samples".to_string(), JsonValue::Number(samples as f64)));
            }
            Method::WedgeSampleRatio { ratio } => {
                members.push(("ratio".to_string(), JsonValue::Number(ratio)));
            }
            Method::Adaptive(config) => {
                members.push((
                    "batch_size".to_string(),
                    JsonValue::Number(config.batch_size as f64),
                ));
            }
            Method::OnTheFly {
                samples,
                budget_entries,
                ..
            } => {
                members.push(("samples".to_string(), JsonValue::Number(samples as f64)));
                members.push((
                    "budget".to_string(),
                    JsonValue::Number(budget_entries as f64),
                ));
            }
        }
        members.push((
            "threads".to_string(),
            JsonValue::Number(self.threads as f64),
        ));
        members.push(("shards".to_string(), JsonValue::Number(self.shards as f64)));
        members.push(("seed".to_string(), JsonValue::Number(self.seed as f64)));
        members.push((
            "generalized".to_string(),
            self.generalized
                .map_or(JsonValue::Null, |k| JsonValue::Number(k as f64)),
        ));
        JsonValue::Object(members).render()
    }
}

fn parse_count_query(ctx: &ApiContext, body: &str) -> Result<CountQuery, ApiError> {
    let body = parse_body(body)?;
    let dataset = required_str(&body, "dataset")?.to_string();
    let samples = optional_usize(&body, "samples", 2_000, MAX_SAMPLES)?.max(1);
    let method_name = body
        .get("method")
        .map(|value| {
            value
                .as_str()
                .ok_or_else(|| ApiError::bad("`method` must be a string"))
        })
        .transpose()?
        .unwrap_or("mochy-e");
    let method = match method_name {
        "mochy-e" | "exact" => Method::Exact,
        "mochy-a" | "edge-sample" => Method::EdgeSample { samples },
        "mochy-a+" | "wedge-sample" => Method::WedgeSample { samples },
        "mochy-a+-ratio" | "wedge-ratio" => Method::WedgeSampleRatio {
            ratio: optional_ratio(&body)?,
        },
        "mochy-a+-adaptive" | "adaptive" => Method::Adaptive(AdaptiveConfig {
            batch_size: (samples / 8).max(1),
            min_batches: 2,
            max_batches: 8,
            target_relative_error: 0.05,
        }),
        "mochy-a+-otf" | "otf" => Method::OnTheFly {
            samples,
            budget_entries: optional_usize(&body, "budget", 4_096, 1 << 24)?.max(1),
            policy: MemoPolicy::Lru,
        },
        other => {
            return Err(ApiError::bad(format!(
                "unknown method `{other}` (expected mochy-e, mochy-a, mochy-a+, \
                 mochy-a+-ratio, mochy-a+-adaptive, or mochy-a+-otf)"
            )))
        }
    };
    let generalized = match body.get("generalized") {
        None | Some(JsonValue::Null) => None,
        Some(value) => match value.as_u64() {
            Some(k @ 3..=4) => Some(k as u32),
            _ => return Err(ApiError::bad("`generalized` must be 3 or 4")),
        },
    };
    // Sharded counting is an exact-only execution strategy; rejecting the
    // combination here keeps the engine's `Method::Exact` assertion out of
    // reach of untrusted bodies.
    let shards = optional_usize(&body, "shards", 1, MAX_SHARDS)?.max(1);
    if shards > 1 && !matches!(method, Method::Exact) {
        return Err(ApiError::bad(
            "`shards` above 1 requires the exact method (`mochy-e`)",
        ));
    }
    Ok(CountQuery {
        dataset,
        method,
        threads: optional_usize(&body, "threads", 1, ctx.max_threads)?.max(1),
        shards,
        seed: optional_u64(&body, "seed", 0)?,
        generalized,
    })
}

fn count(ctx: &ApiContext, body: &str) -> Result<ApiResponse, ApiError> {
    let query = parse_count_query(ctx, body)?;
    if let Role::Coordinator(coordinator) = &ctx.role {
        if query.dataset == coordinator.dataset() {
            return count_distributed(ctx, coordinator, &query);
        }
    }
    let dataset = ctx
        .registry
        .get(&query.dataset)
        .ok_or_else(|| ApiError::not_found(format!("unknown dataset `{}`", query.dataset)))?;
    let snapshot = dataset.snapshot();
    let key = format!(
        "count:{}@{}:{}",
        query.dataset,
        snapshot.generation,
        query.canonical()
    );
    if let Some(body) = ctx.cache.get(&key) {
        return Ok(ApiResponse {
            status: 200,
            body,
            cache_state: Some(CacheState::Hit),
            shutdown: false,
            deprecated: false,
        });
    }
    let body: Arc<str> = render_count(&query, &snapshot)?.into();
    ctx.cache.put(key, Arc::clone(&body));
    Ok(ApiResponse {
        status: 200,
        body,
        cache_state: Some(CacheState::Miss),
        shutdown: false,
        deprecated: false,
    })
}

/// Renders the deterministic body of `query` on the snapshot.
///
/// An exact query without `generalized` renders the counts and |∧| the
/// dataset's writer published with the snapshot, when it did: they are
/// MoCHy-E's, bit for bit, and neither `threads` nor `shards` changes an
/// exact body. Every other query runs the engine, on the snapshot's
/// projection when the method counts on one (see [`count_on_snapshot`]).
///
/// The config builders are fallible ([`mochy_core::engine::ConfigError`]):
/// `parse_count_query` already rejects the invalid combinations with
/// field-specific messages, so hitting a `ConfigError` here would mean the
/// two validations drifted apart — it still maps to a clean 400, never a
/// panic.
fn render_count(query: &CountQuery, snapshot: &Snapshot) -> Result<String, ApiError> {
    let mut config = CountConfig::new(query.method)
        .threads(query.threads)
        .seed(query.seed);
    if query.shards > 1 {
        config = config
            .shards(query.shards)
            .map_err(|error| ApiError::bad(error.to_string()))?;
    }
    if let Some(k) = query.generalized {
        config = config
            .generalized(k)
            .map_err(|error| ApiError::bad(error.to_string()))?;
    }
    let computed;
    let (counts, num_hyperwedges, samples_drawn, generalized) =
        match (snapshot.hypergraph.as_deref(), &snapshot.streamed) {
            // The emptied dataset renders no report (zero counts and
            // `num_hyperwedges: null`), although its writer holds zero
            // counts and |∧| = 0.
            (None, _) => (None, None, None, None),
            (Some(_), Some(streamed)) if query.method.is_exact() && query.generalized.is_none() => {
                (
                    Some(&streamed.counts),
                    Some(streamed.num_hyperwedges),
                    None,
                    None,
                )
            }
            (Some(hypergraph), _) => {
                computed = count_on_snapshot(query, config, hypergraph, snapshot)?;
                (
                    Some(&computed.counts),
                    computed.num_hyperwedges,
                    computed.samples_drawn,
                    computed.generalized.as_ref(),
                )
            }
        };

    let counts: Vec<f64> = counts.map_or_else(|| vec![0.0; NUM_MOTIFS], |c| c.as_slice().to_vec());
    let mut members = vec![
        (
            "generation".to_string(),
            JsonValue::Number(snapshot.generation as f64),
        ),
        ("method".to_string(), JsonValue::string(query.method.name())),
        ("seed".to_string(), JsonValue::Number(query.seed as f64)),
        ("shards".to_string(), JsonValue::Number(query.shards as f64)),
        (
            "num_nodes".to_string(),
            JsonValue::Number(snapshot.num_nodes() as f64),
        ),
        (
            "num_edges".to_string(),
            JsonValue::Number(snapshot.num_edges() as f64),
        ),
        (
            "num_hyperwedges".to_string(),
            num_hyperwedges.map_or(JsonValue::Null, |w| JsonValue::Number(w as f64)),
        ),
        (
            "samples_drawn".to_string(),
            samples_drawn.map_or(JsonValue::Null, |s| JsonValue::Number(s as f64)),
        ),
        (
            "total".to_string(),
            JsonValue::Number(counts.iter().sum::<f64>()),
        ),
        ("counts".to_string(), f64_array(&counts)),
    ];
    members.push((
        "generalized".to_string(),
        match generalized {
            None => JsonValue::Null,
            Some(general) => JsonValue::Object(vec![
                ("k".to_string(), JsonValue::Number(general.k() as f64)),
                (
                    "num_motifs".to_string(),
                    JsonValue::Number(general.as_slice().len() as f64),
                ),
                (
                    "total".to_string(),
                    JsonValue::Number(general.total() as f64),
                ),
                (
                    "support".to_string(),
                    JsonValue::Number(general.support() as f64),
                ),
                (
                    "top".to_string(),
                    JsonValue::Array(
                        general
                            .top(10)
                            .into_iter()
                            .map(|(id, count)| {
                                JsonValue::Array(vec![
                                    JsonValue::Number(id as f64),
                                    JsonValue::Number(count as f64),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        },
    ));
    Ok(JsonValue::Object(members).render())
}

/// Runs the engine on the snapshot's hypergraph. A method that counts on
/// the projected graph, and any query with `generalized`, uses the
/// snapshot's projection, which the first such query of a generation
/// builds. On-the-fly queries without `generalized` never build it. A
/// `mochy-a+-ratio` query is checked against [`MAX_SAMPLES`] before it
/// samples.
fn count_on_snapshot(
    query: &CountQuery,
    config: CountConfig,
    hypergraph: &Hypergraph,
    snapshot: &Snapshot,
) -> Result<CountReport, ApiError> {
    let engine = config.build();
    let uses_projection =
        query.generalized.is_some() || !matches!(query.method, Method::OnTheFly { .. });
    match uses_projection
        .then(|| snapshot.projection(query.threads))
        .flatten()
    {
        Some(projected) => {
            if let Method::WedgeSampleRatio { ratio } = query.method {
                ratio_samples(projected.num_hyperwedges(), ratio)?;
            }
            Ok(engine.count_projected(hypergraph, projected))
        }
        None => Ok(engine.count(hypergraph)),
    }
}

/// The samples a `mochy-a+-ratio` query draws from `num_hyperwedges`
/// hyperwedges, computed exactly as the engine computes them
/// ([`wedge_ratio_samples`]), or a 400 naming `ratio` when they exceed
/// [`MAX_SAMPLES`].
fn ratio_samples(num_hyperwedges: usize, ratio: f64) -> Result<usize, ApiError> {
    let samples = wedge_ratio_samples(num_hyperwedges, ratio);
    if samples > MAX_SAMPLES {
        return Err(ApiError::bad(format!(
            "`ratio` {ratio} draws {samples} samples from {num_hyperwedges} hyperwedges, above \
             the maximum {MAX_SAMPLES}"
        )));
    }
    Ok(samples)
}

// ---------------------------------------------------------------------------
// POST /v1/count, coordinator fan-out path

/// Answers `/v1/count` for the coordinator's distributed dataset: scatter
/// one shard per worker, gather the partials, and merge them in fixed shard
/// order ([`merge_partials`]).
///
/// The body is rendered with the same field set and the same exact-integer
/// `f64` counts as a standalone `/count` on the same snapshot, so
/// `counts`/`total`/`num_hyperwedges` are **bit-identical** to the
/// unsharded run (both paths convert exact integer tallies to `f64` far
/// below 2^53 and add them exactly, and the shortest-round-trip JSON numbers
/// survive the worker wire format bit-exactly). Merged bodies are memoized
/// in the same [`QueryCache`], so a repeat query is a byte-identical cache
/// hit without touching any worker.
fn count_distributed(
    ctx: &ApiContext,
    coordinator: &Coordinator,
    query: &CountQuery,
) -> Result<ApiResponse, ApiError> {
    if !matches!(query.method, Method::Exact) {
        return Err(ApiError::bad(format!(
            "dataset `{}` is distributed; only the exact method (`mochy-e`) fans out",
            query.dataset
        )));
    }
    if query.generalized.is_some() {
        return Err(ApiError::bad(format!(
            "`generalized` is not available on the distributed dataset `{}`",
            query.dataset
        )));
    }
    if query.shards > 1 {
        return Err(ApiError::bad(format!(
            "dataset `{}` is split into one shard per worker ({} shards); omit `shards`",
            query.dataset,
            coordinator.num_shards()
        )));
    }
    // The distributed dataset is immutable (generation 0 forever), so the
    // cache key never goes stale.
    let key = format!("count:{}@0:{}", query.dataset, query.canonical());
    if let Some(body) = ctx.cache.get(&key) {
        return Ok(ApiResponse {
            status: 200,
            body,
            cache_state: Some(CacheState::Hit),
            shutdown: false,
            deprecated: false,
        });
    }
    let partials = coordinator
        .scatter_gather(query.threads)
        .map_err(fanout_error)?;
    let (counts, num_hyperwedges) = merge_partials(&partials);
    let counts = counts.as_slice().to_vec();
    let body: Arc<str> = JsonValue::Object(vec![
        ("generation".to_string(), JsonValue::Number(0.0)),
        ("method".to_string(), JsonValue::string(query.method.name())),
        ("seed".to_string(), JsonValue::Number(query.seed as f64)),
        (
            "shards".to_string(),
            JsonValue::Number(coordinator.num_shards() as f64),
        ),
        (
            "num_nodes".to_string(),
            JsonValue::Number(coordinator.num_nodes() as f64),
        ),
        (
            "num_edges".to_string(),
            JsonValue::Number(coordinator.num_edges() as f64),
        ),
        (
            "num_hyperwedges".to_string(),
            JsonValue::Number(num_hyperwedges as f64),
        ),
        ("samples_drawn".to_string(), JsonValue::Null),
        (
            "total".to_string(),
            JsonValue::Number(counts.iter().sum::<f64>()),
        ),
        ("counts".to_string(), f64_array(&counts)),
        ("generalized".to_string(), JsonValue::Null),
    ])
    .render()
    .into();
    ctx.cache.put(key, Arc::clone(&body));
    Ok(ApiResponse {
        status: 200,
        body,
        cache_state: Some(CacheState::Miss),
        shutdown: false,
        deprecated: false,
    })
}

/// Maps a failed fan-out to the error envelope: 502 with per-shard,
/// per-worker outcomes under `detail` (partial-failure forensics belong in
/// the response, not just the coordinator's stderr).
fn fanout_error(FanoutError { failures, gathered }: FanoutError) -> ApiError {
    let shards: Vec<JsonValue> = failures
        .iter()
        .map(|failure| {
            let attempts: Vec<JsonValue> = failure
                .attempts
                .iter()
                .map(|attempt| {
                    JsonValue::Object(vec![
                        ("worker".to_string(), JsonValue::string(&attempt.worker)),
                        ("error".to_string(), JsonValue::string(&attempt.error)),
                    ])
                })
                .collect();
            JsonValue::Object(vec![
                ("shard".to_string(), JsonValue::Number(failure.shard as f64)),
                ("attempts".to_string(), JsonValue::Array(attempts)),
            ])
        })
        .collect();
    let message = format!(
        "distributed count failed: {} shard(s) unserved after retries ({gathered} gathered)",
        failures.len()
    );
    ApiError::new(502, "fanout-failed", message).with_detail(JsonValue::Object(vec![
        ("gathered".to_string(), JsonValue::Number(gathered as f64)),
        ("failed_shards".to_string(), JsonValue::Array(shards)),
    ]))
}

// ---------------------------------------------------------------------------
// POST /v1/internal/count-shard (worker role only)

/// Computes one shard's [`ShardPartial`](mochy_core::shard::ShardPartial)
/// and answers with its JSON wire form. Only a `--worker` instance routes
/// here; any worker can serve any shard of any layout up to [`MAX_SHARDS`]
/// (the coordinator relies on that for retry reassignment). The request's
/// shape is checked before the snapshot, and both before any counting: a
/// worker holding another snapshot answers 409 `conflict`.
fn count_shard(ctx: &ApiContext, body: &str) -> Result<ApiResponse, ApiError> {
    let Role::Worker(state) = &ctx.role else {
        return Err(ApiError::not_found(
            "this instance is not a shard worker (boot with --worker)",
        ));
    };
    let parsed = parse_body(body)?;
    let dataset = required_str(&parsed, "dataset")?;
    if dataset != state.dataset() {
        return Err(ApiError::not_found(format!(
            "unknown shard dataset `{dataset}` (this worker serves `{}`)",
            state.dataset()
        )));
    }
    let snapshot = parsed
        .get("snapshot")
        .and_then(JsonValue::as_str)
        .and_then(parse_snapshot_hex)
        .ok_or_else(|| ApiError::bad("missing or invalid `snapshot` (16 lowercase hex digits)"))?;
    let shards = parsed
        .get("shards")
        .and_then(JsonValue::as_usize)
        .filter(|shards| (1..=MAX_SHARDS).contains(shards))
        .ok_or_else(|| {
            ApiError::bad(format!(
                "missing or invalid `shards` (an integer from 1 to {MAX_SHARDS})"
            ))
        })?;
    let shard = parsed
        .get("shard")
        .and_then(JsonValue::as_usize)
        .filter(|&shard| shard < shards)
        .ok_or_else(|| {
            ApiError::bad(format!(
                "missing or invalid `shard` (an integer below `shards` = {shards})"
            ))
        })?;
    let threads = optional_usize(&parsed, "threads", 1, ctx.max_threads)?.max(1);
    if snapshot != state.snapshot() {
        return Err(ApiError::new(
            409,
            "conflict",
            format!(
                "snapshot mismatch: the request names {}, this worker holds {}",
                snapshot_hex(snapshot),
                snapshot_hex(state.snapshot())
            ),
        ));
    }
    let partial = state.count_shard(shards, shard, threads).ok_or_else(|| {
        ApiError::bad(format!("shard {shard} is outside a {shards}-shard layout"))
    })?;
    Ok(ApiResponse::ok(partial.to_json().render()))
}

// ---------------------------------------------------------------------------
// POST /profile

fn profile(ctx: &ApiContext, body: &str) -> Result<ApiResponse, ApiError> {
    let parsed = parse_body(body)?;
    let name = required_str(&parsed, "dataset")?.to_string();
    let samples = optional_usize(&parsed, "samples", 2_000, MAX_SAMPLES)?.max(1);
    let method_name = match parsed.get("method") {
        None => "mochy-e",
        Some(value) => value
            .as_str()
            .ok_or_else(|| ApiError::bad("`method` must be a string"))?,
    };
    // `canonical_name` collapses every spelling of the same method, so the
    // cache key below is normalized exactly like /count's.
    let (canonical_name, method) = match method_name {
        "mochy-e" | "exact" => ("mochy-e", CountingMethod::Exact),
        "mochy-a" | "edge-sample" => ("mochy-a", CountingMethod::SampleEdges(samples)),
        "mochy-a+" | "wedge-sample" => ("mochy-a+", CountingMethod::SampleWedges(samples)),
        "mochy-a+-ratio" | "wedge-ratio" => (
            "mochy-a+-ratio",
            CountingMethod::SampleWedgeRatio(optional_ratio(&parsed)?),
        ),
        other => {
            return Err(ApiError::bad(format!(
                "unknown profile method `{other}` (expected mochy-e, mochy-a, mochy-a+, or \
                 mochy-a+-ratio)"
            )))
        }
    };
    let randomizations = optional_usize(&parsed, "randomizations", 3, MAX_RANDOMIZATIONS)?.max(1);
    let threads = optional_usize(&parsed, "threads", 1, ctx.max_threads)?.max(1);
    let seed = optional_u64(&parsed, "seed", 0)?;

    let dataset = ctx
        .registry
        .get(&name)
        .ok_or_else(|| ApiError::not_found(format!("unknown dataset `{name}`")))?;
    let snapshot = dataset.snapshot();
    let Some(hypergraph) = snapshot.hypergraph.clone() else {
        return Err(ApiError::new(
            409,
            "conflict",
            format!("dataset `{name}` is empty; profiles need at least one hyperedge"),
        ));
    };
    let mut canonical_members = vec![("method".to_string(), JsonValue::string(canonical_name))];
    match method {
        CountingMethod::Exact => {}
        CountingMethod::SampleEdges(samples) | CountingMethod::SampleWedges(samples) => {
            canonical_members.push(("samples".to_string(), JsonValue::Number(samples as f64)));
        }
        CountingMethod::SampleWedgeRatio(ratio) => {
            canonical_members.push(("ratio".to_string(), JsonValue::Number(ratio)));
        }
    }
    canonical_members.push((
        "randomizations".to_string(),
        JsonValue::Number(randomizations as f64),
    ));
    canonical_members.push(("threads".to_string(), JsonValue::Number(threads as f64)));
    canonical_members.push(("seed".to_string(), JsonValue::Number(seed as f64)));
    let canonical = JsonValue::Object(canonical_members).render();
    let key = format!("profile:{name}@{}:{canonical}", snapshot.generation);
    if let Some(body) = ctx.cache.get(&key) {
        return Ok(ApiResponse {
            status: 200,
            body,
            cache_state: Some(CacheState::Hit),
            shutdown: false,
            deprecated: false,
        });
    }

    let estimator = ProfileEstimator {
        method,
        num_randomizations: randomizations,
        threads,
        seed,
    };
    // A `mochy-a+-ratio` draw is checked on every hypergraph the profile
    // counts, once it is projected and before it is sampled: a Chung–Lu
    // reference's |∧| is known only then.
    let profile = estimator.estimate_admitting(&hypergraph, |reference, projected| {
        let CountingMethod::SampleWedgeRatio(ratio) = method else {
            return Ok(());
        };
        ratio_samples(projected.num_hyperwedges(), ratio)
            .map(drop)
            .map_err(|error| match reference {
                None => error,
                Some(r) => {
                    ApiError::bad(format!("Chung–Lu reference {}: {}", r + 1, error.message))
                }
            })
    })?;
    let rendered: Arc<str> = JsonValue::Object(vec![
        (
            "generation".to_string(),
            JsonValue::Number(snapshot.generation as f64),
        ),
        (
            "randomizations".to_string(),
            JsonValue::Number(randomizations as f64),
        ),
        ("seed".to_string(), JsonValue::Number(seed as f64)),
        (
            "real_total".to_string(),
            JsonValue::Number(profile.real_counts.total()),
        ),
        (
            "randomized_mean_total".to_string(),
            JsonValue::Number(profile.randomized_mean.total()),
        ),
        (
            "significances".to_string(),
            f64_array(&profile.significances),
        ),
        ("cp".to_string(), f64_array(&profile.cp)),
    ])
    .render()
    .into();
    ctx.cache.put(key, Arc::clone(&rendered));
    Ok(ApiResponse {
        status: 200,
        body: rendered,
        cache_state: Some(CacheState::Miss),
        shutdown: false,
        deprecated: false,
    })
}

// ---------------------------------------------------------------------------
// POST /mutate

fn mutate(ctx: &ApiContext, body: &str) -> Result<ApiResponse, ApiError> {
    let parsed = parse_body(body)?;
    let name = required_str(&parsed, "dataset")?.to_string();

    let mut inserts: Vec<Vec<NodeId>> = Vec::new();
    if let Some(raw) = parsed.get("insert") {
        let raw = raw
            .as_array()
            .ok_or_else(|| ApiError::bad("`insert` must be an array of node arrays"))?;
        for (i, edge) in raw.iter().enumerate() {
            let members = edge
                .as_array()
                .ok_or_else(|| ApiError::bad(format!("insert[{i}] must be a node array")))?;
            if members.is_empty() {
                return Err(ApiError::bad(format!(
                    "insert[{i}] is empty; hyperedges are non-empty node sets"
                )));
            }
            let mut nodes = Vec::with_capacity(members.len());
            for member in members {
                let node = member
                    .as_u64()
                    .filter(|&v| v <= crate::registry::MAX_NODE_ID as u64)
                    .ok_or_else(|| {
                        ApiError::bad(format!(
                            "insert[{i}] holds a non-node value (node ids are integers \
                             0..={})",
                            crate::registry::MAX_NODE_ID
                        ))
                    })?;
                nodes.push(node as NodeId);
            }
            inserts.push(nodes);
        }
    }

    // Removal ids must be integers; ids beyond the EdgeId range can never
    // have been issued, so they report `false` (strict no-op) rather than
    // erroring — mirroring the semantics for tombstoned ids.
    let mut removes: Vec<EdgeId> = Vec::new();
    if let Some(raw) = parsed.get("remove") {
        let raw = raw
            .as_array()
            .ok_or_else(|| ApiError::bad("`remove` must be an array of edge ids"))?;
        for (i, id) in raw.iter().enumerate() {
            let id = id
                .as_u64()
                .ok_or_else(|| ApiError::bad(format!("remove[{i}] must be an integer id")))?;
            removes.push(EdgeId::try_from(id).unwrap_or(EdgeId::MAX));
        }
    }

    let dataset = ctx
        .registry
        .get(&name)
        .ok_or_else(|| ApiError::not_found(format!("unknown dataset `{name}`")))?;
    let outcome = dataset
        .mutate(&inserts, &removes)
        .map_err(|error| match error {
            MutateError::Invalid(why) => ApiError::bad(why),
            MutateError::WriterPoisoned => ApiError::new(500, "internal", error.to_string()),
        })?;

    let body = JsonValue::Object(vec![
        ("dataset".to_string(), JsonValue::string(name)),
        (
            "generation".to_string(),
            JsonValue::Number(outcome.generation as f64),
        ),
        (
            "inserted".to_string(),
            JsonValue::Array(
                outcome
                    .inserted
                    .iter()
                    .map(|&e| JsonValue::Number(e as f64))
                    .collect(),
            ),
        ),
        (
            "removed".to_string(),
            JsonValue::Array(
                outcome
                    .removed
                    .iter()
                    .map(|&r| JsonValue::Bool(r))
                    .collect(),
            ),
        ),
        (
            "num_edges".to_string(),
            JsonValue::Number(outcome.num_edges as f64),
        ),
        (
            "total".to_string(),
            JsonValue::Number(outcome.total_instances),
        ),
    ]);
    Ok(ApiResponse::ok(body.render()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mochy_hypergraph::HypergraphBuilder;

    fn context() -> ApiContext {
        serving(
            "fig2",
            HypergraphBuilder::new()
                .with_edge([0u32, 1, 2])
                .with_edge([0, 3, 1])
                .with_edge([4, 5, 0])
                .with_edge([6, 7, 2])
                .build()
                .unwrap(),
        )
    }

    /// A standalone context serving `hypergraph` as dataset `name`.
    fn serving(name: &str, hypergraph: Hypergraph) -> ApiContext {
        let registry = Registry::new();
        registry.insert(name, hypergraph);
        ApiContext {
            registry,
            cache: QueryCache::new(8),
            max_threads: 2,
            num_workers: 1,
            queue_depth: 4,
            max_requests_per_connection: 128,
            idle_timeout_ms: 5_000,
            started: Instant::now(),
            role: Role::Standalone,
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            body: body.to_string(),
            keep_alive: true,
        }
    }

    #[test]
    fn count_is_cached_byte_identically() {
        let ctx = context();
        let request = post("/count", r#"{"dataset": "fig2"}"#);
        let first = handle(&ctx, &request);
        assert_eq!(first.status, 200, "{}", first.body);
        assert_eq!(first.cache_state, Some(CacheState::Miss));
        let second = handle(&ctx, &request);
        assert_eq!(second.cache_state, Some(CacheState::Hit));
        assert_eq!(first.body, second.body);
        // Equivalent spellings of the same query share the cache entry.
        let spelled = post(
            "/count",
            r#"{"dataset": "fig2", "method": "exact", "seed": 0, "threads": 1}"#,
        );
        let third = handle(&ctx, &spelled);
        assert_eq!(third.cache_state, Some(CacheState::Hit));
        assert_eq!(first.body, third.body);
        let doc = json::parse(&first.body).unwrap();
        assert_eq!(doc.get("total").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(
            doc.get("num_hyperwedges").and_then(JsonValue::as_f64),
            Some(4.0)
        );
        assert_eq!(
            doc.get("counts").unwrap().as_array().unwrap().len(),
            NUM_MOTIFS
        );
    }

    #[test]
    fn malformed_bodies_are_rejected_not_panicked() {
        let ctx = context();
        for (body, needle) in [
            ("", "JSON object"),
            ("[1,2]", "JSON object"),
            ("{", "invalid JSON"),
            (r#"{"dataset": 7}"#, "`dataset`"),
            (r#"{"dataset": "nope"}"#, "unknown dataset"),
            (
                r#"{"dataset": "fig2", "method": "quantum"}"#,
                "unknown method",
            ),
            (
                r#"{"dataset": "fig2", "method": "incremental"}"#,
                "unknown method",
            ),
            (r#"{"dataset": "fig2", "samples": -3}"#, "`samples`"),
            (r#"{"dataset": "fig2", "generalized": 5}"#, "3 or 4"),
            (r#"{"dataset": "fig2", "threads": 99}"#, "`threads`"),
            (r#"{"dataset": "fig2", "shards": 100}"#, "`shards`"),
            (r#"{"dataset": "fig2", "shards": -2}"#, "`shards`"),
            (
                r#"{"dataset": "fig2", "method": "mochy-a+", "shards": 2}"#,
                "exact",
            ),
            (
                r#"{"dataset": "fig2", "method": "mochy-a+-ratio", "ratio": "5"}"#,
                "`ratio`",
            ),
            (
                r#"{"dataset": "fig2", "method": "mochy-a+-ratio", "ratio": 0}"#,
                "`ratio`",
            ),
        ] {
            let response = handle(&ctx, &post("/count", body));
            assert_ne!(response.status, 200, "body `{body}` was accepted");
            assert!(
                response.body.contains(needle),
                "`{body}` gave `{}`",
                response.body
            );
        }
    }

    #[test]
    fn sharded_counts_match_unsharded_and_key_the_cache_by_shard_config() {
        let ctx = context();
        let unsharded = handle(&ctx, &post("/count", r#"{"dataset": "fig2"}"#));
        assert_eq!(unsharded.status, 200, "{}", unsharded.body);
        let sharded = handle(&ctx, &post("/count", r#"{"dataset": "fig2", "shards": 2}"#));
        assert_eq!(sharded.status, 200, "{}", sharded.body);
        // Different execution strategy, so a distinct cache entry…
        assert_eq!(sharded.cache_state, Some(CacheState::Miss));
        // …but bit-identical counted quantities.
        let a = json::parse(&unsharded.body).unwrap();
        let b = json::parse(&sharded.body).unwrap();
        for key in ["counts", "total", "num_hyperwedges"] {
            assert_eq!(a.get(key), b.get(key), "`{key}` diverges");
        }
        assert_eq!(b.get("shards").and_then(JsonValue::as_f64), Some(2.0));
        // Explicit `shards: 1` is the default spelling — shared entry.
        let explicit = handle(&ctx, &post("/count", r#"{"dataset": "fig2", "shards": 1}"#));
        assert_eq!(explicit.cache_state, Some(CacheState::Hit));
        assert_eq!(unsharded.body, explicit.body);
        // And a repeat of the sharded query hits its own entry.
        let again = handle(&ctx, &post("/count", r#"{"dataset": "fig2", "shards": 2}"#));
        assert_eq!(again.cache_state, Some(CacheState::Hit));
        assert_eq!(sharded.body, again.body);
    }

    #[test]
    fn mutate_validates_and_reports_noop_removals() {
        let ctx = context();
        let response = handle(
            &ctx,
            &post(
                "/mutate",
                r#"{"dataset": "fig2", "insert": [[1, 6]], "remove": [3, 3, 5000000000]}"#,
            ),
        );
        assert_eq!(response.status, 200, "{}", response.body);
        let doc = json::parse(&response.body).unwrap();
        let removed: Vec<bool> = doc
            .get("removed")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_bool().unwrap())
            .collect();
        assert_eq!(removed, vec![true, false, false]);

        let bad = handle(
            &ctx,
            &post("/mutate", r#"{"dataset": "fig2", "insert": [[]]}"#),
        );
        assert_eq!(bad.status, 400);
        let bad = handle(
            &ctx,
            &post("/mutate", r#"{"dataset": "fig2", "remove": ["x"]}"#),
        );
        assert_eq!(bad.status, 400);
        // Node ids above MAX_NODE_ID are rejected with a 400, not answered
        // with an unbounded dense-index allocation.
        let bad = handle(
            &ctx,
            &post(
                "/mutate",
                r#"{"dataset": "fig2", "insert": [[4294967295]]}"#,
            ),
        );
        assert_eq!(bad.status, 400, "{}", bad.body);
        assert!(bad.body.contains("node ids"), "{}", bad.body);
    }

    #[test]
    fn profile_cache_key_is_normalized_across_spellings() {
        let ctx = context();
        let first = handle(
            &ctx,
            &post("/profile", r#"{"dataset": "fig2", "randomizations": 2}"#),
        );
        assert_eq!(first.status, 200, "{}", first.body);
        assert_eq!(first.cache_state, Some(CacheState::Miss));
        // Different spelling, an explicit default, and an irrelevant
        // `samples` value all hit the same entry.
        let spelled = handle(
            &ctx,
            &post(
                "/profile",
                r#"{"dataset": "fig2", "method": "exact", "randomizations": 2, "samples": 77}"#,
            ),
        );
        assert_eq!(spelled.cache_state, Some(CacheState::Hit));
        assert_eq!(first.body, spelled.body);
    }

    /// The Figure-2 hypergraph as base64 `.mochy` bytes, as a client upload
    /// would carry it.
    fn fig2_snapshot_base64() -> String {
        let hypergraph = HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0, 3, 1])
            .with_edge([4, 5, 0])
            .with_edge([6, 7, 2])
            .build()
            .unwrap();
        let mut bytes = Vec::new();
        mochy_hypergraph::snapshot::write_snapshot(&hypergraph, &mut bytes).unwrap();
        b64::encode(&bytes)
    }

    #[test]
    fn ingest_registers_a_fresh_dataset_and_serves_it() {
        let ctx = context();
        let body = JsonValue::Object(vec![
            ("name".to_string(), JsonValue::string("uploaded")),
            (
                "snapshot".to_string(),
                JsonValue::string(fig2_snapshot_base64()),
            ),
        ])
        .render();
        let response = handle(&ctx, &post("/datasets", &body));
        assert_eq!(response.status, 201, "{}", response.body);
        let doc = json::parse(&response.body).unwrap();
        assert_eq!(doc.get("num_nodes").and_then(JsonValue::as_f64), Some(8.0));
        assert_eq!(doc.get("num_edges").and_then(JsonValue::as_f64), Some(4.0));
        assert_eq!(doc.get("generation").and_then(JsonValue::as_f64), Some(0.0));

        // The fresh dataset is listed and countable immediately.
        let listing = handle(
            &ctx,
            &Request {
                method: "GET".to_string(),
                path: "/datasets".to_string(),
                body: String::new(),
                keep_alive: true,
            },
        );
        assert!(listing.body.contains("uploaded"), "{}", listing.body);
        let counted = handle(&ctx, &post("/count", r#"{"dataset": "uploaded"}"#));
        assert_eq!(counted.status, 200, "{}", counted.body);
        let doc = json::parse(&counted.body).unwrap();
        assert_eq!(doc.get("total").and_then(JsonValue::as_f64), Some(3.0));

        // Re-uploading the same name is a conflict, not a replace.
        let again = handle(&ctx, &post("/datasets", &body));
        assert_eq!(again.status, 409, "{}", again.body);
    }

    #[test]
    fn ingest_rejects_bad_names_encodings_and_snapshots() {
        let ctx = context();
        let upload = |name: &str, snapshot: &str| {
            let body = JsonValue::Object(vec![
                ("name".to_string(), JsonValue::string(name)),
                ("snapshot".to_string(), JsonValue::string(snapshot)),
            ])
            .render();
            handle(&ctx, &post("/datasets", &body))
        };
        let good = fig2_snapshot_base64();
        for (name, needle) in [
            ("", "`name`"),
            ("spaced name", "`name`"),
            ("a/b", "`name`"),
            (&"x".repeat(101), "`name`"),
        ] {
            let response = upload(name, &good);
            assert_eq!(response.status, 400, "name `{name}`: {}", response.body);
            assert!(response.body.contains(needle), "{}", response.body);
        }

        let response = upload("ok", "!!not-base64!!");
        assert_eq!(response.status, 400);
        assert!(response.body.contains("base64"), "{}", response.body);

        // Valid base64, invalid snapshot: the typed decoder error surfaces.
        let response = upload("ok", &b64::encode(b"MOCHYSNP but truncated"));
        assert_eq!(response.status, 400);
        assert!(response.body.contains(".mochy"), "{}", response.body);

        // A corrupted-checksum upload is rejected with the checksum error.
        let mut corrupted = b64::decode(&good).unwrap();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0xff;
        let response = upload("ok", &b64::encode(&corrupted));
        assert_eq!(response.status, 400);
        assert!(response.body.contains("checksum"), "{}", response.body);

        // Missing fields are 400s, and nothing was registered along the way.
        let response = handle(&ctx, &post("/datasets", r#"{"name": "ok"}"#));
        assert_eq!(response.status, 400);
        assert_eq!(ctx.registry.len(), 1, "only the seeded fig2 remains");
    }

    #[test]
    fn routes_and_methods_are_enforced() {
        let ctx = context();
        let get = |path: &str| Request {
            method: "GET".to_string(),
            path: path.to_string(),
            body: String::new(),
            keep_alive: true,
        };
        assert_eq!(handle(&ctx, &get("/v1/healthz")).status, 200);
        assert_eq!(handle(&ctx, &get("/v1/datasets")).status, 200);
        assert_eq!(handle(&ctx, &get("/v1/count")).status, 405);
        assert_eq!(handle(&ctx, &post("/v1/healthz", "")).status, 405);
        assert_eq!(handle(&ctx, &get("/v1/nope")).status, 404);
        // Legacy aliases answer identically (modulo the deprecation flag).
        assert_eq!(handle(&ctx, &get("/healthz")).status, 200);
        assert_eq!(handle(&ctx, &get("/datasets")).status, 200);
        assert_eq!(handle(&ctx, &get("/count")).status, 405);
        assert_eq!(handle(&ctx, &post("/healthz", "")).status, 405);
        assert_eq!(handle(&ctx, &get("/nope")).status, 404);
        let shutdown = handle(&ctx, &post("/v1/admin/shutdown", ""));
        assert_eq!(shutdown.status, 200);
        assert!(shutdown.shutdown);
        assert!(!shutdown.deprecated);
        let legacy_shutdown = handle(&ctx, &post("/shutdown", ""));
        assert_eq!(legacy_shutdown.status, 200);
        assert!(legacy_shutdown.shutdown);
        assert!(legacy_shutdown.deprecated);
    }

    #[test]
    fn versioned_and_legacy_paths_resolve_to_the_same_bytes() {
        let ctx = context();
        let versioned = handle(&ctx, &post("/v1/count", r#"{"dataset": "fig2"}"#));
        assert_eq!(versioned.status, 200, "{}", versioned.body);
        assert!(!versioned.deprecated);
        assert_eq!(versioned.cache_state, Some(CacheState::Miss));
        let legacy = handle(&ctx, &post("/count", r#"{"dataset": "fig2"}"#));
        assert!(
            legacy.deprecated,
            "unversioned paths are deprecated aliases"
        );
        assert_eq!(legacy.cache_state, Some(CacheState::Hit));
        assert_eq!(versioned.body, legacy.body, "same route, same cache entry");
    }

    #[test]
    fn unknown_version_prefixes_get_a_structured_404() {
        let ctx = context();
        for path in ["/v2/healthz", "/v0/count", "/v12", "/v2"] {
            let response = handle(
                &ctx,
                &Request {
                    method: "GET".to_string(),
                    path: path.to_string(),
                    body: String::new(),
                    keep_alive: true,
                },
            );
            assert_eq!(response.status, 404, "{path}: {}", response.body);
            let doc = json::parse(&response.body).unwrap();
            let error = doc.get("error").unwrap();
            assert_eq!(
                error.get("kind").and_then(JsonValue::as_str),
                Some("unknown-version"),
                "{path}: {}",
                response.body
            );
        }
        // A path that merely *looks* versionish is a plain 404.
        let response = handle(
            &ctx,
            &Request {
                method: "GET".to_string(),
                path: "/version".to_string(),
                body: String::new(),
                keep_alive: true,
            },
        );
        assert_eq!(response.status, 404);
        assert!(response.body.contains("not-found"), "{}", response.body);
    }

    #[test]
    fn error_responses_carry_the_uniform_envelope() {
        let ctx = context();
        let cases: Vec<(ApiResponse, u16, &str)> = vec![
            (
                handle(&ctx, &post("/v1/count", r#"{"dataset": "nope"}"#)),
                404,
                "not-found",
            ),
            (handle(&ctx, &post("/v1/count", "{")), 400, "bad-request"),
            (
                handle(&ctx, &post("/v1/healthz", "")),
                405,
                "method-not-allowed",
            ),
        ];
        for (response, status, kind) in cases {
            assert_eq!(response.status, status, "{}", response.body);
            let doc = json::parse(&response.body).unwrap();
            let error = doc.get("error").unwrap();
            assert_eq!(
                error.get("code").and_then(JsonValue::as_u64),
                Some(status as u64)
            );
            assert_eq!(error.get("kind").and_then(JsonValue::as_str), Some(kind));
            assert!(error
                .get("message")
                .and_then(JsonValue::as_str)
                .is_some_and(|m| !m.is_empty()));
        }
    }

    #[test]
    fn count_shard_requires_the_worker_role_and_v1() {
        let ctx = context();
        let body = r#"{"dataset": "fig2", "shard": 0}"#;
        let standalone = handle(&ctx, &post("/v1/internal/count-shard", body));
        assert_eq!(standalone.status, 404, "{}", standalone.body);
        assert!(
            standalone.body.contains("not a shard worker"),
            "{}",
            standalone.body
        );
        // No legacy alias for internal routes.
        let legacy = handle(&ctx, &post("/internal/count-shard", body));
        assert_eq!(legacy.status, 404, "{}", legacy.body);
        assert!(legacy.body.contains("/v1-only"), "{}", legacy.body);
    }

    #[test]
    fn healthz_reports_the_role() {
        let ctx = context();
        let response = handle(
            &ctx,
            &Request {
                method: "GET".to_string(),
                path: "/v1/healthz".to_string(),
                body: String::new(),
                keep_alive: true,
            },
        );
        let doc = json::parse(&response.body).unwrap();
        assert_eq!(
            doc.get("role").and_then(JsonValue::as_str),
            Some("standalone")
        );
    }

    #[test]
    fn lru_cache_evicts_oldest_and_refreshes_on_hit() {
        let cache = QueryCache::new(2);
        cache.put("a".to_string(), "1".into());
        cache.put("b".to_string(), "2".into());
        assert!(cache.get("a").is_some()); // refreshes `a`
        cache.put("c".to_string(), "3".into()); // evicts `b`
        assert!(cache.get("b").is_none());
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        let (hits, misses, entries) = cache.stats();
        assert_eq!((hits, misses, entries), (3, 1, 2));

        let disabled = QueryCache::new(0);
        disabled.put("a".to_string(), "1".into());
        assert!(disabled.get("a").is_none());
    }

    #[test]
    fn ratio_queries_above_the_sample_ceiling_are_rejected_before_sampling() {
        // 150 hyperedges through node 0: C(150, 2) = 11,175 hyperwedges, so
        // ratio 100 would draw 1,117,500 samples (a profile draws them on
        // the real hypergraph alone, before its references).
        let mut builder = HypergraphBuilder::new();
        for v in 1..=150u32 {
            builder.add_edge([0, v]);
        }
        let ctx = serving("star", builder.build().unwrap());
        for route in ["/v1/count", "/v1/profile"] {
            let rejected = handle(
                &ctx,
                &post(
                    route,
                    r#"{"dataset": "star", "method": "mochy-a+-ratio", "ratio": 100}"#,
                ),
            );
            assert_eq!(rejected.status, 400, "{route}: {}", rejected.body);
            assert!(
                rejected.body.contains("`ratio`"),
                "{route}: {}",
                rejected.body
            );
            assert!(
                rejected.body.contains("1117500"),
                "{route}: {}",
                rejected.body
            );
        }
        assert_eq!(ctx.cache.stats().2, 0, "rejected queries cache nothing");
        let accepted = handle(
            &ctx,
            &post(
                "/v1/count",
                r#"{"dataset": "star", "method": "mochy-a+-ratio", "ratio": 0.01}"#,
            ),
        );
        assert_eq!(accepted.status, 200, "{}", accepted.body);
        let doc = json::parse(&accepted.body).unwrap();
        assert_eq!(
            doc.get("samples_drawn").and_then(JsonValue::as_u64),
            Some(112)
        );
        let profiled = handle(
            &ctx,
            &post(
                "/v1/profile",
                r#"{"dataset": "star", "method": "mochy-a+-ratio", "ratio": 0.01,
                    "randomizations": 1}"#,
            ),
        );
        assert_eq!(profiled.status, 200, "{}", profiled.body);
    }

    /// A profile's Chung–Lu references draw under the same ceiling as the
    /// real hypergraph. Here the real one is a chain of 200 hyperedges of
    /// 400 nodes, each meeting the next in one node: 199 hyperwedges, so
    /// ratio 100 draws 19,900 samples. Its references spread the same sizes
    /// over the same nodes at random, so most pairs of their hyperedges
    /// overlap: the first reference has 17,374 hyperwedges, and its draw of
    /// 1,737,400 is above the ceiling. It is refused once that reference is
    /// projected, before it is sampled (`estimate_admitting` counts no
    /// hypergraph its check refuses).
    #[test]
    fn profile_bounds_each_reference_draw_before_sampling_it() {
        let mut builder = HypergraphBuilder::new();
        for e in 0..200u32 {
            builder.add_edge(e * 399..e * 399 + 400);
        }
        let chain = builder.build().unwrap();
        let real_draw =
            wedge_ratio_samples(mochy_projection::project(&chain).num_hyperwedges(), 100.0);
        assert_eq!(real_draw, 19_900);
        let ctx = serving("chain", chain);
        let rejected = handle(
            &ctx,
            &post(
                "/v1/profile",
                r#"{"dataset": "chain", "method": "mochy-a+-ratio", "ratio": 100,
                    "randomizations": 2}"#,
            ),
        );
        assert_eq!(rejected.status, 400, "{}", rejected.body);
        for part in ["Chung–Lu reference 1", "`ratio` 100 draws 1737400 samples"] {
            assert!(rejected.body.contains(part), "{part}: {}", rejected.body);
        }
        assert_eq!(ctx.cache.stats().2, 0, "a refused profile caches nothing");
    }

    #[test]
    fn ratio_sample_ceiling_is_inclusive() {
        assert_eq!(ratio_samples(MAX_SAMPLES, 1.0).ok(), Some(MAX_SAMPLES));
        assert_eq!(ratio_samples(10_000, 100.0).ok(), Some(MAX_SAMPLES));
        for (num_hyperwedges, ratio) in [(MAX_SAMPLES + 1, 1.0), (10_001, 100.0)] {
            let error = ratio_samples(num_hyperwedges, ratio).err().unwrap();
            assert_eq!(error.status, 400);
            assert!(error.message.contains("`ratio`"), "{}", error.message);
        }
    }

    /// `/v1/count` queries whose bodies a published generation must render
    /// exactly as a recount does: `(body, method, seed, shards)`.
    const RECOUNTED: [(&str, &str, u64, usize); 7] = [
        (r#"{"dataset":"d","method":"mochy-e"}"#, "mochy-e", 0, 1),
        (
            r#"{"dataset":"d","method":"mochy-e","shards":3,"threads":2}"#,
            "mochy-e",
            0,
            3,
        ),
        (
            r#"{"dataset":"d","method":"mochy-e","generalized":3}"#,
            "mochy-e",
            0,
            1,
        ),
        (
            r#"{"dataset":"d","method":"mochy-a+","samples":200,"seed":5}"#,
            "mochy-a+",
            5,
            1,
        ),
        (
            r#"{"dataset":"d","method":"mochy-a","samples":40,"seed":5}"#,
            "mochy-a",
            5,
            1,
        ),
        (
            r#"{"dataset":"d","method":"mochy-a+-adaptive","samples":200,"seed":5}"#,
            "mochy-a+-adaptive",
            5,
            1,
        ),
        (
            r#"{"dataset":"d","method":"mochy-a+-otf","samples":200,"seed":5}"#,
            "mochy-a+-otf",
            5,
            1,
        ),
    ];

    #[test]
    fn carried_answers_match_a_recount_byte_for_byte() {
        // splitmix64: a seeded stream of batch choices.
        let mut state = 0x5eed_u64;
        let mut draw = move |bound: usize| -> usize {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        // Random hyperedges draw from the first `POOL` node ids; the ids
        // from `unused` up have not been used yet.
        const POOL: usize = 48;
        let mut unused = POOL as NodeId;
        let mut builder = HypergraphBuilder::new();
        let mut live: Vec<(u64, Vec<NodeId>)> = Vec::new();
        for id in 0..16 {
            let members: Vec<NodeId> = (0..2 + draw(3)).map(|_| draw(POOL) as NodeId).collect();
            builder.add_edge(members.iter().copied());
            live.push((id, members));
        }
        let ctx = serving("d", builder.build().unwrap());
        let mut tombstoned: Vec<u64> = Vec::new();
        let mut issued = 16;
        const EMPTIED_AT: usize = 24;

        for batch in 0..40 {
            let mut inserts: Vec<Vec<NodeId>> = Vec::new();
            let mut removes: Vec<u64> = Vec::new();
            if batch == EMPTIED_AT {
                removes.extend(live.iter().map(|(id, _)| *id));
            } else {
                for _ in 0..1 + draw(3) {
                    let members = match draw(3) {
                        // A duplicate of a live hyperedge.
                        0 if !live.is_empty() => live[draw(live.len())].1.clone(),
                        // Node ids no hyperedge has used yet.
                        1 => {
                            unused += 2;
                            vec![draw(POOL) as NodeId, unused - 2, unused - 1]
                        }
                        _ => (0..2 + draw(3)).map(|_| draw(POOL) as NodeId).collect(),
                    };
                    inserts.push(members);
                }
                for _ in 0..draw(3) {
                    if !live.is_empty() {
                        let (id, _) = live[draw(live.len())];
                        if !removes.contains(&id) {
                            removes.push(id);
                        }
                    }
                }
            }
            if let Some(&id) = tombstoned.get(draw(tombstoned.len() + 1)) {
                removes.push(id);
            }
            removes.push(issued + inserts.len() as u64 + draw(100) as u64);

            let body = JsonValue::Object(vec![
                ("dataset".to_string(), JsonValue::string("d")),
                (
                    "insert".to_string(),
                    JsonValue::Array(
                        inserts
                            .iter()
                            .map(|members| {
                                JsonValue::Array(
                                    members
                                        .iter()
                                        .map(|&v| JsonValue::Number(v as f64))
                                        .collect(),
                                )
                            })
                            .collect(),
                    ),
                ),
                (
                    "remove".to_string(),
                    JsonValue::Array(
                        removes
                            .iter()
                            .map(|&e| JsonValue::Number(e as f64))
                            .collect(),
                    ),
                ),
            ])
            .render();
            let response = handle(&ctx, &post("/v1/mutate", &body));
            assert_eq!(response.status, 200, "batch {batch}: {}", response.body);
            let doc = json::parse(&response.body).unwrap();
            let inserted = doc.get("inserted").and_then(JsonValue::as_array).unwrap();
            for (id, members) in inserted.iter().zip(inserts) {
                live.push((id.as_u64().unwrap(), members));
            }
            issued += inserted.len() as u64;
            let removed = doc.get("removed").and_then(JsonValue::as_array).unwrap();
            for (&id, removed) in removes.iter().zip(removed) {
                let was_live = live.iter().any(|(live_id, _)| *live_id == id);
                assert_eq!(
                    removed.as_bool(),
                    Some(was_live),
                    "batch {batch}: remove {id}"
                );
                if was_live {
                    live.retain(|(live_id, _)| *live_id != id);
                    tombstoned.push(id);
                }
            }

            let snapshot = ctx.registry.get("d").unwrap().snapshot();
            assert_eq!(snapshot.generation, batch as u64 + 1);
            assert_eq!(snapshot.num_edges(), live.len(), "batch {batch}");
            let fresh = snapshot
                .hypergraph
                .as_deref()
                .map(|hypergraph| serving("d", hypergraph.clone()));
            for (query, method, seed, shards) in RECOUNTED {
                let served = handle(&ctx, &post("/v1/count", query));
                assert_eq!(
                    served.status, 200,
                    "batch {batch}, {query}: {}",
                    served.body
                );
                let served = served.body.replacen(
                    &format!("{{\"generation\":{},", snapshot.generation),
                    "{\"generation\":0,",
                    1,
                );
                let expected = match &fresh {
                    Some(fresh) => handle(fresh, &post("/v1/count", query)).body.to_string(),
                    // What an emptied dataset has always rendered.
                    None => format!(
                        "{{\"generation\":0,\"method\":\"{method}\",\"seed\":{seed},\
                         \"shards\":{shards},\"num_nodes\":0,\"num_edges\":0,\
                         \"num_hyperwedges\":null,\"samples_drawn\":null,\"total\":0,\
                         \"counts\":[{}],\"generalized\":null}}",
                        vec!["0"; NUM_MOTIFS].join(",")
                    ),
                };
                assert_eq!(served, expected, "batch {batch}, {query}");
            }
            assert_eq!(fresh.is_none(), batch == EMPTIED_AT, "batch {batch}");
        }
    }
}
