//! `serve-mixed`: reads and writes against an in-process `mochy-serve`.
//!
//! `Server::start` on `127.0.0.1:0` with one contact-domain dataset. Two
//! closed-loop keep-alive clients, one connection each, send their next
//! request only after the previous reply has fully arrived. Each client's
//! seeded mix: 70% repeats of four fixed MoCHy-A+ `/v1/count` queries, 20%
//! MoCHy-A+ with a fresh seed (always a cache miss), 5% MoCHy-E
//! `/v1/count`, and 5% `/v1/mutate`, which inserts one seeded hyperedge and
//! removes that client's oldest insert, so |E| stays constant. Every
//! mutation bumps the dataset generation and so invalidates the cached
//! bodies.
//!
//! Checks: every response is 200; all bodies answering one query at one
//! generation are byte-identical, and every cache hit has the miss it
//! repeats; after the run, a MoCHy-E `/v1/count` equals local `mochy_e` on
//! the expected final edge set. Each client removes only its own inserts, so
//! that set does not depend on how the clients interleave.
//!
//! End to end: `latency_p50_ms` is the median latency, from send to full
//! response, of a cache hit, the most frequent class (the class comes from
//! the route and the `x-mochy-cache` header); `throughput` is the median,
//! over [`WINDOWS`] windows, of completed 200 responses per second, which
//! the misses dominate. The median over all requests is not used: hits are
//! only about half of them, so it falls between the hit and the miss modes
//! and jumps between them from seed to seed. `setup_s` covers generation,
//! the `.mochy` round trip, server boot, the first count and each client's
//! first mutation, whose streaming bootstrap it pays. The median and the
//! highest supported percentile of every class and of all requests, and
//! the server's cache counters, are printed beside them.
//!
//! The traced run drives half its time untraced and half with a span per
//! request, then measures the per-layer metrics ([`crate::layers`]) on the
//! served dataset.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use mochy_core::mochy_e;
use mochy_datagen::DomainKind;
use mochy_hypergraph::{EdgeId, HypergraphBuilder, NodeId};
use mochy_json::JsonValue;
use mochy_projection::project;
use mochy_serve::api::CacheState;
use mochy_serve::registry::Registry;
use mochy_serve::server::{Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{self, Input, Recipe, Target};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::Tracer;
use crate::{Report, Run, Scale};

pub const DATASET: &str = "bench";
const CLIENTS: usize = 2;
/// Ceiling on the per-query `threads` parameter; every workload runs on 2
/// threads.
const MAX_THREADS: usize = 2;
const CACHE_CAPACITY: usize = 64;
/// MoCHy-A+ samples per `/v1/count` query.
pub const SAMPLES: usize = 2_000;
/// The fixed queries use seeds `1..=FIXED_QUERIES`.
const FIXED_QUERIES: u64 = 4;
/// Fresh-seed queries start here, far above the fixed seeds.
const FRESH_SEED_BASE: u64 = 1 << 32;
/// Socket deadline; generous, since a stalled exchange fails the run.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Windows per phase over which the peak resident memory and the throughput
/// are read.
const WINDOWS: u32 = 10;

fn recipe(scale: Scale) -> Recipe {
    match scale {
        Scale::Full => Recipe {
            kind: DomainKind::Contact,
            nodes: 240,
            edges: 1_400,
            target: Target::PairVisits(600_000),
        },
        Scale::Tiny => Recipe {
            kind: DomainKind::Contact,
            nodes: 60,
            edges: 300,
            target: Target::PairVisits(60_000),
        },
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Count,
    Mutate,
}

impl Kind {
    fn path(self) -> &'static str {
        match self {
            Kind::Count => "/v1/count",
            Kind::Mutate => "/v1/mutate",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Untraced,
    Traced,
}

/// One request a client sent and what came back.
struct Exchange {
    kind: Kind,
    phase: Phase,
    request_id: u64,
    body: String,
    sent: Instant,
    latency: Duration,
    /// HTTP status, or 0 when the exchange failed on the socket.
    status: u16,
    cache: Option<CacheState>,
    body_hash: u64,
    generation: Option<u64>,
}

impl Exchange {
    fn class(&self) -> Option<&'static str> {
        match (self.kind, self.cache) {
            (Kind::Mutate, _) => Some("write"),
            (_, Some(CacheState::Hit)) => Some("hit"),
            (_, Some(CacheState::Miss)) => Some("miss"),
            _ => None,
        }
    }

    fn latency_ms(&self) -> f64 {
        self.latency.as_secs_f64() * 1e3
    }
}

/// A parsed HTTP response.
struct Response {
    status: u16,
    cache: Option<CacheState>,
    body: Vec<u8>,
}

/// One keep-alive HTTP/1.1 connection, written for this benchmark so the
/// client side stays fixed while the server changes.
struct Connection {
    stream: TcpStream,
    buffer: Vec<u8>,
}

impl Connection {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(IO_TIMEOUT)))
            .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
            .map_err(|e| format!("configuring the client socket: {e}"))?;
        Ok(Self {
            stream,
            buffer: Vec::new(),
        })
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes())?;
        let head_end = loop {
            if let Some(at) = self.buffer.windows(4).position(|w| w == b"\r\n\r\n") {
                break at;
            }
            self.fill()?;
        };
        let invalid =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let head =
            std::str::from_utf8(&self.buffer[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|line| line.split(' ').nth(1))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let mut length = None;
        let mut cache = None;
        for (name, value) in lines.filter_map(|line| line.split_once(':')) {
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => length = value.trim().parse::<usize>().ok(),
                "x-mochy-cache" => {
                    cache = match value.trim() {
                        "hit" => Some(CacheState::Hit),
                        "miss" => Some(CacheState::Miss),
                        _ => None,
                    }
                }
                _ => {}
            }
        }
        let end = head_end + 4 + length.ok_or_else(|| invalid("no content-length"))?;
        while self.buffer.len() < end {
            self.fill()?;
        }
        let body = self.buffer[head_end + 4..end].to_vec();
        self.buffer.drain(..end);
        Ok(Response {
            status,
            cache,
            body,
        })
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let read = self.stream.read(&mut chunk)?;
        if read == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        self.buffer.extend_from_slice(&chunk[..read]);
        Ok(())
    }
}

/// A closed-loop caller with its own connection, request mix and inserts.
struct Client {
    id: usize,
    connection: Connection,
    rng: StdRng,
    /// This client's live inserts, oldest first.
    outstanding: VecDeque<(EdgeId, Vec<NodeId>)>,
    fresh: u64,
    sent: u64,
    nodes: u32,
}

impl Client {
    fn new(id: usize, addr: SocketAddr, seed: u64, nodes: u32) -> Result<Self, String> {
        Ok(Self {
            id,
            connection: Connection::open(addr)?,
            rng: StdRng::seed_from_u64(inputs::mix(seed, 1_000 + id as u64)),
            outstanding: VecDeque::new(),
            fresh: 0,
            sent: 0,
            nodes,
        })
    }

    /// Draws the next request of the mix, with the members a mutation
    /// inserts.
    fn next_request(&mut self) -> (Kind, String, Option<Vec<NodeId>>) {
        match self.rng.gen_range(0..100u32) {
            0..=69 => {
                let seed = 1 + self.rng.gen_range(0..FIXED_QUERIES);
                (Kind::Count, wedge_query(seed), None)
            }
            70..=89 => {
                self.fresh += 1;
                let seed = FRESH_SEED_BASE + ((self.id as u64) << 40) + self.fresh;
                (Kind::Count, wedge_query(seed), None)
            }
            90..=94 => (Kind::Count, exact_query(), None),
            _ => {
                let (body, members) = self.mutation(true);
                (Kind::Mutate, body, Some(members))
            }
        }
    }

    /// A mutation inserting one seeded hyperedge and, when `remove` is set,
    /// removing this client's oldest insert.
    fn mutation(&mut self, remove: bool) -> (String, Vec<NodeId>) {
        let members = random_edge(&mut self.rng, self.nodes);
        let removed = if remove {
            self.outstanding.pop_front().map(|(e, _)| e)
        } else {
            None
        };
        (mutation_body(&members, removed), members)
    }

    /// Sends one request, waits for the whole reply, and records it; the
    /// id the server issued for an inserted `members` joins `outstanding`.
    fn send(
        &mut self,
        kind: Kind,
        body: String,
        members: Option<Vec<NodeId>>,
        phase: Phase,
        tracer: &Tracer,
    ) -> Exchange {
        let request_id = ((self.id as u64) << 32) | self.sent;
        self.sent += 1;
        let sent = Instant::now();
        let result = self.connection.exchange("POST", kind.path(), &body);
        let done = Instant::now();
        let mut exchange = Exchange {
            kind,
            phase,
            request_id,
            body,
            sent,
            latency: done - sent,
            status: 0,
            cache: None,
            body_hash: 0,
            generation: None,
        };
        if let Ok(response) = result {
            exchange.status = response.status;
            exchange.cache = response.cache;
            exchange.body_hash = fnv1a(&response.body);
            let parsed = std::str::from_utf8(&response.body)
                .ok()
                .and_then(|text| mochy_json::parse(text).ok());
            exchange.generation = parsed
                .as_ref()
                .and_then(|value| value.get("generation"))
                .and_then(JsonValue::as_u64);
            let inserted = parsed
                .as_ref()
                .and_then(|value| value.get("inserted"))
                .and_then(JsonValue::as_array)
                .and_then(|ids| ids.first())
                .and_then(JsonValue::as_u64);
            if let (Some(id), Some(members)) = (inserted, members) {
                self.outstanding.push_back((id as EdgeId, members));
            }
        }
        let span = match exchange.class() {
            Some("hit") => "client.request(hit)",
            Some("miss") => "client.request(miss)",
            Some("write") => "client.request(write)",
            _ => "client.request(failed)",
        };
        tracer.record(span, request_id, sent, done);
        exchange
    }

    fn fetch(&mut self, method: &str, path: &str, body: &str) -> Result<JsonValue, String> {
        let response = self
            .connection
            .exchange(method, path, body)
            .map_err(|e| format!("{method} {path}: {e}"))?;
        if response.status != 200 {
            return Err(format!("{method} {path} answered {}", response.status));
        }
        std::str::from_utf8(&response.body)
            .ok()
            .and_then(|text| mochy_json::parse(text).ok())
            .ok_or(format!("{method} {path} answered a body that is not JSON"))
    }
}

/// A MoCHy-A+ `/v1/count` body with `seed`.
pub fn wedge_query(seed: u64) -> String {
    format!("{{\"dataset\":\"{DATASET}\",\"method\":\"mochy-a+\",\"samples\":{SAMPLES},\"seed\":{seed}}}")
}

fn exact_query() -> String {
    format!("{{\"dataset\":\"{DATASET}\",\"method\":\"mochy-e\"}}")
}

/// A seeded hyperedge: two to four distinct nodes below `nodes`, sorted.
pub fn random_edge(rng: &mut StdRng, nodes: u32) -> Vec<NodeId> {
    let size = rng.gen_range(2..=4usize);
    let mut members: Vec<NodeId> = Vec::with_capacity(size);
    while members.len() < size {
        let node = rng.gen_range(0..nodes);
        if !members.contains(&node) {
            members.push(node);
        }
    }
    members.sort_unstable();
    members
}

/// A `/v1/mutate` body inserting `members` and removing `removed`, if any.
pub fn mutation_body(members: &[NodeId], removed: Option<EdgeId>) -> String {
    let nodes: Vec<String> = members.iter().map(u32::to_string).collect();
    let remove_list = removed.map_or(String::new(), |e| e.to_string());
    format!(
        "{{\"dataset\":\"{DATASET}\",\"insert\":[[{}]],\"remove\":[{remove_list}]}}",
        nodes.join(",")
    )
}

/// A booted server with its two connected, warmed-up clients.
struct Service {
    // Clients come first so they disconnect before the server shuts down
    // (fields drop in declaration order); the server's workers then exit
    // at once instead of waiting out the idle deadline.
    clients: Vec<Client>,
    server: Server,
    warmup: Vec<Exchange>,
    input: Input,
}

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: CLIENTS,
        queue_depth: 16,
        cache_capacity: CACHE_CAPACITY,
        max_threads: MAX_THREADS,
        io_timeout: IO_TIMEOUT,
        max_body_bytes: 1 << 20,
        max_requests_per_connection: 1 << 30,
        idle_timeout: IO_TIMEOUT,
    }
}

fn boot(run: &Run, recipe: Recipe) -> Result<Service, String> {
    let input = inputs::materialize(recipe, run.seed, &run.work, "serve-mixed")?;
    let registry = Registry::new();
    registry.insert(DATASET, input.hypergraph.clone());
    let server = Server::start(server_config(), registry).map_err(|e| format!("booting: {e}"))?;
    let nodes = input.hypergraph.num_nodes() as u32;
    let mut clients = (0..CLIENTS)
        .map(|id| Client::new(id, server.local_addr(), run.seed, nodes))
        .collect::<Result<Vec<_>, _>>()?;
    // Warm-up: the first count, then each client's first insert (the first
    // one bootstraps the dataset's streaming writer).
    let quiet = Tracer::new(false, Instant::now());
    let mut warmup =
        vec![clients[0].send(Kind::Count, wedge_query(1), None, Phase::Warmup, &quiet)];
    for client in &mut clients {
        let (body, members) = client.mutation(false);
        warmup.push(client.send(Kind::Mutate, body, Some(members), Phase::Warmup, &quiet));
    }
    Ok(Service {
        clients,
        server,
        warmup,
        input,
    })
}

/// What one closed-loop phase produced.
struct Driven {
    clients: Vec<Client>,
    exchanges: Vec<Exchange>,
    /// Peak resident memory of each window of the phase, in MB.
    window_peaks_mb: Vec<f64>,
    /// Completed 200 responses per second in each window of the phase.
    window_rps: Vec<f64>,
}

/// Runs every client closed-loop for `seconds`. Meanwhile this thread
/// reads the process's peak resident memory once per window and resets it.
fn drive(
    clients: Vec<Client>,
    seconds: Duration,
    phase: Phase,
    tracer: &Tracer,
    origin: Instant,
) -> Result<Driven, String> {
    let traced = phase == Phase::Traced;
    let start = Instant::now();
    let deadline = start + seconds;
    let mut window_peaks_mb = Vec::with_capacity(WINDOWS as usize);
    crate::reset_peak_rss()?;
    let finished: Vec<(Client, Vec<Exchange>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                scope.spawn(move || {
                    let own = Tracer::new(traced, origin);
                    let mut log = Vec::new();
                    while Instant::now() < deadline {
                        let (kind, body, members) = client.next_request();
                        log.push(client.send(kind, body, members, phase, &own));
                    }
                    (client, log, own)
                })
            })
            .collect();
        for window in 1..=WINDOWS {
            let until = start + seconds * window / WINDOWS;
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
            window_peaks_mb.push(crate::peak_rss_mb());
            let _ = crate::reset_peak_rss();
        }
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });
    let window_peaks_mb = window_peaks_mb.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut clients = Vec::with_capacity(finished.len());
    let mut exchanges = Vec::new();
    for (client, log, own) in finished {
        clients.push(client);
        exchanges.extend(log);
        tracer.absorb(own);
    }
    // Responses still in flight at the deadline complete after the last
    // window and are not counted.
    let window = seconds / WINDOWS;
    let mut completed = vec![0u32; WINDOWS as usize];
    for exchange in exchanges.iter().filter(|e| e.status == 200) {
        let at = (exchange.sent + exchange.latency).saturating_duration_since(start);
        if let Some(count) = completed.get_mut((at.as_nanos() / window.as_nanos()) as usize) {
            *count += 1;
        }
    }
    let window_rps = completed
        .iter()
        .map(|&count| f64::from(count) / window.as_secs_f64())
        .collect();
    Ok(Driven {
        clients,
        exchanges,
        window_peaks_mb,
        window_rps,
    })
}

pub fn run(run: &Run) -> Result<Report, String> {
    let recipe = recipe(run.scale);
    let (service, setup_s) = crate::repeat_setup(|| boot(run, recipe))?;
    let Service {
        clients,
        server,
        warmup,
        input,
    } = service;
    println!("input fingerprint {}", input.fingerprint.to_json());
    inputs::check_recorded(&run.fingerprint_key("serve-mixed"), recipe, &run.work)?;
    let tracer = &run.tracer;
    let origin = Instant::now();

    let mut exchanges = warmup;
    let mut window_peaks_mb = Vec::new();
    let mut window_rps = Vec::new();
    let phases: &[Phase] = if tracer.enabled() {
        &[Phase::Untraced, Phase::Traced]
    } else {
        &[Phase::Untraced]
    };
    let mut clients = clients;
    for &phase in phases {
        let driven = drive(
            clients,
            run.seconds / phases.len() as u32,
            phase,
            tracer,
            origin,
        )?;
        clients = driven.clients;
        exchanges.extend(driven.exchanges);
        window_peaks_mb.extend(driven.window_peaks_mb);
        window_rps.extend(driven.window_rps);
    }

    // After the run: the served MoCHy-E counts against a local count of the
    // expected final edge set, and the server's cache counters.
    let mut expected = HypergraphBuilder::new();
    expected.extend_edges(
        input
            .hypergraph
            .edges()
            .map(|(_, members)| members.to_vec()),
    );
    for client in &clients {
        expected.extend_edges(
            client
                .outstanding
                .iter()
                .map(|(_, members)| members.clone()),
        );
    }
    let expected = expected.build().map_err(|e| e.to_string())?;
    let local = mochy_e(&expected, &project(&expected));
    let served = clients[0].fetch("POST", "/v1/count", &exact_query())?;
    let health = clients[0].fetch("GET", "/v1/healthz", "")?;
    drop(clients);
    server.shutdown();
    server.wait();

    let mut report = Report::default();
    let served_counts: Vec<f64> = served
        .get("counts")
        .and_then(JsonValue::as_array)
        .map(|values| values.iter().filter_map(JsonValue::as_f64).collect())
        .unwrap_or_default();
    report.check(crate::same_bits(&served_counts, local.as_slice()), || {
        format!(
            "final /v1/count {served_counts:?} differs from local mochy_e {:?}",
            local.as_slice()
        )
    });
    check_bodies(&exchanges, &mut report);

    let measured: Vec<&Exchange> = exchanges
        .iter()
        .filter(|e| e.phase != Phase::Warmup)
        .collect();
    let errors = exchanges.iter().filter(|e| e.status != 200).count() as u64;
    report.attempted = measured.len() as u64;
    report.failed = measured.iter().filter(|e| e.status != 200).count() as u64;
    report.check(errors == 0, || {
        format!("{errors} requests did not answer 200")
    });

    let latencies = |class: Option<&str>, phase: Option<Phase>| -> Vec<f64> {
        measured
            .iter()
            .filter(|e| e.status == 200)
            .filter(|e| class.is_none() || e.class() == class)
            .filter(|e| phase.is_none() || Some(e.phase) == phase)
            .map(|e| e.latency_ms())
            .collect()
    };
    for class in [None, Some("hit"), Some("miss"), Some("write")] {
        let values = latencies(class, None);
        let label = class.unwrap_or("all");
        match (
            values.is_empty(),
            highest_supported_percentile(values.len()),
        ) {
            (false, Some(p)) => println!(
                "{label}: n={} p50={:.4} ms p{p}={:.4} ms",
                values.len(),
                median(&values),
                percentile(&values, p)
            ),
            _ => println!("{label}: n={} (too few for a percentile)", values.len()),
        }
    }
    let all = latencies(None, None);
    if all.is_empty() {
        return Err("no request completed".to_string());
    }
    let cache = health.get("cache");
    let counter = |key: &str| cache.and_then(|c| c.get(key)).and_then(JsonValue::as_f64);
    if let (Some(hits), Some(misses)) = (counter("hits"), counter("misses")) {
        println!(
            "cache: {hits} hits, {misses} misses, hit ratio {:.4}",
            hits / (hits + misses)
        );
    }
    println!("{}", crate::stats::summary("window_rps", &window_rps));
    println!("{}", crate::stats::summary("setup_s", &setup_s));

    if !tracer.enabled() {
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("peak_rss_mb", median(&window_peaks_mb), "MB");
        report.metric(
            "latency_p50_ms",
            median(&latencies(Some("hit"), None)),
            "ms",
        );
        report.metric("throughput", median(&window_rps), "1/s");
        return Ok(report);
    }

    let untraced_p50 = median(&latencies(None, Some(Phase::Untraced)));
    let traced_p50 = median(&latencies(None, Some(Phase::Traced)));
    crate::layers::probe(run, &input, &mut report)?;
    report.metric("trace.overhead_ratio", traced_p50 / untraced_p50, "ratio");
    Ok(report)
}

/// Every body answering one query at one generation must be byte-identical
/// (compared through its FNV-1a hash, so the run keeps no bodies), and every
/// cache hit must repeat a miss the run saw.
fn check_bodies(exchanges: &[Exchange], report: &mut Report) {
    let mut by_key: BTreeMap<(u64, &str), (Vec<u64>, bool, bool)> = BTreeMap::new();
    for e in exchanges
        .iter()
        .filter(|e| e.kind != Kind::Mutate && e.status == 200)
    {
        let Some(generation) = e.generation else {
            report.check(false, || {
                format!("request {} answered no generation", e.request_id)
            });
            continue;
        };
        let entry = by_key.entry((generation, &e.body)).or_default();
        entry.0.push(e.body_hash);
        entry.1 |= e.cache == Some(CacheState::Hit);
        entry.2 |= e.cache == Some(CacheState::Miss);
    }
    for ((generation, query), (hashes, hit, miss)) in &by_key {
        report.check(hashes.iter().all(|h| *h == hashes[0]), || {
            format!("bodies for {query} at generation {generation} differ")
        });
        report.check(!hit || *miss, || {
            format!("cache hit for {query} at generation {generation} without a miss")
        });
    }
}

/// FNV-1a over a response body: equal bodies hash equal.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}
