//! `mochy-exp loadtest` — a deterministic closed-loop load harness for
//! `mochy-serve`, and the table of the CI throughput gate behind `--check`.
//!
//! Boots an in-process [`Server`] on an ephemeral port (tiny fixed datasets,
//! fixed seeds) and drives it with closed-loop concurrent clients — every
//! client waits for its response before sending the next request, so
//! offered load adapts to the server rather than overrunning it. Three
//! scenarios run per invocation:
//!
//! - **`cache-hit-keepalive`** — each client repeats one cacheable
//!   `/v1/count` query on a single persistent connection. After the first
//!   miss, every exchange is an LRU hit: this isolates the HTTP front end,
//!   which is exactly what keep-alive is supposed to speed up.
//! - **`cache-hit-per-request`** — the same query mix, but a fresh
//!   connection (with `Connection: close`) per request: the
//!   connection-per-request baseline the old front end forced on every
//!   client.
//! - **`mixed-keepalive`** — a seeded per-client mix of cache-hit repeats,
//!   distinct `/v1/count` variants, and `/v1/healthz` probes over
//!   persistent connections: a smoke of realistic traffic.
//!
//! The report is a `mochy-loadtest/1` JSON document: per-scenario request /
//! status counts (deterministic — the closed loop sends an exact number of
//! requests and the queue is sized so none are shed), throughput, and
//! p50/p95/p99 latency quantiles (noisy — gated with tolerance and a noise
//! floor, like `BENCH.json` timings). The top-level `keepalive_speedup`
//! ratio — cache-hit keep-alive throughput over cache-hit per-request
//! throughput, best ratio over paired back-to-back repeats — is the
//! machine-independent headline: both halves of a pair run on the same box
//! under the same ambient load, so the ratio gates cleanly where absolute
//! throughput would drift across machines. [`GATE`] describes the document
//! to [`crate::gate`], which fails CI on deterministic drift,
//! throughput/latency regressions beyond tolerance, and a speedup below its
//! floor.

use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mochy_datagen::{generate, DomainKind, GeneratorConfig};
use mochy_hypergraph::HypergraphBuilder;
use mochy_serve::client::{read_response, write_request, ClientError, ClientResponse};
use mochy_serve::http::Persistence;
use mochy_serve::registry::Registry;
use mochy_serve::server::{Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gate::{Block, Class, Document, Nested, Rows};

/// Configuration of a loadtest run. Everything is fixed/deterministic
/// except wall-clock timings.
#[derive(Debug, Clone, Copy)]
pub struct LoadtestOptions {
    /// Concurrent closed-loop clients per scenario.
    pub clients: usize,
    /// Requests each client sends per scenario run.
    pub requests_per_client: usize,
    /// Times each scenario is run; the fastest run is reported. Scheduler
    /// noise on a busy host is one-sided (runs only ever get slower), so
    /// best-of-k converges on the machine's true rate and keeps the
    /// keep-alive/per-request ratio stable enough to gate.
    pub repeats: usize,
    /// Seed for the mixed scenario's per-client query choice.
    pub seed: u64,
}

impl Default for LoadtestOptions {
    fn default() -> Self {
        Self {
            clients: 2,
            requests_per_client: 200,
            repeats: 5,
            seed: 0,
        }
    }
}

/// Server sizing derived from the client count: enough workers that every
/// keep-alive client owns one, plus headroom so the per-request scenario's
/// connection churn never sheds a request to the 503 path (a shed request
/// would make `responses_200` nondeterministic).
fn server_config(options: &LoadtestOptions) -> ServerConfig {
    ServerConfig {
        workers: options.clients + 2,
        queue_depth: options.clients * 4,
        cache_capacity: 64,
        max_threads: 1,
        // Far above requests_per_client: the cap must not force reconnects
        // mid-scenario, which would blur the keep-alive/per-request split.
        max_requests_per_connection: 100_000,
        idle_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

/// One request to send: method, path, body.
#[derive(Debug, Clone)]
struct Query {
    method: &'static str,
    path: &'static str,
    body: String,
}

/// The cacheable query every cache-hit client repeats.
fn cache_hit_query() -> Query {
    Query {
        method: "POST",
        path: "/v1/count",
        body: r#"{"dataset": "fig2", "seed": 1}"#.to_string(),
    }
}

/// The mixed scenario's query pool; index 0 is the cache-hit repeat and is
/// drawn with extra weight.
fn mixed_pool() -> Vec<Query> {
    let mut pool = vec![cache_hit_query()];
    for seed in 2..6u64 {
        pool.push(Query {
            method: "POST",
            path: "/v1/count",
            body: format!(
                r#"{{"dataset": "email", "method": "mochy-a+", "samples": 60, "seed": {seed}}}"#
            ),
        });
    }
    pool.push(Query {
        method: "GET",
        path: "/v1/healthz",
        body: String::new(),
    });
    pool
}

/// What one client thread observed.
#[derive(Debug, Default)]
struct ClientOutcome {
    latencies: Vec<Duration>,
    responses_200: usize,
    responses_other: usize,
    errors: usize,
}

/// Aggregated results of one scenario.
struct ScenarioResult {
    name: &'static str,
    requests: usize,
    responses_200: usize,
    responses_other: usize,
    errors: usize,
    wall_ms: f64,
    throughput_rps: f64,
    mean_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

/// Bound on one exchange of the closed loop (write plus response).
const EXCHANGE_DEADLINE: Duration = Duration::from_secs(30);

/// An open connection: its stream and the bytes read off it but not yet
/// consumed.
type Connection = (TcpStream, Vec<u8>);

/// One request/response exchange on `connection`, opened first when there
/// is none.
fn exchange(
    connection: &mut Option<Connection>,
    addr: SocketAddr,
    query: &Query,
    persistence: Persistence,
) -> Result<ClientResponse, ClientError> {
    if connection.is_none() {
        let stream =
            TcpStream::connect(addr).map_err(|error| ClientError::Connect(error.to_string()))?;
        let _ = stream.set_nodelay(true);
        *connection = Some((stream, Vec::new()));
    }
    let (stream, carry) = connection.as_mut().ok_or(ClientError::Closed)?;
    write_request(
        stream,
        "loadtest",
        query.method,
        query.path,
        &query.body,
        persistence,
    )?;
    read_response(stream, carry, Instant::now(), EXCHANGE_DEADLINE)
}

/// Runs one client's closed loop: `requests` sequential exchanges, timing
/// each one. With [`Persistence::Close`] every request opens a fresh
/// connection.
fn run_client(
    addr: SocketAddr,
    queries: &[Query],
    persistence: Persistence,
    requests: usize,
) -> ClientOutcome {
    let mut outcome = ClientOutcome::default();
    let mut connection: Option<Connection> = None;
    for i in 0..requests {
        let query = &queries[i % queries.len()];
        let started = Instant::now();
        match exchange(&mut connection, addr, query, persistence) {
            Ok(response) => {
                outcome.latencies.push(started.elapsed());
                if response.status == 200 {
                    outcome.responses_200 += 1;
                } else {
                    outcome.responses_other += 1;
                }
                if persistence == Persistence::Close || response.closes() {
                    connection = None;
                }
            }
            Err(_) => {
                outcome.errors += 1;
                connection = None;
            }
        }
    }
    outcome
}

/// The latency value at quantile `q` (0–100) by nearest rank over a sorted
/// slice.
fn quantile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)].as_secs_f64() * 1e3
}

/// Runs one scenario [`LoadtestOptions::repeats`] times and keeps the
/// fastest run (by throughput).
fn run_scenario(
    name: &'static str,
    addr: SocketAddr,
    options: &LoadtestOptions,
    persistence: Persistence,
    per_client_queries: &impl Fn(usize) -> Vec<Query>,
) -> ScenarioResult {
    let mut best: Option<ScenarioResult> = None;
    for _ in 0..options.repeats.max(1) {
        let run = run_scenario_once(name, addr, options, persistence, per_client_queries);
        let better = match &best {
            Some(current) => run.throughput_rps > current.throughput_rps,
            None => true,
        };
        if better {
            best = Some(run);
        }
    }
    // The loop above always executes at least once.
    best.unwrap_or_else(|| run_scenario_once(name, addr, options, persistence, per_client_queries))
}

/// One scenario run: `clients` threads of `requests_per_client` closed-loop
/// exchanges, released together by a barrier.
fn run_scenario_once(
    name: &'static str,
    addr: SocketAddr,
    options: &LoadtestOptions,
    persistence: Persistence,
    per_client_queries: &impl Fn(usize) -> Vec<Query>,
) -> ScenarioResult {
    let barrier = Arc::new(Barrier::new(options.clients + 1));
    let workers: Vec<_> = (0..options.clients)
        .map(|client| {
            let barrier = Arc::clone(&barrier);
            let queries = per_client_queries(client);
            let requests = options.requests_per_client;
            std::thread::spawn(move || {
                barrier.wait();
                run_client(addr, &queries, persistence, requests)
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    let outcomes: Vec<ClientOutcome> = workers
        .into_iter()
        .map(|handle| handle.join().expect("client thread"))
        .collect();
    let wall = started.elapsed();

    let requests = options.clients * options.requests_per_client;
    let responses_200 = outcomes.iter().map(|o| o.responses_200).sum();
    let responses_other = outcomes.iter().map(|o| o.responses_other).sum();
    let errors = outcomes.iter().map(|o| o.errors).sum();
    let mut latencies: Vec<Duration> = outcomes.into_iter().flat_map(|o| o.latencies).collect();
    latencies.sort();
    let mean_ms = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().map(Duration::as_secs_f64).sum::<f64>() / latencies.len() as f64 * 1e3
    };
    let wall_s = wall.as_secs_f64().max(1e-9);
    ScenarioResult {
        name,
        requests,
        responses_200,
        responses_other,
        errors,
        wall_ms: wall_s * 1e3,
        throughput_rps: requests as f64 / wall_s,
        mean_ms,
        p50_ms: quantile_ms(&latencies, 50.0),
        p95_ms: quantile_ms(&latencies, 95.0),
        p99_ms: quantile_ms(&latencies, 99.0),
    }
}

/// Boots the in-process server, runs all three scenarios, and renders the
/// `mochy-loadtest/1` JSON document.
pub fn run(options: &LoadtestOptions) -> Result<String, String> {
    let options = LoadtestOptions {
        clients: options.clients.max(1),
        requests_per_client: options.requests_per_client.max(1),
        repeats: options.repeats.max(1),
        seed: options.seed,
    };
    let registry = Registry::new();
    registry.insert(
        "fig2",
        HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0, 3, 1])
            .with_edge([4, 5, 0])
            .with_edge([6, 7, 2])
            .build()
            .map_err(|error| format!("failed to build fig2: {error}"))?,
    );
    registry.insert(
        "email",
        generate(&GeneratorConfig::new(DomainKind::Email, 120, 240, 7)),
    );
    let config = server_config(&options);
    let server = Server::start(config.clone(), registry)
        .map_err(|error| format!("failed to boot the loadtest server: {error}"))?;
    let addr = server.local_addr();

    // Scenario order matters only for cache warmth, and each scenario warms
    // its own keys on its first exchanges; the cache-hit pair uses one key
    // total, so both run overwhelmingly on hits.
    //
    // The two cache-hit scenarios run back to back inside each repeat and
    // the speedup is the best *paired* ratio: ambient load on a shared CI
    // host slows both halves of a pair alike, so the ratio stays stable
    // where two independently-chosen bests would not.
    let cache_hit = |_client: usize| vec![cache_hit_query()];
    let mut keepalive: Option<ScenarioResult> = None;
    let mut per_request: Option<ScenarioResult> = None;
    let mut speedup = 0.0f64;
    let faster = |best: &mut Option<ScenarioResult>, run: ScenarioResult| {
        let better = best
            .as_ref()
            .is_none_or(|current| run.throughput_rps > current.throughput_rps);
        if better {
            *best = Some(run);
        }
    };
    for _ in 0..options.repeats {
        let ka = run_scenario_once(
            "cache-hit-keepalive",
            addr,
            &options,
            Persistence::KeepAlive,
            &cache_hit,
        );
        let pr = run_scenario_once(
            "cache-hit-per-request",
            addr,
            &options,
            Persistence::Close,
            &cache_hit,
        );
        speedup = speedup.max(ka.throughput_rps / pr.throughput_rps.max(1e-9));
        faster(&mut keepalive, ka);
        faster(&mut per_request, pr);
    }
    let Some((keepalive, per_request)) = keepalive.zip(per_request) else {
        return Err("loadtest ran zero repeats".to_string());
    };
    let pool = mixed_pool();
    let seed = options.seed;
    let mixed = run_scenario(
        "mixed-keepalive",
        addr,
        &options,
        Persistence::KeepAlive,
        &move |client| {
            // Per-client seeded choice: weight the cache-hit repeat at ~50%,
            // the rest uniform over the pool tail. The sequence depends only
            // on (seed, client index), so request *counts* are exact and the
            // mix is reproducible.
            let mut rng = StdRng::seed_from_u64(seed ^ (client as u64).wrapping_mul(0x9e37));
            let mut queries = Vec::new();
            for _ in 0..64 {
                if rng.gen_bool(0.5) {
                    queries.push(pool[0].clone());
                } else {
                    queries.push(pool[rng.gen_range(1..pool.len())].clone());
                }
            }
            queries
        },
    );
    server.shutdown();
    server.wait();

    Ok(render_json(
        &options,
        &config,
        speedup,
        &[keepalive, per_request, mixed],
    ))
}

fn render_json(
    options: &LoadtestOptions,
    config: &ServerConfig,
    speedup: f64,
    scenarios: &[ScenarioResult],
) -> String {
    let number = |value: f64| -> String {
        if value.is_finite() {
            format!("{value:.3}")
        } else {
            "null".to_string()
        }
    };
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    out.push_str("  \"schema\": \"mochy-loadtest/1\",\n");
    out.push_str(&format!("  \"clients\": {},\n", options.clients));
    out.push_str(&format!(
        "  \"requests_per_client\": {},\n",
        options.requests_per_client
    ));
    out.push_str(&format!("  \"repeats\": {},\n", options.repeats));
    out.push_str(&format!("  \"seed\": {},\n", options.seed));
    out.push_str(&format!("  \"workers\": {},\n", config.workers));
    out.push_str(&format!("  \"queue_depth\": {},\n", config.queue_depth));
    out.push_str(&format!("  \"keepalive_speedup\": {},\n", number(speedup)));
    out.push_str("  \"scenarios\": [\n");
    for (i, scenario) in scenarios.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", scenario.name));
        out.push_str(&format!("      \"requests\": {},\n", scenario.requests));
        out.push_str(&format!(
            "      \"responses_200\": {},\n",
            scenario.responses_200
        ));
        out.push_str(&format!(
            "      \"responses_other\": {},\n",
            scenario.responses_other
        ));
        out.push_str(&format!("      \"errors\": {},\n", scenario.errors));
        out.push_str(&format!(
            "      \"wall_ms\": {},\n",
            number(scenario.wall_ms)
        ));
        out.push_str(&format!(
            "      \"throughput_rps\": {},\n",
            number(scenario.throughput_rps)
        ));
        out.push_str("      \"latency_ms\": {\n");
        out.push_str(&format!(
            "        \"mean\": {},\n",
            number(scenario.mean_ms)
        ));
        out.push_str(&format!("        \"p50\": {},\n", number(scenario.p50_ms)));
        out.push_str(&format!("        \"p95\": {},\n", number(scenario.p95_ms)));
        out.push_str(&format!("        \"p99\": {}\n", number(scenario.p99_ms)));
        out.push_str("      }\n");
        out.push_str(if i + 1 < scenarios.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The loadtest gate's table for `LOADTEST.json`: request and response
/// counters are exact, throughput and latency quantiles are gated with a 400%
/// tolerance, and `keepalive_speedup` must be at least 2.0 on the current run.
/// The speedup is machine-independent (both scenarios run on the same box in
/// the same process), so it is gated absolutely rather than against the
/// baseline.
pub const GATE: Document = Document {
    name: "loadtest",
    config: &[
        "schema",
        "clients",
        "requests_per_client",
        "repeats",
        "seed",
        "workers",
        "queue_depth",
    ],
    tolerance_pct: 400.0,
    top: Block {
        fields: &[("keepalive_speedup", Class::Floor(2.0))],
        blocks: &[],
        rows: &[Rows {
            key: "scenarios",
            kind: "scenario",
            id: "name",
            row: Block {
                fields: &[
                    ("requests", Class::Exact),
                    ("responses_200", Class::Exact),
                    ("responses_other", Class::Exact),
                    ("errors", Class::Exact),
                    ("throughput_rps", Class::Throughput),
                ],
                blocks: &[Nested {
                    key: "latency_ms",
                    optional: false,
                    block: Block {
                        fields: &[
                            ("p50", Class::Timing),
                            ("p95", Class::Timing),
                            ("p99", Class::Timing),
                        ],
                        blocks: &[],
                        rows: &[],
                    },
                }],
                rows: &[],
            },
        }],
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate;
    use crate::json::{self, JsonValue};

    /// The loadtest gate, as `mochy-exp loadtest --check` runs it.
    fn check(baseline: &str, current: &str) -> Result<String, String> {
        gate::check(&GATE, baseline, current)
    }

    fn tiny_options() -> LoadtestOptions {
        LoadtestOptions {
            clients: 2,
            requests_per_client: 8,
            repeats: 1,
            seed: 0,
        }
    }

    #[test]
    fn loadtest_emits_valid_json_with_all_scenarios() {
        let report = run(&tiny_options()).expect("loadtest runs");
        json::validate(&report).expect("loadtest output must be valid JSON");
        let doc = json::parse(&report).unwrap();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("mochy-loadtest/1")
        );
        let scenarios = doc.get("scenarios").unwrap().as_array().unwrap();
        assert_eq!(scenarios.len(), 3);
        for scenario in scenarios {
            let name = scenario.get("name").and_then(JsonValue::as_str).unwrap();
            // The closed loop completed every request, none errored, and
            // none were shed to the 503 path.
            assert_eq!(
                scenario.get("requests").and_then(JsonValue::as_f64),
                Some(16.0),
                "{name}"
            );
            assert_eq!(
                scenario.get("responses_200").and_then(JsonValue::as_f64),
                Some(16.0),
                "{name}"
            );
            assert_eq!(
                scenario.get("errors").and_then(JsonValue::as_f64),
                Some(0.0),
                "{name}"
            );
            let latency = scenario.get("latency_ms").unwrap();
            let p50 = latency.get("p50").and_then(JsonValue::as_f64).unwrap();
            let p99 = latency.get("p99").and_then(JsonValue::as_f64).unwrap();
            assert!(p50 >= 0.0 && p99 >= p50, "{name}: p50 {p50}, p99 {p99}");
        }
        assert!(
            doc.get("keepalive_speedup")
                .and_then(JsonValue::as_f64)
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn check_passes_against_itself_and_catches_counter_drift() {
        let measured = run(&tiny_options()).expect("loadtest runs");
        // Identical documents always pass, whatever this machine's timings
        // were — modulo the speedup floor, which this test must not depend
        // on, so the document states a speedup above it.
        let document = json::parse(&measured).unwrap();
        let speedup = document
            .get("keepalive_speedup")
            .and_then(JsonValue::as_f64);
        let report = measured.replacen(
            &format!("\"keepalive_speedup\": {:.3}", speedup.unwrap()),
            "\"keepalive_speedup\": 3.0",
            1,
        );
        assert_ne!(report, measured, "{measured}");
        let summary = check(&report, &report).expect("self-check must pass");
        assert!(summary.contains("loadtest gate passed"), "{summary}");

        // Counter drift is fatal regardless of tolerance.
        let drifted = report.replacen("\"responses_200\": 16", "\"responses_200\": 15", 1);
        assert_ne!(drifted, report);
        let error = check(&report, &drifted).unwrap_err();
        assert!(error.contains("`responses_200` changed"), "{error}");
    }

    /// A hand-written two-scenario document for gate-logic tests (no server
    /// boot, no timing noise).
    fn synthetic_report() -> &'static str {
        r#"{
            "schema": "mochy-loadtest/1", "clients": 2, "requests_per_client": 8,
            "repeats": 1, "seed": 0, "workers": 4, "queue_depth": 8,
            "keepalive_speedup": 3.0,
            "scenarios": [{
                "name": "cache-hit-keepalive",
                "requests": 16, "responses_200": 16, "responses_other": 0, "errors": 0,
                "wall_ms": 10.0, "throughput_rps": 1600.0,
                "latency_ms": {"mean": 0.5, "p50": 0.4, "p95": 30.0, "p99": 40.0}
            }, {
                "name": "cache-hit-per-request",
                "requests": 16, "responses_200": 16, "responses_other": 0, "errors": 0,
                "wall_ms": 30.0, "throughput_rps": 533.0,
                "latency_ms": {"mean": 1.5, "p50": 1.2, "p95": 60.0, "p99": 80.0}
            }]
        }"#
    }

    #[test]
    fn check_gates_speedup_throughput_and_latency() {
        let baseline = synthetic_report();
        assert!(check(baseline, baseline).is_ok());

        // Speedup below the floor fails even when the baseline agreed.
        let slow = baseline.replace("\"keepalive_speedup\": 3.0", "\"keepalive_speedup\": 1.4");
        let error = check(baseline, &slow).unwrap_err();
        assert!(error.contains("below the 2.00 floor"), "{error}");

        // Throughput collapse beyond tolerance fails (400% => a fifth is
        // the limit; 16x under is far out).
        let collapsed = baseline.replace("\"throughput_rps\": 1600.0", "\"throughput_rps\": 100.0");
        let error = check(baseline, &collapsed).unwrap_err();
        assert!(error.contains("`throughput_rps` regression"), "{error}");
        // …while a within-tolerance dip passes.
        let dipped = baseline.replace("\"throughput_rps\": 1600.0", "\"throughput_rps\": 900.0");
        assert!(check(baseline, &dipped).is_ok());

        // Latency quantile drift beyond tolerance fails — but only above the
        // noise floor (p50 of 0.4 ms is exempt, p95 of 30 ms is not).
        let slower = baseline.replace(
            "\"p95\": 30.0, \"p99\": 40.0",
            "\"p95\": 200.0, \"p99\": 40.0",
        );
        let error = check(baseline, &slower).unwrap_err();
        assert!(error.contains("`latency_ms`: `p95` regression"), "{error}");
        let jittery = baseline.replace("\"p50\": 0.4", "\"p50\": 5.0");
        assert!(
            check(baseline, &jittery).is_ok(),
            "sub-floor quantiles must not gate"
        );

        // Config drift and missing scenarios fail.
        let reconfigured = baseline.replace("\"clients\": 2,", "\"clients\": 4,");
        let error = check(baseline, &reconfigured).unwrap_err();
        assert!(
            error.contains("configuration: `clients` changed"),
            "{error}"
        );
        let renamed = baseline.replace("\"name\": \"cache-hit-per-request\"", "\"name\": \"gone\"");
        let error = check(baseline, &renamed).unwrap_err();
        assert!(error.contains("missing from current run"), "{error}");
        assert!(
            error.contains("scenario `gone`: not in the baseline"),
            "{error}"
        );
    }

    #[test]
    fn vacuous_baselines_fail_the_gate() {
        let empty = r#"{"schema": "mochy-loadtest/1", "clients": 2, "requests_per_client": 8,
                        "seed": 0, "workers": 4, "queue_depth": 8,
                        "keepalive_speedup": 3.0, "scenarios": []}"#;
        let error = check(empty, empty).unwrap_err();
        assert!(error.contains("vacuously"), "{error}");
    }
}
