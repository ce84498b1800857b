//! Distributed scatter-gather, end to end over real TCP: a coordinator and
//! three shard workers on ephemeral ports, all booted from one `.mochy`
//! snapshot, exercising bit-identity against the unsharded count, retry
//! after a worker dies mid-sequence, deadline-triggered reassignment around
//! a stalling worker, refusal by a worker holding a different snapshot, the
//! uniform fan-out error envelope, and byte-identical cache hits through
//! the coordinator.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use mochy_hypergraph::{write_snapshot_file, Hypergraph, HypergraphBuilder};
use mochy_json::{self as json, JsonValue};
use mochy_serve::api::Role;
use mochy_serve::client::HttpClient;
use mochy_serve::coordinator::Coordinator;
use mochy_serve::registry::Registry;
use mochy_serve::server::{Server, ServerConfig};
use mochy_serve::worker::WorkerState;

const DEADLINE: Duration = Duration::from_secs(30);
const NUM_SHARDS: usize = 3;

/// The first `num_edges` hyperedges of one fixed sequence, so a smaller
/// count is exactly the larger dataset minus its last hyperedges.
fn dataset_of(num_edges: u32) -> Hypergraph {
    let mut builder = HypergraphBuilder::new();
    for e in 0..num_edges {
        let base = e % 13;
        builder.add_edge(vec![base, base + 2, (base * 5) % 17, (e / 3) % 9 + 1]);
    }
    builder.build().expect("dataset builds")
}

/// A hypergraph big enough that every shard holds edges and motifs cross
/// shard boundaries.
fn dataset() -> Hypergraph {
    dataset_of(60)
}

/// Writes `hypergraph` as a `.mochy` snapshot at a unique temp path.
fn write_dataset(tag: &str, hypergraph: &Hypergraph) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "mochy-distributed-{tag}-{}.mochy",
        std::process::id()
    ));
    write_snapshot_file(hypergraph, &path).expect("write snapshot");
    path
}

/// Writes [`dataset`] as the snapshot every role of a test boots from.
fn write_snapshot(tag: &str) -> PathBuf {
    write_dataset(tag, &dataset())
}

fn cleanup(snapshot: &Path) {
    let _ = std::fs::remove_file(snapshot);
}

fn quiet_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_depth: 8,
        ..ServerConfig::default()
    }
}

fn boot_worker(snapshot: &Path) -> Server {
    let state = WorkerState::boot("dist", snapshot).expect("boot worker state");
    Server::start_with_role(
        quiet_config(),
        Registry::new(),
        Role::Worker(Arc::new(state)),
    )
    .expect("bind worker")
}

fn boot_coordinator(
    snapshot: &Path,
    peers: Vec<String>,
    deadline: Duration,
    retries: usize,
) -> Server {
    let coordinator =
        Coordinator::boot("dist", snapshot, peers, deadline, retries).expect("boot coordinator");
    Server::start_with_role(
        quiet_config(),
        Registry::new(),
        Role::Coordinator(Arc::new(coordinator)),
    )
    .expect("bind coordinator")
}

/// The fields of a count body that define the answer (excludes topology
/// fields like `shards` that legitimately differ between a standalone
/// server and the coordinator).
fn count_fingerprint(body: &str) -> (String, String, String) {
    let parsed = json::parse(body).expect("count body parses");
    let field = |name: &str| parsed.get(name).expect(name).render();
    (field("counts"), field("total"), field("num_hyperwedges"))
}

#[test]
fn coordinator_counts_are_bit_identical_to_unsharded() {
    let snapshot = write_snapshot("identity");
    let workers: Vec<Server> = (0..NUM_SHARDS).map(|_| boot_worker(&snapshot)).collect();
    let peers: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let coordinator = boot_coordinator(&snapshot, peers, DEADLINE, 2);

    // Reference: the same hypergraph served unsharded by a standalone server.
    let registry = Registry::new();
    registry.insert("dist", dataset());
    let standalone = Server::start(quiet_config(), registry).expect("bind standalone");

    let query = r#"{"dataset": "dist", "method": "mochy-e"}"#;
    let mut via_coordinator = HttpClient::new(coordinator.local_addr().to_string());
    let distributed = via_coordinator
        .post("/v1/count", query, DEADLINE)
        .expect("distributed count");
    assert_eq!(distributed.status, 200, "{}", distributed.body);

    let mut direct = HttpClient::new(standalone.local_addr().to_string());
    let unsharded = direct
        .post("/v1/count", query, DEADLINE)
        .expect("unsharded count");
    assert_eq!(unsharded.status, 200, "{}", unsharded.body);

    assert_eq!(
        count_fingerprint(&distributed.body),
        count_fingerprint(&unsharded.body),
        "distributed counts must be bit-identical to the unsharded run"
    );

    // The distributed body reports the topology: one shard per worker.
    let parsed = json::parse(&distributed.body).expect("body parses");
    assert_eq!(parsed.get("shards").and_then(JsonValue::as_u64), Some(3));

    // Cache hit through the coordinator: byte-identical body, hit header.
    let repeat = via_coordinator
        .post("/v1/count", query, DEADLINE)
        .expect("repeat count");
    assert_eq!(repeat.header("x-mochy-cache"), Some("hit"));
    assert_eq!(
        repeat.body, distributed.body,
        "cache hit must be byte-identical"
    );

    // The coordinator's healthz names the role and the worker table.
    let health = via_coordinator
        .get("/v1/healthz", DEADLINE)
        .expect("healthz");
    let health_body = json::parse(&health.body).expect("healthz parses");
    assert_eq!(
        health_body.get("role").and_then(JsonValue::as_str),
        Some("coordinator")
    );
    let fanout = health_body.get("fanout").expect("fanout section");
    assert_eq!(
        fanout.get("num_shards").and_then(JsonValue::as_u64),
        Some(3)
    );

    // And a worker's healthz reports its role and the snapshot it holds,
    // the same checksum the coordinator reports.
    let mut via_worker = HttpClient::new(
        workers
            .first()
            .expect("have workers")
            .local_addr()
            .to_string(),
    );
    let worker_health = via_worker
        .get("/v1/healthz", DEADLINE)
        .expect("worker healthz");
    let worker_body = json::parse(&worker_health.body).expect("worker healthz parses");
    assert_eq!(
        worker_body.get("role").and_then(JsonValue::as_str),
        Some("worker")
    );
    let held = worker_body
        .get("worker")
        .and_then(|worker| worker.get("snapshot"))
        .and_then(JsonValue::as_str)
        .expect("worker snapshot");
    assert_eq!(held.len(), 16);
    assert_eq!(
        fanout.get("snapshot").and_then(JsonValue::as_str),
        Some(held)
    );

    drop(via_coordinator);
    coordinator.shutdown();
    for worker in &workers {
        worker.shutdown();
    }
    standalone.shutdown();
    cleanup(&snapshot);
}

#[test]
fn a_killed_worker_is_retried_on_survivors_bit_identically() {
    let snapshot = write_snapshot("retry");
    let workers: Vec<Server> = (0..NUM_SHARDS).map(|_| boot_worker(&snapshot)).collect();
    let peers: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let coordinator = boot_coordinator(&snapshot, peers, DEADLINE, 2);
    let mut client = HttpClient::new(coordinator.local_addr().to_string());

    // Baseline with all workers alive.
    let query = r#"{"dataset": "dist", "method": "mochy-e"}"#;
    let baseline = client.post("/v1/count", query, DEADLINE).expect("baseline");
    assert_eq!(baseline.status, 200, "{}", baseline.body);

    // Kill one worker outright, then issue a *different* query (the first
    // is cached) so the scatter really runs against the degraded set.
    let (killed, survivors) = workers.split_first().expect("have workers");
    killed.shutdown();
    let degraded_query = r#"{"dataset": "dist", "method": "mochy-e", "threads": 2}"#;
    let degraded = client
        .post("/v1/count", degraded_query, DEADLINE)
        .expect("count with a dead worker");
    assert_eq!(
        degraded.status, 200,
        "retry/reassignment must absorb a dead worker: {}",
        degraded.body
    );
    assert_eq!(
        count_fingerprint(&degraded.body),
        count_fingerprint(&baseline.body),
        "reassigned counts must not change a bit"
    );

    coordinator.shutdown();
    for worker in survivors {
        worker.shutdown();
    }
    cleanup(&snapshot);
}

#[test]
fn a_stalling_worker_hits_the_deadline_and_is_reassigned() {
    let snapshot = write_snapshot("stall");
    // A "worker" that accepts connections and then never answers.
    let stall = TcpListener::bind("127.0.0.1:0").expect("bind stall listener");
    let stall_addr = stall.local_addr().expect("stall addr").to_string();
    let stall_thread = std::thread::spawn(move || {
        let mut held = Vec::new();
        // Hold sockets open without responding until the listener is closed
        // from the outside (accept starts failing) or the test ends.
        while let Ok((stream, _)) = stall.accept() {
            let _ = stream.set_nodelay(true);
            held.push(stream);
            if held.len() > 16 {
                break;
            }
        }
    });

    let live = boot_worker(&snapshot);
    let peers = vec![stall_addr, live.local_addr().to_string()];
    // Short fan-out deadline so the stalled exchange fails fast.
    let coordinator = boot_coordinator(&snapshot, peers, Duration::from_millis(500), 2);
    let mut client = HttpClient::new(coordinator.local_addr().to_string());

    let query = r#"{"dataset": "dist", "method": "mochy-e"}"#;
    let response = client.post("/v1/count", query, DEADLINE).expect("count");
    assert_eq!(
        response.status, 200,
        "the live worker must absorb the stalled worker's shards: {}",
        response.body
    );

    coordinator.shutdown();
    live.shutdown();
    drop(client);
    drop(stall_thread); // detach: it exits when its listener errors at teardown
    cleanup(&snapshot);
}

#[test]
fn a_worker_holding_another_snapshot_is_refused_and_retried() {
    // 61 hyperedges: dropping the last one leaves shard 0 of a 2-shard
    // layout spanning 0..30 either way, so the span check alone cannot tell
    // the two snapshots apart — only the snapshot check can.
    let full = dataset_of(61);
    let snapshot = write_dataset("mismatch-full", &full);
    let other = write_dataset("mismatch-other", &dataset_of(60));
    let stale = boot_worker(&other);
    let matching = boot_worker(&snapshot);
    let stale_addr = stale.local_addr().to_string();

    let registry = Registry::new();
    registry.insert("dist", full);
    let standalone = Server::start(quiet_config(), registry).expect("bind standalone");
    let query = r#"{"dataset": "dist", "method": "mochy-e"}"#;
    let unsharded = HttpClient::new(standalone.local_addr().to_string())
        .post("/v1/count", query, DEADLINE)
        .expect("unsharded count");
    assert_eq!(unsharded.status, 200, "{}", unsharded.body);

    // Shards are dealt round-robin, so the stale worker is asked for shard 0
    // first; it refuses and the matching worker serves the retry.
    let coordinator = boot_coordinator(
        &snapshot,
        vec![stale_addr.clone(), matching.local_addr().to_string()],
        DEADLINE,
        2,
    );
    let distributed = HttpClient::new(coordinator.local_addr().to_string())
        .post("/v1/count", query, DEADLINE)
        .expect("distributed count");
    assert_eq!(distributed.status, 200, "{}", distributed.body);
    assert_eq!(
        count_fingerprint(&distributed.body),
        count_fingerprint(&unsharded.body),
        "a partial of another snapshot must never reach the merge"
    );

    // With the stale worker as the only peer there is nobody to retry on.
    let lonely = boot_coordinator(&snapshot, vec![stale_addr.clone()], DEADLINE, 2);
    let response = HttpClient::new(lonely.local_addr().to_string())
        .post("/v1/count", query, DEADLINE)
        .expect("exchange completes");
    assert_eq!(response.status, 502, "{}", response.body);
    let parsed = json::parse(&response.body).expect("error body parses");
    let error = parsed.get("error").expect("error envelope");
    assert_eq!(
        error.get("kind").and_then(JsonValue::as_str),
        Some("fanout-failed")
    );
    let attempt = error
        .get("detail")
        .and_then(|detail| detail.get("failed_shards"))
        .and_then(JsonValue::as_array)
        .and_then(|failed| failed.first())
        .and_then(|failure| failure.get("attempts"))
        .and_then(JsonValue::as_array)
        .and_then(|attempts| attempts.first())
        .expect("one logged attempt");
    assert_eq!(
        attempt.get("worker").and_then(JsonValue::as_str),
        Some(stale_addr.as_str())
    );
    let logged = attempt
        .get("error")
        .and_then(JsonValue::as_str)
        .unwrap_or_default();
    assert!(
        logged.contains("409") && logged.contains("snapshot mismatch"),
        "the attempt log must name the snapshot mismatch: {logged}"
    );

    lonely.shutdown();
    coordinator.shutdown();
    standalone.shutdown();
    stale.shutdown();
    matching.shutdown();
    cleanup(&snapshot);
    cleanup(&other);
}

#[test]
fn total_fanout_failure_is_a_structured_502() {
    let snapshot = write_snapshot("fail");
    // Reserve a port, then close the listener so the address refuses.
    let dead_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").to_string()
    };
    let coordinator = boot_coordinator(
        &snapshot,
        vec![dead_addr.clone()],
        Duration::from_millis(500),
        1,
    );
    let mut client = HttpClient::new(coordinator.local_addr().to_string());

    let response = client
        .post(
            "/v1/count",
            r#"{"dataset": "dist", "method": "mochy-e"}"#,
            DEADLINE,
        )
        .expect("exchange completes");
    assert_eq!(response.status, 502, "{}", response.body);
    let parsed = json::parse(&response.body).expect("error body parses");
    let error = parsed.get("error").expect("error envelope");
    assert_eq!(error.get("code").and_then(JsonValue::as_u64), Some(502));
    assert_eq!(
        error.get("kind").and_then(JsonValue::as_str),
        Some("fanout-failed")
    );
    let detail = error.get("detail").expect("partial-failure detail");
    assert_eq!(detail.get("gathered").and_then(JsonValue::as_u64), Some(0));
    let failed = detail.get("failed_shards").expect("failed shards");
    let JsonValue::Array(failed) = failed else {
        panic!("failed_shards must be an array: {failed:?}");
    };
    // One peer, so one shard.
    assert_eq!(failed.len(), 1);
    let first = failed.first().expect("one failure");
    assert_eq!(first.get("shard").and_then(JsonValue::as_u64), Some(0));
    let attempts = first.get("attempts").expect("attempt log");
    let JsonValue::Array(attempts) = attempts else {
        panic!("attempts must be an array: {attempts:?}");
    };
    let attempt = attempts.first().expect("at least one attempt");
    assert_eq!(
        attempt.get("worker").and_then(JsonValue::as_str),
        Some(dead_addr.as_str())
    );
    assert!(attempt.get("error").is_some());

    coordinator.shutdown();
    cleanup(&snapshot);
}

#[test]
fn the_distributed_dataset_rejects_unsupported_query_shapes() {
    let snapshot = write_snapshot("shapes");
    let worker = boot_worker(&snapshot);
    let coordinator = boot_coordinator(
        &snapshot,
        vec![worker.local_addr().to_string()],
        DEADLINE,
        1,
    );
    let mut client = HttpClient::new(coordinator.local_addr().to_string());

    for (body, needle) in [
        (
            r#"{"dataset": "dist", "method": "mochy-a", "samples": 10}"#,
            "only the exact method",
        ),
        (
            r#"{"dataset": "dist", "method": "mochy-e", "generalized": 3}"#,
            "not available",
        ),
        (
            r#"{"dataset": "dist", "method": "mochy-e", "shards": 2}"#,
            "one shard per worker",
        ),
    ] {
        let response = client.post("/v1/count", body, DEADLINE).expect("exchange");
        assert_eq!(response.status, 400, "{body} → {}", response.body);
        let parsed = json::parse(&response.body).expect("error parses");
        let message = parsed
            .get("error")
            .and_then(|error| error.get("message"))
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string();
        assert!(message.contains(needle), "`{message}` lacks `{needle}`");
    }

    coordinator.shutdown();
    worker.shutdown();
    cleanup(&snapshot);
}
