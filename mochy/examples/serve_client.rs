//! A minimal `mochy-serve` client built on `mochy::serve::client`, the
//! workspace's one HTTP request writer and response reader.
//!
//! ```text
//! cargo run --example serve_client -- 127.0.0.1:7700 [--upload NAME=PATH.mochy]
//!     [--keep-alive N] [--shutdown]
//! ```
//!
//! Queries a running server — `GET /v1/healthz`, `GET /v1/datasets`, one
//! `POST /v1/count` against the first listed dataset (twice, to show the
//! cache) — and prints what it finds. With `--upload NAME=PATH` it first
//! ingests a `.mochy` snapshot through `POST /v1/datasets` (base64 in the
//! JSON body) and asserts the fresh dataset answers `/v1/count`. It then
//! inserts the hyperedge `[0, 1]` into that dataset, which belongs to this
//! client, and removes it again through `POST /v1/mutate`. The generation-2
//! `mochy-e` body, which the server renders from the counts its streaming
//! writer carries, must equal the generation-0 body, which MoCHy-E
//! computed, in `counts`, `total`, `num_hyperwedges` and `num_edges`
//! (`num_nodes` may differ: a republished snapshot sizes its nodes as the
//! largest id + 1). With
//! `--keep-alive N` it then repeats the `/v1/count` query N times over ONE
//! persistent connection, asserting every response arrives with status 200
//! and `connection: keep-alive` — the smoke for the server's HTTP/1.1
//! keep-alive path. With `--shutdown` it additionally sends
//! `POST /v1/admin/shutdown`, asking the server to exit cleanly. Exits
//! non-zero on any failure, which is what lets the CI smoke stage use it as
//! its assertion harness.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use mochy::serve::b64;
use mochy::serve::client::{read_response, write_request, ClientError, ClientResponse};
use mochy::serve::http::Persistence;
use mochy_json::{self as json, JsonValue};

/// Bound on one exchange (write plus response).
const DEADLINE: Duration = Duration::from_secs(30);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7700".to_string());
    let shutdown = args.iter().any(|a| a == "--shutdown");
    let keep_alive = args
        .iter()
        .position(|a| a == "--keep-alive")
        .map(|position| {
            args.get(position + 1)
                .and_then(|n| n.parse::<usize>().ok())
                .filter(|n| *n > 0)
                .unwrap_or_else(|| {
                    eprintln!("--keep-alive requires a positive request count");
                    std::process::exit(2);
                })
        });
    let upload = args.iter().position(|a| a == "--upload").map(|position| {
        let spec = args.get(position + 1).unwrap_or_else(|| {
            eprintln!("--upload requires NAME=PATH");
            std::process::exit(2);
        });
        spec.split_once('=')
            .map(|(name, path)| (name.to_string(), path.to_string()))
            .unwrap_or_else(|| {
                eprintln!("bad --upload `{spec}` (expected NAME=PATH)");
                std::process::exit(2);
            })
    });

    if let Some((name, path)) = &upload {
        let bytes = std::fs::read(path).unwrap_or_else(|error| {
            eprintln!("failed to read snapshot `{path}`: {error}");
            std::process::exit(1);
        });
        let body = JsonValue::Object(vec![
            ("name".to_string(), JsonValue::string(name.clone())),
            (
                "snapshot".to_string(),
                JsonValue::string(b64::encode(&bytes)),
            ),
        ])
        .render();
        let response = request(&addr, "POST", "/v1/datasets", &body);
        expect_status(&response, 201, "/v1/datasets (upload)");
        let doc = parse(&response.body, "/v1/datasets (upload)");
        println!(
            "uploaded {name}: {} nodes, {} hyperedges ({} snapshot bytes)",
            field(&doc, "num_nodes"),
            field(&doc, "num_edges"),
            bytes.len(),
        );
        let count_body = JsonValue::Object(vec![
            ("dataset".to_string(), JsonValue::string(name.clone())),
            ("method".to_string(), JsonValue::string("mochy-e")),
        ])
        .render();
        let counted = request(&addr, "POST", "/v1/count", &count_body);
        expect_status(&counted, 200, "/v1/count (uploaded dataset)");
        let doc = parse(&counted.body, "/v1/count (uploaded dataset)");
        println!("count[{name}]: total={}", field(&doc, "total"));
        round_trip_mutation(&addr, name, &count_body, &doc);
    }

    let health = request(&addr, "GET", "/v1/healthz", "");
    expect_status(&health, 200, "/v1/healthz");
    let doc = parse(&health.body, "/v1/healthz");
    println!(
        "healthz: status={} datasets={} uptime={}ms (cache: {})",
        doc.get("status").and_then(JsonValue::as_str).unwrap_or("?"),
        field(&doc, "datasets"),
        field(&doc, "uptime_ms"),
        health.header("x-mochy-cache").unwrap_or("n/a"),
    );

    let listing = request(&addr, "GET", "/v1/datasets", "");
    expect_status(&listing, 200, "/v1/datasets");
    let doc = parse(&listing.body, "/v1/datasets");
    let datasets = doc
        .get("datasets")
        .and_then(JsonValue::as_array)
        .unwrap_or_default();
    let Some(first) = datasets
        .first()
        .and_then(|d| d.get("name"))
        .and_then(JsonValue::as_str)
        .map(str::to_string)
    else {
        eprintln!("server lists no datasets");
        std::process::exit(1);
    };
    for dataset in datasets {
        println!(
            "dataset {}: generation={} nodes={} hyperedges={}",
            dataset
                .get("name")
                .and_then(JsonValue::as_str)
                .unwrap_or("?"),
            field(dataset, "generation"),
            field(dataset, "num_nodes"),
            field(dataset, "num_edges"),
        );
    }

    // Render through mochy_json rather than format!: dataset names are
    // server-operator-controlled and may need escaping.
    let body = JsonValue::Object(vec![
        ("dataset".to_string(), JsonValue::string(first.clone())),
        ("method".to_string(), JsonValue::string("mochy-e")),
    ])
    .render();
    let uncached = request(&addr, "POST", "/v1/count", &body);
    expect_status(&uncached, 200, "/v1/count");
    let again = request(&addr, "POST", "/v1/count", &body);
    expect_status(&again, 200, "/v1/count (cached)");
    if uncached.body != again.body {
        eprintln!("cached /count response differs from the uncached one");
        std::process::exit(1);
    }
    let doc = parse(&uncached.body, "/v1/count");
    println!(
        "count[{first}]: total={} hyperwedges={} ({} then {})",
        field(&doc, "total"),
        field(&doc, "num_hyperwedges"),
        uncached.header("x-mochy-cache").unwrap_or("?"),
        again.header("x-mochy-cache").unwrap_or("?"),
    );

    if let Some(requests) = keep_alive {
        keep_alive_session(&addr, requests, &body, &uncached.body);
    }

    if shutdown {
        let response = request(&addr, "POST", "/v1/admin/shutdown", "");
        expect_status(&response, 200, "/v1/admin/shutdown");
        println!("shutdown requested: {}", response.body);
    }
}

/// Inserts `[0, 1]` into the uploaded dataset `name`, removes it again, and
/// requires the generation-2 `mochy-e` body — rendered from the counts the
/// server's streaming writer carries — to equal `recounted`, the
/// generation-0 body MoCHy-E computed, in every counted field.
fn round_trip_mutation(addr: &str, name: &str, count_body: &str, recounted: &JsonValue) {
    let mutate = |key: &str, value: JsonValue| {
        let body = JsonValue::Object(vec![
            ("dataset".to_string(), JsonValue::string(name)),
            (key.to_string(), JsonValue::Array(vec![value])),
        ])
        .render();
        let response = request(addr, "POST", "/v1/mutate", &body);
        expect_status(&response, 200, "/v1/mutate (uploaded dataset)");
        parse(&response.body, "/v1/mutate (uploaded dataset)")
    };
    let pair = JsonValue::Array(vec![JsonValue::Number(0.0), JsonValue::Number(1.0)]);
    let inserted = mutate("insert", pair);
    let Some(id) = inserted
        .get("inserted")
        .and_then(JsonValue::as_array)
        .and_then(|ids| ids.first())
        .and_then(JsonValue::as_f64)
    else {
        eprintln!("/v1/mutate answered no inserted id: {}", inserted.render());
        std::process::exit(1);
    };
    mutate("remove", JsonValue::Number(id));
    let carried = request(addr, "POST", "/v1/count", count_body);
    expect_status(&carried, 200, "/v1/count (generation 2)");
    let doc = parse(&carried.body, "/v1/count (generation 2)");
    if doc.get("generation").and_then(JsonValue::as_f64) != Some(2.0) {
        eprintln!("expected a generation-2 body, got {}", carried.body);
        std::process::exit(1);
    }
    for key in ["counts", "total", "num_hyperwedges", "num_edges"] {
        if doc.get(key) != recounted.get(key) {
            eprintln!(
                "generation-2 `{key}` {} differs from the generation-0 recount {}",
                field(&doc, key),
                field(recounted, key)
            );
            std::process::exit(1);
        }
    }
    println!(
        "mutate[{name}]: insert + remove of edge {id} keeps total={} at generation 2",
        field(&doc, "total")
    );
}

/// `requests` consecutive `POST /v1/count` exchanges over ONE persistent
/// connection: every response must be 200, byte-identical to the reference
/// body, and advertise `connection: keep-alive` (a `close` before the last
/// exchange means the server dropped the session early).
fn keep_alive_session(addr: &str, requests: usize, body: &str, reference: &str) {
    let fail = |message: String| -> ! {
        eprintln!("keep-alive session against {addr} failed: {message}");
        std::process::exit(1);
    };
    let mut stream = TcpStream::connect(addr).unwrap_or_else(|error| fail(error.to_string()));
    let mut carry: Vec<u8> = Vec::new();
    for exchange in 0..requests {
        let response = write_request(
            &mut stream,
            addr,
            "POST",
            "/v1/count",
            body,
            Persistence::KeepAlive,
        )
        .and_then(|()| read_response(&mut stream, &mut carry, Instant::now(), DEADLINE))
        .unwrap_or_else(|error| match error {
            ClientError::Closed => fail(format!(
                "server closed the connection after {exchange} of {requests} exchanges"
            )),
            error => fail(format!("exchange {exchange}: {error}")),
        });
        if response.status != 200 {
            fail(format!(
                "exchange {exchange}: expected 200, got {}",
                response.status
            ));
        }
        let connection = response.header("connection").unwrap_or_default();
        if !connection.eq_ignore_ascii_case("keep-alive") {
            fail(format!(
                "exchange {exchange}: server did not advertise connection: keep-alive \
                 (connection: {connection})"
            ));
        }
        if response.body != reference {
            fail(format!(
                "exchange {exchange}: response body differs from the per-connection one"
            ));
        }
    }
    println!(
        "keep-alive: {requests} /v1/count exchanges on one connection, all 200 + cached bytes"
    );
}

/// One HTTP/1.1 exchange on a fresh connection that asks the server to
/// close it after answering.
fn request(addr: &str, method: &str, path: &str, body: &str) -> ClientResponse {
    let attempt = || -> Result<ClientResponse, String> {
        let mut stream = TcpStream::connect(addr).map_err(|error| error.to_string())?;
        write_request(&mut stream, addr, method, path, body, Persistence::Close)
            .and_then(|()| read_response(&mut stream, &mut Vec::new(), Instant::now(), DEADLINE))
            .map_err(|error| error.to_string())
    };
    attempt().unwrap_or_else(|error| {
        eprintln!("{method} {path} against {addr} failed: {error}");
        std::process::exit(1);
    })
}

fn expect_status(response: &ClientResponse, expected: u16, what: &str) {
    if response.status != expected {
        eprintln!(
            "{what}: expected {expected}, got {}: {}",
            response.status, response.body
        );
        std::process::exit(1);
    }
}

fn parse(body: &str, what: &str) -> JsonValue {
    json::parse(body).unwrap_or_else(|error| {
        eprintln!("{what}: response is not valid JSON ({error}): {body}");
        std::process::exit(1);
    })
}

fn field(doc: &JsonValue, key: &str) -> String {
    doc.get(key)
        .map_or_else(|| "?".to_string(), JsonValue::render)
}
