//! A minimal `mochy-serve` client over plain `std::net::TcpStream`.
//!
//! ```text
//! cargo run --example serve_client -- 127.0.0.1:7700 [--upload NAME=PATH.mochy]
//!     [--keep-alive N] [--shutdown]
//! ```
//!
//! Queries a running server — `GET /healthz`, `GET /datasets`, one
//! `POST /count` against the first listed dataset (twice, to show the
//! cache) — and prints what it finds. With `--upload NAME=PATH` it first
//! ingests a `.mochy` snapshot through `POST /datasets` (base64 in the
//! JSON body) and asserts the fresh dataset answers `/count`. It then
//! inserts the hyperedge `[0, 1]` into that dataset, which belongs to this
//! client, and removes it again through `POST /mutate`. The generation-2
//! `mochy-e` body, which the server renders from the counts its streaming
//! writer carries, must equal the generation-0 body, which MoCHy-E
//! computed, in `counts`, `total`, `num_hyperwedges` and `num_edges`
//! (`num_nodes` may differ: a republished snapshot sizes its nodes as the
//! largest id + 1). With
//! `--keep-alive N` it then repeats the `/count` query N times over ONE
//! persistent connection, asserting every response arrives with status 200
//! and `connection: keep-alive` — the smoke for the server's HTTP/1.1
//! keep-alive path. With `--shutdown` it additionally sends
//! `POST /shutdown`, asking the server to exit cleanly. Exits non-zero on
//! any failure, which is what lets the CI smoke stage use it as its
//! assertion harness.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mochy_json::{self as json, JsonValue};
use mochy_serve::b64;

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
        let response = request(&addr, "POST", "/datasets", &body);
        expect_status(&response, 201, "/datasets (upload)");
        let doc = parse(&response.body, "/datasets (upload)");
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
        let counted = request(&addr, "POST", "/count", &count_body);
        expect_status(&counted, 200, "/count (uploaded dataset)");
        let doc = parse(&counted.body, "/count (uploaded dataset)");
        println!("count[{name}]: total={}", field(&doc, "total"));
        round_trip_mutation(&addr, name, &count_body, &doc);
    }

    let health = request(&addr, "GET", "/healthz", "");
    expect_status(&health, 200, "/healthz");
    let doc = parse(&health.body, "/healthz");
    println!(
        "healthz: status={} datasets={} uptime={}ms (cache: {})",
        doc.get("status").and_then(JsonValue::as_str).unwrap_or("?"),
        field(&doc, "datasets"),
        field(&doc, "uptime_ms"),
        health.cache.as_deref().unwrap_or("n/a"),
    );

    let listing = request(&addr, "GET", "/datasets", "");
    expect_status(&listing, 200, "/datasets");
    let doc = parse(&listing.body, "/datasets");
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
    let uncached = request(&addr, "POST", "/count", &body);
    expect_status(&uncached, 200, "/count");
    let again = request(&addr, "POST", "/count", &body);
    expect_status(&again, 200, "/count (cached)");
    if uncached.body != again.body {
        eprintln!("cached /count response differs from the uncached one");
        std::process::exit(1);
    }
    let doc = parse(&uncached.body, "/count");
    println!(
        "count[{first}]: total={} hyperwedges={} ({} then {})",
        field(&doc, "total"),
        field(&doc, "num_hyperwedges"),
        uncached.cache.as_deref().unwrap_or("?"),
        again.cache.as_deref().unwrap_or("?"),
    );

    if let Some(requests) = keep_alive {
        keep_alive_session(&addr, requests, &body, &uncached.body);
    }

    if shutdown {
        let response = request(&addr, "POST", "/shutdown", "");
        expect_status(&response, 200, "/shutdown");
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
        let response = request(addr, "POST", "/mutate", &body);
        expect_status(&response, 200, "/mutate (uploaded dataset)");
        parse(&response.body, "/mutate (uploaded dataset)")
    };
    let pair = JsonValue::Array(vec![JsonValue::Number(0.0), JsonValue::Number(1.0)]);
    let inserted = mutate("insert", pair);
    let Some(id) = inserted
        .get("inserted")
        .and_then(JsonValue::as_array)
        .and_then(|ids| ids.first())
        .and_then(JsonValue::as_f64)
    else {
        eprintln!("/mutate answered no inserted id: {}", inserted.render());
        std::process::exit(1);
    };
    mutate("remove", JsonValue::Number(id));
    let carried = request(addr, "POST", "/count", count_body);
    expect_status(&carried, 200, "/count (generation 2)");
    let doc = parse(&carried.body, "/count (generation 2)");
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

/// `requests` consecutive `POST /count` exchanges over ONE persistent
/// connection: every response must be 200, byte-identical to the reference
/// body, and advertise `connection: keep-alive` (a `close` before the last
/// exchange means the server dropped the session early).
fn keep_alive_session(addr: &str, requests: usize, body: &str, reference: &str) {
    let fail = |message: String| -> ! {
        eprintln!("keep-alive session against {addr} failed: {message}");
        std::process::exit(1);
    };
    let attempt = || -> std::io::Result<()> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut carry: Vec<u8> = Vec::new();
        for exchange in 0..requests {
            stream.write_all(
                format!(
                    "POST /count HTTP/1.1\r\nhost: mochy\r\nconnection: keep-alive\r\n\
                     content-length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )?;
            // Read one Content-Length-framed response from the shared stream.
            let mut chunk = [0u8; 2048];
            let head_end = loop {
                if let Some(position) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
                    break position;
                }
                let read = stream.read(&mut chunk)?;
                if read == 0 {
                    fail(format!(
                        "server closed the connection after {exchange} of {requests} exchanges"
                    ));
                }
                carry.extend_from_slice(&chunk[..read]);
            };
            let head = String::from_utf8_lossy(&carry[..head_end]).to_string();
            let status = head.split(' ').nth(1).unwrap_or("?").to_string();
            if status != "200" {
                fail(format!("exchange {exchange}: expected 200, got {status}"));
            }
            if !head
                .lines()
                .any(|line| line.eq_ignore_ascii_case("connection: keep-alive"))
            {
                fail(format!(
                    "exchange {exchange}: server did not advertise connection: keep-alive\n{head}"
                ));
            }
            let content_length: usize = head
                .lines()
                .find_map(|line| line.strip_prefix("content-length: "))
                .and_then(|value| value.parse().ok())
                .unwrap_or_else(|| fail(format!("exchange {exchange}: missing content-length")));
            let body_end = head_end + 4 + content_length;
            while carry.len() < body_end {
                let read = stream.read(&mut chunk)?;
                if read == 0 {
                    fail(format!("exchange {exchange}: connection closed mid-body"));
                }
                carry.extend_from_slice(&chunk[..read]);
            }
            let payload = String::from_utf8_lossy(&carry[head_end + 4..body_end]).to_string();
            if payload != reference {
                fail(format!(
                    "exchange {exchange}: response body differs from the per-connection one"
                ));
            }
            carry.drain(..body_end);
        }
        Ok(())
    };
    attempt().unwrap_or_else(|error| fail(format!("{error}")));
    println!("keep-alive: {requests} /count exchanges on one connection, all 200 + cached bytes");
}

struct Response {
    status: u16,
    cache: Option<String>,
    body: String,
}

/// One HTTP/1.1 exchange on a fresh connection. Sends `connection: close`
/// so the (keep-alive) server ends the response with EOF — which is what
/// lets this simple client frame it with `read_to_string`.
fn request(addr: &str, method: &str, path: &str, body: &str) -> Response {
    let attempt = || -> std::io::Result<Response> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nhost: mochy\r\nconnection: close\r\n\
                 content-length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )?;
        let mut raw = String::new();
        stream.read_to_string(&mut raw)?;
        let (head, payload) = raw
            .split_once("\r\n\r\n")
            .ok_or_else(|| std::io::Error::other("truncated response"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other("bad status line"))?;
        let cache = head
            .lines()
            .find_map(|line| line.strip_prefix("x-mochy-cache: ").map(str::to_string));
        Ok(Response {
            status,
            cache,
            body: payload.to_string(),
        })
    };
    attempt().unwrap_or_else(|error| {
        eprintln!("{method} {path} against {addr} failed: {error}");
        std::process::exit(1);
    })
}

fn expect_status(response: &Response, expected: u16, what: &str) {
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
