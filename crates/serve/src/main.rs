//! `mochy-serve` — boot the motif-query service over a set of datasets.
//!
//! ```text
//! mochy-serve [--addr HOST:PORT | --port N] [--workers N] [--queue N]
//!             [--cache N] [--threads N] [--max-requests N] [--idle-ms N]
//!             [--gen NAME=DOMAIN:NODES:EDGES:SEED]... [--load NAME=PATH]...
//!             [--worker NAME=PATH]
//!             [--coordinator NAME=PATH --peers ADDR,ADDR,...]
//!             [--fanout-deadline-ms N] [--fanout-retries N]
//! ```
//!
//! With no dataset arguments the server exposes `fig2` (the paper's running
//! example) and a small generated `email` dataset. Port 0 binds an ephemeral
//! port; the chosen address is printed as `listening on HOST:PORT` so
//! scripts (the CI smoke stage) can scrape it. The process exits 0 after a
//! clean `POST /v1/admin/shutdown`.
//!
//! `--worker` boots a shard worker from one `.mochy` snapshot: it loads the
//! whole file and projects it once, then counts any shard a coordinator
//! asks for. `--coordinator` reads the same snapshot for its sizes and
//! checksum and scatters `POST /v1/count` over the `--peers` worker
//! addresses, one shard per peer (at most 64). Every shard request names
//! the snapshot checksum, and a worker holding a different file refuses it.
//! The two roles are mutually exclusive.

#![forbid(unsafe_code)]

use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use mochy_datagen::{generate, DomainKind, GeneratorConfig};
use mochy_hypergraph::{io as hio, HypergraphBuilder};
use mochy_serve::api::Role;
use mochy_serve::coordinator::Coordinator;
use mochy_serve::registry::Registry;
use mochy_serve::server::{Server, ServerConfig};
use mochy_serve::worker::{snapshot_hex, WorkerState};

// `--load` accepts text edge-lists AND binary `.mochy` snapshots (format
// auto-detected by content) — the snapshot path is what makes cold boots
// I/O-bound instead of parse-bound.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServerConfig {
        addr: "127.0.0.1:7700".to_string(),
        ..ServerConfig::default()
    };
    let registry = Registry::new();
    let mut have_datasets = false;
    let mut worker_spec: Option<String> = None;
    let mut coordinator_spec: Option<String> = None;
    let mut peers: Vec<String> = Vec::new();
    let mut fanout_deadline = Duration::from_millis(10_000);
    let mut fanout_retries = 2usize;

    let mut iter = args.iter();
    while let Some(argument) = iter.next() {
        let mut take_value = |what: &str| -> String {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("{what} requires a value");
                std::process::exit(2);
            })
        };
        match argument.as_str() {
            "--addr" => config.addr = take_value("--addr"),
            "--port" => {
                let port: u16 = take_value("--port").parse().unwrap_or_else(|_| {
                    eprintln!("invalid port");
                    std::process::exit(2);
                });
                config.addr = format!("127.0.0.1:{port}");
            }
            "--workers" => config.workers = parse_count(&take_value("--workers"), "--workers"),
            "--queue" => config.queue_depth = parse_count(&take_value("--queue"), "--queue"),
            "--cache" => config.cache_capacity = parse_count(&take_value("--cache"), "--cache"),
            "--threads" => config.max_threads = parse_count(&take_value("--threads"), "--threads"),
            "--max-requests" => {
                config.max_requests_per_connection =
                    parse_count(&take_value("--max-requests"), "--max-requests").max(1)
            }
            "--idle-ms" => {
                config.idle_timeout = std::time::Duration::from_millis(
                    parse_count(&take_value("--idle-ms"), "--idle-ms").max(1) as u64,
                )
            }
            "--gen" => {
                let spec = take_value("--gen");
                let (name, hypergraph) = generate_spec(&spec).unwrap_or_else(|error| {
                    eprintln!("bad --gen `{spec}`: {error}");
                    std::process::exit(2);
                });
                registry.insert(name, hypergraph);
                have_datasets = true;
            }
            "--load" => {
                let spec = take_value("--load");
                let Some((name, path)) = spec.split_once('=') else {
                    eprintln!("bad --load `{spec}` (expected NAME=PATH)");
                    std::process::exit(2);
                };
                match hio::read_file_auto(path) {
                    Ok(hypergraph) => registry.insert(name, hypergraph),
                    Err(error) => {
                        eprintln!("failed to load `{path}`: {error}");
                        std::process::exit(1);
                    }
                }
                have_datasets = true;
            }
            "--worker" => worker_spec = Some(take_value("--worker")),
            "--coordinator" => coordinator_spec = Some(take_value("--coordinator")),
            "--peers" => peers.extend(
                take_value("--peers")
                    .split(',')
                    .filter(|addr| !addr.is_empty())
                    .map(str::to_string),
            ),
            "--fanout-deadline-ms" => {
                fanout_deadline = Duration::from_millis(
                    parse_count(&take_value("--fanout-deadline-ms"), "--fanout-deadline-ms").max(1)
                        as u64,
                )
            }
            "--fanout-retries" => {
                fanout_retries = parse_count(&take_value("--fanout-retries"), "--fanout-retries")
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                print_usage();
                std::process::exit(2);
            }
        }
    }

    if worker_spec.is_some() && coordinator_spec.is_some() {
        eprintln!("--worker and --coordinator are mutually exclusive");
        std::process::exit(2);
    }
    let role = if let Some(spec) = worker_spec {
        let (name, path) = parse_role_spec(&spec, "--worker");
        let state = WorkerState::boot(name, Path::new(path)).unwrap_or_else(|error| {
            eprintln!("failed to boot worker from `{path}`: {error}");
            std::process::exit(1);
        });
        println!(
            "worker for dataset {name}: {} nodes, {} hyperedges, snapshot {} ({path})",
            state.num_nodes(),
            state.num_edges(),
            snapshot_hex(state.snapshot())
        );
        have_datasets = true; // a worker serves its snapshot, not the demo datasets
        Role::Worker(Arc::new(state))
    } else if let Some(spec) = coordinator_spec {
        if peers.is_empty() {
            eprintln!("--coordinator requires at least one worker address via --peers");
            std::process::exit(2);
        }
        let (name, path) = parse_role_spec(&spec, "--coordinator");
        let coordinator = Coordinator::boot(
            name,
            Path::new(path),
            peers.clone(),
            fanout_deadline,
            fanout_retries,
        )
        .unwrap_or_else(|error| {
            eprintln!("failed to boot coordinator from `{path}`: {error}");
            std::process::exit(1);
        });
        println!(
            "coordinator for dataset {name}: {} shards over {} workers, snapshot {} ({path})",
            coordinator.num_shards(),
            peers.len(),
            snapshot_hex(coordinator.snapshot())
        );
        have_datasets = true; // the distributed dataset lives on the workers
        Role::Coordinator(Arc::new(coordinator))
    } else {
        Role::Standalone
    };

    if !have_datasets {
        let fig2 = HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0, 3, 1])
            .with_edge([4, 5, 0])
            .with_edge([6, 7, 2])
            .build()
            .unwrap_or_else(|error| {
                eprintln!("failed to build the figure-2 dataset: {error}");
                std::process::exit(1);
            });
        registry.insert("fig2", fig2);
        registry.insert(
            "email",
            generate(&GeneratorConfig::new(DomainKind::Email, 300, 900, 13)),
        );
    }

    for (name, dataset) in registry.entries() {
        let snapshot = dataset.snapshot();
        println!(
            "dataset {name}: {} nodes, {} hyperedges",
            snapshot.num_nodes(),
            snapshot.num_edges()
        );
    }
    let server = Server::start_with_role(config, registry, role).unwrap_or_else(|error| {
        eprintln!("failed to bind: {error}");
        std::process::exit(1);
    });
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().ok();
    server.wait();
    println!("mochy-serve: clean shutdown");
}

/// Parses a `--worker`/`--coordinator` `NAME=PATH` spec; exits with
/// usage code 2 on a malformed one.
fn parse_role_spec<'a>(spec: &'a str, flag: &str) -> (&'a str, &'a str) {
    spec.split_once('=').unwrap_or_else(|| {
        eprintln!("bad {flag} `{spec}` (expected NAME=PATH, a .mochy snapshot)");
        std::process::exit(2);
    })
}

fn parse_count(text: &str, what: &str) -> usize {
    text.parse().unwrap_or_else(|_| {
        eprintln!("invalid {what} value `{text}`");
        std::process::exit(2);
    })
}

/// Parses `NAME=DOMAIN:NODES:EDGES:SEED` into a generated dataset.
fn generate_spec(spec: &str) -> Result<(String, mochy_hypergraph::Hypergraph), String> {
    let (name, rest) = spec
        .split_once('=')
        .ok_or("expected NAME=DOMAIN:NODES:EDGES:SEED")?;
    let parts: Vec<&str> = rest.split(':').collect();
    let [domain, nodes, edges, seed] = parts.as_slice() else {
        return Err("expected DOMAIN:NODES:EDGES:SEED after `=`".to_string());
    };
    let domain = DomainKind::ALL
        .into_iter()
        .find(|kind| kind.short_name() == *domain)
        .ok_or_else(|| format!("unknown domain `{domain}` (coauth|contact|email|tags|threads)"))?;
    let nodes: usize = nodes.parse().map_err(|_| "bad node count".to_string())?;
    let edges: usize = edges.parse().map_err(|_| "bad edge count".to_string())?;
    let seed: u64 = seed.parse().map_err(|_| "bad seed".to_string())?;
    if nodes == 0 || edges == 0 {
        return Err("node and edge counts must be positive".to_string());
    }
    Ok((
        name.to_string(),
        generate(&GeneratorConfig::new(domain, nodes, edges, seed)),
    ))
}

fn print_usage() {
    eprintln!("usage: mochy-serve [--addr HOST:PORT | --port N] [--workers N] [--queue N]");
    eprintln!("                   [--cache N] [--threads N] [--max-requests N] [--idle-ms N]");
    eprintln!("                   [--gen NAME=DOMAIN:NODES:EDGES:SEED]... [--load NAME=PATH]...");
    eprintln!("                   [--worker NAME=PATH]");
    eprintln!("                   [--coordinator NAME=PATH --peers ADDR,ADDR,...]");
    eprintln!("                   [--fanout-deadline-ms N] [--fanout-retries N]");
    eprintln!("(--load auto-detects text edge-lists and binary .mochy snapshots;");
    eprintln!(" --worker and --coordinator take the same .mochy snapshot, one shard per peer)");
    eprintln!("routes: GET /v1/healthz, GET /v1/datasets, POST /v1/datasets, POST /v1/count,");
    eprintln!("        POST /v1/profile, POST /v1/mutate, POST /v1/admin/shutdown,");
    eprintln!("        POST /v1/internal/count-shard (--worker only; see README)");
}
