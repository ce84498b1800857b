//! `mochy-exp dist-check` — the distributed-equivalence CI gate.
//!
//! Boots a real multi-process topology — `workers` × `mochy-serve --worker`
//! plus one `mochy-serve --coordinator`, all from one `.mochy` snapshot of
//! a generated dataset, so the coordinator splits it into one shard per
//! worker — then proves over the wire that:
//!
//! 1. `POST /v1/count` through the coordinator is **bit-identical** to the
//!    unsharded in-process MoCHy-E count (counts, total, hyperwedges);
//! 2. a repeat of the same query is a cache hit with a byte-identical body;
//! 3. after one worker process is **killed** mid-sequence, a fresh query
//!    still answers 200 with the same bits — the coordinator's deadline /
//!    retry / reassignment path absorbs the dead worker.
//!
//! The report is a `mochy-dist/1` JSON document (written to `DIST.json` by
//! `ci.sh`); any failed check makes [`run`] return `Err`, which the binary
//! turns into a non-zero exit — the CI stage gates on it.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use mochy_datagen::{generate, DomainKind, GeneratorConfig};
use mochy_hypergraph::write_snapshot_file;
use mochy_projection::project;
use mochy_serve::client::HttpClient;

use crate::json::{self, JsonValue};

/// Configuration of a dist-check run.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Path to the `mochy-serve` binary to spawn.
    pub serve_bin: String,
    /// Worker processes to boot: the coordinator splits the dataset into
    /// one shard per worker, and each worker can serve any shard.
    pub workers: usize,
    /// Generated dataset size.
    pub nodes: usize,
    /// Generated dataset size.
    pub edges: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Default for DistOptions {
    fn default() -> Self {
        Self {
            serve_bin: String::new(),
            workers: 3,
            nodes: 220,
            edges: 700,
            seed: 17,
        }
    }
}

/// Per-exchange deadline for the gate's own client calls.
const DEADLINE: Duration = Duration::from_secs(60);

/// One spawned `mochy-serve` process and its scraped listen address.
struct ServeProcess {
    child: Child,
    addr: String,
}

impl ServeProcess {
    fn spawn(bin: &str, args: &[String]) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|error| format!("spawning `{bin}`: {error}"))?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| "child stdout not captured".to_string())?;
        let mut reader = BufReader::new(stdout);
        let mut addr = None;
        let mut line = String::new();
        // The serve binary prints `listening on HOST:PORT` once bound; boot
        // failures close stdout, ending this loop.
        loop {
            line.clear();
            let read = reader
                .read_line(&mut line)
                .map_err(|error| format!("reading child stdout: {error}"))?;
            if read == 0 {
                break;
            }
            if let Some(rest) = line.trim_end().strip_prefix("listening on ") {
                addr = Some(rest.to_string());
                break;
            }
        }
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        });
        match addr {
            Some(addr) => Ok(Self { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err("serve process exited before printing its address".to_string())
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Asks the process to exit via the API, then reaps it (killing on a
    /// refused/failed shutdown so the gate never leaks processes).
    fn shutdown(&mut self) {
        let mut client = HttpClient::new(self.addr.clone());
        let clean = client
            .post("/v1/admin/shutdown", "", Duration::from_secs(5))
            .map(|response| response.status == 200)
            .unwrap_or(false);
        if !clean {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One gate check's outcome.
struct Check {
    name: &'static str,
    pass: bool,
    detail: String,
}

/// Runs the gate; returns `(summary, DIST.json document)` or, on any failed
/// check, `Err` with one line per failure.
pub fn run(options: &DistOptions) -> Result<(String, JsonValue), String> {
    if options.serve_bin.is_empty() {
        return Err("dist-check requires --serve-bin <path to mochy-serve>".to_string());
    }
    if options.workers < 2 {
        return Err("dist-check needs at least 2 workers".to_string());
    }

    // Write a generated dataset as the one snapshot every process boots from.
    let snapshot =
        std::env::temp_dir().join(format!("mochy-dist-check-{}.mochy", std::process::id()));
    let hypergraph = generate(&GeneratorConfig::new(
        DomainKind::Email,
        options.nodes,
        options.edges,
        options.seed,
    ));
    write_snapshot_file(&hypergraph, &snapshot)
        .map_err(|error| format!("writing snapshot: {error}"))?;

    // The unsharded reference, rendered through the same JSON writer the
    // server uses, so equality below is bit-for-bit.
    let projected = project(&hypergraph);
    let reference_counts = mochy_core::mochy_e(&hypergraph, &projected);
    let reference = (
        JsonValue::Array(
            reference_counts
                .as_slice()
                .iter()
                .map(|&count| JsonValue::Number(count))
                .collect(),
        )
        .render(),
        JsonValue::Number(reference_counts.total()).render(),
        JsonValue::Number(projected.num_hyperwedges() as f64).render(),
    );

    let outcome = run_topology(options, &snapshot, &reference);

    // Cleanup before reporting, success or not.
    let _ = std::fs::remove_file(&snapshot);

    let checks = outcome?;
    let failures: Vec<String> = checks
        .iter()
        .filter(|check| !check.pass)
        .map(|check| format!("dist-check FAILED: {}: {}", check.name, check.detail))
        .collect();

    let document = JsonValue::Object(vec![
        ("format".to_string(), JsonValue::string("mochy-dist/1")),
        (
            "shards".to_string(),
            JsonValue::Number(options.workers as f64),
        ),
        (
            "workers".to_string(),
            JsonValue::Number(options.workers as f64),
        ),
        (
            "dataset".to_string(),
            JsonValue::Object(vec![
                ("domain".to_string(), JsonValue::string("email")),
                ("nodes".to_string(), JsonValue::Number(options.nodes as f64)),
                ("edges".to_string(), JsonValue::Number(options.edges as f64)),
                ("seed".to_string(), JsonValue::Number(options.seed as f64)),
            ]),
        ),
        (
            "reference_total".to_string(),
            JsonValue::Number(reference_counts.total()),
        ),
        (
            "checks".to_string(),
            JsonValue::Array(
                checks
                    .iter()
                    .map(|check| {
                        JsonValue::Object(vec![
                            ("name".to_string(), JsonValue::string(check.name)),
                            ("pass".to_string(), JsonValue::Bool(check.pass)),
                            ("detail".to_string(), JsonValue::string(&check.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);

    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }
    let summary = checks
        .iter()
        .map(|check| format!("dist-check {}: {}", check.name, check.detail))
        .collect::<Vec<_>>()
        .join("\n");
    Ok((summary, document))
}

/// Boots the topology, runs the three checks, and tears everything down.
fn run_topology(
    options: &DistOptions,
    snapshot: &Path,
    reference: &(String, String, String),
) -> Result<Vec<Check>, String> {
    let spec = format!("dist={}", snapshot.display());
    let mut workers: Vec<ServeProcess> = Vec::new();
    for index in 0..options.workers {
        let spawned = ServeProcess::spawn(
            &options.serve_bin,
            &[
                "--port".to_string(),
                "0".to_string(),
                "--worker".to_string(),
                spec.clone(),
            ],
        );
        match spawned {
            Ok(process) => workers.push(process),
            Err(error) => {
                for worker in &mut workers {
                    worker.kill();
                }
                return Err(format!("booting worker {index}: {error}"));
            }
        }
    }
    let peers = workers
        .iter()
        .map(|worker| worker.addr.clone())
        .collect::<Vec<_>>()
        .join(",");
    let coordinator = ServeProcess::spawn(
        &options.serve_bin,
        &[
            "--port".to_string(),
            "0".to_string(),
            "--coordinator".to_string(),
            spec,
            "--peers".to_string(),
            peers,
            "--fanout-deadline-ms".to_string(),
            "30000".to_string(),
            "--fanout-retries".to_string(),
            "2".to_string(),
        ],
    );
    let mut coordinator = match coordinator {
        Ok(process) => process,
        Err(error) => {
            for worker in &mut workers {
                worker.kill();
            }
            return Err(format!("booting coordinator: {error}"));
        }
    };

    let mut checks = Vec::new();
    let mut client = HttpClient::new(coordinator.addr.clone());
    let query = r#"{"dataset": "dist", "method": "mochy-e"}"#;

    // Check 1: distributed count ≡ unsharded count, bit for bit.
    let mut first_body = String::new();
    match client.post("/v1/count", query, DEADLINE) {
        Ok(response) if response.status == 200 => {
            first_body = response.body.clone();
            checks.push(compare_counts(
                "merged-equals-unsharded",
                &response.body,
                reference,
            ));
        }
        Ok(response) => checks.push(Check {
            name: "merged-equals-unsharded",
            pass: false,
            detail: format!("status {}: {}", response.status, truncate(&response.body)),
        }),
        Err(error) => checks.push(Check {
            name: "merged-equals-unsharded",
            pass: false,
            detail: error.to_string(),
        }),
    }

    // Check 2: the repeat is a byte-identical cache hit.
    match client.post("/v1/count", query, DEADLINE) {
        Ok(response) => {
            let hit = response.header("x-mochy-cache") == Some("hit");
            let identical = !first_body.is_empty() && response.body == first_body;
            checks.push(Check {
                name: "cache-hit-byte-identical",
                pass: hit && identical,
                detail: if hit && identical {
                    "repeat query hit the cache with byte-identical bytes".to_string()
                } else {
                    format!("hit={hit} identical={identical}")
                },
            });
        }
        Err(error) => checks.push(Check {
            name: "cache-hit-byte-identical",
            pass: false,
            detail: error.to_string(),
        }),
    }

    // Check 3: kill one worker, re-query (different bytes → uncached), and
    // demand the same bits through the retry/reassignment path.
    if let Some(victim) = workers.first_mut() {
        victim.kill();
    }
    let degraded_query = r#"{"dataset": "dist", "method": "mochy-e", "threads": 2}"#;
    match client.post("/v1/count", degraded_query, DEADLINE) {
        Ok(response) if response.status == 200 => {
            let mut check = compare_counts("survives-worker-kill", &response.body, reference);
            if check.pass {
                check.detail = format!(
                    "after killing 1 of {} workers: {}",
                    options.workers, check.detail
                );
            }
            checks.push(check);
        }
        Ok(response) => checks.push(Check {
            name: "survives-worker-kill",
            pass: false,
            detail: format!("status {}: {}", response.status, truncate(&response.body)),
        }),
        Err(error) => checks.push(Check {
            name: "survives-worker-kill",
            pass: false,
            detail: error.to_string(),
        }),
    }

    coordinator.shutdown();
    for worker in workers.iter_mut().skip(1) {
        worker.shutdown();
    }
    Ok(checks)
}

/// Compares a count body's `counts`/`total`/`num_hyperwedges` against the
/// reference renderings.
fn compare_counts(name: &'static str, body: &str, reference: &(String, String, String)) -> Check {
    let parsed = match json::parse(body) {
        Ok(parsed) => parsed,
        Err(error) => {
            return Check {
                name,
                pass: false,
                detail: format!("unparseable body: {error}"),
            }
        }
    };
    let field = |key: &str| {
        parsed
            .get(key)
            .map(JsonValue::render)
            .unwrap_or_else(|| format!("<missing {key}>"))
    };
    let got = (field("counts"), field("total"), field("num_hyperwedges"));
    if got == *reference {
        Check {
            name,
            pass: true,
            detail: format!("total {} over {} hyperwedges", got.1, got.2),
        }
    } else {
        Check {
            name,
            pass: false,
            detail: format!(
                "mismatch: total {} vs {}, hyperwedges {} vs {}",
                got.1, reference.1, got.2, reference.2
            ),
        }
    }
}

fn truncate(text: &str) -> String {
    text.chars().take(200).collect()
}

/// Writes the report document to `path` (pretty single-line JSON).
pub fn write_report(document: &JsonValue, path: &Path) -> Result<(), String> {
    let rendered = document.render();
    std::fs::write(path, rendered + "\n").map_err(|error| format!("writing {path:?}: {error}"))
}
