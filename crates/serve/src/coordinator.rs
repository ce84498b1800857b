//! Coordinator-side scatter-gather over shard workers.
//!
//! The coordinator reads the same `.mochy` snapshot its workers boot from,
//! but keeps only |V|, |E| and the snapshot's trailing FNV-1a 64 checksum.
//! It splits the centre hyperedges into K = |peers| contiguous spans with
//! [`shard_boundaries`]; there is no separate shard count to configure. A
//! `POST /v1/count` for the dataset is fanned out as one
//! `POST /v1/internal/count-shard` per span, each naming
//! `{dataset, snapshot, shards, shard, threads}`. A worker that holds a
//! different snapshot refuses before counting, which fails that attempt like
//! any other, so the span is retried on another worker. The returned
//! [`ShardPartial`]s are checked against the span layout and merged by the
//! caller with [`merge_partials`](mochy_core::shard::merge_partials).
//!
//! # Why the merged answer is bit-identical to unsharded MoCHy-E
//!
//! Each partial is computed by the worker with
//! [`mochy_core::shard::count_shard_partial`] — MoCHy-E over the centres in
//! the shard's edge span, on the full hypergraph of the named snapshot — so
//! a shard's partial does not depend on *which* worker computed it, when, or
//! after how many retries. [`Coordinator::scatter_gather`] returns the
//! partials sorted by shard index (`0..K-1`), and `merge_partials` folds them
//! in that fixed order using exact `f64` integer additions;
//! [`ShardPartial::from_json`] admits only exact integer counts below 2^53,
//! so this holds for partials off the wire too. The merged counts equal the
//! single-process sharded run bit for bit, which in turn equals plain
//! MoCHy-E. Worker failures, reassignment, and retry order therefore cannot
//! perturb a single bit of the result.
//!
//! # Failure semantics
//!
//! Every worker request carries a whole-exchange deadline. A worker that
//! errors, stalls, or holds another snapshot is marked unhealthy and its
//! remaining shards are reassigned to surviving workers, each shard getting
//! at most `1 + retries` total attempts. Shards still unserved after that
//! surface as [`FanoutError`] with the full per-worker attempt log, which
//! the API layer renders under the error envelope's `detail` field.

use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use mochy_core::shard::{shard_boundaries, ShardPartial};
use mochy_hypergraph::read_snapshot_file_with_checksum;
use mochy_json::JsonValue;

use crate::api::MAX_SHARDS;
use crate::client::HttpClient;
use crate::worker::snapshot_hex;

/// One worker in the coordinator's table.
#[derive(Debug)]
struct WorkerEntry {
    addr: String,
    /// Cleared when a request to this worker fails; restored by a
    /// successful health probe (or when every worker is marked down, to
    /// avoid deadlocking on a fully-unhealthy table).
    healthy: AtomicBool,
}

/// One failed attempt at serving a shard.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// The worker address that was asked.
    pub worker: String,
    /// Why the attempt failed.
    pub error: String,
}

/// A shard that no worker managed to serve.
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// The shard index.
    pub shard: usize,
    /// Every attempt made, in order.
    pub attempts: Vec<Attempt>,
}

/// Why a scatter-gather pass failed: one or more shards stayed unserved
/// after retries.
#[derive(Debug)]
pub struct FanoutError {
    /// The unserved shards with their attempt logs.
    pub failures: Vec<ShardFailure>,
    /// How many shards *were* gathered successfully.
    pub gathered: usize,
}

impl std::fmt::Display for FanoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} shard(s) unserved after retries ({} gathered)",
            self.failures.len(),
            self.gathered
        )
    }
}

/// The coordinator's view of a distributed dataset.
#[derive(Debug)]
pub struct Coordinator {
    dataset: String,
    snapshot: u64,
    num_nodes: usize,
    num_edges: usize,
    /// `shard_boundaries(num_edges, K)`, one span per worker.
    spans: Vec<Range<usize>>,
    workers: Vec<WorkerEntry>,
    deadline: Duration,
    retries: usize,
}

impl Coordinator {
    /// Boots a coordinator for `dataset` from the `.mochy` snapshot at
    /// `snapshot_path` — the same file its workers boot from — and splits
    /// the centres into one span per worker. The snapshot is fully
    /// validated, then only its sizes and checksum are kept. Refuses an
    /// empty worker table and more than 64 workers, the `shards` cap of
    /// `/v1/count`.
    pub fn boot(
        dataset: impl Into<String>,
        snapshot_path: &Path,
        workers: Vec<String>,
        deadline: Duration,
        retries: usize,
    ) -> Result<Self, String> {
        if workers.is_empty() || workers.len() > MAX_SHARDS {
            return Err(format!(
                "a coordinator needs 1 to {MAX_SHARDS} workers, got {}",
                workers.len()
            ));
        }
        let (hypergraph, snapshot) = read_snapshot_file_with_checksum(snapshot_path)
            .map_err(|error| format!("reading snapshot: {error}"))?;
        Ok(Self {
            dataset: dataset.into(),
            snapshot,
            num_nodes: hypergraph.num_nodes(),
            num_edges: hypergraph.num_edges(),
            spans: shard_boundaries(hypergraph.num_edges(), workers.len()),
            workers: workers
                .into_iter()
                .map(|addr| WorkerEntry {
                    addr,
                    healthy: AtomicBool::new(true),
                })
                .collect(),
            deadline,
            retries,
        })
    }

    /// The distributed dataset's name.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The trailing FNV-1a 64 checksum of the snapshot every worker must
    /// hold.
    pub fn snapshot(&self) -> u64 {
        self.snapshot
    }

    /// The number of shards: one per worker.
    pub fn num_shards(&self) -> usize {
        self.spans.len()
    }

    /// The snapshot's node count.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The snapshot's hyperedge count.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The per-request deadline, in milliseconds.
    pub fn deadline_ms(&self) -> u64 {
        self.deadline.as_millis() as u64
    }

    /// The per-shard retry budget (attempts beyond the first).
    pub fn retries(&self) -> usize {
        self.retries
    }

    /// Probes every worker's `/v1/healthz`, updating the health table, and
    /// returns `(addr, healthy)` per worker.
    pub fn probe_workers(&self) -> Vec<(String, bool)> {
        let deadline = self.deadline.min(Duration::from_secs(1));
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter()
                .map(|entry| {
                    scope.spawn(move || {
                        let mut client = HttpClient::new(entry.addr.clone());
                        let healthy = client
                            .get("/v1/healthz", deadline)
                            .map(|response| response.status == 200)
                            .unwrap_or(false);
                        entry.healthy.store(healthy, Ordering::Relaxed);
                        (entry.addr.clone(), healthy)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| match handle.join() {
                    Ok(pair) => pair,
                    Err(_) => ("<probe panicked>".to_string(), false),
                })
                .collect()
        })
    }

    /// Scatters one `count-shard` request per shard across the worker set
    /// and gathers the partials, sorted by shard index.
    ///
    /// Shards are round-robined over the currently-healthy workers (all
    /// workers, if none are marked healthy — a stale health table must not
    /// fail a query that could succeed). Each worker's shards are served
    /// sequentially over one keep-alive connection; workers run in parallel.
    /// A failed attempt marks the worker unhealthy and sends the shard —
    /// and the worker's remaining shards — to the retry pass, which walks
    /// the *other* workers until the shard is served or its attempt budget
    /// (`1 + retries`) is spent.
    pub fn scatter_gather(&self, threads: usize) -> Result<Vec<ShardPartial>, FanoutError> {
        let num_shards = self.num_shards();

        // Assign shards round-robin over healthy workers.
        let mut eligible: Vec<usize> = (0..self.workers.len())
            .filter(|&w| {
                self.workers
                    .get(w)
                    .is_some_and(|entry| entry.healthy.load(Ordering::Relaxed))
            })
            .collect();
        if eligible.is_empty() {
            eligible = (0..self.workers.len()).collect();
        }
        let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); self.workers.len()];
        for shard in 0..num_shards {
            if let Some(slot) = shard
                .checked_rem(eligible.len())
                .and_then(|index| eligible.get(index))
                .and_then(|&w| assignments.get_mut(w))
            {
                slot.push(shard);
            }
        }

        // Scatter: one thread per worker with an assignment, each serving
        // its shard list sequentially over one keep-alive connection.
        let mut gathered: Vec<Option<ShardPartial>> = Vec::new();
        gathered.resize_with(num_shards, || None);
        let mut pending: Vec<(usize, Vec<Attempt>)> = Vec::new();
        let outcomes = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter()
                .zip(assignments.iter())
                .filter(|(_, shards)| !shards.is_empty())
                .map(|(entry, shards)| {
                    scope.spawn(move || {
                        let mut served: Vec<(usize, ShardPartial)> = Vec::new();
                        let mut failed: Vec<(usize, Attempt)> = Vec::new();
                        let mut client = HttpClient::new(entry.addr.clone());
                        let mut broken = false;
                        for &shard in shards {
                            if broken {
                                // Don't burn the deadline shard-by-shard on
                                // a worker that already failed: queue the
                                // rest for reassignment immediately.
                                failed.push((
                                    shard,
                                    Attempt {
                                        worker: entry.addr.clone(),
                                        error: "skipped: worker failed earlier in this scatter"
                                            .to_string(),
                                    },
                                ));
                                continue;
                            }
                            match self.request_shard(&mut client, shard, threads) {
                                Ok(partial) => served.push((shard, partial)),
                                Err(error) => {
                                    entry.healthy.store(false, Ordering::Relaxed);
                                    broken = true;
                                    failed.push((
                                        shard,
                                        Attempt {
                                            worker: entry.addr.clone(),
                                            error,
                                        },
                                    ));
                                }
                            }
                        }
                        (served, failed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().unwrap_or_default())
                .collect::<Vec<_>>()
        });
        for (served, failed) in outcomes {
            for (shard, partial) in served {
                if let Some(slot) = gathered.get_mut(shard) {
                    *slot = Some(partial);
                }
            }
            for (shard, attempt) in failed {
                pending.push((shard, vec![attempt]));
            }
        }

        // Retry pass: walk the other workers for each unserved shard, newest
        // health knowledge first, within the per-shard attempt budget.
        let mut failures: Vec<ShardFailure> = Vec::new();
        for (shard, mut attempts) in pending {
            let budget = 1 + self.retries;
            let mut served = None;
            for entry in self
                .workers
                .iter()
                .filter(|entry| entry.healthy.load(Ordering::Relaxed))
                .chain(
                    self.workers
                        .iter()
                        .filter(|entry| !entry.healthy.load(Ordering::Relaxed)),
                )
            {
                if attempts.len() >= budget {
                    break;
                }
                if attempts.iter().any(|attempt| attempt.worker == entry.addr) {
                    continue;
                }
                let mut client = HttpClient::new(entry.addr.clone());
                match self.request_shard(&mut client, shard, threads) {
                    Ok(partial) => {
                        entry.healthy.store(true, Ordering::Relaxed);
                        served = Some(partial);
                        break;
                    }
                    Err(error) => {
                        entry.healthy.store(false, Ordering::Relaxed);
                        attempts.push(Attempt {
                            worker: entry.addr.clone(),
                            error,
                        });
                    }
                }
            }
            match served {
                Some(partial) => {
                    if let Some(slot) = gathered.get_mut(shard) {
                        *slot = Some(partial);
                    }
                }
                None => failures.push(ShardFailure { shard, attempts }),
            }
        }

        if failures.is_empty() {
            // `gathered` is indexed by shard, so this collect is already the
            // fixed 0..K-1 merge order the bit-identity argument needs.
            let partials: Vec<ShardPartial> = gathered.into_iter().flatten().collect();
            if partials.len() == num_shards {
                return Ok(partials);
            }
            // Unreachable in practice: every shard is either gathered or in
            // `failures`. Surface it as a failure rather than merging short.
            let missing: Vec<ShardFailure> = (0..num_shards)
                .filter(|&shard| partials.iter().all(|partial| partial.shard != shard))
                .map(|shard| ShardFailure {
                    shard,
                    attempts: Vec::new(),
                })
                .collect();
            return Err(FanoutError {
                gathered: partials.len(),
                failures: missing,
            });
        }
        failures.sort_by_key(|failure| failure.shard);
        let gathered_count = gathered.iter().filter(|slot| slot.is_some()).count();
        Err(FanoutError {
            failures,
            gathered: gathered_count,
        })
    }

    /// One `count-shard` exchange with one worker, validated against the
    /// span layout. Returns a human-readable error string for the attempt
    /// log.
    fn request_shard(
        &self,
        client: &mut HttpClient,
        shard: usize,
        threads: usize,
    ) -> Result<ShardPartial, String> {
        let body = JsonValue::Object(vec![
            (
                "dataset".to_string(),
                JsonValue::String(self.dataset.clone()),
            ),
            (
                "snapshot".to_string(),
                JsonValue::String(snapshot_hex(self.snapshot)),
            ),
            (
                "shards".to_string(),
                JsonValue::Number(self.num_shards() as f64),
            ),
            ("shard".to_string(), JsonValue::Number(shard as f64)),
            ("threads".to_string(), JsonValue::Number(threads as f64)),
        ])
        .render();
        let response = client
            .post("/v1/internal/count-shard", &body, self.deadline)
            .map_err(|error| error.to_string())?;
        if response.status != 200 {
            return Err(format!(
                "worker answered {}: {}",
                response.status,
                response.body.chars().take(200).collect::<String>()
            ));
        }
        let parsed = mochy_json::parse(&response.body)
            .map_err(|error| format!("unparseable worker response: {error}"))?;
        let partial = ShardPartial::from_json(&parsed)
            .map_err(|error| format!("invalid shard partial: {error}"))?;
        if partial.shard != shard {
            return Err(format!(
                "worker returned shard {} for a shard-{shard} request",
                partial.shard
            ));
        }
        let expected = self
            .spans
            .get(shard)
            .ok_or_else(|| format!("shard {shard} outside the span layout"))?;
        if partial.edges != *expected {
            return Err(format!(
                "worker's edge span {:?} disagrees with the layout's {expected:?}",
                partial.edges
            ));
        }
        Ok(partial)
    }
}
