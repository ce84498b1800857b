//! Worker-side state for distributed shard counting.
//!
//! A worker boots from one `.mochy` snapshot: it loads and fully validates
//! the whole file, keeps the snapshot's trailing FNV-1a 64 checksum as its
//! identity, and projects the hypergraph once. It then answers
//! `POST /v1/internal/count-shard` for any shard of any layout: every
//! request names the coordinator's shard count `shards` and one `shard`, and
//! the coordinator reassigns the shards of dead workers to survivors, so
//! every worker must be able to serve every shard. Every request also names
//! the snapshot checksum the coordinator read from its own copy of the file;
//! a worker holding a different snapshot refuses before counting (409
//! `conflict`), so no partial of another dataset can reach a merge.
//!
//! # Why the answer is bit-identical to unsharded MoCHy-E
//!
//! The shard partial itself is computed by
//! [`mochy_core::shard::count_shard_partial`]: MoCHy-E over the centre
//! hyperedges in the shard's edge span, counted on the full projected
//! graph, since an instance centred in the span reaches hyperedges of any
//! shard. Every instance has exactly one centre, so the shards' partials
//! are disjoint and together complete. Each holds exact integer tallies
//! converted to `f64`, and real-world totals sit far below 2^53, so
//! addition is exact integer arithmetic — no grouping of the work (by
//! shard, by worker, by thread) can change a bit of the merged counts.

use std::path::Path;

use mochy_core::shard::{count_shard_partial, ShardPartial};
use mochy_hypergraph::{read_snapshot_file_with_checksum, Hypergraph, SnapshotError};
use mochy_projection::{project, ProjectedGraph};

/// Renders a snapshot checksum in its wire form: 16 lowercase hex digits.
/// A `u64` does not fit a JSON number exactly, so it travels as a string.
pub fn snapshot_hex(checksum: u64) -> String {
    format!("{checksum:016x}")
}

/// Parses the [`snapshot_hex`] wire form; any other spelling is `None`.
pub(crate) fn parse_snapshot_hex(text: &str) -> Option<u64> {
    let canonical =
        text.len() == 16 && text.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    if !canonical {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

/// Everything a `--worker` instance knows: one snapshot, projected once.
pub struct WorkerState {
    dataset: String,
    snapshot: u64,
    hypergraph: Hypergraph,
    projected: ProjectedGraph,
}

impl std::fmt::Debug for WorkerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerState")
            .field("dataset", &self.dataset)
            .field("snapshot", &snapshot_hex(self.snapshot))
            .field("num_nodes", &self.num_nodes())
            .field("num_edges", &self.num_edges())
            .finish()
    }
}

impl WorkerState {
    /// Boots a worker for `dataset` from the `.mochy` snapshot at `path`:
    /// loads and validates the whole file, then projects it once, so the
    /// worker is ready to count before it answers its first health check.
    pub fn boot(dataset: impl Into<String>, path: &Path) -> Result<Self, SnapshotError> {
        let (hypergraph, snapshot) = read_snapshot_file_with_checksum(path)?;
        let projected = project(&hypergraph);
        Ok(Self {
            dataset: dataset.into(),
            snapshot,
            hypergraph,
            projected,
        })
    }

    /// The dataset name this worker serves.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The trailing FNV-1a 64 checksum of the snapshot this worker booted
    /// from.
    pub fn snapshot(&self) -> u64 {
        self.snapshot
    }

    /// The snapshot's node count.
    pub fn num_nodes(&self) -> usize {
        self.hypergraph.num_nodes()
    }

    /// The snapshot's hyperedge count.
    pub fn num_edges(&self) -> usize {
        self.hypergraph.num_edges()
    }

    /// Computes shard `shard` of the `shards`-span layout with `threads`
    /// threads; `None` when `shard` is outside the layout.
    pub fn count_shard(&self, shards: usize, shard: usize, threads: usize) -> Option<ShardPartial> {
        count_shard_partial(&self.hypergraph, &self.projected, shards, shard, threads)
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::Arc;
    use std::time::Instant;

    use super::*;
    use crate::api::{handle, ApiContext, QueryCache, Role};
    use crate::http::Request;
    use crate::registry::Registry;
    use mochy_core::shard::{count_sharded, merge_partials};
    use mochy_core::{mochy_e, MotifCounts};
    use mochy_hypergraph::{write_snapshot_file, HypergraphBuilder};
    use mochy_json::{self as json, JsonValue};

    fn sample_hypergraph() -> Hypergraph {
        let mut builder = HypergraphBuilder::new();
        for e in 0u32..40 {
            let base = e % 11;
            builder.add_edge(vec![base, base + 1, (base * 3) % 13, (e / 4) % 7 + 2]);
        }
        builder.build().expect("sample hypergraph builds")
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mochy-worker-{tag}-{}.mochy", std::process::id()))
    }

    /// A worker booted from a fresh snapshot of [`sample_hypergraph`].
    fn booted(tag: &str) -> WorkerState {
        let path = temp_path(tag);
        write_snapshot_file(&sample_hypergraph(), &path).expect("write snapshot");
        let state = WorkerState::boot("sample", &path).expect("boot worker");
        let _ = std::fs::remove_file(&path);
        state
    }

    fn worker_context(state: WorkerState) -> ApiContext {
        ApiContext {
            registry: Registry::new(),
            cache: QueryCache::new(8),
            max_threads: 2,
            num_workers: 1,
            queue_depth: 4,
            max_requests_per_connection: 128,
            idle_timeout_ms: 5_000,
            started: Instant::now(),
            role: Role::Worker(Arc::new(state)),
        }
    }

    fn count_shard_request(body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: "/v1/internal/count-shard".to_string(),
            body: body.to_string(),
            keep_alive: true,
        }
    }

    fn error_kind(body: &str) -> String {
        json::parse(body)
            .ok()
            .and_then(|doc| {
                doc.get("error")
                    .and_then(|error| error.get("kind"))
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
            })
            .unwrap_or_default()
    }

    #[test]
    fn snapshot_hex_round_trips_and_rejects_other_spellings() {
        for checksum in [0u64, 1, 0xdead_beef, u64::MAX] {
            let text = snapshot_hex(checksum);
            assert_eq!(text.len(), 16);
            assert_eq!(parse_snapshot_hex(&text), Some(checksum));
        }
        for bad in [
            "",
            "0",
            "00000000DEADBEEF",
            "+000000000000001",
            "0x00000000000001",
            "00000000000000001",
        ] {
            assert_eq!(parse_snapshot_hex(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn a_worker_counts_every_shard_bit_identically() {
        let h = sample_hypergraph();
        let state = booted("counts");
        assert_eq!(state.dataset(), "sample");
        assert_eq!(state.num_edges(), h.num_edges());
        assert_eq!(state.num_nodes(), h.num_nodes());

        // Reference: in-process sharded counting over the original graph.
        let projected = project(&h);
        let direct: MotifCounts = mochy_e(&h, &projected);
        for shards in [1usize, 3, 5] {
            let expected = count_sharded(&h, &projected, shards, 1);
            let partials: Vec<ShardPartial> = (0..shards)
                .map(|shard| state.count_shard(shards, shard, 1).expect("shard in range"))
                .collect();
            assert_eq!(partials, expected, "K={shards}");
            let (merged, hyperwedges) = merge_partials(&partials);
            assert_eq!(merged.as_slice(), direct.as_slice(), "K={shards}");
            assert_eq!(hyperwedges, projected.num_hyperwedges(), "K={shards}");
            assert!(state.count_shard(shards, shards, 1).is_none());
        }
    }

    #[test]
    fn boot_rejects_missing_text_and_corrupt_snapshots() {
        let missing = temp_path("missing");
        let _ = std::fs::remove_file(&missing);
        assert!(matches!(
            WorkerState::boot("sample", &missing),
            Err(SnapshotError::Io(_))
        ));

        let text = temp_path("text");
        std::fs::write(&text, "0 1 2\n1 2 3\n2 3 4\n").expect("write text");
        let booted = WorkerState::boot("sample", &text);
        let _ = std::fs::remove_file(&text);
        assert!(booted.is_err(), "a text edge-list is not a snapshot");

        let flipped = temp_path("flipped");
        write_snapshot_file(&sample_hypergraph(), &flipped).expect("write snapshot");
        let mut bytes = std::fs::read(&flipped).expect("read snapshot");
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x01;
        std::fs::write(&flipped, &bytes).expect("rewrite snapshot");
        let booted = WorkerState::boot("sample", &flipped);
        let _ = std::fs::remove_file(&flipped);
        assert!(
            matches!(booted, Err(SnapshotError::ChecksumMismatch { .. })),
            "{booted:?}"
        );
    }

    #[test]
    fn a_request_for_another_snapshot_is_a_conflict() {
        let state = booted("conflict");
        let held = state.snapshot();
        let ctx = worker_context(state);
        let body = |snapshot: u64| {
            format!(
                r#"{{"dataset": "sample", "snapshot": "{}", "shards": 2, "shard": 0}}"#,
                snapshot_hex(snapshot)
            )
        };

        let wrong = handle(&ctx, &count_shard_request(&body(held ^ 1)));
        assert_eq!(wrong.status, 409, "{}", wrong.body);
        assert_eq!(error_kind(&wrong.body), "conflict");
        assert!(wrong.body.contains(&snapshot_hex(held)), "{}", wrong.body);

        let right = handle(&ctx, &count_shard_request(&body(held)));
        assert_eq!(right.status, 200, "{}", right.body);
        let partial = ShardPartial::from_json(&json::parse(&right.body).unwrap()).unwrap();
        assert_eq!(partial.shard, 0);
    }

    #[test]
    fn invalid_shard_layouts_are_rejected_before_counting() {
        let state = booted("layouts");
        let snapshot = snapshot_hex(state.snapshot());
        let ctx = worker_context(state);
        for (layout, needle) in [
            (r#""shards": 0, "shard": 0"#, "`shards`"),
            (r#""shards": 65, "shard": 0"#, "`shards`"),
            (r#""shards": 1.5, "shard": 0"#, "`shards`"),
            (r#""shard": 0"#, "`shards`"),
            (r#""shards": 3, "shard": 3"#, "`shard`"),
            (r#""shards": 3, "shard": 7"#, "`shard`"),
            (r#""shards": 3"#, "`shard`"),
        ] {
            let body = format!(r#"{{"dataset": "sample", "snapshot": "{snapshot}", {layout}}}"#);
            let response = handle(&ctx, &count_shard_request(&body));
            assert_eq!(response.status, 400, "{layout} → {}", response.body);
            assert_eq!(error_kind(&response.body), "bad-request");
            assert!(
                response.body.contains(needle),
                "{layout} → {}",
                response.body
            );
        }
        for snapshot in ["", "DEADBEEFDEADBEEF", "12"] {
            let body = format!(
                r#"{{"dataset": "sample", "snapshot": "{snapshot}", "shards": 1, "shard": 0}}"#
            );
            let response = handle(&ctx, &count_shard_request(&body));
            assert_eq!(response.status, 400, "{snapshot:?} → {}", response.body);
            assert!(response.body.contains("`snapshot`"), "{}", response.body);
        }
    }
}
