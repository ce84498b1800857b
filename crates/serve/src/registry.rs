//! Named datasets as shared, immutable snapshots with serialized mutation.
//!
//! Concurrency model (the heart of the serve layer):
//!
//! - Every dataset publishes its current state as an `Arc<Snapshot>`.
//!   Readers call [`Dataset::snapshot`], which holds the publication lock
//!   only long enough to clone the `Arc` — nanoseconds — and then run their
//!   whole query (counting, profile estimation) against that immutable
//!   snapshot without any further synchronization. A query never observes
//!   a half-applied mutation.
//! - A snapshot carries what every query on it shares. Its projected graph
//!   is built at most once, by the first reader that counts on it
//!   ([`Snapshot::projection`]), and lives as long as the snapshot. A
//!   snapshot that [`Dataset::mutate`] published also carries the writer's
//!   exact counts and |∧| ([`Snapshot::streamed`]), which are
//!   bit-identical to MoCHy-E on its hypergraph.
//! - Mutations serialize through a per-dataset writer: a
//!   [`StreamingEngine`] (bootstrapped lazily from the current snapshot on
//!   the first mutation) applies the hyperedge insertions and removals
//!   incrementally, then a **fresh** snapshot is materialized and published
//!   by swapping the shared pointer. In-flight readers keep the snapshot
//!   they started with; new readers see the new one.
//! - Edge identifiers follow the [`DynamicHypergraph`] contract
//!   (monotone, never reused): removing a tombstoned or never-issued id is a
//!   strict no-op reported as `false`, never an error and never a panic —
//!   the API surfaces client-supplied ids directly, so this must be
//!   airtight.
//!
//! [`DynamicHypergraph`]: mochy_hypergraph::DynamicHypergraph

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

use mochy_core::count::MotifCounts;
use mochy_core::streaming::{StreamConfig, StreamingEngine};
use mochy_hypergraph::{EdgeId, Hypergraph, NodeId};
use mochy_projection::{project_parallel, ProjectedGraph};

/// Largest node identifier a mutation may introduce. The incidence index is
/// dense in the node id (one slot per id up to the maximum ever seen), so an
/// unbounded client-supplied id would translate into an unbounded
/// allocation; 2^24 − 1 comfortably covers the paper's largest dataset
/// (threads-stackoverflow, 2.6 M nodes) while capping the index at a few
/// hundred megabytes even in the worst case.
pub const MAX_NODE_ID: NodeId = (1 << 24) - 1;

/// The exact counts and |∧| a dataset's writer held when it published a
/// snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedCounts {
    /// The 26 h-motif instance counts.
    pub counts: MotifCounts,
    /// The number of hyperwedges |∧|.
    pub num_hyperwedges: usize,
}

/// An immutable, shareable state of one dataset: its hypergraph, the
/// projected graph built from it on first use, and, when the dataset's
/// writer published it, the writer's exact counts.
#[derive(Debug)]
pub struct Snapshot {
    /// Publication number: 0 for the initial load, +1 per mutation batch.
    pub generation: u64,
    /// The hypergraph, or `None` when every hyperedge has been removed
    /// (hyperedge sets are non-empty by construction, so the empty state
    /// needs an explicit representation).
    pub hypergraph: Option<Arc<Hypergraph>>,
    /// The writer's exact counts and |∧| ([`StreamingEngine::counts`],
    /// [`StreamingEngine::num_hyperwedges`]), copied under the writer lock,
    /// for every snapshot [`Dataset::mutate`] published. They are
    /// bit-identical to MoCHy-E on [`Snapshot::hypergraph`] (streaming
    /// equivalence). `None` for generation 0 and uploads, which no writer
    /// published.
    pub streamed: Option<StreamedCounts>,
    projected: OnceLock<ProjectedGraph>,
}

impl Snapshot {
    fn new(
        generation: u64,
        hypergraph: Option<Arc<Hypergraph>>,
        streamed: Option<StreamedCounts>,
    ) -> Self {
        Self {
            generation,
            hypergraph,
            streamed,
            projected: OnceLock::new(),
        }
    }

    /// The projected graph of [`Snapshot::hypergraph`] (Algorithm 1), or
    /// `None` for the empty snapshot. The first caller builds it with
    /// `threads` threads (the graph is the same for every thread count);
    /// concurrent first callers wait for that one build, and every later
    /// caller shares it for as long as the snapshot lives.
    pub fn projection(&self, threads: usize) -> Option<&ProjectedGraph> {
        let hypergraph = self.hypergraph.as_deref()?;
        Some(
            self.projected
                .get_or_init(|| project_parallel(hypergraph, threads)),
        )
    }

    /// Number of nodes (0 for the empty snapshot).
    pub fn num_nodes(&self) -> usize {
        self.hypergraph.as_ref().map_or(0, |h| h.num_nodes())
    }

    /// Number of hyperedges (0 for the empty snapshot).
    pub fn num_edges(&self) -> usize {
        self.hypergraph.as_ref().map_or(0, |h| h.num_edges())
    }
}

/// The outcome of one mutation batch, reported back to the client.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationOutcome {
    /// Generation of the snapshot the batch published.
    pub generation: u64,
    /// The fresh identifier of every inserted hyperedge, in request order.
    pub inserted: Vec<EdgeId>,
    /// Per requested removal: whether it removed a live hyperedge (`false`
    /// for tombstoned or never-issued ids — a strict no-op).
    pub removed: Vec<bool>,
    /// Live hyperedges after the batch.
    pub num_edges: usize,
    /// Exact total h-motif instance count after the batch, maintained
    /// incrementally by the streaming writer.
    pub total_instances: f64,
}

/// Why a mutation batch was not applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutateError {
    /// The batch itself is malformed — a client error (HTTP 400).
    Invalid(String),
    /// The streaming writer was poisoned by a panic mid-batch. Unlike the
    /// publication lock (which only guards an atomic pointer swap), the
    /// writer's incremental counts can genuinely be torn by a panic, so
    /// this is a server error (HTTP 500); recovery is re-ingesting the
    /// dataset.
    WriterPoisoned,
}

impl std::fmt::Display for MutateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutateError::Invalid(why) => write!(f, "{why}"),
            MutateError::WriterPoisoned => write!(
                f,
                "the dataset's writer was poisoned by an earlier panic; re-ingest the dataset"
            ),
        }
    }
}

/// One named dataset: a published snapshot plus a serialized writer.
#[derive(Debug)]
pub struct Dataset {
    published: Mutex<Arc<Snapshot>>,
    /// The streaming writer; `None` until the first mutation.
    writer: Mutex<Option<StreamingEngine>>,
}

impl Dataset {
    fn new(hypergraph: Hypergraph) -> Self {
        Self {
            published: Mutex::new(Arc::new(Snapshot::new(0, Some(Arc::new(hypergraph)), None))),
            writer: Mutex::new(None),
        }
    }

    /// The currently published snapshot. The internal lock is held only for
    /// the pointer clone; the returned snapshot is immutable and can be read
    /// for any length of time without blocking writers or other readers.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        // A poisoned publication lock is recoverable: the guarded value is a
        // plain `Arc` swapped in one assignment, so a panic elsewhere can
        // never leave it torn — readers must keep being served.
        Arc::clone(
            &self
                .published
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Applies a mutation batch — `inserts` then `removes` — and publishes a
    /// fresh snapshot. Mutations serialize on the writer lock; concurrent
    /// readers are never blocked and keep whichever snapshot they already
    /// hold.
    ///
    /// # Errors
    /// Rejects empty member lists and node ids above [`MAX_NODE_ID`]
    /// *before* touching the writer, so a bad batch mutates nothing.
    pub fn mutate(
        &self,
        inserts: &[Vec<NodeId>],
        removes: &[EdgeId],
    ) -> Result<MutationOutcome, MutateError> {
        for (position, members) in inserts.iter().enumerate() {
            if members.is_empty() {
                return Err(MutateError::Invalid(format!(
                    "insert[{position}] is empty; hyperedges are non-empty node sets"
                )));
            }
            if let Some(&node) = members.iter().find(|&&v| v > MAX_NODE_ID) {
                return Err(MutateError::Invalid(format!(
                    "insert[{position}] names node {node}, above the maximum node id \
                     {MAX_NODE_ID}"
                )));
            }
        }

        let mut writer = self
            .writer
            .lock()
            .map_err(|_| MutateError::WriterPoisoned)?;
        if writer.is_none() {
            // First mutation: bootstrap the streaming engine from the
            // published snapshot (edge e keeps identifier e). The bootstrap
            // runs a full projection + motif count, so it must happen with
            // the writer lock *released* — otherwise every concurrent
            // mutation (and any future caller that takes the writer lock)
            // stalls behind one dataset-sized count. Releasing is safe:
            // snapshots only advance under the writer lock, so the published
            // snapshot we bootstrap from cannot change while no writer
            // exists; if two mutations race the bootstrap, the recheck below
            // keeps the first engine and discards the duplicate.
            drop(writer);
            let bootstrapped = match self.snapshot().hypergraph.as_deref() {
                Some(hypergraph) => StreamingEngine::from_hypergraph(hypergraph, StreamConfig),
                None => StreamingEngine::new(StreamConfig),
            };
            writer = self
                .writer
                .lock()
                .map_err(|_| MutateError::WriterPoisoned)?;
            if writer.is_none() {
                *writer = Some(bootstrapped);
            }
        }
        let stream = match writer.as_mut() {
            Some(stream) => stream,
            // Unreachable — the branch above guarantees `Some` — but a typed
            // error keeps this path panic-free instead of unwrapping.
            None => return Err(MutateError::WriterPoisoned),
        };

        let inserted: Vec<EdgeId> = inserts
            .iter()
            .map(|members| stream.insert(members.iter().copied()))
            .collect();
        let removed: Vec<bool> = removes.iter().map(|&e| stream.remove(e)).collect();

        // Publish: materialize the surviving hyperedges as an immutable
        // snapshot, with a copy of the writer's exact counts, and swap the
        // shared pointer.
        let hypergraph = stream.to_hypergraph().ok().map(Arc::new);
        let streamed = StreamedCounts {
            counts: stream.counts().clone(),
            num_hyperwedges: stream.num_hyperwedges(),
        };
        let num_edges = stream.num_live_edges();
        let total_instances = streamed.counts.total();
        let mut published = self
            .published
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let generation = published.generation + 1;
        *published = Arc::new(Snapshot::new(generation, hypergraph, Some(streamed)));
        Ok(MutationOutcome {
            generation,
            inserted,
            removed,
            num_edges,
            total_instances,
        })
    }
}

/// The set of datasets a server instance exposes.
///
/// Seeded at startup and extensible at runtime: `POST /datasets` ingests an
/// uploaded snapshot into a fresh entry, so the map lives behind a
/// [`RwLock`]. Readers (`/count`, `/profile`, the listing) take the read
/// lock only long enough to clone one `Arc`; ingestion takes the write lock
/// for a map insert. Per-dataset state never needs the registry lock —
/// mutation and snapshot publication are handled inside [`Dataset`].
#[derive(Debug, Default)]
pub struct Registry {
    datasets: RwLock<BTreeMap<String, Arc<Dataset>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `hypergraph` under `name` (replacing any previous dataset
    /// of that name) — the boot-time seeding path.
    pub fn insert(&self, name: impl Into<String>, hypergraph: Hypergraph) {
        // Registry lock poisoning is recoverable everywhere below: the map
        // operations under it (`BTreeMap` insert/get/iterate over `String`
        // keys and `Arc` values) have no panic path that could tear the map,
        // and refusing service registry-wide over one dead worker would turn
        // a single burned request into a full outage.
        self.datasets
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.into(), Arc::new(Dataset::new(hypergraph)));
    }

    /// Registers `hypergraph` under `name` as a **fresh** entry — the
    /// runtime ingestion path. Fails (without touching the map) if the name
    /// is taken: replacing a live dataset under concurrent readers is a
    /// deliberate operator action, not something an upload does implicitly.
    pub fn insert_new(
        &self,
        name: impl Into<String>,
        hypergraph: Hypergraph,
    ) -> Result<Arc<Dataset>, String> {
        let name = name.into();
        let mut datasets = self
            .datasets
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if datasets.contains_key(&name) {
            return Err(format!("dataset `{name}` already exists"));
        }
        let dataset = Arc::new(Dataset::new(hypergraph));
        datasets.insert(name, Arc::clone(&dataset));
        Ok(dataset)
    }

    /// The dataset registered under `name`.
    pub fn get(&self, name: &str) -> Option<Arc<Dataset>> {
        self.datasets
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.datasets
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.datasets
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty()
    }

    /// A point-in-time snapshot of `(name, dataset)` pairs in name order
    /// (the order the listing endpoint reports).
    pub fn entries(&self) -> Vec<(String, Arc<Dataset>)> {
        self.datasets
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, dataset)| (name.clone(), Arc::clone(dataset)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mochy_core::engine::CountConfig;
    use mochy_hypergraph::HypergraphBuilder;

    fn figure2() -> Hypergraph {
        HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0, 3, 1])
            .with_edge([4, 5, 0])
            .with_edge([6, 7, 2])
            .build()
            .unwrap()
    }

    #[test]
    fn snapshots_are_immutable_across_mutations() {
        let dataset = Dataset::new(figure2());
        let before = dataset.snapshot();
        assert_eq!(before.generation, 0);
        assert_eq!(before.num_edges(), 4);

        let outcome = dataset
            .mutate(&[vec![1, 4, 6]], &[3])
            .expect("valid mutation");
        assert_eq!(outcome.generation, 1);
        assert_eq!(outcome.inserted, vec![4]);
        assert_eq!(outcome.removed, vec![true]);
        assert_eq!(outcome.num_edges, 4);

        // The old snapshot still sees the pre-mutation hypergraph.
        assert_eq!(before.num_edges(), 4);
        let old_counts = CountConfig::exact()
            .build()
            .count(before.hypergraph.as_deref().unwrap());
        assert_eq!(old_counts.counts.total(), 3.0);

        let after = dataset.snapshot();
        assert_eq!(after.generation, 1);
        assert_eq!(after.num_edges(), 4);
        // The published snapshot's exact counts match the incremental total,
        // and it carries the writer's counts and |∧| bit for bit.
        let new_counts = CountConfig::exact()
            .build()
            .count(after.hypergraph.as_deref().unwrap());
        assert_eq!(new_counts.counts.total(), outcome.total_instances);
        let streamed = after.streamed.as_ref().expect("the writer published it");
        assert_eq!(streamed.counts, new_counts.counts);
        assert_eq!(Some(streamed.num_hyperwedges), new_counts.num_hyperwedges);
        assert!(before.streamed.is_none(), "generation 0 had no writer");
    }

    #[test]
    fn a_snapshot_projects_once() {
        let dataset = Dataset::new(figure2());
        let snapshot = dataset.snapshot();
        let first = snapshot.projection(2).unwrap();
        assert_eq!(first, &mochy_projection::project(&figure2()));
        // Every later caller shares the first build, whatever its threads.
        assert!(std::ptr::eq(first, snapshot.projection(1).unwrap()));
        dataset.mutate(&[], &[0, 1, 2, 3]).unwrap();
        assert!(dataset.snapshot().projection(1).is_none());
    }

    #[test]
    fn double_and_unknown_removes_are_reported_false() {
        let dataset = Dataset::new(figure2());
        let outcome = dataset.mutate(&[], &[3, 3, 99]).unwrap();
        assert_eq!(outcome.removed, vec![true, false, false]);
        assert_eq!(outcome.num_edges, 3);
        // A second batch re-removing the same id is still a no-op and does
        // not disturb the counts.
        let again = dataset.mutate(&[], &[3]).unwrap();
        assert_eq!(again.removed, vec![false]);
        assert_eq!(again.total_instances, outcome.total_instances);
        assert_eq!(again.generation, 2);
    }

    #[test]
    fn bad_batches_mutate_nothing() {
        let dataset = Dataset::new(figure2());
        let error = dataset
            .mutate(&[vec![0, 1], vec![]], &[0])
            .unwrap_err()
            .to_string();
        assert!(error.contains("insert[1]"), "{error}");
        // Node ids above the cap are rejected up front — the incidence index
        // is dense in the node id, so admitting them would be an unbounded
        // allocation.
        let error = dataset
            .mutate(&[vec![0, 1], vec![2, MAX_NODE_ID + 1]], &[0])
            .unwrap_err();
        assert!(matches!(error, MutateError::Invalid(_)), "{error:?}");
        assert!(error.to_string().contains("maximum node id"), "{error}");
        let snapshot = dataset.snapshot();
        assert_eq!(snapshot.generation, 0);
        assert_eq!(snapshot.num_edges(), 4);
    }

    #[test]
    fn emptied_datasets_publish_an_empty_snapshot_and_recover() {
        let dataset = Dataset::new(
            HypergraphBuilder::new()
                .with_edge([0u32, 1])
                .build()
                .unwrap(),
        );
        let outcome = dataset.mutate(&[], &[0]).unwrap();
        assert_eq!(outcome.num_edges, 0);
        assert_eq!(outcome.total_instances, 0.0);
        let empty = dataset.snapshot();
        assert!(empty.hypergraph.is_none());
        assert_eq!(empty.num_nodes(), 0);
        // Inserting again revives the dataset.
        let outcome = dataset.mutate(&[vec![2, 3]], &[]).unwrap();
        assert_eq!(outcome.num_edges, 1);
        assert_eq!(dataset.snapshot().num_edges(), 1);
    }

    #[test]
    fn registry_lists_in_name_order() {
        let registry = Registry::new();
        registry.insert("zeta", figure2());
        registry.insert("alpha", figure2());
        let names: Vec<String> = registry
            .entries()
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(registry.len(), 2);
        assert!(registry.get("alpha").is_some());
        assert!(registry.get("missing").is_none());
    }

    #[test]
    fn insert_new_rejects_existing_names_without_clobbering() {
        let registry = Registry::new();
        registry.insert("fig2", figure2());
        let before = registry.get("fig2").unwrap().snapshot();
        let error = registry.insert_new("fig2", figure2()).unwrap_err();
        assert!(error.contains("already exists"), "{error}");
        // The original dataset (and its published snapshot) is untouched.
        assert!(Arc::ptr_eq(
            &before.hypergraph.clone().unwrap(),
            &registry
                .get("fig2")
                .unwrap()
                .snapshot()
                .hypergraph
                .clone()
                .unwrap()
        ));
        // A fresh name is accepted and immediately visible.
        registry.insert_new("fig2-b", figure2()).unwrap();
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.get("fig2-b").unwrap().snapshot().generation, 0);
    }
}
