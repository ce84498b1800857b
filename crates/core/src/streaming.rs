//! Exact h-motif counting over an *evolving* hypergraph.
//!
//! Re-running MoCHy-E from scratch on every snapshot of an evolving
//! hypergraph repeats almost all of its work: a single hyperedge insertion
//! or deletion only changes the counts of instances that *contain the
//! touched hyperedge*, and every such instance lives inside the touched
//! hyperedge's hyperwedge neighbourhood. The [`StreamingEngine`] maintains
//! the exact 26-dimensional count vector incrementally:
//!
//! - the hypergraph lives in a [`DynamicHypergraph`] (sorted members,
//!   mutable incidence, monotone never-reused edge ids);
//! - the projected graph lives in a [`ProjectionOverlay`] (CSR base + delta
//!   rows with periodic compaction), so the hash-free lookup kernels of the
//!   batch path keep working between compactions;
//! - on `insert(e)` / `remove(e)` only the **delta** contributed by `e` is
//!   classified: every triple `{e, j, k}` with `j, k ∈ N(e)` (e is a centre)
//!   plus every open triple `{e, j, k}` with `j ∈ N(e)`, `k ∈ N(j) ∖ N(e)`
//!   (j is the unique centre). Each affected instance is visited exactly
//!   once, in `O(|N(e)|² + Σ_{j∈N(e)} |N(j)|)` weight lookups.
//!
//! All contributions are integer-valued `f64` increments, so after any
//! sequence of insertions and deletions the counts are **bit-identical** to
//! a from-scratch [`mochy_e`](crate::exact::mochy_e) run on the surviving
//! hyperedges — the property the streaming equivalence tests pin down.
//!
//! ```
//! use mochy_core::streaming::{StreamConfig, StreamingEngine};
//!
//! let mut stream = StreamingEngine::new(StreamConfig::default());
//! let e1 = stream.insert([0u32, 1, 2]);
//! let _e2 = stream.insert([0u32, 3, 1]);
//! let _e3 = stream.insert([4u32, 5, 0]);
//! let _e4 = stream.insert([6u32, 7, 2]);
//! assert_eq!(stream.counts().total(), 3.0); // Figure 2 of the paper
//!
//! stream.remove(e1);
//! assert_eq!(stream.counts().total(), 0.0); // e1 held every instance together
//! ```

use std::time::{Duration, Instant};

use mochy_hypergraph::graph::sorted_triple_intersection_size;
use mochy_hypergraph::{DynamicHypergraph, EdgeId, Hypergraph, HypergraphError, NodeId};
use mochy_motif::{MotifCatalog, MotifId};
use mochy_projection::{project, ProjectionOverlay, WeightedNeighbor};

use crate::count::MotifCounts;
use crate::engine::{CountReport, Method, ProjectionMode};
use crate::exact::mochy_e;

/// Configuration of a [`StreamingEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Compact the projection overlay only once its deltas hold at least
    /// this many entries.
    pub compaction_min_delta: usize,
    /// … and exceed this fraction of the compacted base entry count.
    pub compaction_ratio: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            compaction_min_delta: mochy_projection::overlay::DEFAULT_COMPACTION_MIN_DELTA,
            compaction_ratio: mochy_projection::overlay::DEFAULT_COMPACTION_RATIO,
        }
    }
}

/// Cumulative bookkeeping of a streaming run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Hyperedges inserted so far.
    pub insertions: u64,
    /// Hyperedges removed so far.
    pub removals: u64,
    /// Projection-overlay compactions performed so far.
    pub compactions: usize,
}

/// Maintains exact h-motif counts under hyperedge insertions and deletions.
#[derive(Debug, Clone)]
pub struct StreamingEngine {
    hypergraph: DynamicHypergraph,
    projection: ProjectionOverlay,
    catalog: MotifCatalog,
    counts: MotifCounts,
    stats: StreamStats,
    update_time: Duration,
    /// Reusable buffer for neighbour-of-neighbour iteration.
    scratch: Vec<WeightedNeighbor>,
}

impl StreamingEngine {
    /// An empty streaming engine (no nodes, no hyperedges, zero counts).
    pub fn new(config: StreamConfig) -> Self {
        Self {
            hypergraph: DynamicHypergraph::new(),
            projection: ProjectionOverlay::new()
                .with_compaction(config.compaction_min_delta, config.compaction_ratio),
            catalog: MotifCatalog::new(),
            counts: MotifCounts::zero(),
            stats: StreamStats::default(),
            update_time: Duration::ZERO,
            scratch: Vec::new(),
        }
    }

    /// Bootstraps a streaming engine from an existing snapshot: the
    /// projection is materialized eagerly (Algorithm 1) and the initial
    /// counts come from one batch MoCHy-E run; subsequent mutations are
    /// incremental. Edge `e` of `hypergraph` keeps the identifier `e`.
    pub fn from_hypergraph(hypergraph: &Hypergraph, config: StreamConfig) -> Self {
        let projected = project(hypergraph);
        let counts = mochy_e(hypergraph, &projected);
        Self {
            hypergraph: DynamicHypergraph::from_hypergraph(hypergraph),
            projection: ProjectionOverlay::from_projected(&projected)
                .with_compaction(config.compaction_min_delta, config.compaction_ratio),
            catalog: MotifCatalog::new(),
            counts,
            stats: StreamStats::default(),
            update_time: Duration::ZERO,
            scratch: Vec::new(),
        }
    }

    /// Inserts a hyperedge, updates the counts by its delta, and returns its
    /// fresh identifier.
    ///
    /// # Panics
    /// Panics if the member list is empty.
    pub fn insert<I>(&mut self, members: I) -> EdgeId
    where
        I: IntoIterator<Item = NodeId>,
    {
        let start = Instant::now();
        let e = self.hypergraph.insert_edge(members);
        let neighbors = self.hypergraph.neighborhood(e);
        self.projection.insert_row(e, &neighbors);
        let delta = self.delta_at(e, &neighbors);
        self.counts.merge(&delta);
        self.projection.maybe_compact();
        self.stats.insertions += 1;
        self.stats.compactions = self.projection.compactions();
        self.update_time += start.elapsed();
        e
    }

    /// Removes hyperedge `e`, updating the counts by its (negated) delta.
    ///
    /// Removing a tombstoned or never-issued identifier is a **strict
    /// no-op**: it returns `false` and leaves the counts, the projection,
    /// the hypergraph, and the stream statistics bit-identical — the serve
    /// layer forwards client-supplied ids here, so this contract must hold
    /// for arbitrary input.
    pub fn remove(&mut self, e: EdgeId) -> bool {
        // The hypergraph and the projection overlay tombstone in lockstep;
        // a divergence would mean a delta was applied against one view but
        // not the other.
        debug_assert_eq!(
            self.hypergraph.is_live(e),
            self.projection.is_live(e),
            "hypergraph/overlay liveness diverged for edge {e}"
        );
        if !self.hypergraph.is_live(e) {
            return false;
        }
        let start = Instant::now();
        // The delta is computed with `e` still present — exactly the set of
        // instances that disappear with it.
        let neighbors = self.projection.neighbors(e);
        let delta = self.delta_at(e, &neighbors);
        self.counts.subtract(&delta);
        self.projection.remove_row(e, &neighbors);
        self.hypergraph.remove_edge(e);
        self.projection.maybe_compact();
        self.stats.removals += 1;
        self.stats.compactions = self.projection.compactions();
        self.update_time += start.elapsed();
        true
    }

    /// The current exact counts.
    pub fn counts(&self) -> &MotifCounts {
        &self.counts
    }

    /// Number of live hyperedges.
    pub fn num_live_edges(&self) -> usize {
        self.hypergraph.num_live_edges()
    }

    /// Current number of hyperwedges `|∧|` in the projected graph.
    pub fn num_hyperwedges(&self) -> usize {
        self.projection.num_hyperwedges()
    }

    /// Whether `e` names a live hyperedge.
    pub fn is_live(&self, e: EdgeId) -> bool {
        self.hypergraph.is_live(e)
    }

    /// Cumulative stream bookkeeping (insertions, removals, compactions).
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Total wall-clock time spent inside `insert` / `remove` so far.
    pub fn update_time(&self) -> Duration {
        self.update_time
    }

    /// The current counts packaged as a [`CountReport`], in the same shape
    /// every batch [`Method`](crate::engine::Method) produces. The timing
    /// fields carry the cumulative update time of the stream.
    pub fn snapshot(&self) -> CountReport {
        CountReport {
            counts: self.counts.clone(),
            method: Method::Incremental,
            samples_drawn: None,
            batches: None,
            standard_errors: None,
            total_relative_error: None,
            converged: None,
            memo_stats: None,
            num_hyperwedges: Some(self.num_hyperwedges()),
            generalized: None,
            projection: ProjectionMode::Overlay,
            projection_time: Duration::ZERO,
            counting_time: self.update_time,
            elapsed: self.update_time,
        }
    }

    /// Materializes the live hyperedges as an immutable [`Hypergraph`]
    /// (ids compacted, duplicates kept) — the input a from-scratch engine
    /// run would see.
    ///
    /// # Errors
    /// Returns [`HypergraphError::NoEdges`] when no live edge remains.
    pub fn to_hypergraph(&self) -> Result<Hypergraph, HypergraphError> {
        self.hypergraph.to_hypergraph()
    }

    /// Counts every h-motif instance containing `e`, with `e` and its full
    /// adjacency present in both the hypergraph and the projection.
    fn delta_at(&mut self, e: EdgeId, neighbors: &[WeightedNeighbor]) -> MotifCounts {
        let mut delta = MotifCounts::zero();
        // Case 1 — `e` is adjacent to both other members: every unordered
        // pair {j, k} ⊆ N(e). Open triples (w_jk = 0) have centre `e`;
        // closed triples are attributed to this unique unordered pair.
        for (a, &(j, w_ej)) in neighbors.iter().enumerate() {
            for &(k, w_ek) in &neighbors[a + 1..] {
                let w_jk = self.projection.weight(j, k).unwrap_or(0);
                if let Some(motif) = self.classify(e, j, k, w_ej, w_jk, w_ek) {
                    delta.increment(motif);
                }
            }
        }
        // Case 2 — `e` is adjacent to exactly one member `j`: the third
        // member `k` is a neighbour of `j` outside N(e) ∪ {e}, making `j`
        // the unique centre of an open triple.
        let mut scratch = std::mem::take(&mut self.scratch);
        for &(j, w_ej) in neighbors {
            self.projection.neighbors_into(j, &mut scratch);
            for &(k, w_jk) in &scratch {
                if k == e || neighbors.binary_search_by_key(&k, |&(id, _)| id).is_ok() {
                    continue;
                }
                if let Some(motif) = self.classify(e, j, k, w_ej, w_jk, 0) {
                    delta.increment(motif);
                }
            }
        }
        scratch.clear();
        self.scratch = scratch;
        delta
    }

    /// Classifies the triple `{e_a, e_b, e_c}` from its pairwise overlaps,
    /// computing the triple intersection by scanning the smallest member
    /// list (Lemma 2), exactly like the batch path.
    fn classify(
        &self,
        a: EdgeId,
        b: EdgeId,
        c: EdgeId,
        w_ab: u32,
        w_bc: u32,
        w_ca: u32,
    ) -> Option<MotifId> {
        let edge = |e: EdgeId| self.hypergraph.edge(e).expect("live edge");
        let triple = if w_ab == 0 || w_bc == 0 || w_ca == 0 {
            0
        } else {
            sorted_triple_intersection_size(edge(a), edge(b), edge(c))
        };
        self.catalog.classify_from_intersections(
            self.hypergraph.edge_size(a),
            self.hypergraph.edge_size(b),
            self.hypergraph.edge_size(c),
            w_ab as usize,
            w_bc as usize,
            w_ca as usize,
            triple,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute_force_counts;
    use mochy_hypergraph::HypergraphBuilder;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn figure2_members() -> Vec<Vec<NodeId>> {
        vec![vec![0, 1, 2], vec![0, 3, 1], vec![4, 5, 0], vec![6, 7, 2]]
    }

    fn assert_matches_from_scratch(stream: &StreamingEngine, context: &str) {
        match stream.to_hypergraph() {
            Ok(h) => {
                let projected = project(&h);
                let expected = mochy_e(&h, &projected);
                assert_eq!(stream.counts(), &expected, "{context}");
                assert_eq!(
                    stream.num_hyperwedges(),
                    projected.num_hyperwedges(),
                    "{context}: hyperwedge count"
                );
            }
            Err(_) => {
                assert_eq!(stream.counts().total(), 0.0, "{context}: empty stream");
                assert_eq!(stream.num_hyperwedges(), 0, "{context}: empty stream");
            }
        }
    }

    #[test]
    fn figure2_counts_build_up_and_tear_down() {
        let mut stream = StreamingEngine::new(StreamConfig::default());
        let mut ids = Vec::new();
        for members in figure2_members() {
            ids.push(stream.insert(members));
            assert_matches_from_scratch(&stream, "insert");
        }
        assert_eq!(stream.counts().total(), 3.0);
        for &e in ids.iter().rev() {
            assert!(stream.remove(e));
            assert_matches_from_scratch(&stream, "remove");
        }
        assert_eq!(stream.counts().total(), 0.0);
        assert_eq!(stream.num_live_edges(), 0);
        let stats = stream.stats();
        assert_eq!(stats.insertions, 4);
        assert_eq!(stats.removals, 4);
    }

    #[test]
    fn random_churn_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut stream = StreamingEngine::new(StreamConfig::default());
        let mut live: Vec<EdgeId> = Vec::new();
        for step in 0..150 {
            if !live.is_empty() && rng.gen_bool(0.35) {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                assert!(stream.remove(victim));
            } else {
                let size = rng.gen_range(1..=5);
                let members: Vec<NodeId> = (0..size).map(|_| rng.gen_range(0..16)).collect();
                live.push(stream.insert(members));
            }
            if step % 10 == 0 {
                if let Ok(h) = stream.to_hypergraph() {
                    assert_eq!(stream.counts(), &brute_force_counts(&h), "step {step}");
                }
            }
        }
        assert_matches_from_scratch(&stream, "final");
    }

    #[test]
    fn forced_compaction_preserves_equivalence() {
        let config = StreamConfig {
            compaction_min_delta: 1,
            compaction_ratio: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut stream = StreamingEngine::new(config);
        let mut live: Vec<EdgeId> = Vec::new();
        for _ in 0..80 {
            if !live.is_empty() && rng.gen_bool(0.3) {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                stream.remove(victim);
            } else {
                let size = rng.gen_range(2..=4);
                let members: Vec<NodeId> = (0..size).map(|_| rng.gen_range(0..12)).collect();
                live.push(stream.insert(members));
            }
        }
        assert!(stream.stats().compactions > 0, "compaction never triggered");
        assert_matches_from_scratch(&stream, "compacted");
    }

    #[test]
    fn bootstrap_from_hypergraph_continues_incrementally() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0, 3, 1])
            .with_edge([4, 5, 0])
            .build()
            .unwrap();
        let mut stream = StreamingEngine::from_hypergraph(&h, StreamConfig::default());
        assert_eq!(stream.counts().total(), 1.0); // {e1,e2,e3} is closed
        let e4 = stream.insert([6u32, 7, 2]);
        assert_eq!(stream.counts().total(), 3.0); // Figure 2 complete
        assert!(stream.remove(0));
        assert_matches_from_scratch(&stream, "bootstrap");
        assert!(stream.is_live(e4));
    }

    #[test]
    fn duplicate_hyperedges_never_form_instances() {
        let mut stream = StreamingEngine::new(StreamConfig::default());
        stream.insert([0u32, 1, 2]);
        stream.insert([0u32, 1, 2]);
        stream.insert([0u32, 1, 2]);
        stream.insert([2u32, 3, 4]);
        assert_eq!(stream.counts().total(), 0.0);
        assert_matches_from_scratch(&stream, "duplicates");
    }

    #[test]
    fn snapshot_reports_incremental_method() {
        let mut stream = StreamingEngine::new(StreamConfig::default());
        for members in figure2_members() {
            stream.insert(members);
        }
        let report = stream.snapshot();
        assert_eq!(report.method, Method::Incremental);
        assert_eq!(report.projection, ProjectionMode::Overlay);
        assert_eq!(report.counts.total(), 3.0);
        assert_eq!(report.num_hyperwedges, Some(4));
        assert!(report.samples_drawn.is_none());
    }

    #[test]
    fn removing_unknown_edges_is_a_no_op() {
        let mut stream = StreamingEngine::new(StreamConfig::default());
        assert!(!stream.remove(0));
        let e = stream.insert([0u32, 1]);
        assert!(stream.remove(e));
        assert!(!stream.remove(e));
        assert_eq!(stream.stats().removals, 1);
    }

    /// Interleaves double-removes, removals of never-issued ids, and
    /// re-insertions of previously removed member sets, asserting (a) every
    /// failed removal is a *strict* no-op — counts, hyperwedges, and stats
    /// bit-identical afterwards — and (b) the stream stays bit-identical to
    /// from-scratch MoCHy-E throughout.
    #[test]
    fn double_remove_and_reinsert_churn_matches_from_scratch_mochy_e() {
        let mut rng = StdRng::seed_from_u64(2024);
        let mut stream = StreamingEngine::new(StreamConfig::default());
        let mut live: Vec<(EdgeId, Vec<NodeId>)> = Vec::new();
        let mut graveyard: Vec<(EdgeId, Vec<NodeId>)> = Vec::new();

        // Asserts that removing `e` changes nothing at all, bit for bit.
        fn assert_strict_noop(stream: &mut StreamingEngine, e: EdgeId, what: &str) {
            let counts = stream.counts().clone();
            let hyperwedges = stream.num_hyperwedges();
            let edges = stream.num_live_edges();
            let stats = stream.stats();
            assert!(!stream.remove(e), "{what}: removal of {e} must fail");
            assert_eq!(stream.counts(), &counts, "{what}: counts changed");
            assert_eq!(stream.num_hyperwedges(), hyperwedges, "{what}: wedges");
            assert_eq!(stream.num_live_edges(), edges, "{what}: live edges");
            assert_eq!(stream.stats(), stats, "{what}: stats changed");
        }

        for step in 0..240u32 {
            let roll = rng.gen_range(0..100);
            if roll < 25 && !live.is_empty() {
                // Remove, then immediately double-remove the tombstone.
                let (victim, members) = live.swap_remove(rng.gen_range(0..live.len()));
                assert!(stream.remove(victim), "step {step}: first removal");
                assert_strict_noop(&mut stream, victim, "double remove");
                graveyard.push((victim, members));
            } else if roll < 35 {
                // Never-issued identifiers, small and huge.
                let bogus =
                    stream.num_live_edges() as EdgeId + graveyard.len() as EdgeId + 100 + step;
                assert_strict_noop(&mut stream, bogus, "never-issued id");
                assert_strict_noop(&mut stream, EdgeId::MAX - step, "huge id");
            } else if roll < 50 && !graveyard.is_empty() {
                // Re-insert a previously removed member set: it must get a
                // fresh id (never reused), and the tombstone stays dead.
                let (old_id, members) = graveyard[rng.gen_range(0..graveyard.len())].clone();
                let new_id = stream.insert(members.iter().copied());
                assert!(new_id > old_id, "step {step}: id {new_id} reused {old_id}");
                assert!(!stream.is_live(old_id), "step {step}: tombstone revived");
                assert!(stream.is_live(new_id));
                live.push((new_id, members));
                // The old tombstone is still a strict no-op to remove.
                assert_strict_noop(&mut stream, old_id, "tombstone after re-insert");
            } else {
                let size = rng.gen_range(1..=4);
                let members: Vec<NodeId> = (0..size).map(|_| rng.gen_range(0..14)).collect();
                let e = stream.insert(members.iter().copied());
                live.push((e, members));
            }
            if step % 20 == 0 {
                assert_matches_from_scratch(&stream, &format!("step {step}"));
            }
        }
        assert!(
            stream.stats().removals >= 10,
            "churn script never exercised removal"
        );
        assert_matches_from_scratch(&stream, "final");
    }
}
