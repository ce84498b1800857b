//! Exact h-motif counting over an *evolving* hypergraph.
//!
//! Re-running MoCHy-E from scratch on every snapshot of an evolving
//! hypergraph repeats almost all of its work: a single hyperedge insertion
//! or deletion only changes the counts of the instances that *contain the
//! touched hyperedge*, its star. The [`StreamingEngine`] maintains the exact
//! 26-dimensional count vector incrementally:
//!
//! - the hypergraph lives in a [`DynamicHypergraph`] (sorted members,
//!   mutable incidence, monotone never-reused edge ids);
//! - on `insert(e)` / `remove(e)` the star kernel of `crate::star`, the one
//!   MoCHy-A runs per sample, counts every instance containing `e`: every
//!   pair `{j, k} ⊆ N(e)`, plus every open triple `{e, j, k}` with
//!   `j ∈ N(e)`, `k ∈ N(j) ∖ N(e)`. It reads member and incidence lists only,
//!   in `Σ_{v∈e} |E_v| + Σ_{j∈N(e)} Σ_{v∈e_j} |E_v| + |N(e)|²/2` steps, so
//!   the engine keeps no projected graph; `|∧|` moves by `|N(e)|`.
//!
//! All contributions are integer-valued `f64` increments, so after any
//! sequence of insertions and deletions the counts are **bit-identical** to
//! a from-scratch [`mochy_e`](crate::exact::mochy_e) run on the surviving
//! hyperedges — the property the streaming equivalence tests pin down.
//!
//! ```
//! use mochy_core::streaming::{StreamConfig, StreamingEngine};
//!
//! let mut stream = StreamingEngine::new(StreamConfig);
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

use mochy_hypergraph::{DynamicHypergraph, EdgeId, Hypergraph, HypergraphError, NodeId};
use mochy_projection::project;

use crate::count::MotifCounts;
use crate::exact::mochy_e;
use crate::star::StarWalk;

/// Configuration of a [`StreamingEngine`]. It has no fields: the engine has
/// nothing to tune. It remains because [`StreamingEngine::new`] and
/// [`StreamingEngine::from_hypergraph`] take one, and the repository
/// benchmark (`perfbench/`) calls them with `StreamConfig::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamConfig;

/// Cumulative bookkeeping of a streaming run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Hyperedges inserted so far.
    pub insertions: u64,
    /// Hyperedges removed so far.
    pub removals: u64,
}

/// Maintains exact h-motif counts under hyperedge insertions and deletions.
#[derive(Debug, Clone)]
pub struct StreamingEngine {
    hypergraph: DynamicHypergraph,
    star: StarWalk,
    counts: MotifCounts,
    num_hyperwedges: usize,
    stats: StreamStats,
    update_time: Duration,
}

impl StreamingEngine {
    /// An empty streaming engine (no nodes, no hyperedges, zero counts).
    pub fn new(_config: StreamConfig) -> Self {
        Self {
            hypergraph: DynamicHypergraph::new(),
            star: StarWalk::new(),
            counts: MotifCounts::zero(),
            num_hyperwedges: 0,
            stats: StreamStats::default(),
            update_time: Duration::ZERO,
        }
    }

    /// Bootstraps a streaming engine from an existing snapshot: the initial
    /// counts and `|∧|` come from one projection (Algorithm 1) and one batch
    /// MoCHy-E run; subsequent mutations are incremental. Edge `e` of
    /// `hypergraph` keeps the identifier `e`.
    pub fn from_hypergraph(hypergraph: &Hypergraph, _config: StreamConfig) -> Self {
        let projected = project(hypergraph);
        Self {
            hypergraph: DynamicHypergraph::from_hypergraph(hypergraph),
            counts: mochy_e(hypergraph, &projected),
            num_hyperwedges: projected.num_hyperwedges(),
            ..Self::new(StreamConfig)
        }
    }

    /// Inserts a hyperedge, adds its star to the counts, and returns its
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
        self.num_hyperwedges += self.star.count(&self.hypergraph, e, &mut self.counts);
        self.stats.insertions += 1;
        self.update_time += start.elapsed();
        e
    }

    /// Removes hyperedge `e`, subtracting its star from the counts.
    ///
    /// Removing a tombstoned or never-issued identifier is a **strict
    /// no-op**: it returns `false` and leaves the counts, the hypergraph,
    /// and the stream statistics bit-identical — the serve layer forwards
    /// client-supplied ids here, so this contract must hold for arbitrary
    /// input.
    pub fn remove(&mut self, e: EdgeId) -> bool {
        if !self.hypergraph.is_live(e) {
            return false;
        }
        let start = Instant::now();
        // The star is counted with `e` still present — exactly the set of
        // instances that disappear with it.
        let mut star = MotifCounts::zero();
        self.num_hyperwedges -= self.star.count(&self.hypergraph, e, &mut star);
        self.counts.subtract(&star);
        self.hypergraph.remove_edge(e);
        self.stats.removals += 1;
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

    /// Current number of hyperwedges `|∧|`: the pairs of live hyperedges
    /// that share a node.
    pub fn num_hyperwedges(&self) -> usize {
        self.num_hyperwedges
    }

    /// Whether `e` names a live hyperedge.
    pub fn is_live(&self, e: EdgeId) -> bool {
        self.hypergraph.is_live(e)
    }

    /// Cumulative stream bookkeeping (insertions and removals).
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Total wall-clock time spent inside `insert` / `remove` so far.
    pub fn update_time(&self) -> Duration {
        self.update_time
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
        let mut stream = StreamingEngine::new(StreamConfig);
        let mut ids = Vec::new();
        for members in figure2_members() {
            ids.push(stream.insert(members));
            assert_matches_from_scratch(&stream, "insert");
        }
        assert_eq!(stream.counts().total(), 3.0);
        assert_eq!(stream.num_hyperwedges(), 4);
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

    /// The incremental read-out of Figure 2 (counts and `|∧|`, maintained
    /// without projecting) is exactly what the exact engine reports on the
    /// snapshot the stream materializes.
    #[test]
    fn snapshot_reports_incremental_method() {
        let mut stream = StreamingEngine::new(StreamConfig);
        for members in figure2_members() {
            stream.insert(members);
        }
        let snapshot = stream.to_hypergraph().unwrap();
        let report = crate::MotifEngine::new(crate::CountConfig::exact()).count(&snapshot);
        assert_eq!(report.method, crate::Method::Exact);
        assert_eq!(&report.counts, stream.counts());
        assert_eq!(stream.counts().total(), 3.0);
        assert_eq!(report.num_hyperwedges, Some(stream.num_hyperwedges()));
        assert_eq!(stream.num_hyperwedges(), 4);
        assert!(report.samples_drawn.is_none());
    }

    #[test]
    fn random_churn_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut stream = StreamingEngine::new(StreamConfig);
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
    fn bootstrap_from_hypergraph_continues_incrementally() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0, 3, 1])
            .with_edge([4, 5, 0])
            .build()
            .unwrap();
        let mut stream = StreamingEngine::from_hypergraph(&h, StreamConfig);
        assert_eq!(stream.counts().total(), 1.0); // {e1,e2,e3} is closed
        let e4 = stream.insert([6u32, 7, 2]);
        assert_eq!(stream.counts().total(), 3.0); // Figure 2 complete
        assert!(stream.remove(0));
        assert_matches_from_scratch(&stream, "bootstrap");
        assert!(stream.is_live(e4));
    }

    #[test]
    fn duplicate_hyperedges_never_form_instances() {
        let mut stream = StreamingEngine::new(StreamConfig);
        stream.insert([0u32, 1, 2]);
        stream.insert([0u32, 1, 2]);
        stream.insert([0u32, 1, 2]);
        stream.insert([2u32, 3, 4]);
        assert_eq!(stream.counts().total(), 0.0);
        assert_matches_from_scratch(&stream, "duplicates");
    }

    #[test]
    fn removing_unknown_edges_is_a_no_op() {
        let mut stream = StreamingEngine::new(StreamConfig);
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
        let mut stream = StreamingEngine::new(StreamConfig);
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
