//! A mutable hypergraph for streaming workloads.
//!
//! [`Hypergraph`] is immutable CSR — ideal for the batch counting hot path,
//! useless for a stream of hyperedge insertions and deletions. A
//! [`DynamicHypergraph`] keeps the same logical structure (sorted member
//! lists, a node → hyperedge incidence index) in mutable form:
//!
//! - **Edge identifiers are monotone and never reused.** Every insertion
//!   gets a fresh id one past the previous maximum; removal leaves a
//!   tombstone. Downstream structures (the projection overlay, the streaming
//!   counter) lean on this invariant: any id seen for the first time is
//!   strictly greater than every id seen before it.
//! - **Member lists stay sorted**, so the hash-free intersection kernels of
//!   [`crate::graph`] (`sorted_intersection_size`,
//!   `sorted_triple_intersection_size`, binary-search membership)
//!   keep working unchanged on live edges.
//! - **Incidence lists stay sorted** for free on insertion (new ids are the
//!   largest) and by a binary-search removal on deletion, so the
//!   gather-sort-runlength neighbourhood computation of the projection layer
//!   applies verbatim.

use crate::builder::HypergraphBuilder;
use crate::error::HypergraphError;
use crate::graph::{EdgeId, Hypergraph, NodeId};

/// A mutable hypergraph supporting hyperedge insertion and removal.
///
/// Removal tombstones the edge slot instead of shifting identifiers, so ids
/// handed out by [`DynamicHypergraph::insert_edge`] stay valid names for the
/// lifetime of the structure (dead or alive).
#[derive(Debug, Clone, Default)]
pub struct DynamicHypergraph {
    /// Slot per ever-inserted hyperedge; `None` marks a removed edge.
    edges: Vec<Option<Vec<NodeId>>>,
    /// Per-node incident live hyperedges, sorted ascending.
    incidence: Vec<Vec<EdgeId>>,
    /// Number of live (non-tombstoned) hyperedges.
    live_edges: usize,
}

impl DynamicHypergraph {
    /// An empty dynamic hypergraph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds a dynamic hypergraph with the edges of an immutable snapshot;
    /// edge `e` of `hypergraph` keeps the identifier `e`.
    pub fn from_hypergraph(hypergraph: &Hypergraph) -> Self {
        let edges = hypergraph
            .edges()
            .map(|(_, members)| Some(members.to_vec()))
            .collect();
        let incidence = hypergraph
            .node_ids()
            .map(|v| hypergraph.edges_of_node(v).to_vec())
            .collect();
        Self {
            edges,
            incidence,
            live_edges: hypergraph.num_edges(),
        }
    }

    /// Inserts a hyperedge and returns its fresh identifier. Members are
    /// sorted and deduplicated, mirroring [`HypergraphBuilder::add_edge`].
    ///
    /// # Panics
    /// Panics if the member list is empty (hyperedges are non-empty sets).
    pub fn insert_edge<I>(&mut self, members: I) -> EdgeId
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut members: Vec<NodeId> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        assert!(!members.is_empty(), "hyperedge must have at least one node");
        let id = self.edges.len() as EdgeId;
        let max_node = *members.last().unwrap() as usize;
        if max_node >= self.incidence.len() {
            self.incidence.resize_with(max_node + 1, Vec::new);
        }
        for &v in &members {
            // `id` is larger than every id already present, so a plain push
            // keeps the incidence list sorted.
            self.incidence[v as usize].push(id);
        }
        self.edges.push(Some(members));
        self.live_edges += 1;
        id
    }

    /// Removes hyperedge `e`. Returns `false` (and changes nothing) when `e`
    /// is unknown or already removed.
    pub fn remove_edge(&mut self, e: EdgeId) -> bool {
        let Some(slot) = self.edges.get_mut(e as usize) else {
            return false;
        };
        let Some(members) = slot.take() else {
            return false;
        };
        for &v in &members {
            let list = &mut self.incidence[v as usize];
            if let Ok(position) = list.binary_search(&e) {
                list.remove(position);
            }
        }
        self.live_edges -= 1;
        true
    }

    /// Whether `e` names a live (inserted and not removed) hyperedge.
    #[inline]
    pub fn is_live(&self, e: EdgeId) -> bool {
        matches!(self.edges.get(e as usize), Some(Some(_)))
    }

    /// The members of live hyperedge `e`, sorted ascending; `None` for
    /// removed or never-assigned identifiers.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Option<&[NodeId]> {
        self.edges.get(e as usize)?.as_deref()
    }

    /// The size of live hyperedge `e` (0 for dead ids).
    #[inline]
    pub fn edge_size(&self, e: EdgeId) -> usize {
        self.edge(e).map_or(0, <[NodeId]>::len)
    }

    /// The live hyperedges containing node `v`, sorted ascending (empty for
    /// out-of-range nodes).
    #[inline]
    pub fn edges_of_node(&self, v: NodeId) -> &[EdgeId] {
        self.incidence
            .get(v as usize)
            .map_or(&[], |list| list.as_slice())
    }

    /// Number of live hyperedges.
    #[inline]
    pub fn num_live_edges(&self) -> usize {
        self.live_edges
    }

    /// Number of edge slots ever allocated (live + tombstoned); equivalently
    /// one past the largest identifier handed out so far.
    #[inline]
    pub fn num_edge_slots(&self) -> usize {
        self.edges.len()
    }

    /// One past the largest node identifier seen so far.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.incidence.len()
    }

    /// Iterator over the identifiers of live hyperedges, ascending.
    pub fn live_edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.as_ref().map(|_| id as EdgeId))
    }

    /// The neighbourhood of live hyperedge `e` in the projected graph: every
    /// live hyperedge sharing at least one node with `e`, with overlap sizes,
    /// sorted by neighbour id. Gather-sort-runlength over the incidence
    /// lists, exactly like the one-off lookup of the eager projection.
    pub fn neighborhood(&self, e: EdgeId) -> Vec<(EdgeId, u32)> {
        let Some(members) = self.edge(e) else {
            return Vec::new();
        };
        let gathered: usize = members.iter().map(|&v| self.edges_of_node(v).len()).sum();
        let mut candidates: Vec<EdgeId> = Vec::with_capacity(gathered);
        for &v in members {
            candidates.extend_from_slice(self.edges_of_node(v));
        }
        candidates.sort_unstable();
        let mut neighbors = Vec::new();
        let mut index = 0usize;
        while index < candidates.len() {
            let id = candidates[index];
            let mut run = 1usize;
            while index + run < candidates.len() && candidates[index + run] == id {
                run += 1;
            }
            if id != e {
                neighbors.push((id, run as u32));
            }
            index += run;
        }
        neighbors
    }

    /// Materializes the live edges as an immutable [`Hypergraph`] (edge ids
    /// compacted to `0..live_edges` in ascending id order, duplicates kept).
    ///
    /// # Errors
    /// Returns [`HypergraphError::NoEdges`] when no live edge remains.
    pub fn to_hypergraph(&self) -> Result<Hypergraph, HypergraphError> {
        let mut builder = HypergraphBuilder::with_capacity(self.live_edges);
        for e in self.live_edge_ids() {
            builder.add_edge(self.edge(e).unwrap().iter().copied());
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_assigns_monotone_ids_and_sorts_members() {
        let mut h = DynamicHypergraph::new();
        assert_eq!(h.insert_edge([5u32, 1, 3, 1]), 0);
        assert_eq!(h.insert_edge([2u32, 0]), 1);
        assert_eq!(h.edge(0), Some(&[1u32, 3, 5][..]));
        assert_eq!(h.edge(1), Some(&[0u32, 2][..]));
        assert_eq!(h.num_live_edges(), 2);
        assert_eq!(h.num_nodes(), 6);
    }

    #[test]
    fn incidence_tracks_insert_and_remove() {
        let mut h = DynamicHypergraph::new();
        let a = h.insert_edge([0u32, 1, 2]);
        let b = h.insert_edge([0u32, 3]);
        let c = h.insert_edge([0u32, 1]);
        assert_eq!(h.edges_of_node(0), &[a, b, c]);
        assert_eq!(h.edges_of_node(1), &[a, c]);
        assert!(h.remove_edge(b));
        assert_eq!(h.edges_of_node(0), &[a, c]);
        assert_eq!(h.edges_of_node(3), &[] as &[EdgeId]);
        assert!(!h.remove_edge(b), "double removal is a no-op");
        assert!(!h.is_live(b));
        assert_eq!(h.num_live_edges(), 2);
        // Ids are never reused: the next insertion continues the sequence.
        assert_eq!(h.insert_edge([3u32]), 3);
    }

    #[test]
    fn neighborhood_matches_figure2() {
        let mut h = DynamicHypergraph::new();
        h.insert_edge([0u32, 1, 2]);
        h.insert_edge([0u32, 3, 1]);
        h.insert_edge([4u32, 5, 0]);
        h.insert_edge([6u32, 7, 2]);
        assert_eq!(h.neighborhood(0), vec![(1, 2), (2, 1), (3, 1)]);
        assert_eq!(h.neighborhood(3), vec![(0, 1)]);
        h.remove_edge(1);
        assert_eq!(h.neighborhood(0), vec![(2, 1), (3, 1)]);
        assert_eq!(h.neighborhood(1), Vec::<(EdgeId, u32)>::new());
    }

    #[test]
    fn removing_unknown_or_dead_ids_is_a_strict_noop() {
        // Never-issued ids on an empty hypergraph.
        let mut h = DynamicHypergraph::new();
        assert!(!h.remove_edge(0));
        assert!(!h.remove_edge(EdgeId::MAX));
        assert_eq!(h.num_live_edges(), 0);
        assert_eq!(h.num_edge_slots(), 0);

        // Ids beyond the allocated slots, and tombstoned ids, on a populated
        // one: nothing observable may change.
        let a = h.insert_edge([0u32, 1, 2]);
        let b = h.insert_edge([1u32, 3]);
        h.remove_edge(a);
        let snapshot_edges: Vec<Option<Vec<NodeId>>> = (0..h.num_edge_slots() as EdgeId)
            .map(|e| h.edge(e).map(<[NodeId]>::to_vec))
            .collect();
        let snapshot_incidence: Vec<Vec<EdgeId>> = (0..h.num_nodes() as NodeId)
            .map(|v| h.edges_of_node(v).to_vec())
            .collect();
        for bogus in [a, 2, 3, 100, EdgeId::MAX] {
            assert!(!h.remove_edge(bogus), "id {bogus} must be a no-op");
        }
        assert_eq!(h.num_live_edges(), 1);
        assert!(h.is_live(b));
        for e in 0..h.num_edge_slots() as EdgeId {
            assert_eq!(
                h.edge(e).map(<[NodeId]>::to_vec),
                snapshot_edges[e as usize]
            );
        }
        for v in 0..h.num_nodes() as NodeId {
            assert_eq!(h.edges_of_node(v), snapshot_incidence[v as usize]);
        }
    }

    #[test]
    fn round_trips_through_immutable_hypergraph() {
        let original = HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([1u32, 3])
            .with_edge([2u32, 4, 5])
            .build()
            .unwrap();
        let dynamic = DynamicHypergraph::from_hypergraph(&original);
        assert_eq!(dynamic.num_live_edges(), 3);
        assert_eq!(dynamic.to_hypergraph().unwrap(), original);
    }

    #[test]
    fn to_hypergraph_compacts_after_removals() {
        let mut h = DynamicHypergraph::new();
        h.insert_edge([0u32, 1]);
        h.insert_edge([1u32, 2]);
        h.insert_edge([2u32, 3]);
        h.remove_edge(1);
        let compact = h.to_hypergraph().unwrap();
        assert_eq!(compact.num_edges(), 2);
        assert_eq!(compact.edge(0), &[0, 1]);
        assert_eq!(compact.edge(1), &[2, 3]);
    }

    #[test]
    fn empty_after_removals_errors() {
        let mut h = DynamicHypergraph::new();
        let e = h.insert_edge([0u32, 1]);
        h.remove_edge(e);
        assert!(matches!(h.to_hypergraph(), Err(HypergraphError::NoEdges)));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_edge_panics() {
        DynamicHypergraph::new().insert_edge(Vec::<NodeId>::new());
    }
}
