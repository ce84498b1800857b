//! Mutable builder for [`Hypergraph`].

use rustc_hash::FxHashSet;

use crate::csr::Csr;
use crate::error::HypergraphError;
use crate::graph::{Hypergraph, NodeId};

/// Builder that accumulates hyperedges, normalizes them (sorting members and
/// removing duplicate members), optionally removes duplicate hyperedges
/// (as done for Table 2 of the paper), and produces an immutable
/// [`Hypergraph`].
///
/// Node identifiers may be sparse; by default the builder keeps them as-is and
/// sizes `|V|` as `max id + 1`. Call [`HypergraphBuilder::relabel_nodes`] to
/// compact identifiers to `0..|V|`.
#[derive(Debug, Default, Clone)]
pub struct HypergraphBuilder {
    edges: Vec<Vec<NodeId>>,
    dedup_edges: bool,
    relabel: bool,
}

impl HypergraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity for `n` hyperedges.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            edges: Vec::with_capacity(n),
            dedup_edges: false,
            relabel: false,
        }
    }

    /// Adds a hyperedge given by any iterator of node identifiers.
    ///
    /// Duplicate members within the hyperedge are removed; the member order is
    /// irrelevant.
    pub fn add_edge<I>(&mut self, members: I) -> &mut Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut members: Vec<NodeId> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        self.edges.push(members);
        self
    }

    /// Chainable variant of [`HypergraphBuilder::add_edge`].
    pub fn with_edge<I>(mut self, members: I) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        self.add_edge(members);
        self
    }

    /// Adds many hyperedges at once.
    pub fn extend_edges<I, J>(&mut self, edges: I) -> &mut Self
    where
        I: IntoIterator<Item = J>,
        J: IntoIterator<Item = NodeId>,
    {
        for edge in edges {
            self.add_edge(edge);
        }
        self
    }

    /// Removes duplicate hyperedges (same member set) when building, keeping
    /// the first occurrence. The paper removes duplicated hyperedges from all
    /// datasets before analysis (Section 4.1).
    pub fn dedup_hyperedges(mut self, yes: bool) -> Self {
        self.dedup_edges = yes;
        self
    }

    /// Compacts node identifiers to the dense range `0..|V|`, in order of
    /// first appearance.
    pub fn relabel_nodes(mut self, yes: bool) -> Self {
        self.relabel = yes;
        self
    }

    /// Number of hyperedges currently accumulated.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no hyperedges have been added yet.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finalizes the builder into an immutable [`Hypergraph`].
    ///
    /// # Errors
    /// Returns [`HypergraphError::NoEdges`] if nothing was added and
    /// [`HypergraphError::EmptyEdge`] if any hyperedge has no members.
    pub fn build(self) -> Result<Hypergraph, HypergraphError> {
        let HypergraphBuilder {
            mut edges,
            dedup_edges,
            relabel,
        } = self;

        if edges.is_empty() {
            return Err(HypergraphError::NoEdges);
        }
        for (index, edge) in edges.iter().enumerate() {
            if edge.is_empty() {
                return Err(HypergraphError::EmptyEdge { index });
            }
        }

        if relabel {
            let mut mapping: rustc_hash::FxHashMap<NodeId, NodeId> = Default::default();
            for edge in &mut edges {
                for v in edge.iter_mut() {
                    let next = mapping.len() as NodeId;
                    let id = *mapping.entry(*v).or_insert(next);
                    *v = id;
                }
                // Relabeling may break the sorted order of the members.
                edge.sort_unstable();
            }
        }

        if dedup_edges {
            let mut seen: FxHashSet<Vec<NodeId>> = FxHashSet::default();
            edges.retain(|edge| seen.insert(edge.clone()));
        }

        let mut members = Csr::with_capacity(edges.len(), edges.iter().map(Vec::len).sum());
        for edge in &edges {
            members.push_row(edge);
        }
        Hypergraph::from_edge_csr(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_are_sorted_and_deduped() {
        let h = HypergraphBuilder::new()
            .with_edge([5u32, 1, 3, 1, 5])
            .build()
            .unwrap();
        assert_eq!(h.edge(0), &[1, 3, 5]);
        assert_eq!(h.num_nodes(), 6);
    }

    #[test]
    fn duplicate_hyperedges_removed_when_requested() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1])
            .with_edge([1u32, 0])
            .with_edge([2u32, 3])
            .dedup_hyperedges(true)
            .build()
            .unwrap();
        assert_eq!(h.num_edges(), 2);
    }

    #[test]
    fn duplicate_hyperedges_kept_by_default() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1])
            .with_edge([1u32, 0])
            .build()
            .unwrap();
        assert_eq!(h.num_edges(), 2);
    }

    #[test]
    fn relabeling_compacts_sparse_ids() {
        let h = HypergraphBuilder::new()
            .with_edge([100u32, 200])
            .with_edge([200u32, 300, 400])
            .relabel_nodes(true)
            .build()
            .unwrap();
        assert_eq!(h.num_nodes(), 4);
        assert_eq!(h.edge(0), &[0, 1]);
        assert_eq!(h.edge(1), &[1, 2, 3]);
    }

    #[test]
    fn without_relabeling_num_nodes_is_max_plus_one() {
        let h = HypergraphBuilder::new()
            .with_edge([7u32, 9])
            .build()
            .unwrap();
        assert_eq!(h.num_nodes(), 10);
        assert_eq!(h.node_degree(8), 0);
    }

    #[test]
    fn empty_builder_fails() {
        assert!(matches!(
            HypergraphBuilder::new().build(),
            Err(HypergraphError::NoEdges)
        ));
    }

    #[test]
    fn empty_edge_fails() {
        let err = HypergraphBuilder::new()
            .with_edge([0u32, 1])
            .with_edge(Vec::<NodeId>::new())
            .build()
            .unwrap_err();
        assert!(matches!(err, HypergraphError::EmptyEdge { index: 1 }));
    }

    #[test]
    fn extend_edges_and_len() {
        let mut b = HypergraphBuilder::with_capacity(4);
        assert!(b.is_empty());
        b.extend_edges(vec![vec![0u32, 1], vec![2, 3], vec![1, 2]]);
        assert_eq!(b.len(), 3);
        let h = b.build().unwrap();
        assert_eq!(h.num_edges(), 3);
    }
}
