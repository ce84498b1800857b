//! The star expansion (bipartite incidence graph) of a hypergraph.
//!
//! The paper uses the bipartite representation `G' = (V ∪ E, {(v, e) : v ∈ e})`
//! both to randomize hypergraphs with the Chung-Lu model (Section 2.3) and as
//! the input of the network-motif baseline (Section 4.3). Left vertices are
//! the hypergraph's nodes, right vertices are its hyperedges.

use crate::graph::{EdgeId, Hypergraph, NodeId};

/// The bipartite incidence graph of a hypergraph.
///
/// Left vertices (`0..num_left`) correspond to hypergraph nodes; right
/// vertices (`0..num_right`) correspond to hyperedges. Adjacency is stored in
/// both directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartiteGraph {
    left_adjacency: Vec<Vec<u32>>,
    right_adjacency: Vec<Vec<u32>>,
    num_incidences: usize,
}

impl BipartiteGraph {
    /// Builds the star expansion of `hypergraph`.
    pub fn from_hypergraph(hypergraph: &Hypergraph) -> Self {
        let mut left_adjacency = vec![Vec::new(); hypergraph.num_nodes()];
        let mut right_adjacency = vec![Vec::new(); hypergraph.num_edges()];
        for (e, members) in hypergraph.edges() {
            for &v in members {
                left_adjacency[v as usize].push(e);
                right_adjacency[e as usize].push(v);
            }
        }
        let num_incidences = hypergraph.num_incidences();
        Self {
            left_adjacency,
            right_adjacency,
            num_incidences,
        }
    }

    /// Number of left vertices (hypergraph nodes).
    pub fn num_left(&self) -> usize {
        self.left_adjacency.len()
    }

    /// Number of right vertices (hyperedges).
    pub fn num_right(&self) -> usize {
        self.right_adjacency.len()
    }

    /// Number of bipartite edges (incidences).
    pub fn num_incidences(&self) -> usize {
        self.num_incidences
    }

    /// Right neighbours (hyperedges) of left vertex `v`.
    pub fn edges_of_node(&self, v: NodeId) -> &[u32] {
        &self.left_adjacency[v as usize]
    }

    /// Degree of left vertex `v`.
    pub fn left_degree(&self, v: NodeId) -> usize {
        self.left_adjacency[v as usize].len()
    }

    /// Degree of right vertex `e` (the hyperedge size).
    pub fn right_degree(&self, e: EdgeId) -> usize {
        self.right_adjacency[e as usize].len()
    }

    /// A flat adjacency view of the bipartite graph as a simple undirected
    /// graph: vertices `0..num_left` are nodes, `num_left..num_left+num_right`
    /// are hyperedges. Used by the network-motif baseline.
    pub fn as_simple_graph_adjacency(&self) -> Vec<Vec<u32>> {
        let offset = self.num_left() as u32;
        let mut adjacency = vec![Vec::new(); self.num_left() + self.num_right()];
        for (v, edges) in self.left_adjacency.iter().enumerate() {
            for &e in edges {
                adjacency[v].push(e + offset);
                adjacency[(e + offset) as usize].push(v as u32);
            }
        }
        for list in &mut adjacency {
            list.sort_unstable();
        }
        adjacency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HypergraphBuilder;

    fn sample() -> Hypergraph {
        HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0, 3])
            .with_edge([2, 3])
            .build()
            .unwrap()
    }

    #[test]
    fn star_expansion_dimensions() {
        let h = sample();
        let b = BipartiteGraph::from_hypergraph(&h);
        assert_eq!(b.num_left(), 4);
        assert_eq!(b.num_right(), 3);
        assert_eq!(b.num_incidences(), 7);
    }

    #[test]
    fn adjacency_is_consistent() {
        let h = sample();
        let b = BipartiteGraph::from_hypergraph(&h);
        assert_eq!(b.edges_of_node(0), &[0, 1]);
        assert_eq!(b.left_degree(3), 2);
        assert_eq!(b.right_degree(1), 2);
    }

    #[test]
    fn degrees_match_hypergraph() {
        let h = sample();
        let b = BipartiteGraph::from_hypergraph(&h);
        for v in h.node_ids() {
            assert_eq!(b.left_degree(v), h.node_degree(v));
        }
        for e in h.edge_ids() {
            assert_eq!(b.right_degree(e), h.edge_size(e));
        }
    }

    #[test]
    fn simple_graph_adjacency_is_bipartite() {
        let h = sample();
        let b = BipartiteGraph::from_hypergraph(&h);
        let adjacency = b.as_simple_graph_adjacency();
        assert_eq!(adjacency.len(), 7);
        // Node 0 connects to hyperedge-vertices 4 (= 0 + offset) and 5.
        assert_eq!(adjacency[0], vec![4, 5]);
        // Hyperedge-vertex 4 connects back to nodes 0, 1, 2.
        assert_eq!(adjacency[4], vec![0, 1, 2]);
        // No edges within a side.
        for (u, neighbours) in adjacency.iter().enumerate() {
            for &w in neighbours {
                let u_left = u < 4;
                let w_left = (w as usize) < 4;
                assert_ne!(u_left, w_left, "edge within one side of the bipartition");
            }
        }
    }
}
