//! The immutable [`Hypergraph`] representation.
//!
//! Hyperedges are stored in CSR (compressed sparse row) form: one flat array
//! of node identifiers plus an offset array, so that the members of hyperedge
//! `e` are the slice `edge_nodes[edge_offsets[e] .. edge_offsets[e + 1]]`,
//! always sorted ascending. A second CSR holds the transposed incidence
//! (`E_v`, the hyperedges containing each node), which Algorithm 1 of the
//! paper traverses to build the projected graph.

use crate::csr::Csr;
use crate::error::HypergraphError;

/// Identifier of a node (author, tag, e-mail account, ...).
pub type NodeId = u32;

/// Identifier of a hyperedge (publication, e-mail, post, ...).
pub type EdgeId = u32;

/// An immutable hypergraph `G = (V, E)` in CSR form.
///
/// Construct it through [`crate::HypergraphBuilder`] or [`crate::io`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hypergraph {
    /// Number of nodes. Node identifiers are `0..num_nodes`.
    num_nodes: usize,
    /// Per-edge-sorted node members; row `e` is hyperedge `e`.
    edges: Csr<NodeId>,
    /// Transposed incidence (`E_v`); row `v` lists the hyperedges containing
    /// node `v`, sorted ascending.
    incidence: Csr<EdgeId>,
}

impl Hypergraph {
    /// Builds a hypergraph from per-edge member lists.
    ///
    /// Each member list must be sorted ascending and duplicate-free; this is
    /// an internal constructor used by the builder and the IO layer, which
    /// guarantee that invariant.
    pub(crate) fn from_sorted_edges(
        num_nodes: usize,
        edges: Vec<Vec<NodeId>>,
    ) -> Result<Self, HypergraphError> {
        if edges.is_empty() {
            return Err(HypergraphError::NoEdges);
        }
        let total: usize = edges.iter().map(Vec::len).sum();
        let mut edge_csr = Csr::with_capacity(edges.len(), total);
        for (index, edge) in edges.iter().enumerate() {
            if edge.is_empty() {
                return Err(HypergraphError::EmptyEdge { index });
            }
            debug_assert!(edge.windows(2).all(|w| w[0] < w[1]), "edges must be sorted");
            edge_csr.push_row(edge);
        }

        // Transpose: count node degrees, then fill.
        let mut degrees = vec![0usize; num_nodes];
        for &v in edge_csr.values() {
            degrees[v as usize] += 1;
        }
        let mut node_offsets = Vec::with_capacity(num_nodes + 1);
        node_offsets.push(0usize);
        for d in &degrees {
            node_offsets.push(node_offsets.last().unwrap() + d);
        }
        let mut cursor = node_offsets.clone();
        let mut node_edges = vec![0 as EdgeId; total];
        for (e, edge) in edges.iter().enumerate() {
            for &v in edge {
                node_edges[cursor[v as usize]] = e as EdgeId;
                cursor[v as usize] += 1;
            }
        }
        // Because edges are visited in ascending order, each node's incidence
        // list is already sorted ascending by edge id.
        Ok(Self {
            num_nodes,
            edges: edge_csr,
            incidence: Csr::from_parts(node_offsets, node_edges),
        })
    }

    /// Assembles a hypergraph from CSR parts the caller has already fully
    /// validated (the snapshot reader: offsets monotone and terminated,
    /// rows non-empty and strictly sorted, ids in range, incidence the
    /// exact transpose of the edge list).
    pub(crate) fn from_validated_csr(
        num_nodes: usize,
        edges: Csr<NodeId>,
        incidence: Csr<EdgeId>,
    ) -> Self {
        debug_assert_eq!(incidence.num_rows(), num_nodes);
        debug_assert_eq!(edges.num_entries(), incidence.num_entries());
        Self {
            num_nodes,
            edges,
            incidence,
        }
    }

    /// The raw CSR parts `(edges, incidence)`, for serialization.
    pub(crate) fn csr_parts(&self) -> (&Csr<NodeId>, &Csr<EdgeId>) {
        (&self.edges, &self.incidence)
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of hyperedges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.num_rows()
    }

    /// Total number of (node, hyperedge) incidences, i.e. `Σ_e |e|`.
    #[inline]
    pub fn num_incidences(&self) -> usize {
        self.edges.num_entries()
    }

    /// The members of hyperedge `e`, sorted ascending.
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &[NodeId] {
        self.edges.row(e as usize)
    }

    /// The size `|e|` of hyperedge `e`.
    #[inline]
    pub fn edge_size(&self, e: EdgeId) -> usize {
        self.edges.row_len(e as usize)
    }

    /// The hyperedges containing node `v` (`E_v`), sorted ascending.
    #[inline]
    pub fn edges_of_node(&self, v: NodeId) -> &[EdgeId] {
        self.incidence.row(v as usize)
    }

    /// The degree of node `v`, i.e. `|E_v|`.
    #[inline]
    pub fn node_degree(&self, v: NodeId) -> usize {
        self.incidence.row_len(v as usize)
    }

    /// Whether hyperedge `e` contains node `v` (binary search on the sorted
    /// member slice).
    #[inline]
    pub fn edge_contains(&self, e: EdgeId, v: NodeId) -> bool {
        self.edge(e).binary_search(&v).is_ok()
    }

    /// Size of the intersection `|e_i ∩ e_j|`, via a linear merge of the two
    /// sorted member slices.
    pub fn intersection_size(&self, i: EdgeId, j: EdgeId) -> usize {
        sorted_intersection_size(self.edge(i), self.edge(j))
    }

    /// Size of the triple intersection `|e_i ∩ e_j ∩ e_k|`, via
    /// [`sorted_triple_intersection_size`].
    pub fn triple_intersection_size(&self, i: EdgeId, j: EdgeId, k: EdgeId) -> usize {
        sorted_triple_intersection_size(self.edge(i), self.edge(j), self.edge(k))
    }

    /// Whether hyperedges `i` and `j` are adjacent, i.e. share at least one
    /// node.
    pub fn are_adjacent(&self, i: EdgeId, j: EdgeId) -> bool {
        sorted_intersects(self.edge(i), self.edge(j))
    }

    /// Iterator over all hyperedge identifiers.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        0..self.num_edges() as EdgeId
    }

    /// Iterator over all node identifiers.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes as NodeId
    }

    /// Iterator over `(EdgeId, &[NodeId])` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &[NodeId])> + '_ {
        self.edge_ids().map(move |e| (e, self.edge(e)))
    }

    /// The maximum hyperedge size, or 0 for an edge-less hypergraph.
    pub fn max_edge_size(&self) -> usize {
        self.edge_ids()
            .map(|e| self.edge_size(e))
            .max()
            .unwrap_or(0)
    }

    /// The per-edge member lists as owned vectors (useful for randomization
    /// and tests).
    pub fn to_edge_lists(&self) -> Vec<Vec<NodeId>> {
        self.edges().map(|(_, members)| members.to_vec()).collect()
    }

    /// The multiset of hyperedge sizes.
    pub fn edge_sizes(&self) -> Vec<usize> {
        self.edge_ids().map(|e| self.edge_size(e)).collect()
    }

    /// The per-node degrees (number of incident hyperedges).
    pub fn node_degrees(&self) -> Vec<usize> {
        self.node_ids().map(|v| self.node_degree(v)).collect()
    }
}

/// When one sorted slice is at least this many times longer than the other,
/// binary probes of the short slice into the long one beat a linear merge
/// (`k · log n` vs `k + n` comparisons).
const GALLOP_RATIO: usize = 8;

/// Size of the intersection of two ascending-sorted slices.
///
/// Degree-ordered hybrid: balanced inputs use a linear merge; skewed inputs
/// (one side ≥ `GALLOP_RATIO`× longer) gallop the short slice through the
/// long one with an advancing binary search.
pub fn sorted_intersection_size(a: &[NodeId], b: &[NodeId]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.len().saturating_mul(GALLOP_RATIO) < large.len() {
        return probe_intersection(small, large, false);
    }
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < small.len() && j < large.len() {
        match small[i].cmp(&large[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Size of the intersection of three ascending-sorted slices.
///
/// Iterates over the smallest slice and checks membership in the other two
/// by binary search, exactly as in the proof of Lemma 2.
pub fn sorted_triple_intersection_size(a: &[NodeId], b: &[NodeId], c: &[NodeId]) -> usize {
    let (smallest, other1, other2) = if a.len() <= b.len() && a.len() <= c.len() {
        (a, b, c)
    } else if b.len() <= a.len() && b.len() <= c.len() {
        (b, a, c)
    } else {
        (c, a, b)
    };
    smallest
        .iter()
        .filter(|&&v| other1.binary_search(&v).is_ok() && other2.binary_search(&v).is_ok())
        .count()
}

/// Intersection by probing: every element of the (much shorter) `small`
/// slice is located in `large` by a binary search restricted to the
/// not-yet-passed suffix, so the search window only shrinks. With
/// `early_exit` the scan stops at the first common element (count is then
/// 0 or 1).
fn probe_intersection(small: &[NodeId], large: &[NodeId], early_exit: bool) -> usize {
    let mut lo = 0usize;
    let mut count = 0usize;
    for &v in small {
        lo += large[lo..].partition_point(|&x| x < v);
        if lo >= large.len() {
            break;
        }
        if large[lo] == v {
            count += 1;
            if early_exit {
                break;
            }
            lo += 1;
        }
    }
    count
}

/// Whether two ascending-sorted slices share at least one element. Uses the
/// same hybrid merge/probe strategy as [`sorted_intersection_size`], with
/// early exit on the first common element.
pub fn sorted_intersects(a: &[NodeId], b: &[NodeId]) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.len().saturating_mul(GALLOP_RATIO) < large.len() {
        return probe_intersection(small, large, true) > 0;
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < small.len() && j < large.len() {
        match small[i].cmp(&large[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HypergraphBuilder;

    /// The running example of Figure 2: e1={L,K,F}, e2={L,H,K}, e3={B,G,L},
    /// e4={S,R,F} with L=0, K=1, F=2, H=3, B=4, G=5, S=6, R=7.
    pub(crate) fn figure2() -> Hypergraph {
        HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0, 3, 1])
            .with_edge([4, 5, 0])
            .with_edge([6, 7, 2])
            .build()
            .unwrap()
    }

    #[test]
    fn basic_counts() {
        let h = figure2();
        assert_eq!(h.num_nodes(), 8);
        assert_eq!(h.num_edges(), 4);
        assert_eq!(h.num_incidences(), 12);
        assert_eq!(h.max_edge_size(), 3);
    }

    #[test]
    fn edges_are_sorted() {
        let h = figure2();
        for (_, members) in h.edges() {
            assert!(members.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(h.edge(0), &[0, 1, 2]);
        assert_eq!(h.edge(1), &[0, 1, 3]);
        assert_eq!(h.edge(2), &[0, 4, 5]);
        assert_eq!(h.edge(3), &[2, 6, 7]);
    }

    #[test]
    fn incidence_lists() {
        let h = figure2();
        assert_eq!(h.edges_of_node(0), &[0, 1, 2]); // L appears in e1, e2, e3
        assert_eq!(h.edges_of_node(2), &[0, 3]); // F appears in e1, e4
        assert_eq!(h.edges_of_node(7), &[3]);
        assert_eq!(h.node_degree(0), 3);
        assert_eq!(h.node_degree(6), 1);
    }

    #[test]
    fn membership_and_intersections() {
        let h = figure2();
        assert!(h.edge_contains(0, 2));
        assert!(!h.edge_contains(0, 7));
        assert_eq!(h.intersection_size(0, 1), 2); // {L, K}
        assert_eq!(h.intersection_size(0, 3), 1); // {F}
        assert_eq!(h.intersection_size(1, 3), 0);
        assert!(h.are_adjacent(0, 1));
        assert!(!h.are_adjacent(1, 3));
        assert_eq!(h.triple_intersection_size(0, 1, 2), 1); // {L}
        assert_eq!(h.triple_intersection_size(0, 1, 3), 0);
    }

    #[test]
    fn degree_and_size_vectors() {
        let h = figure2();
        assert_eq!(h.edge_sizes(), vec![3, 3, 3, 3]);
        assert_eq!(h.node_degrees(), vec![3, 2, 2, 1, 1, 1, 1, 1]);
        assert_eq!(
            h.node_degrees().iter().sum::<usize>(),
            h.num_incidences(),
            "degree sum must equal incidence count"
        );
    }

    #[test]
    fn to_edge_lists_round_trips() {
        let h = figure2();
        let lists = h.to_edge_lists();
        let rebuilt = Hypergraph::from_sorted_edges(8, lists).unwrap();
        assert_eq!(h, rebuilt);
    }

    #[test]
    fn empty_edge_rejected() {
        let err = Hypergraph::from_sorted_edges(3, vec![vec![0, 1], vec![]]).unwrap_err();
        assert!(matches!(err, HypergraphError::EmptyEdge { index: 1 }));
    }

    #[test]
    fn no_edges_rejected() {
        let err = Hypergraph::from_sorted_edges(3, vec![]).unwrap_err();
        assert!(matches!(err, HypergraphError::NoEdges));
    }

    #[test]
    fn sorted_helpers() {
        assert_eq!(sorted_intersection_size(&[1, 3, 5], &[2, 3, 5, 7]), 2);
        assert_eq!(sorted_intersection_size(&[], &[1, 2]), 0);
        assert!(sorted_intersects(&[1, 9], &[9]));
        assert!(!sorted_intersects(&[1, 2, 3], &[4, 5]));
    }

    #[test]
    fn hybrid_gallop_matches_merge_on_skewed_inputs() {
        // A 3-element probe against a 1000-element slice takes the galloping
        // path; cross-check it against the naive definition.
        let large: Vec<NodeId> = (0..1000).map(|i| i * 3).collect();
        for small in [
            vec![],
            vec![0],
            vec![1],
            vec![0, 3, 2997],
            vec![2, 4, 5, 2998],
            vec![5000],
        ] {
            let expected = small.iter().filter(|v| large.contains(v)).count();
            assert_eq!(
                sorted_intersection_size(&small, &large),
                expected,
                "small {small:?}"
            );
            assert_eq!(
                sorted_intersection_size(&large, &small),
                expected,
                "swapped {small:?}"
            );
            assert_eq!(sorted_intersects(&small, &large), expected > 0);
            assert_eq!(sorted_intersects(&large, &small), expected > 0);
        }
    }

    #[test]
    fn singleton_edges_allowed() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32])
            .with_edge([0u32, 1])
            .build()
            .unwrap();
        assert_eq!(h.edge_size(0), 1);
        assert_eq!(h.num_nodes(), 2);
        assert!(h.are_adjacent(0, 1));
    }
}
