//! Eager (sequential and parallel) construction of the projected graph.
//!
//! The hot path neither hashes nor sorts: hyperedges `f` are visited in
//! increasing id, and each appends itself to the row of every hyperedge it
//! overlaps, so every row receives its neighbours already in increasing id
//! and the `|e ∩ f|` appends of one pair arrive back to back (one entry,
//! its weight counted up). A counting pass of the same loop sizes the CSR
//! rows first. The parallel builder gives each worker one block of `f`,
//! balanced by work, and stitches each row from the workers' sorted runs
//! in block order. One-off lookups ([`compute_neighborhood`], used by the
//! lazy projection) gather, sort and run-length encode one neighbourhood.

use std::ops::Range;

use mochy_hypergraph::{Csr, EdgeId, Hypergraph};

/// One entry of a hyperedge's neighbourhood in the projected graph: the
/// adjacent hyperedge and the overlap size `ω(∧_ij) = |e_i ∩ e_j|`.
pub type WeightedNeighbor = (EdgeId, u32);

/// The projected graph `G¯ = (E, ∧, ω)` of a hypergraph (Section 2.1).
///
/// Adjacency is stored in CSR form for both endpoints of every hyperwedge,
/// with each neighbourhood sorted by neighbour identifier, so that hyperwedge
/// weights can be looked up with a binary search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProjectedGraph {
    adjacency: Csr<WeightedNeighbor>,
    num_hyperwedges: usize,
}

impl ProjectedGraph {
    /// Wraps a finished adjacency CSR. Each row must be sorted by neighbour
    /// id; symmetric entries must agree.
    fn from_csr(adjacency: Csr<WeightedNeighbor>) -> Self {
        let total_entries = adjacency.num_entries();
        debug_assert_eq!(total_entries % 2, 0, "adjacency must be symmetric");
        Self {
            adjacency,
            num_hyperwedges: total_entries / 2,
        }
    }

    /// Number of vertices of the projected graph (= number of hyperedges).
    pub fn num_edges(&self) -> usize {
        self.adjacency.num_rows()
    }

    /// Number of hyperwedges `|∧|`.
    pub fn num_hyperwedges(&self) -> usize {
        self.num_hyperwedges
    }

    /// The neighbourhood `{(e_j, ω(∧_ij)) : e_j ∈ N_{e_i}}` of hyperedge `e`,
    /// sorted by neighbour id.
    #[inline]
    pub fn neighbors(&self, e: EdgeId) -> &[WeightedNeighbor] {
        self.adjacency.row(e as usize)
    }

    /// The degree `|N_{e_i}|` of hyperedge `e` in the projected graph.
    #[inline]
    pub fn degree(&self, e: EdgeId) -> usize {
        self.adjacency.row_len(e as usize)
    }

    /// The overlap `ω(∧_ij) = |e_i ∩ e_j|`, or `None` if the two hyperedges
    /// are not adjacent.
    pub fn weight(&self, i: EdgeId, j: EdgeId) -> Option<u32> {
        let neighbors = self.neighbors(i);
        neighbors
            .binary_search_by_key(&j, |&(id, _)| id)
            .ok()
            .map(|pos| neighbors[pos].1)
    }

    /// Whether hyperedges `i` and `j` are adjacent (share at least one node).
    #[inline]
    pub fn are_adjacent(&self, i: EdgeId, j: EdgeId) -> bool {
        self.weight(i, j).is_some()
    }

    /// Per-hyperedge degrees in the projected graph.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.num_edges())
            .map(|i| self.adjacency.row_len(i))
            .collect()
    }

    /// Iterator over every hyperwedge `(i, j)` with `i < j` and its weight.
    pub fn hyperwedges(&self) -> impl Iterator<Item = (EdgeId, EdgeId, u32)> + '_ {
        self.adjacency
            .rows()
            .enumerate()
            .flat_map(|(i, neighbors)| {
                neighbors
                    .iter()
                    .filter(move |&&(j, _)| (i as EdgeId) < j)
                    .map(move |&(j, w)| (i as EdgeId, j, w))
            })
    }
}

/// Computes the neighbourhood of a single hyperedge in the projected graph
/// without any persistent scratch: the incident hyperedges of every member
/// node are gathered into one buffer, sorted, and run-length encoded. This
/// is the unit of work of the lazy projection; [`project`] and
/// [`project_parallel`] materialize every row at once instead.
pub fn compute_neighborhood(hypergraph: &Hypergraph, e: EdgeId) -> Vec<WeightedNeighbor> {
    let gathered: usize = hypergraph
        .edge(e)
        .iter()
        .map(|&v| hypergraph.node_degree(v))
        .sum();
    let mut candidates: Vec<EdgeId> = Vec::with_capacity(gathered);
    for &v in hypergraph.edge(e) {
        candidates.extend_from_slice(hypergraph.edges_of_node(v));
    }
    candidates.sort_unstable();
    let mut neighbors: Vec<WeightedNeighbor> = Vec::new();
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

/// Algorithm 1: builds the projected graph sequentially, as one block of
/// the fill [`project_parallel`]'s workers share, straight into CSR storage.
pub fn project(hypergraph: &Hypergraph) -> ProjectedGraph {
    let rows = BlockRows::fill(hypergraph, 0..hypergraph.num_edges());
    ProjectedGraph::from_csr(Csr::from_parts(rows.offsets, rows.flat))
}

/// Parallel variant of Algorithm 1 (Section 3.4): `num_threads` scoped
/// workers each fill the rows' entries for one contiguous block of
/// hyperedges, the blocks balanced by `Σ_{v∈f} |E_v|`, the work each
/// hyperedge `f` costs. A worker's entries for a row form one sorted run,
/// and the row is the workers' runs in block order, so the result is
/// identical to [`project`] for every thread count.
///
/// `num_threads == 0` or `1` falls back to the sequential implementation.
pub fn project_parallel(hypergraph: &Hypergraph, num_threads: usize) -> ProjectedGraph {
    let blocks = balanced_blocks(hypergraph, num_threads);
    if blocks.len() <= 1 {
        return project(hypergraph);
    }
    let parts: Vec<BlockRows> = std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .into_iter()
            .map(|block| scope.spawn(move || BlockRows::fill(hypergraph, block)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("projection worker panicked"))
            .collect()
    });
    let n = hypergraph.num_edges();
    let total_entries: usize = parts.iter().map(|part| part.flat.len()).sum();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut flat = Vec::with_capacity(total_entries);
    for e in 0..n {
        for part in &parts {
            flat.extend_from_slice(part.row(e));
        }
        offsets.push(flat.len());
    }
    ProjectedGraph::from_csr(Csr::from_parts(offsets, flat))
}

/// Splits the hyperedges into at most `parts` contiguous, non-empty blocks
/// of about equal work `Σ_{v∈f} |E_v|`.
fn balanced_blocks(hypergraph: &Hypergraph, parts: usize) -> Vec<Range<usize>> {
    let work = |f: EdgeId| -> usize {
        hypergraph
            .edge(f)
            .iter()
            .map(|&v| hypergraph.node_degree(v))
            .sum()
    };
    let n = hypergraph.num_edges();
    let parts = parts.clamp(1, n.max(1));
    let total: usize = hypergraph.edge_ids().map(work).sum();
    let mut blocks = Vec::with_capacity(parts);
    let (mut start, mut done) = (0usize, 0usize);
    for f in hypergraph.edge_ids() {
        done += work(f);
        let share = (blocks.len() + 1) as f64 / parts as f64;
        if blocks.len() + 1 < parts && done as f64 >= share * total as f64 {
            blocks.push(start..f as usize + 1);
            start = f as usize + 1;
        }
    }
    if start < n {
        blocks.push(start..n);
    }
    blocks
}

/// The projected rows' entries contributed by one block of hyperedges `f`:
/// row `e` holds `(f, |e ∩ f|)` for every `f` of the block that overlaps
/// `e`, in increasing `f`.
struct BlockRows {
    /// `offsets[e]..offsets[e + 1]` delimits row `e` in `flat`.
    offsets: Vec<usize>,
    flat: Vec<WeightedNeighbor>,
}

impl BlockRows {
    /// Lines 3–7 of Algorithm 1 for every hyperedge `f` of `block`, run
    /// twice: once to size each row, once to fill it. Each row keeps the
    /// last `f` that reached it, so a pair's `|e ∩ f|` meetings count once
    /// in the first pass and add up one entry's weight in the second.
    fn fill(hypergraph: &Hypergraph, block: Range<usize>) -> Self {
        let n = hypergraph.num_edges();
        let block = block.start as EdgeId..block.end as EdgeId;
        // Per row, in one 8-byte slot: its entry count, then its write
        // cursor; and the last `f` that reached it.
        let mut rows: Vec<(u32, EdgeId)> = vec![(0, EdgeId::MAX); n];
        for f in block.clone() {
            for &v in hypergraph.edge(f) {
                for &e in hypergraph.edges_of_node(v) {
                    let row = &mut rows[e as usize];
                    if e != f && row.1 != f {
                        *row = (row.0 + 1, f);
                    }
                }
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut start = 0usize;
        for row in &mut rows {
            let len = row.0 as usize;
            *row = (start as u32, EdgeId::MAX);
            start += len;
            offsets.push(start);
        }
        // No cursor passes the total, so the casts above were exact.
        u32::try_from(start).expect("a block holds fewer than 2^32 entries");
        let mut flat: Vec<WeightedNeighbor> = vec![(0, 0); start];
        for f in block {
            for &v in hypergraph.edge(f) {
                for &e in hypergraph.edges_of_node(v) {
                    if e == f {
                        continue;
                    }
                    let row = &mut rows[e as usize];
                    if row.1 == f {
                        flat[row.0 as usize - 1].1 += 1;
                    } else {
                        flat[row.0 as usize] = (f, 1);
                        *row = (row.0 + 1, f);
                    }
                }
            }
        }
        Self { offsets, flat }
    }

    /// Row `e`'s entries from this block.
    fn row(&self, e: usize) -> &[WeightedNeighbor] {
        &self.flat[self.offsets[e]..self.offsets[e + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mochy_hypergraph::HypergraphBuilder;

    /// Figure 2(b): e1={L,K,F}, e2={L,H,K}, e3={B,G,L}, e4={S,R,F}.
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
    fn figure2_has_four_hyperwedges() {
        let h = figure2();
        let proj = project(&h);
        assert_eq!(proj.num_edges(), 4);
        // The paper lists exactly ∧12, ∧13, ∧23, ∧14.
        assert_eq!(proj.num_hyperwedges(), 4);
        assert_eq!(proj.weight(0, 1), Some(2)); // e1 ∩ e2 = {L, K}
        assert_eq!(proj.weight(0, 2), Some(1)); // {L}
        assert_eq!(proj.weight(1, 2), Some(1)); // {L}
        assert_eq!(proj.weight(0, 3), Some(1)); // {F}
        assert_eq!(proj.weight(1, 3), None);
        assert_eq!(proj.weight(2, 3), None);
    }

    #[test]
    fn degrees_and_neighbors() {
        let proj = project(&figure2());
        assert_eq!(proj.degree(0), 3);
        assert_eq!(proj.degree(3), 1);
        assert_eq!(proj.neighbors(0), &[(1, 2), (2, 1), (3, 1)]);
        assert!(proj.are_adjacent(2, 0));
        assert!(!proj.are_adjacent(2, 3));
    }

    #[test]
    fn weights_are_symmetric() {
        let proj = project(&figure2());
        for i in 0..4u32 {
            for j in 0..4u32 {
                assert_eq!(proj.weight(i, j), proj.weight(j, i));
            }
        }
    }

    #[test]
    fn hyperwedge_iterator_matches_count() {
        let proj = project(&figure2());
        let wedges: Vec<_> = proj.hyperwedges().collect();
        assert_eq!(wedges.len(), proj.num_hyperwedges());
        assert!(wedges.contains(&(0, 1, 2)));
        assert!(wedges.contains(&(0, 3, 1)));
    }

    #[test]
    fn parallel_matches_sequential() {
        let h = figure2();
        let sequential = project(&h);
        for threads in [1, 2, 3, 4, 8] {
            let parallel = project_parallel(&h, threads);
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_matches_sequential_on_a_larger_graph() {
        // Enough hyperedges that the queue hands out multiple blocks per
        // worker, including with more workers than blocks.
        let mut builder = HypergraphBuilder::new();
        for i in 0..500u32 {
            builder.add_edge([i % 97, (i * 7 + 1) % 97, (i * 13 + 2) % 97]);
        }
        let h = builder.build().unwrap();
        let sequential = project(&h);
        for threads in [2, 3, 8, 64] {
            assert_eq!(
                project_parallel(&h, threads),
                sequential,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn standalone_neighborhood_matches_projection() {
        let h = figure2();
        let projected = project(&h);
        for e in h.edge_ids() {
            assert_eq!(
                compute_neighborhood(&h, e),
                projected.neighbors(e),
                "edge {e}"
            );
        }
    }

    /// Every row of `project` and of `project_parallel` at 1, 2, 3, 8 and 64
    /// threads equals the row built by brute force over all pairs with
    /// `Hypergraph::intersection_size`, on 60 seeded hypergraphs with
    /// repeated and singleton hyperedges, a node in every hyperedge,
    /// hyperedges without neighbours, and often more workers than
    /// hyperedges.
    #[test]
    fn rows_match_brute_force_intersections() {
        // SplitMix64, seeded: a value below `n`.
        let mut state = 0x5eed_u64;
        let mut below = |n: u32| -> u32 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % u64::from(n)) as u32
        };
        for graph in 0..60 {
            let num_nodes = 2 + below(30);
            let mut edges: Vec<Vec<u32>> = Vec::new();
            for _ in 0..1 + below(100) {
                if !edges.is_empty() && below(4) == 0 {
                    let repeated = edges[below(edges.len() as u32) as usize].clone();
                    edges.push(repeated);
                } else {
                    let size = 1 + below(5);
                    edges.push((0..size).map(|_| below(num_nodes)).collect());
                }
            }
            match graph % 3 {
                // Node `num_nodes` in every hyperedge.
                0 => edges.iter_mut().for_each(|edge| edge.push(num_nodes)),
                // A hyperedge of fresh nodes, overlapping no other.
                1 => edges.push(vec![num_nodes, num_nodes + 1]),
                _ => {}
            }
            let mut builder = HypergraphBuilder::new();
            builder.extend_edges(edges);
            let h = builder.build().unwrap();
            let expected: Vec<Vec<WeightedNeighbor>> = h
                .edge_ids()
                .map(|i| {
                    h.edge_ids()
                        .filter(|&j| j != i)
                        .filter_map(|j| {
                            let overlap = h.intersection_size(i, j) as u32;
                            (overlap > 0).then_some((j, overlap))
                        })
                        .collect()
                })
                .collect();
            let hyperwedges = expected.iter().map(Vec::len).sum::<usize>() / 2;
            let mut built = vec![("project".to_string(), project(&h))];
            for threads in [1, 2, 3, 8, 64] {
                built.push((format!("{threads} threads"), project_parallel(&h, threads)));
            }
            for (how, projected) in &built {
                assert_eq!(projected.num_edges(), h.num_edges(), "graph {graph}, {how}");
                assert_eq!(
                    projected.num_hyperwedges(),
                    hyperwedges,
                    "graph {graph}, {how}"
                );
                for e in h.edge_ids() {
                    assert_eq!(
                        projected.neighbors(e),
                        expected[e as usize],
                        "graph {graph}, {how}, row {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn weights_match_intersections() {
        let h = figure2();
        let proj = project(&h);
        for i in h.edge_ids() {
            for &(j, w) in proj.neighbors(i) {
                assert_eq!(w as usize, h.intersection_size(i, j));
            }
        }
    }

    #[test]
    fn disconnected_hyperedges_have_empty_neighborhoods() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1])
            .with_edge([2u32, 3])
            .build()
            .unwrap();
        let proj = project(&h);
        assert_eq!(proj.num_hyperwedges(), 0);
        assert_eq!(proj.degree(0), 0);
        assert_eq!(proj.degree(1), 0);
    }

    #[test]
    fn duplicate_like_overlaps() {
        // Two hyperedges with identical membership still form one hyperwedge
        // with weight equal to their size.
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0u32, 1, 2])
            .build()
            .unwrap();
        let proj = project(&h);
        assert_eq!(proj.num_hyperwedges(), 1);
        assert_eq!(proj.weight(0, 1), Some(3));
    }
}
