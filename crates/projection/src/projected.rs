//! Eager (sequential and parallel) construction of the projected graph.
//!
//! The hot path is hash-free: neighbourhoods are accumulated either into a
//! reusable dense counter array ([`NeighborhoodScratch`], used when the whole
//! projected graph is being materialized) or by gather-sort-runlength
//! ([`compute_neighborhood`], used for one-off / lazy lookups), and the
//! result is stored in CSR form. The parallel builder pulls hyperedge blocks
//! from an atomic work queue (work stealing), so skewed-degree datasets do
//! not serialize on the heaviest static shard.

use mochy_hypergraph::{default_chunk_size, map_reduce_chunks, Csr, EdgeId, Hypergraph};

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

    /// Total work term `Σ_{e_i} |e_i| · |N_{e_i}|²` appearing in the time
    /// complexity of MoCHy (Theorems 1, 3, 5). Useful for experiment sizing.
    pub fn mochy_work_estimate(&self, hypergraph: &Hypergraph) -> u128 {
        self.adjacency
            .rows()
            .enumerate()
            .map(|(i, neighbors)| {
                hypergraph.edge_size(i as EdgeId) as u128 * (neighbors.len() as u128).pow(2)
            })
            .sum()
    }
}

/// Reusable dense accumulator for building hyperedge neighbourhoods.
///
/// Holds one `u32` overlap counter per hyperedge plus the list of counters
/// touched by the current hyperedge, so a full projection performs zero
/// hashing and only `O(output)` resets between hyperedges. One scratch is
/// `O(|E|)` memory; the eager builders keep one per worker thread.
pub struct NeighborhoodScratch {
    weights: Vec<u32>,
    touched: Vec<EdgeId>,
}

impl NeighborhoodScratch {
    /// A scratch sized for `hypergraph` (all counters start at zero).
    pub fn new(hypergraph: &Hypergraph) -> Self {
        Self {
            weights: vec![0; hypergraph.num_edges()],
            touched: Vec::new(),
        }
    }

    /// Appends the neighbourhood of `e` to `out` and returns its length:
    /// every hyperedge sharing at least one node with `e`, with overlap
    /// sizes, sorted by neighbour id. This is the work lines 3–7 of
    /// Algorithm 1 perform for one hyperedge; appending (rather than
    /// overwriting) lets the eager builders write each row straight into
    /// the flat CSR value buffer with no intermediate copy.
    pub fn append_neighborhood(
        &mut self,
        hypergraph: &Hypergraph,
        e: EdgeId,
        out: &mut Vec<WeightedNeighbor>,
    ) -> usize {
        debug_assert_eq!(self.weights.len(), hypergraph.num_edges());
        for &v in hypergraph.edge(e) {
            for &other in hypergraph.edges_of_node(v) {
                if other == e {
                    continue;
                }
                let slot = &mut self.weights[other as usize];
                if *slot == 0 {
                    self.touched.push(other);
                }
                *slot += 1;
            }
        }
        self.touched.sort_unstable();
        out.reserve(self.touched.len());
        for &other in &self.touched {
            out.push((other, self.weights[other as usize]));
            self.weights[other as usize] = 0;
        }
        let appended = self.touched.len();
        self.touched.clear();
        appended
    }
}

/// Computes the neighbourhood of a single hyperedge in the projected graph
/// without any persistent scratch: the incident hyperedges of every member
/// node are gathered into one buffer, sorted, and run-length encoded. This
/// is the unit of work of the lazy projection; for materializing the whole
/// projected graph, [`project`] / [`project_parallel`] amortize a
/// [`NeighborhoodScratch`] instead.
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

/// Algorithm 1: builds the projected graph sequentially, streaming every
/// hyperedge through one reusable [`NeighborhoodScratch`] directly into CSR
/// storage.
pub fn project(hypergraph: &Hypergraph) -> ProjectedGraph {
    let mut scratch = NeighborhoodScratch::new(hypergraph);
    let n = hypergraph.num_edges();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut flat: Vec<WeightedNeighbor> = Vec::new();
    for e in hypergraph.edge_ids() {
        scratch.append_neighborhood(hypergraph, e, &mut flat);
        offsets.push(flat.len());
    }
    ProjectedGraph::from_csr(Csr::from_parts(offsets, flat))
}

/// The rows a worker produced for one claimed block of hyperedges.
struct ChunkRows {
    start: usize,
    row_lens: Vec<u32>,
    flat: Vec<WeightedNeighbor>,
}

/// Parallel variant of Algorithm 1 (Section 3.4): hyperedge blocks are
/// claimed from an atomic work queue by `num_threads` scoped workers (work
/// stealing), each with a private [`NeighborhoodScratch`]; the per-block rows
/// are stitched back in hyperedge order, so the result is identical to
/// [`project`] for every thread count and schedule.
///
/// `num_threads == 0` or `1` falls back to the sequential implementation.
pub fn project_parallel(hypergraph: &Hypergraph, num_threads: usize) -> ProjectedGraph {
    let n = hypergraph.num_edges();
    if num_threads <= 1 || n < 2 {
        return project(hypergraph);
    }
    let chunk_size = default_chunk_size(n, num_threads);
    let per_worker = map_reduce_chunks(
        n,
        num_threads,
        chunk_size,
        || {
            (
                NeighborhoodScratch::new(hypergraph),
                Vec::<ChunkRows>::new(),
            )
        },
        |(scratch, chunks), range| {
            let mut rows = ChunkRows {
                start: range.start,
                row_lens: Vec::with_capacity(range.len()),
                flat: Vec::new(),
            };
            for e in range {
                let len = scratch.append_neighborhood(hypergraph, e as EdgeId, &mut rows.flat);
                rows.row_lens.push(len as u32);
            }
            chunks.push(rows);
        },
    );

    let mut chunks: Vec<ChunkRows> = per_worker
        .into_iter()
        .flat_map(|(_, chunks)| chunks)
        .collect();
    chunks.sort_unstable_by_key(|c| c.start);
    debug_assert_eq!(
        chunks.iter().map(|c| c.row_lens.len()).sum::<usize>(),
        n,
        "chunks must cover every hyperedge exactly once"
    );
    let total_entries: usize = chunks.iter().map(|c| c.flat.len()).sum();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut flat = Vec::with_capacity(total_entries);
    for chunk in chunks {
        for len in chunk.row_lens {
            offsets.push(offsets.last().unwrap() + len as usize);
        }
        flat.extend_from_slice(&chunk.flat);
    }
    ProjectedGraph::from_csr(Csr::from_parts(offsets, flat))
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
    fn standalone_neighborhood_matches_scratch() {
        let h = figure2();
        let mut scratch = NeighborhoodScratch::new(&h);
        let mut row = Vec::new();
        for e in h.edge_ids() {
            row.clear();
            let len = scratch.append_neighborhood(&h, e, &mut row);
            assert_eq!(len, row.len());
            assert_eq!(compute_neighborhood(&h, e), row, "edge {e}");
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
    fn work_estimate_counts_triples() {
        let h = figure2();
        let proj = project(&h);
        // Σ |e_i| · |N_i|²  = 3·9 + 3·4 + 3·4 + 3·1 = 27 + 12 + 12 + 3 = 54.
        assert_eq!(proj.mochy_work_estimate(&h), 54);
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
