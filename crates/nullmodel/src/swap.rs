//! Exact-margin randomization via bipartite double-edge swaps, plus a
//! degree-agnostic uniform baseline.
//!
//! The Chung-Lu model of the paper preserves node degrees only *in
//! expectation*. The swap (checkerboard) model here preserves both the node
//! degree of every node and the size of every hyperedge *exactly*: it applies
//! random double-edge swaps to the bipartite incidence graph, each of which
//! exchanges one member between two hyperedges, and rejects swaps that would
//! duplicate a member within a hyperedge. This serves as a stricter ablation
//! of the null-model choice in DESIGN.md §3.3.
//!
//! The [`uniform_size_randomize`] baseline keeps hyperedge sizes but draws
//! members uniformly, destroying the degree distribution; comparing
//! significances under it against the Chung-Lu ones quantifies how much of
//! an h-motif's abundance is explained by degree heterogeneity alone.

use mochy_hypergraph::{Hypergraph, HypergraphBuilder, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Outcome statistics of a swap randomization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapStats {
    /// Number of swap attempts made.
    pub attempted: usize,
    /// Number of swaps that were applied.
    pub accepted: usize,
    /// Number of swaps rejected because they would have created a duplicate
    /// member within a hyperedge.
    pub rejected_duplicate: usize,
    /// Number of swaps rejected because both endpoints were identical.
    pub rejected_trivial: usize,
}

/// Randomizes a hypergraph by `attempts` random double-edge swaps on the
/// bipartite incidence graph.
///
/// Each attempt picks two incidences `(e_a, v_a)` and `(e_b, v_b)` uniformly
/// at random and exchanges the two nodes between the two hyperedges. The swap
/// is rejected (and the hypergraph left unchanged) if it would insert a node
/// into a hyperedge that already contains it, or if it would be a no-op.
/// Every node degree and every hyperedge size is preserved exactly.
///
/// A common choice for `attempts` is a small multiple of the number of
/// incidences (see [`swap_randomize`], which uses 10×).
pub fn swap_randomize_with<R: Rng + ?Sized>(
    hypergraph: &Hypergraph,
    attempts: usize,
    rng: &mut R,
) -> (Hypergraph, SwapStats) {
    // Mutable copy of the membership lists. Each list is kept *unsorted*
    // during swapping (we only need membership tests); the builder restores
    // sorted order at the end.
    let mut edges: Vec<Vec<NodeId>> = hypergraph.to_edge_lists();
    // Flat index of incidences: (edge index, position within edge).
    let incidences: Vec<(usize, usize)> = edges
        .iter()
        .enumerate()
        .flat_map(|(e, members)| (0..members.len()).map(move |p| (e, p)))
        .collect();

    let mut stats = SwapStats {
        attempted: attempts,
        accepted: 0,
        rejected_duplicate: 0,
        rejected_trivial: 0,
    };

    if incidences.len() < 2 {
        let rebuilt = rebuild(&edges);
        return (rebuilt, stats);
    }

    for _ in 0..attempts {
        let a = incidences[rng.gen_range(0..incidences.len())];
        let b = incidences[rng.gen_range(0..incidences.len())];
        let (edge_a, pos_a) = a;
        let (edge_b, pos_b) = b;
        let node_a = edges[edge_a][pos_a];
        let node_b = edges[edge_b][pos_b];
        if edge_a == edge_b || node_a == node_b {
            stats.rejected_trivial += 1;
            continue;
        }
        if edges[edge_a].contains(&node_b) || edges[edge_b].contains(&node_a) {
            stats.rejected_duplicate += 1;
            continue;
        }
        edges[edge_a][pos_a] = node_b;
        edges[edge_b][pos_b] = node_a;
        stats.accepted += 1;
    }

    (rebuild(&edges), stats)
}

/// [`swap_randomize_with`] using the conventional 10 × (number of incidences)
/// swap attempts, discarding the statistics.
pub fn swap_randomize<R: Rng + ?Sized>(hypergraph: &Hypergraph, rng: &mut R) -> Hypergraph {
    swap_randomize_with(
        hypergraph,
        hypergraph.num_incidences().saturating_mul(10),
        rng,
    )
    .0
}

/// Randomizes a hypergraph by keeping every hyperedge's size but drawing its
/// members uniformly at random (without replacement within the hyperedge)
/// from the full node set. This destroys the node-degree distribution and is
/// used only as a baseline/ablation.
pub fn uniform_size_randomize<R: Rng + ?Sized>(hypergraph: &Hypergraph, rng: &mut R) -> Hypergraph {
    let n = hypergraph.num_nodes();
    let mut pool: Vec<NodeId> = (0..n as NodeId).collect();
    let mut builder = HypergraphBuilder::with_capacity(hypergraph.num_edges());
    for e in hypergraph.edge_ids() {
        let size = hypergraph.edge_size(e).min(n);
        pool.partial_shuffle(rng, size);
        builder.add_edge(pool[..size].iter().copied());
    }
    builder
        .build()
        .expect("uniform randomization keeps every hyperedge non-empty")
}

fn rebuild(edges: &[Vec<NodeId>]) -> Hypergraph {
    let mut builder = HypergraphBuilder::with_capacity(edges.len());
    for members in edges {
        builder.add_edge(members.iter().copied());
    }
    builder
        .build()
        .expect("swap randomization preserves every hyperedge")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_hypergraph() -> Hypergraph {
        let mut rng = StdRng::seed_from_u64(7);
        let mut builder = HypergraphBuilder::new();
        for _ in 0..200 {
            let size = rng.gen_range(2..=5);
            let mut members: Vec<NodeId> = Vec::new();
            while members.len() < size {
                let v = rng.gen_range(0..80u32);
                if !members.contains(&v) {
                    members.push(v);
                }
            }
            builder.add_edge(members);
        }
        builder.build().unwrap()
    }

    #[test]
    fn swap_preserves_degrees_and_sizes_exactly() {
        let h = sample_hypergraph();
        let mut rng = StdRng::seed_from_u64(11);
        let (randomized, stats) = swap_randomize_with(&h, 5_000, &mut rng);
        assert_eq!(randomized.num_edges(), h.num_edges());
        assert_eq!(randomized.edge_sizes(), h.edge_sizes());
        assert_eq!(randomized.node_degrees(), h.node_degrees());
        assert!(stats.accepted > 0);
        assert_eq!(
            stats.accepted + stats.rejected_duplicate + stats.rejected_trivial,
            stats.attempted
        );
    }

    #[test]
    fn swap_changes_the_structure() {
        let h = sample_hypergraph();
        let mut rng = StdRng::seed_from_u64(13);
        let randomized = swap_randomize(&h, &mut rng);
        let unchanged = h
            .edge_ids()
            .filter(|&e| randomized.edge(e) == h.edge(e))
            .count();
        assert!(
            unchanged < h.num_edges() / 2,
            "swap randomization left {unchanged} hyperedges unchanged"
        );
    }

    #[test]
    fn swap_is_deterministic_per_seed() {
        let h = sample_hypergraph();
        let a = swap_randomize(&h, &mut StdRng::seed_from_u64(5));
        let b = swap_randomize(&h, &mut StdRng::seed_from_u64(5));
        let c = swap_randomize(&h, &mut StdRng::seed_from_u64(6));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn swap_with_zero_attempts_is_identity() {
        let h = sample_hypergraph();
        let mut rng = StdRng::seed_from_u64(1);
        let (randomized, stats) = swap_randomize_with(&h, 0, &mut rng);
        assert_eq!(randomized, h);
        assert_eq!(stats.accepted, 0);
    }

    #[test]
    fn swap_on_single_incidence_hypergraph_is_safe() {
        let h = HypergraphBuilder::new().with_edge([0u32]).build().unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let (randomized, stats) = swap_randomize_with(&h, 100, &mut rng);
        assert_eq!(randomized, h);
        assert_eq!(stats.accepted, 0);
    }

    #[test]
    fn uniform_preserves_sizes_only() {
        let h = sample_hypergraph();
        let mut rng = StdRng::seed_from_u64(3);
        let randomized = uniform_size_randomize(&h, &mut rng);
        assert_eq!(randomized.edge_sizes(), h.edge_sizes());
        // Members within each hyperedge stay distinct.
        for (_, members) in randomized.edges() {
            let mut unique = members.to_vec();
            unique.dedup();
            assert_eq!(unique.len(), members.len());
        }
    }

    #[test]
    fn uniform_clamps_oversized_edges() {
        // A hyperedge as large as the node set must not loop forever.
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0u32, 1])
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let randomized = uniform_size_randomize(&h, &mut rng);
        assert_eq!(randomized.edge_size(0), 3);
        assert_eq!(randomized.edge_size(1), 2);
    }
}
