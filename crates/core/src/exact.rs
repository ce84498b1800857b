//! MoCHy-E: exact h-motif counting and enumeration (Algorithms 2 and 3).
//!
//! Every exact path — sequential, parallel, enumeration (and through it the
//! per-edge, per-node, variance and pairwise statistics) and both phases of
//! the sharded count ([`crate::shard`]) — walks the neighbour pairs of each
//! centre hyperedge through one kernel, `CentreWalk`.

use mochy_hypergraph::{default_chunk_size, map_reduce_chunks, EdgeId, Hypergraph};
use mochy_motif::{MotifCatalog, MotifId};
use mochy_projection::ProjectedGraph;

use crate::count::MotifCounts;

/// Counts the instances of every h-motif exactly (Algorithm 2, MoCHy-E).
///
/// For every hyperedge `e_i` and every unordered pair `{e_j, e_k}` of its
/// neighbours in the projected graph, the instance `{e_i, e_j, e_k}` is
/// counted when either `e_j ∩ e_k = ∅` (the instance is open and `e_i` is its
/// unique "centre") or `i < min(j, k)` (each closed instance is attributed to
/// its smallest member), so each instance is counted exactly once.
pub fn mochy_e(hypergraph: &Hypergraph, projected: &ProjectedGraph) -> MotifCounts {
    let mut walk = CentreWalk::new(hypergraph, projected);
    let mut counts = MotifCounts::zero();
    for i in hypergraph.edge_ids() {
        walk.visit(i, |motif, _, _| counts.increment(motif));
    }
    counts
}

/// Parallel MoCHy-E (Section 3.4): worker threads claim hyperedge blocks
/// from an atomic work queue (work stealing, so skewed-degree datasets do
/// not serialize on one heavy static shard), each with its own
/// `CentreWalk` and a private count vector; the partials are summed at the
/// end. Every raw contribution is an exact integer-valued `f64` increment,
/// so the output is bit-identical to [`mochy_e`] for every thread count and
/// schedule.
pub fn mochy_e_parallel(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    num_threads: usize,
) -> MotifCounts {
    let n = hypergraph.num_edges();
    if num_threads <= 1 || n < 2 {
        return mochy_e(hypergraph, projected);
    }
    let partials = map_reduce_chunks(
        n,
        num_threads,
        default_chunk_size(n, num_threads),
        || (CentreWalk::new(hypergraph, projected), MotifCounts::zero()),
        |(walk, local), range| {
            for i in range {
                walk.visit(i as EdgeId, |motif, _, _| local.increment(motif));
            }
        },
    );

    let mut counts = MotifCounts::zero();
    for (_, partial) in &partials {
        counts.merge(partial);
    }
    counts
}

/// Enumerates every h-motif instance exactly once (Algorithm 3,
/// MoCHy-E-ENUM), invoking `visit(e_i, e_j, e_k, motif)` per instance, with
/// `e_i` the centre the instance is attributed to and `j < k`. The time
/// complexity is the same as MoCHy-E.
pub fn mochy_e_enumerate<F>(hypergraph: &Hypergraph, projected: &ProjectedGraph, mut visit: F)
where
    F: FnMut(EdgeId, EdgeId, EdgeId, MotifId),
{
    let mut walk = CentreWalk::new(hypergraph, projected);
    for i in hypergraph.edge_ids() {
        walk.visit(i, |motif, j, k| visit(i, j, k, motif));
    }
}

/// For every hyperedge, the number of h-motif instances of each type that
/// contain it (the HM26 feature vector of Section 4.4). Each instance
/// contributes to the vectors of all three of its member hyperedges.
pub fn mochy_e_per_edge(hypergraph: &Hypergraph, projected: &ProjectedGraph) -> Vec<MotifCounts> {
    let mut per_edge = vec![MotifCounts::zero(); hypergraph.num_edges()];
    mochy_e_enumerate(hypergraph, projected, |i, j, k, motif| {
        per_edge[i as usize].increment(motif);
        per_edge[j as usize].increment(motif);
        per_edge[k as usize].increment(motif);
    });
    per_edge
}

/// One worker's state for the inner loop of Algorithms 2 and 3: the motif
/// catalog, an `|E|`-long slot array and a reusable mask buffer, so that
/// visiting a centre allocates nothing once the buffers have grown. Every
/// exact path builds one per worker and calls [`CentreWalk::visit`] once per
/// centre hyperedge.
///
/// **Cost.** Visiting centre `e_i` costs
/// `Σ_{v∈e_i} |E_v| + Σ_a (|N(i)| − a + |N(j_a)|)` steps, where
/// `j_a = N(i)[a]`: one pass over the incidence lists of `e_i`'s nodes (the
/// same work projection does for `e_i`) plus one sorted merge per neighbour.
/// Each pair whose other two members overlap adds `⌈|e_i|/64⌉` word `AND`s
/// and popcounts.
///
/// **Bit-identity.** The walk visits the pairs `(j, k)` of `N(i)` in the
/// same order as the per-pair loop of Algorithm 2. The merge reads each
/// `ω_jk` from the same row of the same projected graph that a lookup would
/// search. Bit `p` of a neighbour's mask is set iff it contains the `p`-th
/// node of `e_i`, so `Σ popcount(mask_j & mask_k)` counts exactly the nodes
/// of `e_i` in both `e_j` and `e_k`: `|e_i ∩ e_j ∩ e_k|`. With the same
/// attribution rule and the same Lemma 2 classification
/// ([`MotifCatalog::classify_from_intersections`]), every path emits the
/// same instances with the same motifs in the same order, and every count,
/// a sum of `+1.0` increments, stays bit-identical.
pub(crate) struct CentreWalk<'g> {
    hypergraph: &'g Hypergraph,
    projected: &'g ProjectedGraph,
    catalog: MotifCatalog,
    /// `slot[j]` is the position of `e_j` in the current centre's
    /// neighbourhood. Only the current centre's neighbours are ever read, so
    /// the array is overwritten per centre and never cleared.
    slot: Vec<u32>,
    /// `⌈|e_i|/64⌉` words per neighbour of the current centre `e_i`: bit `p`
    /// of neighbour `a`'s mask is set iff `N(i)[a]` contains the `p`-th node
    /// of `e_i`.
    masks: Vec<u64>,
}

impl<'g> CentreWalk<'g> {
    /// A walk over `hypergraph` and its full eager projection `projected`.
    pub(crate) fn new(hypergraph: &'g Hypergraph, projected: &'g ProjectedGraph) -> Self {
        Self {
            hypergraph,
            projected,
            catalog: MotifCatalog::new(),
            slot: vec![0; hypergraph.num_edges()],
            masks: Vec::new(),
        }
    }

    /// Visits every instance attributed to centre hyperedge `i` exactly once,
    /// calling `emit(motif, j, k)` with `j < k`.
    ///
    /// 1. One pass over the incidence lists of `e_i`'s nodes builds each
    ///    neighbour's mask: the positions of `e_i` it contains.
    /// 2. For each `j = N(i)[a]`, one sorted merge of `N(i)[a+1..]` against
    ///    `N(j)`, started at `N(j)`'s partition point for `N(i)[a+1]`, gives
    ///    every `ω_jk` (0 when `e_j` and `e_k` are disjoint).
    /// 3. A closed triple's `|e_i ∩ e_j ∩ e_k|` is
    ///    `Σ popcount(mask_j & mask_k)`.
    ///
    /// Open triples (`ω_jk = 0`) are counted at their unique centre `e_i`;
    /// closed ones only when `e_i` is their smallest member. `N(i)` is sorted,
    /// so `j < k` and the closed test is `j < i`.
    pub(crate) fn visit<F>(&mut self, i: EdgeId, mut emit: F)
    where
        F: FnMut(MotifId, EdgeId, EdgeId),
    {
        let (hypergraph, projected) = (self.hypergraph, self.projected);
        let neighbors = projected.neighbors(i);
        if neighbors.len() < 2 {
            return;
        }
        let members = hypergraph.edge(i);
        let words = members.len().div_ceil(64);

        for (position, &(j, _)) in neighbors.iter().enumerate() {
            self.slot[j as usize] = position as u32;
        }
        self.masks.clear();
        self.masks.resize(neighbors.len() * words, 0);
        for (position, &v) in members.iter().enumerate() {
            let (word, bit) = (position / 64, 1u64 << (position % 64));
            for &other in hypergraph.edges_of_node(v) {
                if other != i {
                    self.masks[self.slot[other as usize] as usize * words + word] |= bit;
                }
            }
        }

        let size_i = members.len();
        let masks = &self.masks;
        for (a, (&(j, w_ij), mask_j)) in neighbors.iter().zip(masks.chunks_exact(words)).enumerate()
        {
            let rest = &neighbors[a + 1..];
            let Some(&(first, _)) = rest.first() else {
                break;
            };
            let neighbors_j = projected.neighbors(j);
            let mut tail = &neighbors_j[neighbors_j.partition_point(|&(id, _)| id < first)..];
            let size_j = hypergraph.edge_size(j);
            let rest_masks = masks[(a + 1) * words..].chunks_exact(words);
            for (&(k, w_ik), mask_k) in rest.iter().zip(rest_masks) {
                while let Some((&(id, _), after)) = tail.split_first() {
                    if id >= k {
                        break;
                    }
                    tail = after;
                }
                let w_jk = match tail.first() {
                    Some(&(id, w)) if id == k => w,
                    _ => 0,
                };
                if w_jk != 0 && j < i {
                    continue;
                }
                let triple = if w_jk == 0 {
                    0
                } else {
                    mask_j
                        .iter()
                        .zip(mask_k)
                        .map(|(x, y)| (x & y).count_ones() as usize)
                        .sum()
                };
                if let Some(motif) = self.catalog.classify_from_intersections(
                    size_i,
                    size_j,
                    hypergraph.edge_size(k),
                    w_ij as usize,
                    w_jk as usize,
                    w_ik as usize,
                    triple,
                ) {
                    emit(motif, j, k);
                }
            }
        }
    }
}

/// Brute-force reference counter: classifies every triple of hyperedges
/// directly from their node sets. Cubic in `|E|`; used only by tests and as a
/// correctness oracle on small hypergraphs.
pub fn brute_force_counts(hypergraph: &Hypergraph) -> MotifCounts {
    let catalog = MotifCatalog::new();
    let mut counts = MotifCounts::zero();
    let n = hypergraph.num_edges() as EdgeId;
    for i in 0..n {
        for j in (i + 1)..n {
            for k in (j + 1)..n {
                let regions = mochy_motif::RegionCardinalities::from_sorted_sets(
                    hypergraph.edge(i),
                    hypergraph.edge(j),
                    hypergraph.edge(k),
                );
                if let Some(motif) = catalog.classify(&regions) {
                    counts.increment(motif);
                }
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use mochy_hypergraph::HypergraphBuilder;
    use mochy_projection::project;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn figure2() -> Hypergraph {
        HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0, 3, 1])
            .with_edge([4, 5, 0])
            .with_edge([6, 7, 2])
            .build()
            .unwrap()
    }

    pub(crate) fn random_hypergraph(
        seed: u64,
        nodes: u32,
        edges: usize,
        max_size: usize,
    ) -> Hypergraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = HypergraphBuilder::new();
        for _ in 0..edges {
            let size = rng.gen_range(1..=max_size);
            let members: Vec<u32> = (0..size).map(|_| rng.gen_range(0..nodes)).collect();
            builder.add_edge(members);
        }
        builder.build().unwrap()
    }

    #[test]
    fn figure2_has_three_instances() {
        let h = figure2();
        let proj = project(&h);
        let counts = mochy_e(&h, &proj);
        assert_eq!(counts.total(), 3.0);
        let catalog = MotifCatalog::new();
        // One closed instance ({e1,e2,e3}) and two open ones.
        let closed: f64 = catalog
            .closed_motif_ids()
            .iter()
            .map(|&id| counts.get(id))
            .sum();
        let open: f64 = catalog
            .open_motif_ids()
            .iter()
            .map(|&id| counts.get(id))
            .sum();
        assert_eq!(closed, 1.0);
        assert_eq!(open, 2.0);
    }

    #[test]
    fn matches_brute_force_on_random_hypergraphs() {
        for seed in 0..6u64 {
            let h = random_hypergraph(seed, 18, 22, 5);
            let proj = project(&h);
            let fast = mochy_e(&h, &proj);
            let brute = brute_force_counts(&h);
            assert_eq!(fast, brute, "seed {seed}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let h = random_hypergraph(42, 25, 40, 6);
        let proj = project(&h);
        let sequential = mochy_e(&h, &proj);
        for threads in [1, 2, 3, 4, 8] {
            assert_eq!(mochy_e_parallel(&h, &proj, threads), sequential);
        }
    }

    #[test]
    fn enumeration_agrees_with_counting() {
        let h = random_hypergraph(7, 15, 25, 5);
        let proj = project(&h);
        let counts = mochy_e(&h, &proj);
        let mut from_enum = MotifCounts::zero();
        let mut seen = std::collections::HashSet::new();
        mochy_e_enumerate(&h, &proj, |i, j, k, motif| {
            from_enum.increment(motif);
            let mut key = [i, j, k];
            key.sort_unstable();
            assert!(seen.insert(key), "instance {key:?} enumerated twice");
        });
        assert_eq!(counts, from_enum);
    }

    #[test]
    fn per_edge_counts_sum_to_three_times_total() {
        let h = random_hypergraph(11, 15, 20, 5);
        let proj = project(&h);
        let counts = mochy_e(&h, &proj);
        let per_edge = mochy_e_per_edge(&h, &proj);
        let per_edge_total: f64 = per_edge.iter().map(|c| c.total()).sum();
        assert_eq!(per_edge_total, 3.0 * counts.total());
        // Per-motif consistency as well.
        for id in 1..=26u8 {
            let sum: f64 = per_edge.iter().map(|c| c.get(id)).sum();
            assert_eq!(sum, 3.0 * counts.get(id), "motif {id}");
        }
    }

    #[test]
    fn disconnected_hypergraph_has_no_instances() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1])
            .with_edge([2u32, 3])
            .with_edge([4u32, 5])
            .build()
            .unwrap();
        let proj = project(&h);
        assert_eq!(mochy_e(&h, &proj).total(), 0.0);
    }

    /// A random hypergraph whose large hyperedges (63–65 and 127–129 nodes)
    /// straddle the 64-bit word boundaries of the pair walk's masks, mixed
    /// in random id order with small ones. All edges draw from 160 nodes, so
    /// the large edges overlap one another heavily.
    fn word_boundary_hypergraph(seed: u64) -> Hypergraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sizes = vec![63usize, 64, 65, 127, 128, 129];
        sizes.extend((0..20).map(|_| rng.gen_range(1..=6)));
        sizes.shuffle(&mut rng);
        let mut pool: Vec<u32> = (0..160).collect();
        let mut builder = HypergraphBuilder::new();
        for size in sizes {
            pool.shuffle(&mut rng);
            builder.add_edge(pool[..size].to_vec());
        }
        builder.build().unwrap()
    }

    #[test]
    fn word_boundary_edges_match_brute_force_on_every_exact_path() {
        for seed in 0..4u64 {
            let h = word_boundary_hypergraph(seed);
            let proj = project(&h);
            let brute = brute_force_counts(&h);
            assert!(brute.total() > 0.0, "seed {seed}");
            assert_eq!(mochy_e(&h, &proj), brute, "mochy_e, seed {seed}");
            assert_eq!(
                mochy_e_parallel(&h, &proj, 3),
                brute,
                "mochy_e_parallel(3), seed {seed}"
            );
            let partials = crate::shard::count_sharded(&h, &proj, 4, 1);
            let (sharded, hyperwedges) = crate::shard::merge_partials(&partials);
            assert_eq!(sharded, brute, "count_sharded(4), seed {seed}");
            assert_eq!(hyperwedges, proj.num_hyperwedges(), "seed {seed}");
            let per_edge = mochy_e_per_edge(&h, &proj);
            for id in 1..=26u8 {
                let sum: f64 = per_edge.iter().map(|c| c.get(id)).sum();
                assert_eq!(sum, 3.0 * brute.get(id), "per-edge motif {id}, seed {seed}");
            }
        }
    }

    #[test]
    fn duplicate_hyperedges_do_not_form_instances() {
        // Three copies of the same hyperedge plus one overlapping edge: the
        // only valid instances must avoid using two identical hyperedges.
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0u32, 1, 2])
            .with_edge([0u32, 1, 2])
            .with_edge([2u32, 3, 4])
            .build()
            .unwrap();
        let proj = project(&h);
        assert_eq!(mochy_e(&h, &proj).total(), 0.0);
        assert_eq!(brute_force_counts(&h).total(), 0.0);
    }
}
