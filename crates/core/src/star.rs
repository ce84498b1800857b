//! The star of a hyperedge: every h-motif instance that contains it.
//!
//! MoCHy-A (Algorithm 4) counts, for each sampled hyperedge `e`, every
//! instance `{e, e_j, e_k}`; the streaming engine adds (on insertion) or
//! subtracts (on removal) exactly the same set. Both go through one kernel,
//! `StarWalk`, which reads only member lists and incidence lists, so it runs
//! on an immutable [`Hypergraph`] and on a [`DynamicHypergraph`] alike
//! (through [`Incidence`]) and never needs a projected graph.
//!
//! An instance containing `e` is one of two kinds:
//!
//! 1. both other members are neighbours of `e`: every unordered pair
//!    `{j, k} ⊆ N(e)`, open or closed;
//! 2. only `j` is a neighbour of `e`: `k ∈ N(j) ∖ (N(e) ∪ {e})`, an open
//!    triple centred at `j`.
//!
//! Each instance is one of these exactly once, so the star is visited
//! without any attribution filter.

use mochy_hypergraph::{DynamicHypergraph, EdgeId, Hypergraph, NodeId};
use mochy_motif::MotifCatalog;

use crate::count::MotifCounts;

/// What [`StarWalk`] reads of a hypergraph. Edge ids index dense per-edge
/// arrays, so `num_edge_slots` bounds every id either structure hands out.
pub(crate) trait Incidence {
    /// The sorted members of live hyperedge `e`.
    fn members(&self, e: EdgeId) -> &[NodeId];
    /// The live hyperedges containing node `v`.
    fn edges_of_node(&self, v: NodeId) -> &[EdgeId];
    /// One past the largest hyperedge id.
    fn num_edge_slots(&self) -> usize;
}

impl Incidence for Hypergraph {
    fn members(&self, e: EdgeId) -> &[NodeId] {
        self.edge(e)
    }

    fn edges_of_node(&self, v: NodeId) -> &[EdgeId] {
        Hypergraph::edges_of_node(self, v)
    }

    fn num_edge_slots(&self) -> usize {
        self.num_edges()
    }
}

impl Incidence for DynamicHypergraph {
    fn members(&self, e: EdgeId) -> &[NodeId] {
        self.edge(e).unwrap_or_default()
    }

    fn edges_of_node(&self, v: NodeId) -> &[EdgeId] {
        DynamicHypergraph::edges_of_node(self, v)
    }

    fn num_edge_slots(&self) -> usize {
        DynamicHypergraph::num_edge_slots(self)
    }
}

/// One worker's state for visiting stars: the motif catalog, two per-edge
/// arrays and the buffers for `N(e)`, so that a visit allocates nothing once
/// the buffers have grown. The per-edge arrays grow to the graph's
/// `num_edge_slots` on each visit; every entry is zero between visits.
///
/// **Cost.** Visiting the star of `e` costs `Σ_{v∈e} |E_v|` steps to build
/// `N(e)`, `Σ_{v∈j} |E_v|` to count each neighbour's row, `|N(e)|²/2` pair
/// reads and, per pair whose other two members overlap, `⌈|e|/64⌉` word
/// `AND`s and popcounts.
///
/// **Bit-identity.** Bit `p` of a neighbour's mask is set iff it contains the
/// `p`-th node of `e`, so `Σ popcount(mask_j & mask_k)` is
/// `|e ∩ e_j ∩ e_k|`, and the row counter of `e_j` holds every `ω_jk`. Each
/// instance reaches the Lemma 2 classification
/// ([`MotifCatalog::classify_from_intersections`]) once, with the seven
/// numbers a per-triple intersection would give, and adds `+1.0` to its
/// motif.
#[derive(Debug, Clone)]
pub(crate) struct StarWalk {
    catalog: &'static MotifCatalog,
    /// `slot[f]` is one more than the position of `e_f` in `neighbors`
    /// during a visit, and 0 for every hyperedge outside `N(e)`.
    slot: Vec<u32>,
    /// `N(e)` with each `ω(∧_ef)`, in the order the incidence lists first
    /// reach each neighbour.
    neighbors: Vec<(EdgeId, u32)>,
    /// `⌈|e|/64⌉` words per entry of `neighbors`.
    masks: Vec<u64>,
    /// `row[k] = ω(∧_jk)` while neighbour `e_j`'s row is being read.
    row: Vec<u32>,
    /// The entries of `row` the current neighbour made non-zero.
    touched: Vec<EdgeId>,
}

impl StarWalk {
    /// A walk with empty buffers.
    pub(crate) fn new() -> Self {
        Self {
            catalog: MotifCatalog::shared(),
            slot: Vec::new(),
            neighbors: Vec::new(),
            masks: Vec::new(),
            row: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Adds 1 to `raw` for every instance containing live hyperedge `e`, and
    /// returns `|N(e)|`, the number of hyperwedges that contain `e`.
    ///
    /// 1. One pass over the incidence lists of `e`'s nodes builds `N(e)`,
    ///    each `ω(∧_ej)` and each neighbour's mask.
    /// 2. For each `e_j ∈ N(e)`, one pass over the incidence lists of
    ///    `e_j`'s nodes counts its row, `ω(∧_jk)` for every `k`.
    /// 3. Case 1 reads `ω(∧_jk)` for the neighbours after `e_j` in
    ///    `N(e)`, and a closed triple's `|e ∩ e_j ∩ e_k|` as a popcount.
    /// 4. Case 2 takes every `k` of the row that is neither `e` nor in
    ///    `N(e)`.
    pub(crate) fn count<G: Incidence>(
        &mut self,
        graph: &G,
        e: EdgeId,
        raw: &mut MotifCounts,
    ) -> usize {
        let slots = graph.num_edge_slots();
        if self.slot.len() < slots {
            self.slot.resize(slots, 0);
            self.row.resize(slots, 0);
        }
        let members = graph.members(e);
        let words = members.len().div_ceil(64);

        self.neighbors.clear();
        self.masks.clear();
        for (position, &v) in members.iter().enumerate() {
            let (word, bit) = (position / 64, 1u64 << (position % 64));
            for &f in graph.edges_of_node(v) {
                if f == e {
                    continue;
                }
                let slot = &mut self.slot[f as usize];
                if *slot == 0 {
                    self.neighbors.push((f, 0));
                    self.masks.resize(self.masks.len() + words, 0);
                    *slot = self.neighbors.len() as u32;
                }
                let index = *slot as usize - 1;
                self.neighbors[index].1 += 1;
                self.masks[index * words + word] |= bit;
            }
        }

        let Self {
            catalog,
            slot,
            neighbors,
            masks,
            row,
            touched,
        } = self;
        let size_e = members.len();
        for (a, &(j, w_ej)) in neighbors.iter().enumerate() {
            let members_j = graph.members(j);
            for &v in members_j {
                for &k in graph.edges_of_node(v) {
                    if row[k as usize] == 0 {
                        touched.push(k);
                    }
                    row[k as usize] += 1;
                }
            }
            let size_j = members_j.len();
            let mask_j = &masks[a * words..(a + 1) * words];

            for (b, &(k, w_ek)) in neighbors.iter().enumerate().skip(a + 1) {
                let w_jk = row[k as usize];
                let triple = if w_jk == 0 {
                    0
                } else {
                    mask_j
                        .iter()
                        .zip(&masks[b * words..(b + 1) * words])
                        .map(|(x, y)| (x & y).count_ones() as usize)
                        .sum()
                };
                if let Some(motif) = catalog.classify_from_intersections(
                    size_e,
                    size_j,
                    graph.members(k).len(),
                    w_ej as usize,
                    w_jk as usize,
                    w_ek as usize,
                    triple,
                ) {
                    raw.increment(motif);
                }
            }

            for k in touched.drain(..) {
                let w_jk = std::mem::take(&mut row[k as usize]);
                // Skip `e`, which is in every neighbour's row, and the
                // members of N(e): `e_j` itself and its case-1 partners.
                if k == e || slot[k as usize] != 0 {
                    continue;
                }
                if let Some(motif) = catalog.classify_from_intersections(
                    size_e,
                    size_j,
                    graph.members(k).len(),
                    w_ej as usize,
                    w_jk as usize,
                    0,
                    0,
                ) {
                    raw.increment(motif);
                }
            }
        }

        for &(f, _) in neighbors.iter() {
            slot[f as usize] = 0;
        }
        neighbors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_triple_with_weights;
    use crate::exact::mochy_e_per_edge;
    use crate::exact::tests::{random_hypergraph, word_boundary_hypergraph};
    use crate::sample::for_each_union_neighbor;
    use crate::sample::tests::duplicated_hypergraph;
    use mochy_projection::{project, ProjectedGraph};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// Test oracle: the instances containing `e_i`, each triple classified on
    /// its own by [`classify_triple_with_weights`], which intersects the
    /// three member lists by binary search. A pair `{j, k} ⊆ N(e_i)` is met
    /// from both ends, so only `j < k` is kept.
    fn oracle_edge(h: &Hypergraph, proj: &ProjectedGraph, i: EdgeId) -> MotifCounts {
        let catalog = MotifCatalog::new();
        let mut raw = MotifCounts::zero();
        let neighbors_i = proj.neighbors(i);
        for &(j, w_ij) in neighbors_i {
            for_each_union_neighbor(neighbors_i, proj.neighbors(j), i, j, |k, w_ik, w_jk| {
                if w_ik != 0 && j >= k {
                    return;
                }
                if let Some(motif) = classify_triple_with_weights(
                    h,
                    &catalog,
                    i,
                    j,
                    k,
                    w_ij as usize,
                    w_jk as usize,
                    w_ik as usize,
                ) {
                    raw.increment(motif);
                }
            });
        }
        raw
    }

    /// Removes about a third of the hyperedges of `h` (leaving tombstones)
    /// and inserts as many random ones, some of them copies of live edges.
    fn churned(h: &Hypergraph, seed: u64) -> DynamicHypergraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dynamic = DynamicHypergraph::from_hypergraph(h);
        let nodes = h.num_nodes() as NodeId;
        for e in h.edge_ids() {
            if rng.gen_bool(0.35) {
                assert!(dynamic.remove_edge(e));
            }
            if rng.gen_bool(0.35) {
                let members: Vec<NodeId> = if rng.gen_bool(0.2) {
                    h.edge(rng.gen_range(0..h.num_edges()) as EdgeId).to_vec()
                } else {
                    let size = rng.gen_range(1..=5);
                    (0..size).map(|_| rng.gen_range(0..nodes)).collect()
                };
                dynamic.insert_edge(members);
            }
        }
        dynamic
    }

    /// The star of every hyperedge equals two oracles: the per-triple
    /// classification and MoCHy-E's per-edge counts, and its degree is the
    /// projected one. After seeded churn, the star of every live hyperedge of
    /// a [`DynamicHypergraph`] equals MoCHy-E's per-edge counts of the live
    /// hypergraph, whose ids are the live ids in ascending order.
    #[test]
    fn star_matches_both_oracles_on_static_and_churned_hypergraphs() {
        let mut inputs: Vec<Hypergraph> = [0u64, 4, 8, 12]
            .into_iter()
            .map(|seed| random_hypergraph(seed, 14, 18, 5))
            .collect();
        inputs.push(word_boundary_hypergraph(1));
        inputs.push(duplicated_hypergraph(3));
        let catalog = MotifCatalog::new();
        let mut walk = StarWalk::new();
        for (n, h) in inputs.iter().enumerate() {
            let proj = project(h);
            let per_edge = mochy_e_per_edge(h, &proj);
            let mut closed_with_core = 0.0;
            for i in h.edge_ids() {
                let mut star = MotifCounts::zero();
                assert_eq!(walk.count(h, i, &mut star), proj.degree(i), "input {n}");
                assert_eq!(star, oracle_edge(h, &proj, i), "input {n}, hyperedge {i}");
                assert_eq!(star, per_edge[i as usize], "input {n}, hyperedge {i}");
                closed_with_core += (1..=26u8)
                    .filter(|&id| catalog.motif(id).has_triple_core)
                    .map(|id| star.get(id))
                    .sum::<f64>();
            }
            assert!(closed_with_core > 0.0, "input {n} has no triple core");

            let dynamic = churned(h, n as u64);
            let live = dynamic.to_hypergraph().unwrap();
            let live_proj = project(&live);
            let per_edge = mochy_e_per_edge(&live, &live_proj);
            for (index, e) in dynamic.live_edge_ids().enumerate() {
                let mut star = MotifCounts::zero();
                let degree = walk.count(&dynamic, e, &mut star);
                assert_eq!(degree, live_proj.degree(index as EdgeId), "input {n}");
                assert_eq!(star, per_edge[index], "input {n}, churned hyperedge {e}");
            }
        }
    }
}
