//! Classification of a single h-motif instance (Lemma 2 of the paper).
//!
//! Given three connected hyperedges, the motif they form is determined by the
//! emptiness of the seven Venn regions, which in turn follows from the three
//! hyperedge sizes, the three pairwise intersection sizes (hyperwedge weights
//! stored in the projected graph) and the triple intersection size
//! ([`MotifCatalog::classify_from_intersections`]).
//!
//! The functions here classify one triple at a time and compute its triple
//! intersection by scanning the smallest of the three hyperedges. They are
//! the public single-triple API and the samplers' test oracle; no counter
//! calls them. The counters classify many triples around one hyperedge or
//! hyperwedge at once and pass each triple's intersection sizes to the same
//! catalog call, so every route gives the same motif for the same triple.
//! Two of them classify only closed triples that way and tally open ones
//! by their [`open_key`], whose motifs [`open_motifs`] classifies once:
//! - the exact counting kernel (`exact::CentreTally`) classifies each
//!   triangle of the projected graph once, at its smallest member `e_i`,
//!   with the triple intersection read as a popcount over bitmasks of
//!   `e_i`'s nodes, and tallies every neighbour pair of `e_i` by open key;
//! - the hyperwedge sampling kernel (`sample::WedgeWalk`) counts, per
//!   sampled hyperwedge `∧_ij`, how many nodes of `e_i ∩ e_j` each
//!   hyperedge contains, and reads the triple intersection of each common
//!   neighbour of `e_i` and `e_j` from that counter. Every other neighbour
//!   of either is tallied by open key;
//! - the exact enumeration kernel (`exact::CentreWalk`) reads every `ω_jk`
//!   of a centre `e_i` from one sorted merge per neighbour and every triple
//!   intersection from the same bitmasks as the counting kernel;
//! - the star kernel (`star::StarWalk`), which MoCHy-A and the streaming
//!   engine share, counts each neighbour's row of a hyperedge `e` from the
//!   incidence lists and reads every triple intersection as a popcount over
//!   bitmasks of `e`'s nodes.

use mochy_hypergraph::{EdgeId, Hypergraph};
use mochy_motif::{MotifCatalog, MotifId};
use mochy_projection::ProjectedGraph;

/// The number of open keys: whether `ω_ij + ω_ik = |e_i|`, times how many of
/// `e_j`, `e_k` lie inside `e_i` (0, 1 or 2).
pub(crate) const OPEN_KEYS: usize = 6;

/// The open key of an open triple centred at `e_i`, whose other members
/// `e_j` and `e_k` are disjoint: `full` is `ω_ij + ω_ik = |e_i|`, and
/// `inside` is `[e_j ⊆ e_i] + [e_k ⊆ e_i]`.
#[inline]
pub(crate) fn open_key(full: bool, inside: usize) -> usize {
    usize::from(full) * 3 + inside
}

/// The motif of each open key. An open triple has `e_j ∩ e_k = ∅`, so its
/// seven Venn regions are empty or not by three bits: `e_i`'s private region
/// is empty iff `ω_ij + ω_ik = |e_i|`, `e_j`'s iff `e_j ⊆ e_i`, `e_k`'s iff
/// `e_k ⊆ e_i`. Each key is classified once, on a synthetic triple whose
/// leaves meet `e_i` in one node each.
pub(crate) fn open_motifs(catalog: &MotifCatalog) -> [Option<MotifId>; OPEN_KEYS] {
    std::array::from_fn(|key| {
        let (full, inside) = (key / 3 == 1, key % 3);
        let size_i = if full { 2 } else { 3 };
        let size_j = if inside >= 1 { 1 } else { 2 };
        let size_k = if inside >= 2 { 1 } else { 2 };
        catalog.classify_from_intersections(size_i, size_j, size_k, 1, 0, 1, 0)
    })
}

/// Classifies the instance `{e_i, e_j, e_k}`, returning its motif id, or
/// `None` when the three hyperedges are not a valid instance (not connected,
/// or at least two of them have identical node sets).
///
/// `w_ij`, `w_jk`, `w_ik` are the pairwise intersection sizes; pass 0 for
/// non-adjacent pairs. The triple intersection is computed from the
/// hypergraph in `O(min(|e_i|, |e_j|, |e_k|))` binary searches, exactly as
/// in Lemma 2.
#[allow(clippy::too_many_arguments)]
pub fn classify_triple_with_weights(
    hypergraph: &Hypergraph,
    catalog: &MotifCatalog,
    i: EdgeId,
    j: EdgeId,
    k: EdgeId,
    w_ij: usize,
    w_jk: usize,
    w_ik: usize,
) -> Option<MotifId> {
    let triple = if w_ij == 0 || w_jk == 0 || w_ik == 0 {
        // The triple intersection is contained in every pairwise one.
        0
    } else {
        hypergraph.triple_intersection_size(i, j, k)
    };
    catalog.classify_from_intersections(
        hypergraph.edge_size(i),
        hypergraph.edge_size(j),
        hypergraph.edge_size(k),
        w_ij,
        w_jk,
        w_ik,
        triple,
    )
}

/// Classifies the instance `{e_i, e_j, e_k}` looking the pairwise overlaps up
/// in the projected graph.
pub fn classify_triple(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    catalog: &MotifCatalog,
    i: EdgeId,
    j: EdgeId,
    k: EdgeId,
) -> Option<MotifId> {
    let w_ij = projected.weight(i, j).unwrap_or(0) as usize;
    let w_jk = projected.weight(j, k).unwrap_or(0) as usize;
    let w_ik = projected.weight(i, k).unwrap_or(0) as usize;
    classify_triple_with_weights(hypergraph, catalog, i, j, k, w_ij, w_jk, w_ik)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mochy_hypergraph::HypergraphBuilder;
    use mochy_motif::RegionCardinalities;
    use mochy_projection::project;

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
    fn figure2_instances_classify() {
        let h = figure2();
        let proj = project(&h);
        let catalog = MotifCatalog::new();
        // {e1, e2, e3}: all pairwise adjacent, common node L → closed, with core.
        let id = classify_triple(&h, &proj, &catalog, 0, 1, 2).unwrap();
        assert!(catalog.motif(id).is_closed());
        assert!(catalog.motif(id).has_triple_core);
        // {e1, e2, e4}: e2 and e4 disjoint → open.
        let id = classify_triple(&h, &proj, &catalog, 0, 1, 3).unwrap();
        assert!(catalog.motif(id).is_open());
        // {e1, e3, e4}: e3 and e4 disjoint → open.
        let id = classify_triple(&h, &proj, &catalog, 0, 2, 3).unwrap();
        assert!(catalog.motif(id).is_open());
        // {e2, e3, e4}: e4 disjoint from both e2 and e3 → not connected.
        assert!(classify_triple(&h, &proj, &catalog, 1, 2, 3).is_none());
    }

    #[test]
    fn classification_is_order_invariant() {
        let h = figure2();
        let proj = project(&h);
        let catalog = MotifCatalog::new();
        let reference = classify_triple(&h, &proj, &catalog, 0, 1, 2);
        for (a, b, c) in [
            (0u32, 1u32, 2u32),
            (0, 2, 1),
            (1, 0, 2),
            (1, 2, 0),
            (2, 0, 1),
            (2, 1, 0),
        ] {
            assert_eq!(classify_triple(&h, &proj, &catalog, a, b, c), reference);
        }
    }

    #[test]
    fn duplicate_hyperedges_rejected() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0u32, 1, 2])
            .with_edge([2u32, 3])
            .build()
            .unwrap();
        let proj = project(&h);
        let catalog = MotifCatalog::new();
        assert_eq!(classify_triple(&h, &proj, &catalog, 0, 1, 2), None);
    }

    #[test]
    fn agrees_with_direct_set_computation() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1, 2, 3])
            .with_edge([2u32, 3, 4, 5])
            .with_edge([3u32, 5, 6])
            .with_edge([7u32, 0])
            .build()
            .unwrap();
        let proj = project(&h);
        let catalog = MotifCatalog::new();
        for (i, j, k) in [(0u32, 1u32, 2u32), (0, 1, 3), (0, 2, 3), (1, 2, 3)] {
            let direct = RegionCardinalities::from_sorted_sets(h.edge(i), h.edge(j), h.edge(k));
            let expected = catalog.classify(&direct);
            assert_eq!(
                classify_triple(&h, &proj, &catalog, i, j, k),
                expected,
                "triple ({i},{j},{k})"
            );
        }
    }
}
