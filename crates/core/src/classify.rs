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
//! hyperwedge at once, from the same seven numbers, so every route gives the
//! same motif for the same triple. Two of them tally open triples by their
//! `open_key`, whose motifs `open_motifs` classifies once:
//! - the exact counting kernel (`exact::CentreTally`) tallies every
//!   neighbour pair of a centre `e_i` by open key, and each triangle of the
//!   projected graph once, at its smallest member, by its `closed_key`.
//!   A branch-free scan of `N(j)` per later neighbour `e_j` collects the
//!   triangles into a buffer first, and a tight loop keys them, with the
//!   triple intersection read as a popcount over bitmasks of `e_i`'s
//!   nodes. `closed_class` decodes each key once per worker into its
//!   closed motif and the open pairs the triangle gives back;
//! - the hyperwedge sampling kernel (`sample::WedgeWalk`) counts, per
//!   sampled hyperwedge `∧_ij`, how many nodes of `e_i ∩ e_j` each
//!   hyperedge contains, and reads the triple intersection of each common
//!   neighbour of `e_i` and `e_j` from that counter for its Lemma 2
//!   classification ([`MotifCatalog::classify_from_intersections`]). Every
//!   other neighbour of either is tallied by open key.
//!
//! Two more classify each triple they visit through that catalog call:
//! - the exact enumeration kernel (`exact::CentreWalk`) reads every `ω_jk`
//!   of a centre `e_i` from one sorted merge per neighbour and every triple
//!   intersection from the same bitmasks as the counting kernel;
//! - the star kernel (`star::StarWalk`), which MoCHy-A and the streaming
//!   engine share, counts each neighbour's row of a hyperedge `e` from the
//!   incidence lists and reads every triple intersection as a popcount over
//!   bitmasks of `e`'s nodes.

use mochy_hypergraph::{EdgeId, Hypergraph};
use mochy_motif::pattern::{
    only_bit, pair_bit, BIT_AB, BIT_ABC, BIT_A_ONLY, BIT_BC, BIT_B_ONLY, BIT_CA, BIT_C_ONLY,
};
use mochy_motif::{MotifCatalog, MotifId, Pattern};
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

/// The number of closed keys: seven region bits and three "full" bits.
pub(crate) const CLOSED_KEYS: usize = 1 << 10;

/// The closed key of a triangle `(e_i, e_j, e_k)` of the projected graph:
/// Lemma 2's seven region-emptiness bits (the [`Pattern`] bits, `e_i`, `e_j`,
/// `e_k` in positions a, b, c), then at bit `7 + x` whether member `x`'s
/// pairwise overlaps cover it, `ω_xy + ω_xz = |e_x|`. That holds exactly
/// when `e_x`'s private region has `|e_i ∩ e_j ∩ e_k|` nodes, which the
/// pattern alone does not tell. The arguments are the three sizes, the
/// pairwise overlaps and the triple intersection `triple`.
#[inline]
pub(crate) fn closed_key(
    [size_i, size_j, size_k]: [usize; 3],
    w_ij: usize,
    w_jk: usize,
    w_ik: usize,
    triple: usize,
) -> usize {
    let private_i = size_i + triple - w_ij - w_ik;
    let private_j = size_j + triple - w_ij - w_jk;
    let private_k = size_k + triple - w_ik - w_jk;
    usize::from(private_i > 0) << BIT_A_ONLY
        | usize::from(private_j > 0) << BIT_B_ONLY
        | usize::from(private_k > 0) << BIT_C_ONLY
        | usize::from(w_ij > triple) << BIT_AB
        | usize::from(w_jk > triple) << BIT_BC
        | usize::from(w_ik > triple) << BIT_CA
        | usize::from(triple > 0) << BIT_ABC
        | usize::from(private_i == triple) << 7
        | usize::from(private_j == triple) << 8
        | usize::from(private_k == triple) << 9
}

/// Decodes a [`closed_key`]: the triangle's closed motif (`None` when two of
/// its hyperedges are duplicates), and for each member `e_x`, in the order
/// `e_i`, `e_j`, `e_k`, the [`open_key`] under which `e_x`'s open tally
/// counted the pair of the other two. `[e_y ⊆ e_x]` holds iff the pattern
/// leaves both regions of `e_y` outside `e_x` empty: `e_y`'s private region
/// and its overlap with the third member alone.
pub(crate) fn closed_class(catalog: &MotifCatalog, key: usize) -> (Option<MotifId>, [usize; 3]) {
    let pattern = Pattern::from_bits((key & 0x7f) as u8);
    let inside = |y: usize, z: usize| {
        usize::from(!pattern.region(only_bit(y)) && !pattern.region(pair_bit(y, z)))
    };
    let open = std::array::from_fn(|x| {
        let (y, z) = ((x + 1) % 3, (x + 2) % 3);
        open_key(key >> (7 + x) & 1 == 1, inside(y, z) + inside(z, y))
    });
    (catalog.classify_pattern(pattern), open)
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

    /// Every consistent closed triple with sizes 1–4: every choice of the
    /// three pairwise overlaps (each at least 1) and of the triple
    /// intersection that leaves no Venn region negative, duplicate
    /// hyperedges included. Its closed key decodes to Lemma 2's motif and,
    /// for each member, to the open key of the pair of the other two.
    #[test]
    fn closed_keys_decode_to_the_motif_and_each_members_open_key() {
        let catalog = MotifCatalog::shared();
        let mut motifs = std::collections::BTreeSet::new();
        let mut duplicates = 0;
        for sizes in (0..64).map(|s| [1 + s % 4, 1 + s / 4 % 4, 1 + s / 16]) {
            let [size_i, size_j, size_k] = sizes;
            for w_ij in 1..=size_i.min(size_j) {
                for w_jk in 1..=size_j.min(size_k) {
                    for w_ik in 1..=size_i.min(size_k) {
                        for triple in 0..=w_ij.min(w_jk).min(w_ik) {
                            if RegionCardinalities::from_intersections(
                                size_i, size_j, size_k, w_ij, w_jk, w_ik, triple,
                            )
                            .is_none()
                            {
                                continue;
                            }
                            let (motif, open) =
                                closed_class(catalog, closed_key(sizes, w_ij, w_jk, w_ik, triple));
                            let expected = catalog.classify_from_intersections(
                                size_i, size_j, size_k, w_ij, w_jk, w_ik, triple,
                            );
                            let case = (sizes, w_ij, w_jk, w_ik, triple);
                            assert_eq!(motif, expected, "{case:?}");
                            if let Some(motif) = motif {
                                motifs.insert(motif);
                            } else {
                                duplicates += 1;
                            }
                            let overlap = [[0, w_ij, w_ik], [w_ij, 0, w_jk], [w_ik, w_jk, 0]];
                            for (x, &open) in open.iter().enumerate() {
                                let (y, z) = ((x + 1) % 3, (x + 2) % 3);
                                let (w_xy, w_xz) = (overlap[x][y], overlap[x][z]);
                                let inside =
                                    usize::from(w_xy == sizes[y]) + usize::from(w_xz == sizes[z]);
                                assert_eq!(
                                    open,
                                    open_key(w_xy + w_xz == sizes[x], inside),
                                    "member {x} of {case:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(motifs.iter().all(|&motif| catalog.motif(motif).is_closed()));
        assert_eq!(motifs.len(), catalog.closed_motif_ids().len());
        assert!(duplicates > 0);
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
