//! MoCHy-E: exact h-motif counting and enumeration (Algorithms 2 and 3).
//!
//! Both kernels keep Algorithm 2's attribution rule: an open instance
//! belongs to its unique centre, a closed one to its smallest member.
//!
//! - **Counting kernel** (`CentreTally`). Every exact count runs it:
//!   sequential, parallel, the sharded count ([`crate::shard`]) and through
//!   those the served and distributed `mochy-e`. An open instance centred at
//!   `e_i` is fixed by three bits that `N(i)` alone gives, so the kernel
//!   tallies the open h-motifs of `e_i` in closed form from a histogram of
//!   `N(i)`, in `O(|N(i)| + |e_i|)`. Per-triple work is left only for the
//!   triangles of the projected graph, each listed once at its smallest
//!   member by a scan of `N(j)` per neighbour `e_j` and tallied under a
//!   10-bit key of its Venn regions (Lemma 2). Each key is classified once
//!   per worker.
//! - **Enumeration kernel** (`CentreWalk`). It visits every neighbour pair
//!   of each centre and emits each instance. [`mochy_e_enumerate`] runs it,
//!   and the per-edge and variance statistics are built on that.

use std::ops::Range;

use mochy_hypergraph::{default_chunk_size, map_reduce_chunks, EdgeId, Hypergraph};
use mochy_motif::{MotifCatalog, MotifId, NUM_MOTIFS};
use mochy_projection::{ProjectedGraph, WeightedNeighbor};

use crate::classify::{closed_class, closed_key, open_key, open_motifs, CLOSED_KEYS, OPEN_KEYS};
use crate::count::MotifCounts;

/// Counts the instances of every h-motif exactly (Algorithm 2, MoCHy-E).
///
/// For every hyperedge `e_i` and every unordered pair `{e_j, e_k}` of its
/// neighbours in the projected graph, the instance `{e_i, e_j, e_k}` is
/// counted when either `e_j ∩ e_k = ∅` (the instance is open and `e_i` is its
/// unique "centre") or `i < min(j, k)` (each closed instance is attributed to
/// its smallest member), so each instance is counted exactly once. The
/// counting kernel gets the same counts without visiting every pair (see
/// `mochy_e_centres`).
pub fn mochy_e(hypergraph: &Hypergraph, projected: &ProjectedGraph) -> MotifCounts {
    mochy_e_centres(hypergraph, projected, 0..hypergraph.num_edges(), 1)
}

/// Parallel MoCHy-E (Section 3.4): [`mochy_e`] with the centres split over
/// `num_threads` workers, bit-identical to it for every thread count and
/// schedule (see `mochy_e_centres`).
pub fn mochy_e_parallel(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    num_threads: usize,
) -> MotifCounts {
    mochy_e_centres(
        hypergraph,
        projected,
        0..hypergraph.num_edges(),
        num_threads,
    )
}

/// MoCHy-E restricted to the centre hyperedges in `centres`: the instances
/// attributed to those centres, over the full projection `projected`. Since
/// every instance has exactly one centre, disjoint centre ranges count
/// disjoint instance sets, and ranges covering `0..|E|` count them all.
///
/// Worker threads claim blocks of `centres` from an atomic work queue (work
/// stealing, so skewed-degree datasets do not serialize on one heavy static
/// block), each with its own `CentreTally`. Each worker folds its tallies
/// into signed `i64`s per motif, because its triangles take closed pairs
/// back out of the open tallies of centres that another worker may have
/// tallied. The folds are summed once and converted to `f64` once. Every
/// one is an exact integer, so the output does not depend on the thread
/// count or the schedule.
pub(crate) fn mochy_e_centres(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    centres: Range<usize>,
    threads: usize,
) -> MotifCounts {
    let tallies = map_reduce_chunks(
        centres.len(),
        threads,
        default_chunk_size(centres.len(), threads),
        || CentreTally::new(hypergraph, projected, centres.clone()),
        |tally, block| {
            for offset in block {
                tally.visit((centres.start + offset) as EdgeId);
            }
        },
    );

    let mut totals = [0i64; NUM_MOTIFS];
    for tally in &tallies {
        for (total, count) in totals.iter_mut().zip(tally.motif_tallies()) {
            *total += count;
        }
    }
    MotifCounts::from_slice(&totals.map(|count| count as f64))
}

/// Sets bit `p` of neighbour `a`'s mask iff `N(i)[a]` contains the `p`-th
/// node of `e_i`, `⌈|e_i|/64⌉` words per neighbour; `slot[j]` must hold the
/// position of every neighbour `e_j` in `N(i)`. Then
/// `Σ popcount(mask_j & mask_k)` counts exactly the nodes of `e_i` in both
/// `e_j` and `e_k`: `|e_i ∩ e_j ∩ e_k|`. One pass over the incidence lists of
/// `e_i`'s nodes, the same work projection does for `e_i`.
fn fill_masks(
    hypergraph: &Hypergraph,
    i: EdgeId,
    num_neighbors: usize,
    slot: &[u32],
    masks: &mut Vec<u64>,
) {
    let members = hypergraph.edge(i);
    let words = members.len().div_ceil(64);
    masks.clear();
    masks.resize(num_neighbors * words, 0);
    for (position, &v) in members.iter().enumerate() {
        let (word, bit) = (position / 64, 1u64 << (position % 64));
        for &other in hypergraph.edges_of_node(v) {
            if other != i {
                masks[slot[other as usize] as usize * words + word] |= bit;
            }
        }
    }
}

/// `|e_i ∩ e_j ∩ e_k|` from the [`fill_masks`] masks of `e_j` and `e_k`.
/// Most hyperedges have at most 64 nodes, and one `AND` and popcount of a
/// single word costs less than the general loop.
#[inline]
fn triple_intersection(mask_j: &[u64], mask_k: &[u64]) -> usize {
    match (mask_j, mask_k) {
        ([x], [y]) => (x & y).count_ones() as usize,
        _ => mask_j
            .iter()
            .zip(mask_k)
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum(),
    }
}

/// One worker's state for the counting kernel over the centres of a span
/// `[s, e)`: an `|E|`-long slot array, reusable per-centre buffers, and the
/// worker's signed tallies. Visiting a centre allocates nothing once the
/// buffers have grown.
///
/// **Method.** Visiting centre `e_i`:
/// 1. *Open tally.* Every unordered pair of `N(i)` is tallied under its open
///    key ([`open_key`]) from a histogram of `N(i)` by `(ω_ij, [e_j ⊆ e_i])`:
///    the pairs with `ω_ij + ω_ik = |e_i|` are a two-sum over the histogram,
///    and the others are the complement of the totals by subset count.
/// 2. *Triangles whose smallest member is `e_i`.* For each `j = N(i)[a] > i`,
///    a scan of `N(j)` from its partition point for `N(i)[a+1]` up to
///    `max N(i)` finds every `k > j` in `N(i)`. Each triangle adds one to its
///    [`closed_key`]. [`CentreTally::motif_tallies`] decodes each key once
///    ([`closed_class`]): its triangles add their closed motif and leave the
///    open tally of each member in `[s, e)`, where the pair of the other two
///    members was tallied as open. A member at or past `e` keeps its tally,
///    so the keys are tallied apart by how many of `e_j`, `e_k` lie there.
/// 3. *Boundary scan, only when `s > 0`.* For each `j = N(i)[a] < s`, the
///    same scan finds the triangles `{e_i, e_j, e_k}` with `k > j`. Their
///    smallest member lies before the span, so no centre of the span lists
///    them in step 2; the pair `{e_j, e_k}` leaves `e_i`'s open tally only.
///
/// Every closed pair of a span centre thus leaves its open tally exactly
/// once: through the key of step 2 of the triangle's smallest member when
/// the pair's smaller member is in the span, in step 3 otherwise. The span's
/// tallies therefore hold exactly the instances centred in it.
///
/// **Cost.** Steps 1 and 3 per centre: `O(|N(i)| + |e_i|)` and the scans of
/// the neighbours before the span. Step 2: one scan per later neighbour,
/// and per triangle the [`fill_masks`] popcount and one key tally. The masks
/// are filled once per centre, on its first triangle. Per worker, at most
/// `3 · 2^10` keys are decoded, once each.
struct CentreTally<'g> {
    hypergraph: &'g Hypergraph,
    projected: &'g ProjectedGraph,
    /// The span `[s, e)` whose centres this worker may be handed.
    span: Range<usize>,
    /// `slot[j]` is the position of `e_j` in the current centre's
    /// neighbourhood. `k` is a neighbour iff `slot[k] < |N(i)|` and
    /// `N(i)[slot[k]]` is `k`, so the array is never cleared.
    slot: Vec<u32>,
    /// The current centre's [`fill_masks`] masks, once it has a triangle.
    masks: Vec<u64>,
    /// `|e_j|` for each neighbour, in `N(i)` order.
    sizes: Vec<usize>,
    /// `[e_j ⊆ e_i]` for each neighbour, in `N(i)` order.
    inside: Vec<usize>,
    /// The neighbours of the current centre by `ω_ij`, then by
    /// `[e_j ⊆ e_i]`.
    histogram: Vec<[i64; 2]>,
    /// Neighbour pairs by [`open_key`], closed ones included.
    open: [i64; OPEN_KEYS],
    /// Triangles by [`closed_key`], in one table per number of members at
    /// or past the span end (0, 1: `e_k`, or 2: `e_j` and `e_k`).
    closed: Box<[[i64; CLOSED_KEYS]; 3]>,
}

impl<'g> CentreTally<'g> {
    fn new(hypergraph: &'g Hypergraph, projected: &'g ProjectedGraph, span: Range<usize>) -> Self {
        Self {
            hypergraph,
            projected,
            span,
            slot: vec![0; hypergraph.num_edges()],
            masks: Vec::new(),
            sizes: Vec::new(),
            inside: Vec::new(),
            histogram: Vec::new(),
            open: [0; OPEN_KEYS],
            closed: Box::new([[0; CLOSED_KEYS]; 3]),
        }
    }

    /// Tallies centre `i`, which must lie in the span (see the type docs).
    fn visit(&mut self, i: EdgeId) {
        let (hypergraph, projected) = (self.hypergraph, self.projected);
        let neighbors = projected.neighbors(i);
        let n = neighbors.len();
        if n < 2 {
            return;
        }
        let size_i = hypergraph.edge_size(i);

        // 1. Open tally.
        self.sizes.clear();
        self.inside.clear();
        self.histogram.clear();
        self.histogram.resize(size_i + 1, [0; 2]);
        let mut by_inside = [0i64; 2];
        for (position, &(j, w_ij)) in neighbors.iter().enumerate() {
            self.slot[j as usize] = position as u32;
            let size_j = hypergraph.edge_size(j);
            let inside = usize::from(w_ij as usize == size_j);
            self.histogram[w_ij as usize][inside] += 1;
            by_inside[inside] += 1;
            self.sizes.push(size_j);
            self.inside.push(inside);
        }
        let pairs = |count: i64| count * (count - 1) / 2;
        let all = [
            pairs(by_inside[0]),
            by_inside[0] * by_inside[1],
            pairs(by_inside[1]),
        ];
        let mut full = [0i64; 3];
        for w in 1..=size_i / 2 {
            let [x0, x1] = self.histogram[w];
            if 2 * w == size_i {
                full[0] += pairs(x0);
                full[1] += x0 * x1;
                full[2] += pairs(x1);
            } else {
                let [y0, y1] = self.histogram[size_i - w];
                full[0] += x0 * y0;
                full[1] += x0 * y1 + x1 * y0;
                full[2] += x1 * y1;
            }
        }
        for inside in 0..3 {
            self.open[open_key(true, inside)] += full[inside];
            self.open[open_key(false, inside)] += all[inside] - full[inside];
        }

        // 2. Triangles whose smallest member is `e_i`.
        let end = self.span.end;
        let words = size_i.div_ceil(64);
        let mut masks_filled = false;
        for a in neighbors.partition_point(|&(j, _)| j < i)..n - 1 {
            let (j, w_ij) = neighbors[a];
            let (w_ij, size_j) = (w_ij as usize, self.sizes[a]);
            let j_past = usize::from(j as usize >= end);
            for (p, w_jk) in later_shared(neighbors, a, &self.slot, projected.neighbors(j)) {
                if !masks_filled {
                    fill_masks(hypergraph, i, n, &self.slot, &mut self.masks);
                    masks_filled = true;
                }
                let (k, w_ik) = neighbors[p];
                let triple = triple_intersection(
                    &self.masks[a * words..(a + 1) * words],
                    &self.masks[p * words..(p + 1) * words],
                );
                let key = closed_key(
                    [size_i, size_j, self.sizes[p]],
                    w_ij,
                    w_jk,
                    w_ik as usize,
                    triple,
                );
                self.closed[j_past + usize::from(k as usize >= end)][key] += 1;
            }
        }

        // 3. Boundary scan: triangles whose smallest member precedes the span.
        let before = neighbors.partition_point(|&(j, _)| (j as usize) < self.span.start);
        for a in 0..before.min(n - 1) {
            let (j, w_ij) = neighbors[a];
            let target = size_i - w_ij as usize;
            let inside_j = self.inside[a];
            for (p, _) in later_shared(neighbors, a, &self.slot, projected.neighbors(j)) {
                let key = open_key(neighbors[p].1 as usize == target, inside_j + self.inside[p]);
                self.open[key] -= 1;
            }
        }
    }

    /// The worker's tallies by motif id − 1. Each triangle key with a
    /// non-zero tally is decoded once ([`closed_class`]): it adds its closed
    /// motif and takes its pairs back out of the open tallies of the members
    /// before the span end. Each open key's net tally then adds its motif.
    fn motif_tallies(&self) -> [i64; NUM_MOTIFS] {
        let catalog = MotifCatalog::shared();
        let mut totals = [0i64; NUM_MOTIFS];
        let mut open = self.open;
        for (past, closed) in self.closed.iter().enumerate() {
            for (key, &count) in closed.iter().enumerate().filter(|&(_, &count)| count != 0) {
                let (motif, members) = closed_class(catalog, key);
                if let Some(motif) = motif {
                    totals[(motif - 1) as usize] += count;
                }
                for &member in &members[..3 - past] {
                    open[member] -= count;
                }
            }
        }
        for (&motif, open) in open_motifs(catalog).iter().zip(&open) {
            if let Some(motif) = motif {
                totals[(motif - 1) as usize] += open;
            }
        }
        totals
    }
}

/// The common neighbours `e_k` of `e_i` and `e_j = N(i)[a]` with
/// `k > j`, as each one's position `p` in `N(i)` and `ω_jk`: one scan of
/// `N(j)` (`row`) from its partition point for `N(i)[a+1]` up to `max N(i)`,
/// testing membership through `slot` (see [`CentreTally`]). `a` must be
/// below `|N(i)| − 1`.
fn later_shared<'a>(
    neighbors: &'a [WeightedNeighbor],
    a: usize,
    slot: &'a [u32],
    row: &'a [WeightedNeighbor],
) -> impl Iterator<Item = (usize, usize)> + 'a {
    let (next, last) = (neighbors[a + 1].0, neighbors[neighbors.len() - 1].0);
    row[row.partition_point(|&(id, _)| id < next)..]
        .iter()
        .take_while(move |&&(k, _)| k <= last)
        .filter_map(move |&(k, w_jk)| {
            let p = slot[k as usize] as usize;
            (p < neighbors.len() && neighbors[p].0 == k).then_some((p, w_jk as usize))
        })
}

/// Enumerates every h-motif instance exactly once (Algorithm 3,
/// MoCHy-E-ENUM), invoking `visit(e_i, e_j, e_k, motif)` per instance, with
/// `e_i` the centre the instance is attributed to and `j < k`. It visits
/// every neighbour pair of every centre, `Σ_i C(|N(i)|, 2)` of them, where
/// counting ([`mochy_e`]) visits only the triangles.
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

/// The enumeration kernel, one per [`mochy_e_enumerate`] call: an
/// `|E|`-long slot array and a reusable mask buffer, so that
/// visiting a centre allocates nothing once the buffers have grown.
///
/// **Cost.** Visiting centre `e_i` costs
/// `Σ_{v∈e_i} |E_v| + Σ_a (|N(i)| − a + |N(j_a)|)` steps, where
/// `j_a = N(i)[a]`: one [`fill_masks`] pass plus one sorted merge per
/// neighbour. Each pair whose other two members overlap adds `⌈|e_i|/64⌉`
/// word `AND`s and popcounts.
///
/// **Agreement with counting.** The walk visits the pairs `(j, k)` of `N(i)`
/// in the order of the per-pair loop of Algorithm 2, reads each `ω_jk` from
/// the same row of the same projected graph that a lookup would search, and
/// reads each triple intersection from the same masks as the counting
/// kernel. It keeps the same attribution rule, and its Lemma 2
/// classification ([`MotifCatalog::classify_from_intersections`]) is the
/// motif the counting kernel's closed key decodes to for every closed
/// triple ([`closed_class`]). So it emits exactly the instances
/// [`mochy_e`] counts, with the same motifs.
struct CentreWalk<'g> {
    hypergraph: &'g Hypergraph,
    projected: &'g ProjectedGraph,
    catalog: &'static MotifCatalog,
    /// `slot[j]` is the position of `e_j` in the current centre's
    /// neighbourhood. Only the current centre's neighbours are ever read, so
    /// the array is overwritten per centre and never cleared.
    slot: Vec<u32>,
    /// The current centre's [`fill_masks`] masks.
    masks: Vec<u64>,
}

impl<'g> CentreWalk<'g> {
    /// A walk over `hypergraph` and its full eager projection `projected`.
    fn new(hypergraph: &'g Hypergraph, projected: &'g ProjectedGraph) -> Self {
        Self {
            hypergraph,
            projected,
            catalog: MotifCatalog::shared(),
            slot: vec![0; hypergraph.num_edges()],
            masks: Vec::new(),
        }
    }

    /// Visits every instance attributed to centre hyperedge `i` exactly once,
    /// calling `emit(motif, j, k)` with `j < k`.
    ///
    /// 1. [`fill_masks`] gives each neighbour's mask: the positions of `e_i`
    ///    it contains.
    /// 2. For each `j = N(i)[a]`, one sorted merge of `N(i)[a+1..]` against
    ///    `N(j)`, started at `N(j)`'s partition point for `N(i)[a+1]`, gives
    ///    every `ω_jk` (0 when `e_j` and `e_k` are disjoint).
    /// 3. A closed triple's `|e_i ∩ e_j ∩ e_k|` is
    ///    `Σ popcount(mask_j & mask_k)`.
    ///
    /// Open triples (`ω_jk = 0`) are emitted at their unique centre `e_i`;
    /// closed ones only when `e_i` is their smallest member. `N(i)` is sorted,
    /// so `j < k` and the closed test is `j < i`.
    fn visit<F>(&mut self, i: EdgeId, mut emit: F)
    where
        F: FnMut(MotifId, EdgeId, EdgeId),
    {
        let (hypergraph, projected) = (self.hypergraph, self.projected);
        let neighbors = projected.neighbors(i);
        if neighbors.len() < 2 {
            return;
        }
        for (position, &(j, _)) in neighbors.iter().enumerate() {
            self.slot[j as usize] = position as u32;
        }
        fill_masks(hypergraph, i, neighbors.len(), &self.slot, &mut self.masks);

        let size_i = hypergraph.edge_size(i);
        let words = size_i.div_ceil(64);
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
                    triple_intersection(mask_j, mask_k)
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
pub(crate) mod tests {
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
    /// straddle the 64-bit word boundaries of both kernels' masks, mixed
    /// in random id order with small ones. All edges draw from 160 nodes, so
    /// the large edges overlap one another heavily.
    pub(crate) fn word_boundary_hypergraph(seed: u64) -> Hypergraph {
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

    /// A random hypergraph of 3–18 hyperedges over 4–14 nodes in which each
    /// hyperedge after the first repeats an earlier one with probability
    /// 0.15. Sizes of 1–6 give even centres, where the closed form's two-sum
    /// meets its middle case `ω = |e_i|/2`.
    pub(crate) fn random_hypergraph_with_duplicates(seed: u64) -> Hypergraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = rng.gen_range(4..=14u32);
        let mut edges: Vec<Vec<u32>> = Vec::new();
        for _ in 0..rng.gen_range(3..=18) {
            let edge = if !edges.is_empty() && rng.gen_bool(0.15) {
                edges[rng.gen_range(0..edges.len())].clone()
            } else {
                let size = rng.gen_range(1..=6);
                (0..size).map(|_| rng.gen_range(0..nodes)).collect()
            };
            edges.push(edge);
        }
        let mut builder = HypergraphBuilder::new();
        for edge in edges {
            builder.add_edge(edge);
        }
        builder.build().unwrap()
    }

    #[test]
    fn closed_form_matches_brute_force_with_duplicate_hyperedges() {
        for seed in 0..200u64 {
            let h = random_hypergraph_with_duplicates(seed);
            let proj = project(&h);
            let brute = brute_force_counts(&h);
            for threads in 1..=3 {
                assert_eq!(
                    mochy_e_parallel(&h, &proj, threads),
                    brute,
                    "seed {seed}, {threads} threads"
                );
            }
            let mut instances = Vec::new();
            mochy_e_enumerate(&h, &proj, |i, _, _, motif| instances.push((i, motif)));
            for shards in [2, 3, 5] {
                let threads = 1 + seed as usize % 3;
                for partial in crate::shard::count_sharded(&h, &proj, shards, threads) {
                    let mut expected = MotifCounts::zero();
                    for &(centre, motif) in &instances {
                        if partial.edges.contains(&(centre as usize)) {
                            expected.increment(motif);
                        }
                    }
                    assert_eq!(
                        partial.counts, expected,
                        "seed {seed}, K={shards}, span {:?}",
                        partial.edges
                    );
                }
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
