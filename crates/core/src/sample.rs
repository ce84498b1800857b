//! MoCHy-A and MoCHy-A+: approximate h-motif counting by hyperedge and
//! hyperwedge sampling (Algorithms 4 and 5).
//!
//! Both estimators are unbiased (Theorems 2 and 4); MoCHy-A+ has lower
//! variance for the same expected work (Section 3.3), which Figure 8 of the
//! paper and `mochy-exp fig8` of this repository confirm.
//!
//! MoCHy-A counts the instances around each sampled hyperedge through the
//! star kernel of `crate::star`, which the streaming engine shares; it
//! reads member and incidence lists only, never the projected graph.
//! Every hyperwedge sampler — parallel and sequential MoCHy-A+ (and through
//! the latter adaptive sampling) and on-the-fly MoCHy-A+
//! ([`crate::onthefly`]) — counts the instances containing each sampled
//! hyperwedge `∧_ij` through one kernel, `WedgeWalk`. A neighbour of only
//! one of `e_i`, `e_j` forms an open triple centred at the other, whose
//! motif three bits fix (its open key, `classify::open_key`), so
//! the kernel tallies those by key. Only the common neighbours of `e_i` and
//! `e_j` are classified one by one, each with its `|e_i ∩ e_j ∩ e_k|` read
//! from a per-hyperwedge counter of shared nodes.

use mochy_hypergraph::{default_chunk_size, map_reduce_chunks, EdgeId, Hypergraph};
use mochy_motif::{MotifCatalog, MotifId};
use mochy_projection::{ProjectedGraph, WeightedNeighbor};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::classify::{open_key, open_motifs, OPEN_KEYS};
use crate::count::MotifCounts;
use crate::star::StarWalk;

/// Deterministic per-sample RNG: sample `index` under `seed` always draws
/// from the same stream no matter which worker thread claims it, which makes
/// sampled counts identical for every thread count (the raw per-motif
/// contributions are integer-valued `f64` additions, so merge order cannot
/// change the result either).
fn sample_rng(seed: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// MoCHy-A (Algorithm 4): samples `s` hyperedges uniformly at random with
/// replacement, counts the h-motif instances containing each sample, and
/// rescales by `|E| / (3s)` to obtain unbiased estimates of every `M[t]`.
/// The public entry points are [`mochy_a_parallel`] and
/// [`crate::engine::Method::EdgeSample`], which derive the RNG from a seed.
#[cfg(test)]
fn mochy_a_impl<R: Rng + ?Sized>(
    hypergraph: &Hypergraph,
    num_samples: usize,
    rng: &mut R,
) -> MotifCounts {
    let mut walk = StarWalk::new();
    let mut raw = MotifCounts::zero();
    let num_edges = hypergraph.num_edges();
    if num_edges == 0 || num_samples == 0 {
        return raw;
    }
    for _ in 0..num_samples {
        let sample = rng.gen_range(0..num_edges) as EdgeId;
        walk.count(hypergraph, sample, &mut raw);
    }
    raw.scale(num_edges as f64 / (3.0 * num_samples as f64));
    raw
}

/// Parallel MoCHy-A: sample indices are claimed in blocks from an atomic
/// work queue by `num_threads` workers, and each sample draws from its own
/// RNG stream derived from `(seed, index)` — see `sample_rng` — so the
/// estimate is identical for every thread count (including 1).
pub fn mochy_a_parallel(
    hypergraph: &Hypergraph,
    num_samples: usize,
    num_threads: usize,
    seed: u64,
) -> MotifCounts {
    let num_edges = hypergraph.num_edges();
    if num_edges == 0 || num_samples == 0 {
        return MotifCounts::zero();
    }
    let partials = map_reduce_chunks(
        num_samples,
        num_threads,
        default_chunk_size(num_samples, num_threads.max(1)),
        || (StarWalk::new(), MotifCounts::zero()),
        |(walk, raw), range| {
            for index in range {
                let mut rng = sample_rng(seed, index);
                let sample = rng.gen_range(0..num_edges) as EdgeId;
                walk.count(hypergraph, sample, raw);
            }
        },
    );

    let mut counts = MotifCounts::zero();
    for (_, partial) in &partials {
        counts.merge(partial);
    }
    counts.scale(num_edges as f64 / (3.0 * num_samples as f64));
    counts
}

/// MoCHy-A+ (Algorithm 5): samples `r` hyperwedges uniformly at random with
/// replacement, counts the instances containing each sampled hyperwedge, and
/// rescales open motifs by `|∧| / (2r)` and closed motifs by `|∧| / (3r)`.
/// `walk` and `sampler` belong to `projected` and its hypergraph; the caller
/// builds them once, so repeated runs (the batches of adaptive sampling)
/// share them. The public entry points are [`mochy_a_plus_parallel`] and
/// [`crate::engine::Method::WedgeSample`], which derive the RNG from a seed.
pub(crate) fn mochy_a_plus_impl<R: Rng + ?Sized>(
    walk: &mut WedgeWalk<'_>,
    sampler: &WedgeSampler,
    projected: &ProjectedGraph,
    num_samples: usize,
    rng: &mut R,
) -> MotifCounts {
    let mut raw = MotifCounts::zero();
    if sampler.num_hyperwedges() == 0 || num_samples == 0 {
        return raw;
    }
    for _ in 0..num_samples {
        let (i, offset) = sampler.sample(rng);
        walk.count_wedge(projected, i, offset, &mut raw);
    }
    rescale_wedge_estimates(
        walk.catalog,
        &mut raw,
        sampler.num_hyperwedges(),
        num_samples,
    );
    raw
}

/// Parallel MoCHy-A+: like [`mochy_a_parallel`], sample indices are pulled
/// from an atomic chunked work queue and each sample draws from its own
/// `(seed, index)`-derived RNG stream, so the estimate is identical for
/// every thread count (including 1).
pub fn mochy_a_plus_parallel(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    num_samples: usize,
    num_threads: usize,
    seed: u64,
) -> MotifCounts {
    let sampler = WedgeSampler::new(projected);
    if sampler.num_hyperwedges() == 0 || num_samples == 0 {
        return MotifCounts::zero();
    }
    let sampler_ref = &sampler;
    let partials = map_reduce_chunks(
        num_samples,
        num_threads,
        default_chunk_size(num_samples, num_threads.max(1)),
        || (WedgeWalk::new(hypergraph), MotifCounts::zero()),
        |(walk, raw), range| {
            for index in range {
                let mut rng = sample_rng(seed, index);
                let (i, offset) = sampler_ref.sample(&mut rng);
                walk.count_wedge(projected, i, offset, raw);
            }
        },
    );

    let mut counts = MotifCounts::zero();
    for (_, partial) in &partials {
        counts.merge(partial);
    }
    rescale_wedge_estimates(
        MotifCatalog::shared(),
        &mut counts,
        sampler.num_hyperwedges(),
        num_samples,
    );
    counts
}

/// Applies the rescaling of lines 6–10 of Algorithm 5.
pub(crate) fn rescale_wedge_estimates(
    catalog: &MotifCatalog,
    counts: &mut MotifCounts,
    num_hyperwedges: usize,
    num_samples: usize,
) {
    let open_factor = num_hyperwedges as f64 / (2.0 * num_samples as f64);
    let closed_factor = num_hyperwedges as f64 / (3.0 * num_samples as f64);
    counts.scale_motifs(&catalog.open_motif_ids(), open_factor);
    counts.scale_motifs(&catalog.closed_motif_ids(), closed_factor);
}

/// Uniform sampler over the hyperwedges of a projected graph.
///
/// Every hyperwedge appears exactly twice among the directed adjacency
/// entries, so sampling a directed entry uniformly yields a uniform
/// hyperwedge.
pub(crate) struct WedgeSampler {
    /// Prefix sums of projected-graph degrees; length `num_edges + 1`.
    prefix: Vec<u64>,
}

impl WedgeSampler {
    /// Builds a sampler over the hyperwedges of `projected`.
    pub(crate) fn new(projected: &ProjectedGraph) -> Self {
        let mut prefix = Vec::with_capacity(projected.num_edges() + 1);
        prefix.push(0u64);
        for e in 0..projected.num_edges() {
            let previous = *prefix.last().unwrap();
            prefix.push(previous + projected.degree(e as EdgeId) as u64);
        }
        Self { prefix }
    }

    /// Number of hyperwedges `|∧|`.
    pub(crate) fn num_hyperwedges(&self) -> usize {
        (*self.prefix.last().unwrap() / 2) as usize
    }

    /// Samples a hyperwedge uniformly at random, returning it as
    /// `(i, offset)`: `i` is the endpoint whose adjacency entry was drawn and
    /// `offset` is the position of the other endpoint `e_j` in `N(e_i)`.
    /// Requires at least one hyperwedge; call sites guard for that.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (EdgeId, usize) {
        let total = *self.prefix.last().unwrap();
        debug_assert!(total > 0, "cannot sample from an empty hyperwedge set");
        let target = rng.gen_range(0..total);
        // Last index whose prefix value is ≤ target (robust to zero-degree
        // hyperedges, which create repeated prefix values).
        let i = self.prefix.partition_point(|&p| p <= target) - 1;
        let offset = (target - self.prefix[i]) as usize;
        (i as EdgeId, offset)
    }
}

/// One worker's state for the per-sample work of Algorithm 5: two
/// `|E|`-long arrays (a shared-node counter and a slot per neighbour of
/// `e_i`), the list of counter entries the current hyperwedge touched, and
/// the motif of each open key, so that counting a hyperwedge allocates
/// nothing once the list has grown. Every hyperwedge sampler builds one per
/// worker (sequential MoCHy-A+ one per run, across adaptive batches) and
/// counts each hyperwedge through [`WedgeWalk::count_pair`]: the sampling
/// counterpart of [`crate::exact`]'s `CentreTally`.
///
/// **Cost.** Counting hyperwedge `∧_ij` costs one merge of `e_i` and `e_j`,
/// `Σ_{v∈e_i∩e_j} |E_v|` counter increments, two passes over `N(i)` and
/// one over `N(j)`, one reset per touched entry, and one Lemma 2
/// classification per common neighbour of `e_i` and `e_j`. A neighbour of
/// only one of them costs one open key and one increment. A common `e_k`
/// accounts for `|e_i ∩ e_j ∩ e_k| ≤ min(|e_i|, |e_j|, |e_k|)` of the
/// counter increments, where a per-triple intersection pays that many pairs
/// of binary searches.
///
/// **Bit-identity.** Once the shared nodes are counted, `shared[k]` is the
/// number of nodes of `e_i ∩ e_j` that `e_k` contains: `|e_i ∩ e_j ∩ e_k|`.
/// A common neighbour therefore reaches the Lemma 2 classification
/// ([`MotifCatalog::classify_from_intersections`]) with the seven numbers
/// that [`crate::classify::classify_triple_with_weights`] computes. Any
/// other `e_k` of `N(e_i) ∪ N(e_j)` is disjoint from one of `e_i`, `e_j`,
/// so its triple is open, centred at the other, and its open key's motif is
/// the one Lemma 2 gives ([`open_motifs`]). A sample thus adds to each motif
/// the integer number of its instances there, which is what one `+1.0` per
/// triple added: every count stays an exact integer in `f64`, whatever the
/// order of the additions.
pub(crate) struct WedgeWalk<'g> {
    hypergraph: &'g Hypergraph,
    catalog: &'static MotifCatalog,
    /// The motif of each [`open_key`].
    open_motifs: [Option<MotifId>; OPEN_KEYS],
    /// `shared[k] = |e_i ∩ e_j ∩ e_k|` while hyperwedge `∧_ij` is being
    /// counted; all zero in between.
    shared: Vec<u32>,
    /// The entries of `shared` the current hyperwedge made non-zero.
    touched: Vec<EdgeId>,
    /// `slot[k] = ω_ik` for every `e_k ∈ N(e_i) \ {e_j}` while hyperwedge
    /// `∧_ij` is being counted; all zero in between.
    slot: Vec<u32>,
}

impl<'g> WedgeWalk<'g> {
    /// A walk over the hyperwedges of `hypergraph`.
    pub(crate) fn new(hypergraph: &'g Hypergraph) -> Self {
        let catalog = MotifCatalog::shared();
        Self {
            hypergraph,
            catalog,
            open_motifs: open_motifs(catalog),
            shared: vec![0; hypergraph.num_edges()],
            touched: Vec::new(),
            slot: vec![0; hypergraph.num_edges()],
        }
    }

    /// Adds the raw (un-rescaled) contributions of a sampled hyperwedge
    /// `∧_ij` (lines 4–5 of Algorithm 5) to `raw`, where `e_j` is the
    /// neighbour at position `offset` of `N(e_i)`, as drawn by
    /// [`WedgeSampler::sample`].
    pub(crate) fn count_wedge(
        &mut self,
        projected: &ProjectedGraph,
        i: EdgeId,
        offset: usize,
        raw: &mut MotifCounts,
    ) {
        let neighbors_i = projected.neighbors(i);
        let (j, w_ij) = neighbors_i[offset];
        let neighbors_j = projected.neighbors(j);
        self.count_pair(i, (j, w_ij), neighbors_i, neighbors_j, raw);
    }

    /// Adds to `raw` the instance `{e_i, e_j, e_k}` of every
    /// `e_k ∈ N(e_i) ∪ N(e_j) \ {e_i, e_j}`, for the hyperwedge `∧_ij` with
    /// `ω(∧_ij) = w_ij`. `list_i` and `list_j` are `N(e_i)` and `N(e_j)`,
    /// passed explicitly so the on-the-fly sampler can supply lazily
    /// computed neighbourhoods.
    ///
    /// 1. One merge of the sorted member lists of `e_i` and `e_j` finds their
    ///    shared nodes. Each shared node `v` adds 1 to `shared[e]` for every
    ///    `e ∈ E_v`.
    /// 2. One pass over `N(e_i) \ {e_j}` sets `slot[k] = ω_ik` and tallies
    ///    each `e_k` under `e_i`'s open key: `ω_ij + ω_ik = |e_i|` and
    ///    `[e_j ⊆ e_i] + [e_k ⊆ e_i]`.
    /// 3. One pass over `N(e_j) \ {e_i}`. An `e_k` with a slot is a common
    ///    neighbour: its triple is classified by Lemma 2, with
    ///    `|e_i ∩ e_j ∩ e_k| = shared[k]`, and taken back out of `e_i`'s
    ///    tally. Any other `e_k` is tallied under `e_j`'s open key.
    /// 4. The slots over `N(e_i)` and the touched counter entries are reset,
    ///    and each non-zero tally is added to its open key's motif.
    pub(crate) fn count_pair(
        &mut self,
        i: EdgeId,
        (j, w_ij): WeightedNeighbor,
        list_i: &[WeightedNeighbor],
        list_j: &[WeightedNeighbor],
        raw: &mut MotifCounts,
    ) {
        let Self {
            hypergraph,
            catalog,
            open_motifs,
            shared,
            touched,
            slot,
        } = self;
        let hypergraph = *hypergraph;

        let (mut members_i, mut members_j) = (hypergraph.edge(i), hypergraph.edge(j));
        while let (Some(&u), Some(&v)) = (members_i.first(), members_j.first()) {
            if u <= v {
                members_i = &members_i[1..];
            }
            if v <= u {
                members_j = &members_j[1..];
            }
            if u == v {
                for &e in hypergraph.edges_of_node(u) {
                    let count = &mut shared[e as usize];
                    if *count == 0 {
                        touched.push(e);
                    }
                    *count += 1;
                }
            }
        }

        let (size_i, size_j, w_ij) = (
            hypergraph.edge_size(i),
            hypergraph.edge_size(j),
            w_ij as usize,
        );
        // The open key of `{e_i, e_j, e_k}` centred at `e_i`, and at `e_j`.
        let key_i = |w_ik: usize, size_k: usize| {
            let inside = usize::from(w_ij == size_j) + usize::from(w_ik == size_k);
            open_key(w_ij + w_ik == size_i, inside)
        };
        let key_j = |w_jk: usize, size_k: usize| {
            let inside = usize::from(w_ij == size_i) + usize::from(w_jk == size_k);
            open_key(w_ij + w_jk == size_j, inside)
        };
        // Open instances by centre (`e_i`, then `e_j`) and open key.
        let mut open = [[0u32; OPEN_KEYS]; 2];
        for &(k, w_ik) in list_i {
            if k != j {
                slot[k as usize] = w_ik;
                open[0][key_i(w_ik as usize, hypergraph.edge_size(k))] += 1;
            }
        }
        for &(k, w_jk) in list_j {
            if k == i {
                continue;
            }
            let (w_jk, size_k) = (w_jk as usize, hypergraph.edge_size(k));
            match slot[k as usize] as usize {
                0 => open[1][key_j(w_jk, size_k)] += 1,
                w_ik => {
                    if let Some(motif) = catalog.classify_from_intersections(
                        size_i,
                        size_j,
                        size_k,
                        w_ij,
                        w_jk,
                        w_ik,
                        shared[k as usize] as usize,
                    ) {
                        raw.increment(motif);
                    }
                    open[0][key_i(w_ik, size_k)] -= 1;
                }
            }
        }

        for &(k, _) in list_i {
            slot[k as usize] = 0;
        }
        for e in touched.drain(..) {
            shared[e as usize] = 0;
        }
        for tally in &open {
            for (&count, &motif) in tally.iter().zip(open_motifs.iter()) {
                if let (true, Some(motif)) = (count > 0, motif) {
                    raw.add(motif, f64::from(count));
                }
            }
        }
    }
}

/// Iterates over `N(e_i) ∪ N(e_j) \ {e_i, e_j}` by merging the two sorted
/// neighbourhood lists, reporting each candidate `e_k` together with
/// `ω(∧_ik)` and `ω(∧_jk)` (0 when not adjacent). The test oracles of the
/// hyperwedge and star kernels classify each candidate on its own.
#[cfg(test)]
pub(crate) fn for_each_union_neighbor<F>(
    list_i: &[WeightedNeighbor],
    list_j: &[WeightedNeighbor],
    i: EdgeId,
    j: EdgeId,
    mut visit: F,
) where
    F: FnMut(EdgeId, u32, u32),
{
    let (mut a, mut b) = (0usize, 0usize);
    while a < list_i.len() || b < list_j.len() {
        let next_i = list_i.get(a).copied();
        let next_j = list_j.get(b).copied();
        let (k, w_ik, w_jk) = match (next_i, next_j) {
            (Some((ki, wi)), Some((kj, wj))) => {
                if ki == kj {
                    a += 1;
                    b += 1;
                    (ki, wi, wj)
                } else if ki < kj {
                    a += 1;
                    (ki, wi, 0)
                } else {
                    b += 1;
                    (kj, 0, wj)
                }
            }
            (Some((ki, wi)), None) => {
                a += 1;
                (ki, wi, 0)
            }
            (None, Some((kj, wj))) => {
                b += 1;
                (kj, 0, wj)
            }
            (None, None) => break,
        };
        if k == i || k == j {
            continue;
        }
        visit(k, w_ik, w_jk);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::classify::classify_triple_with_weights;
    use crate::exact::tests::{random_hypergraph, random_hypergraph_with_duplicates};
    use crate::exact::{brute_force_counts, mochy_e};
    use mochy_hypergraph::HypergraphBuilder;
    use mochy_projection::project;
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

    /// Sequential MoCHy-A+ with a kernel and a sampler of its own.
    fn sequential_a_plus(
        h: &Hypergraph,
        proj: &ProjectedGraph,
        num_samples: usize,
        rng: &mut StdRng,
    ) -> MotifCounts {
        let mut walk = WedgeWalk::new(h);
        mochy_a_plus_impl(&mut walk, &WedgeSampler::new(proj), proj, num_samples, rng)
    }

    /// Test oracle: the raw contributions of the sampled hyperwedge
    /// `(i, offset)` (Algorithm 5), each triple classified on its own by
    /// [`classify_triple_with_weights`], which intersects the three member
    /// lists by binary search.
    fn oracle_wedge(
        h: &Hypergraph,
        proj: &ProjectedGraph,
        catalog: &MotifCatalog,
        i: EdgeId,
        offset: usize,
        raw: &mut MotifCounts,
    ) {
        let (j, w_ij) = proj.neighbors(i)[offset];
        for_each_union_neighbor(
            proj.neighbors(i),
            proj.neighbors(j),
            i,
            j,
            |k, w_ik, w_jk| {
                if let Some(motif) = classify_triple_with_weights(
                    h,
                    catalog,
                    i,
                    j,
                    k,
                    w_ij as usize,
                    w_jk as usize,
                    w_ik as usize,
                ) {
                    raw.increment(motif);
                }
            },
        );
    }

    /// A random hypergraph in which every hyperedge appears twice.
    pub(crate) fn duplicated_hypergraph(seed: u64) -> Hypergraph {
        let base = random_hypergraph(seed, 12, 9, 4);
        let mut builder = HypergraphBuilder::new();
        for e in base.edge_ids() {
            builder.add_edge(base.edge(e).to_vec());
            builder.add_edge(base.edge(e).to_vec());
        }
        builder.build().unwrap()
    }

    /// The kernel's raw counts equal the per-triple oracle's for every
    /// directed hyperwedge `(i, offset)`, with one kernel reused across all
    /// samples of an input. The inputs cover random
    /// hypergraphs, hyperedges of 63–65 and 127–129 nodes, and duplicate
    /// hyperedges (which form no instance with each other).
    #[test]
    fn kernel_matches_the_per_triple_oracle_on_every_sample() {
        let mut inputs: Vec<Hypergraph> = [0u64, 4, 8, 12]
            .into_iter()
            .map(|seed| random_hypergraph(seed, 14, 18, 5))
            .collect();
        inputs.push(crate::exact::tests::word_boundary_hypergraph(1));
        inputs.push(duplicated_hypergraph(3));
        let catalog = MotifCatalog::new();
        for (n, h) in inputs.iter().enumerate() {
            let proj = project(h);
            let mut walk = WedgeWalk::new(h);
            let mut closed_with_core = 0.0;
            for i in h.edge_ids() {
                for offset in 0..proj.degree(i) {
                    let (mut actual, mut expected) = (MotifCounts::zero(), MotifCounts::zero());
                    walk.count_wedge(&proj, i, offset, &mut actual);
                    oracle_wedge(h, &proj, &catalog, i, offset, &mut expected);
                    assert_eq!(actual, expected, "input {n}, hyperwedge ({i}, {offset})");
                    closed_with_core += (1..=26u8)
                        .filter(|&id| catalog.motif(id).has_triple_core)
                        .map(|id| expected.get(id))
                        .sum::<f64>();
                }
            }
            assert!(closed_with_core > 0.0, "input {n} has no triple core");
        }
    }

    /// The kernel's raw counts equal the per-triple oracle's for every
    /// directed hyperwedge of 200 small seeded hypergraphs with repeated
    /// hyperedges. Sizes of 1–6 reach `ω_ij + ω_ik = |e_i|` at both ends of
    /// a hyperwedge, so every open key is met; a repeated hyperedge is a
    /// common neighbour whose triple has no motif, and a hyperwedge between
    /// two copies has no instance at all.
    #[test]
    fn kernel_matches_the_per_triple_oracle_with_duplicate_hyperedges() {
        let catalog = MotifCatalog::shared();
        let mut open = MotifCounts::zero();
        let mut between_copies = 0usize;
        for seed in 0..200u64 {
            let h = random_hypergraph_with_duplicates(seed);
            let proj = project(&h);
            let mut walk = WedgeWalk::new(&h);
            for i in h.edge_ids() {
                for offset in 0..proj.degree(i) {
                    let (mut actual, mut expected) = (MotifCounts::zero(), MotifCounts::zero());
                    walk.count_wedge(&proj, i, offset, &mut actual);
                    oracle_wedge(&h, &proj, catalog, i, offset, &mut expected);
                    assert_eq!(actual, expected, "seed {seed}, hyperwedge ({i}, {offset})");
                    open.merge(&expected);
                    between_copies += usize::from(h.edge(i) == h.edge(proj.neighbors(i)[offset].0));
                }
            }
        }
        for id in catalog.open_motif_ids() {
            assert!(open.get(id) > 0.0, "open motif {id} never met");
        }
        assert!(between_copies > 0, "no hyperwedge between two copies");
    }

    /// MoCHy-A is *exactly* unbiased: averaging the estimator over the full
    /// sample space (every hyperedge sampled once, s = |E|) multiplied by the
    /// rescaling factor must reproduce the exact counts.
    #[test]
    fn mochy_a_is_exactly_unbiased_over_the_sample_space() {
        for seed in [1u64, 5, 9] {
            let h = random_hypergraph(seed, 14, 18, 5);
            let mut walk = StarWalk::new();
            let mut raw = MotifCounts::zero();
            for i in h.edge_ids() {
                walk.count(&h, i, &mut raw);
            }
            // Expectation with s = |E| deterministic passes: scale by |E|/(3·|E|).
            raw.scale(1.0 / 3.0);
            let exact = mochy_e(&h, &project(&h));
            for id in 1..=26u8 {
                assert!(
                    (raw.get(id) - exact.get(id)).abs() < 1e-9,
                    "seed {seed}, motif {id}: {} vs {}",
                    raw.get(id),
                    exact.get(id)
                );
            }
        }
    }

    /// MoCHy-A+ is exactly unbiased over the full hyperwedge sample space.
    #[test]
    fn mochy_a_plus_is_exactly_unbiased_over_the_sample_space() {
        for seed in [2u64, 6, 10] {
            let h = random_hypergraph(seed, 14, 18, 5);
            let proj = project(&h);
            let catalog = MotifCatalog::new();
            let mut walk = WedgeWalk::new(&h);
            let mut raw = MotifCounts::zero();
            let mut num_wedges = 0usize;
            for i in h.edge_ids() {
                for offset in 0..proj.degree(i) {
                    walk.count_wedge(&proj, i, offset, &mut raw);
                    num_wedges += 1;
                }
            }
            // Every wedge visited twice (once per direction): r = 2|∧|.
            assert_eq!(num_wedges, 2 * proj.num_hyperwedges());
            rescale_wedge_estimates(&catalog, &mut raw, proj.num_hyperwedges(), num_wedges);
            let exact = mochy_e(&h, &proj);
            for id in 1..=26u8 {
                assert!(
                    (raw.get(id) - exact.get(id)).abs() < 1e-9,
                    "seed {seed}, motif {id}: {} vs {}",
                    raw.get(id),
                    exact.get(id)
                );
            }
        }
    }

    #[test]
    fn estimates_converge_to_exact_counts() {
        let h = random_hypergraph(3, 20, 40, 5);
        let proj = project(&h);
        let exact = brute_force_counts(&h);
        let mut rng = StdRng::seed_from_u64(100);
        let estimate_a = mochy_a_impl(&h, 4000, &mut rng);
        let estimate_a_plus = sequential_a_plus(&h, &proj, 4000, &mut rng);
        assert!(
            exact.relative_error(&estimate_a) < 0.15,
            "MoCHy-A error {}",
            exact.relative_error(&estimate_a)
        );
        assert!(
            exact.relative_error(&estimate_a_plus) < 0.15,
            "MoCHy-A+ error {}",
            exact.relative_error(&estimate_a_plus)
        );
    }

    #[test]
    fn wedge_sampler_is_uniform() {
        let h = figure2();
        let proj = project(&h);
        let sampler = WedgeSampler::new(&proj);
        assert_eq!(sampler.num_hyperwedges(), 4);
        let mut rng = StdRng::seed_from_u64(0);
        let mut histogram = std::collections::HashMap::new();
        let trials = 40_000usize;
        for _ in 0..trials {
            let (i, offset) = sampler.sample(&mut rng);
            let (j, _) = proj.neighbors(i)[offset];
            let key = (i.min(j), i.max(j));
            *histogram.entry(key).or_insert(0usize) += 1;
        }
        assert_eq!(histogram.len(), 4);
        for (&wedge, &count) in &histogram {
            let frequency = count as f64 / trials as f64;
            assert!(
                (frequency - 0.25).abs() < 0.02,
                "wedge {wedge:?} frequency {frequency}"
            );
        }
    }

    #[test]
    fn parallel_sampling_matches_exact_in_expectation() {
        let h = random_hypergraph(8, 20, 35, 5);
        let proj = project(&h);
        let exact = mochy_e(&h, &proj);
        let estimate = mochy_a_plus_parallel(&h, &proj, 6000, 4, 7);
        assert!(
            exact.relative_error(&estimate) < 0.15,
            "error {}",
            exact.relative_error(&estimate)
        );
        let estimate = mochy_a_parallel(&h, 6000, 4, 7);
        assert!(
            exact.relative_error(&estimate) < 0.2,
            "error {}",
            exact.relative_error(&estimate)
        );
    }

    #[test]
    fn zero_samples_or_empty_projection() {
        let h = figure2();
        let proj = project(&h);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(mochy_a_impl(&h, 0, &mut rng).total(), 0.0);
        assert_eq!(sequential_a_plus(&h, &proj, 0, &mut rng).total(), 0.0);

        let disconnected = HypergraphBuilder::new()
            .with_edge([0u32])
            .with_edge([1u32])
            .build()
            .unwrap();
        let proj_disconnected = project(&disconnected);
        assert_eq!(
            sequential_a_plus(&disconnected, &proj_disconnected, 10, &mut rng).total(),
            0.0
        );
        assert_eq!(mochy_a_impl(&disconnected, 10, &mut rng).total(), 0.0);
    }

    #[test]
    fn parallel_sampling_is_thread_count_invariant() {
        // Per-sample RNG derivation makes the estimate a pure function of
        // (seed, num_samples), independent of threads and scheduling.
        let h = random_hypergraph(12, 20, 30, 5);
        let proj = project(&h);
        let base_a = mochy_a_parallel(&h, 777, 1, 5);
        let base_a_plus = mochy_a_plus_parallel(&h, &proj, 777, 1, 5);
        for threads in [2, 4, 8, 32] {
            assert_eq!(
                mochy_a_parallel(&h, 777, threads, 5),
                base_a,
                "MoCHy-A, threads {threads}"
            );
            assert_eq!(
                mochy_a_plus_parallel(&h, &proj, 777, threads, 5),
                base_a_plus,
                "MoCHy-A+, threads {threads}"
            );
        }
    }

    #[test]
    fn single_threaded_parallel_is_deterministic() {
        let h = random_hypergraph(4, 15, 25, 4);
        let proj = project(&h);
        let first = mochy_a_plus_parallel(&h, &proj, 500, 1, 99);
        let second = mochy_a_plus_parallel(&h, &proj, 500, 1, 99);
        assert_eq!(first, second);
    }
}
