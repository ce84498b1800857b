//! Null models: randomized hypergraphs for h-motif significance (Section 2.3).
//!
//! The paper compares h-motif counts in a real hypergraph against counts in
//! randomized hypergraphs obtained by applying the Chung-Lu model to the
//! bipartite node–hyperedge incidence graph, which preserves the node-degree
//! distribution and the hyperedge-size distribution. This crate provides:
//!
//! - [`chung_lu_randomize`] — the Chung-Lu null model: every hyperedge keeps
//!   its exact size; its members are re-drawn with probability proportional
//!   to the original node degrees, so degrees are preserved in expectation.
//!   A guide (cut-point) table over the cumulative degrees maps each uniform
//!   draw to its node in O(1) expected steps, to the very node inversion by
//!   binary search (`rand`'s `WeightedIndex`) picks, so a seed names the
//!   same reference either way.
//! - [`configuration_randomize`] — a stub-matching configuration model that
//!   preserves node degrees *exactly* up to collision resolution; used as an
//!   ablation of the null-model choice.
//! - [`randomize_many`] — convenience for producing the `k` independent
//!   randomized references used when computing significances and CPs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagnostics;
pub mod swap;

pub use diagnostics::PreservationReport;
pub use swap::{swap_randomize, swap_randomize_with, uniform_size_randomize, SwapStats};

use mochy_hypergraph::{Csr, Hypergraph, HypergraphBuilder, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

/// Which null model to use when randomizing a hypergraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NullModel {
    /// Chung-Lu on the bipartite incidence graph (the paper's choice).
    ChungLu,
    /// Stub-matching configuration model with collision re-draws.
    Configuration,
    /// Bipartite double-edge swaps: preserves node degrees and hyperedge
    /// sizes exactly (see [`swap::swap_randomize`]).
    Swap,
    /// Size-preserving uniform membership: destroys the degree distribution;
    /// used only as an ablation baseline (see
    /// [`swap::uniform_size_randomize`]).
    UniformSize,
}

/// Randomizes a hypergraph with the Chung-Lu bipartite model.
///
/// Every hyperedge keeps its size; its members are drawn (without replacement
/// within the hyperedge) with probability proportional to the node's degree
/// in the original hypergraph. Nodes of degree 0 are never drawn; only the
/// uniform fallback for a hyperedge that keeps drawing members it already
/// holds can pick one. The result therefore preserves the hyperedge-size
/// distribution exactly and the node-degree distribution in expectation,
/// the two properties the paper's randomization is designed to keep.
///
/// Each member is one `rng.gen::<f64>()` draw, mapped to a node by a guide
/// table over the cumulative degrees in O(1) expected steps. The nodes
/// drawn, and so the hypergraph for a given RNG state, are exactly those of
/// inversion by binary search over the cumulative degrees (`rand`'s
/// `WeightedIndex`). Members go straight into one member CSR, and `|V|` of
/// the result is its largest member plus one.
pub fn chung_lu_randomize<R: Rng + ?Sized>(hypergraph: &Hypergraph, rng: &mut R) -> Hypergraph {
    let guide = DegreeGuide::new(&hypergraph.node_degrees());
    let mut edges = Csr::with_capacity(hypergraph.num_edges(), hypergraph.num_incidences());
    let mut members: Vec<NodeId> = Vec::new();
    for e in hypergraph.edge_ids() {
        let size = hypergraph.edge_size(e);
        members.clear();
        // Rejection sampling keeps hyperedge sizes exact; hyperedge sizes are
        // far smaller than |V| in all datasets of interest, so collisions are
        // rare and this terminates quickly. A safety valve bounds the loop.
        let mut attempts = 0usize;
        while members.len() < size {
            let candidate = guide.draw(rng);
            if !members.contains(&candidate) {
                members.push(candidate);
            }
            attempts += 1;
            if attempts > 100 * size + 1000 {
                // Degenerate weight distribution (e.g. one node holds almost
                // all degree): fall back to uniform sampling among unused ids.
                let mut fallback: Vec<NodeId> = (0..hypergraph.num_nodes() as NodeId)
                    .filter(|v| !members.contains(v))
                    .collect();
                fallback.shuffle(rng);
                members.extend(fallback.into_iter().take(size - members.len()));
                break;
            }
        }
        members.sort_unstable();
        edges.push_row(&members);
    }
    Hypergraph::from_edge_csr(edges)
        .expect("every randomized hyperedge holds distinct members, sorted")
}

/// Inversion sampling of node ids proportionally to their degrees, through a
/// guide (cut-point) table over the cumulative degrees.
///
/// [`DegreeGuide::index_of`] returns the index that a binary search over the
/// cumulative degrees returns (`rand`'s `WeightedIndex`), but starts a short
/// forward scan at a precomputed cut point instead of searching.
#[derive(Debug)]
struct DegreeGuide {
    /// `cumulative[v]` is the degree sum of nodes `0..=v`.
    cumulative: Vec<f64>,
    /// The degree sum of all nodes.
    total: f64,
    /// `cut[b]` is the first node whose cumulative degree reaches
    /// `b · total / cut.len()`.
    cut: Vec<usize>,
    /// `cut.len() / total`: maps a target to its cut point.
    cuts_per_degree: f64,
}

impl DegreeGuide {
    /// A guide with one cut point per node.
    ///
    /// # Panics
    /// Panics if every degree is zero (a hypergraph has at least one
    /// incidence).
    fn new(degrees: &[usize]) -> Self {
        let mut total = 0.0f64;
        let cumulative: Vec<f64> = degrees
            .iter()
            .map(|&d| {
                total += d as f64;
                total
            })
            .collect();
        assert!(total > 0.0, "hypergraph has at least one incidence");
        let buckets = cumulative.len();
        let mut cut = Vec::with_capacity(buckets);
        let mut node = 0usize;
        for b in 0..buckets {
            let lower = b as f64 * total / buckets as f64;
            // `lower < total = cumulative[last]`, so the scan stays in range.
            while cumulative[node] < lower {
                node += 1;
            }
            cut.push(node);
        }
        Self {
            cumulative,
            total,
            cut,
            cuts_per_degree: buckets as f64 / total,
        }
    }

    /// One node, drawn with probability proportional to its degree from one
    /// `rng.gen::<f64>()`, as `WeightedIndex::sample` draws it.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        self.index_of(rng.gen::<f64>() * self.total) as NodeId
    }

    /// The index `WeightedIndex::sample` maps `target` (in `[0, total]`) to:
    /// the first node whose cumulative degree is at least `target`. An exact
    /// tie, where a cumulative degree equals `target`, and a cut point that
    /// rounding placed past the answer both defer to the same binary search.
    fn index_of(&self, target: f64) -> usize {
        let bucket = ((target * self.cuts_per_degree) as usize).min(self.cut.len() - 1);
        let mut node = self.cut[bucket];
        if node == 0 || self.cumulative[node - 1] < target {
            // `cumulative[last] = total >= target` ends the scan.
            while self.cumulative[node] < target {
                node += 1;
            }
            if self.cumulative[node] != target {
                return node;
            }
        }
        match self
            .cumulative
            .binary_search_by(|probe| probe.partial_cmp(&target).expect("finite weights"))
        {
            Ok(i) | Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// Randomizes a hypergraph with a stub-matching configuration model: each
/// node contributes as many stubs as its degree, the stubs are shuffled and
/// dealt to hyperedges according to their original sizes; duplicate nodes
/// within a hyperedge are resolved by swapping with random stubs elsewhere.
pub fn configuration_randomize<R: Rng + ?Sized>(
    hypergraph: &Hypergraph,
    rng: &mut R,
) -> Hypergraph {
    let mut stubs: Vec<NodeId> = Vec::with_capacity(hypergraph.num_incidences());
    for v in hypergraph.node_ids() {
        for _ in 0..hypergraph.node_degree(v) {
            stubs.push(v);
        }
    }
    stubs.shuffle(rng);

    let sizes = hypergraph.edge_sizes();
    let mut offsets = Vec::with_capacity(sizes.len() + 1);
    offsets.push(0usize);
    for s in &sizes {
        offsets.push(offsets.last().unwrap() + s);
    }

    // Resolve within-hyperedge duplicates by swapping the offending stub with
    // a uniformly random *later* stub (so already-resolved hyperedges are
    // never disturbed), with bounded retries. Unresolvable duplicates (which
    // only occur under extremely skewed degree sequences) are dropped by the
    // builder's member deduplication.
    for e in 0..sizes.len() {
        let (start, end) = (offsets[e], offsets[e + 1]);
        for pos in start..end {
            let mut retries = 0usize;
            while stubs[start..pos].contains(&stubs[pos]) && pos + 1 < stubs.len() && retries < 500
            {
                let swap_with = rng.gen_range(pos + 1..stubs.len());
                stubs.swap(pos, swap_with);
                retries += 1;
            }
        }
    }

    let mut builder = HypergraphBuilder::with_capacity(sizes.len());
    for e in 0..sizes.len() {
        builder.add_edge(stubs[offsets[e]..offsets[e + 1]].iter().copied());
    }
    builder
        .build()
        .expect("configuration model preserves the number of hyperedges")
}

/// Produces `count` independent randomized hypergraphs with the requested
/// null model, deterministically derived from `seed`.
pub fn randomize_many(
    hypergraph: &Hypergraph,
    model: NullModel,
    count: usize,
    seed: u64,
) -> Vec<Hypergraph> {
    (0..count)
        .map(|i| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(i as u64));
            match model {
                NullModel::ChungLu => chung_lu_randomize(hypergraph, &mut rng),
                NullModel::Configuration => configuration_randomize(hypergraph, &mut rng),
                NullModel::Swap => swap::swap_randomize(hypergraph, &mut rng),
                NullModel::UniformSize => swap::uniform_size_randomize(hypergraph, &mut rng),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mochy_hypergraph::stats::total_variation_distance;
    use mochy_hypergraph::HypergraphStats;
    use rand::distributions::{Distribution, WeightedIndex};
    use rand::rngs::StdRng;

    /// The Chung-Lu model drawn through `rand`'s `WeightedIndex` and built
    /// through `HypergraphBuilder`: the reference `chung_lu_randomize` must
    /// equal draw for draw.
    fn chung_lu_reference<R: Rng + ?Sized>(hypergraph: &Hypergraph, rng: &mut R) -> Hypergraph {
        let degrees = hypergraph.node_degrees();
        let weights: Vec<f64> = degrees.iter().map(|&d| d as f64).collect();
        let distribution =
            WeightedIndex::new(&weights).expect("hypergraph has at least one incidence");
        let mut builder = HypergraphBuilder::with_capacity(hypergraph.num_edges());
        let mut members: Vec<NodeId> = Vec::new();
        for e in hypergraph.edge_ids() {
            let size = hypergraph.edge_size(e);
            members.clear();
            let mut attempts = 0usize;
            while members.len() < size {
                let candidate = distribution.sample(rng) as NodeId;
                if !members.contains(&candidate) {
                    members.push(candidate);
                }
                attempts += 1;
                if attempts > 100 * size + 1000 {
                    let mut fallback: Vec<NodeId> = (0..hypergraph.num_nodes() as NodeId)
                        .filter(|v| !members.contains(v))
                        .collect();
                    fallback.shuffle(rng);
                    members.extend(fallback.into_iter().take(size - members.len()));
                    break;
                }
            }
            builder.add_edge(members.iter().copied());
        }
        builder
            .build()
            .expect("randomized hypergraph has the same number of hyperedges")
    }

    /// A snapshot-loaded hypergraph with `num_nodes` nodes: unlike the
    /// builder's `max id + 1`, the ids above every member are isolated nodes.
    fn with_isolated_top_nodes(num_nodes: usize, edges: &[Vec<NodeId>]) -> Hypergraph {
        let mut incidence = vec![Vec::new(); num_nodes];
        for (e, members) in edges.iter().enumerate() {
            for &v in members {
                incidence[v as usize].push(e as u32);
            }
        }
        let mut bytes = b"MOCHYSNP".to_vec();
        bytes.extend(1u32.to_le_bytes());
        bytes.extend(0u32.to_le_bytes());
        let num_incidences: usize = edges.iter().map(Vec::len).sum();
        for count in [num_nodes, edges.len(), num_incidences] {
            bytes.extend((count as u64).to_le_bytes());
        }
        for rows in [edges, &incidence[..]] {
            let mut offset = 0u64;
            bytes.extend(offset.to_le_bytes());
            for row in rows {
                offset += row.len() as u64;
                bytes.extend(offset.to_le_bytes());
            }
            for &id in rows.iter().flatten() {
                bytes.extend(id.to_le_bytes());
            }
        }
        let checksum = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        bytes.extend(checksum.to_le_bytes());
        let hypergraph = mochy_hypergraph::read_snapshot_bytes(&bytes).unwrap();
        assert_eq!(hypergraph.num_nodes(), num_nodes);
        hypergraph
    }

    /// Over 200 seeds per input, the guide table draws exactly the
    /// hypergraphs `WeightedIndex` draws, `num_nodes` included: on skewed
    /// degrees, on runs of isolated ids at the bottom, in the middle and
    /// above every member, on a hub that sends hyperedges to the uniform
    /// fallback, and on the smallest input.
    #[test]
    fn chung_lu_draws_what_weighted_index_draws() {
        // Members in 10..27 and 40..45 of 60 ids.
        let gapped: Vec<Vec<NodeId>> = (0..120u32)
            .map(|i| {
                let mut members = vec![10 + i % 17, 10 + (i * 7 + 3) % 17, 40 + i % 5];
                members.sort_unstable();
                members.dedup();
                members
            })
            .collect();
        // Node 0 holds 2,002 of 2,007 degrees and node 5 none: only the
        // uniform fallback can give node 5 a hyperedge.
        let mut hub = HypergraphBuilder::new();
        for _ in 0..2_000 {
            hub.add_edge([0u32]);
        }
        hub.add_edge([0u32, 1, 2]);
        hub.add_edge([0u32, 3, 4]);
        hub.add_edge([6u32]);
        let mut fallbacks = 0;
        let inputs = [
            ("skewed", skewed_hypergraph(0)),
            ("gapped", with_isolated_top_nodes(60, &gapped)),
            ("hub", hub.build().unwrap()),
            (
                "tiny",
                HypergraphBuilder::new()
                    .with_edge([0u32, 1])
                    .with_edge([0u32, 1])
                    .build()
                    .unwrap(),
            ),
        ];
        for (name, h) in &inputs {
            for seed in 0..200u64 {
                let drawn = chung_lu_randomize(h, &mut StdRng::seed_from_u64(seed));
                let reference = chung_lu_reference(h, &mut StdRng::seed_from_u64(seed));
                assert_eq!(drawn, reference, "{name}, seed {seed}");
                assert_eq!(drawn.num_nodes(), reference.num_nodes(), "{name}");
                if *name == "hub" && drawn.num_nodes() > 5 && drawn.node_degree(5) > 0 {
                    fallbacks += 1;
                }
            }
        }
        assert!(fallbacks > 0, "no seed reached the uniform fallback");
    }

    /// Random draws almost never land exactly on a cumulative degree, so the
    /// tie branch is checked directly: every integer and half-integer target
    /// maps where the binary search maps it, on arrays with zero-weight runs
    /// at the start, inside and at the end.
    #[test]
    fn guide_lookup_matches_the_binary_search_on_every_target() {
        let arrays: [&[usize]; 7] = [
            &[1],
            &[0, 0, 1],
            &[4, 0, 0, 0],
            &[0, 0, 3, 0, 0, 1, 2, 0, 5, 0, 0],
            &[1, 1, 1, 1, 1, 1, 1, 1],
            &[0, 9, 0, 0, 0, 0, 0, 0, 0, 1],
            &[2, 0, 7, 0, 0, 0, 1, 0, 0, 3, 0, 0, 0, 0, 6, 0],
        ];
        for degrees in arrays {
            let guide = DegreeGuide::new(degrees);
            let total: usize = degrees.iter().sum();
            for half_steps in 0..2 * total {
                let target = half_steps as f64 / 2.0;
                let expected = match guide
                    .cumulative
                    .binary_search_by(|probe| probe.partial_cmp(&target).unwrap())
                {
                    Ok(i) | Err(i) => i.min(degrees.len() - 1),
                };
                assert_eq!(
                    guide.index_of(target),
                    expected,
                    "degrees {degrees:?}, target {target}"
                );
            }
        }
    }

    fn skewed_hypergraph(seed: u64) -> Hypergraph {
        // Power-law-ish degrees: node v has weight ∝ 1/(v+1).
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = 60u32;
        let weights: Vec<f64> = (0..nodes).map(|v| 1.0 / (v as f64 + 1.0)).collect();
        let dist = WeightedIndex::new(&weights).unwrap();
        let mut builder = HypergraphBuilder::new();
        for _ in 0..300 {
            let size = rng.gen_range(2..=6);
            let mut members = Vec::new();
            while members.len() < size {
                let v = dist.sample(&mut rng) as NodeId;
                if !members.contains(&v) {
                    members.push(v);
                }
            }
            builder.add_edge(members);
        }
        builder.build().unwrap()
    }

    #[test]
    fn chung_lu_preserves_sizes_exactly() {
        let h = skewed_hypergraph(0);
        let mut rng = StdRng::seed_from_u64(1);
        let randomized = chung_lu_randomize(&h, &mut rng);
        assert_eq!(randomized.num_edges(), h.num_edges());
        assert_eq!(randomized.edge_sizes(), h.edge_sizes());
    }

    #[test]
    fn configuration_preserves_sizes_approximately() {
        // Stub matching preserves sizes up to the (rare) collisions that the
        // bounded re-draws cannot resolve under extremely skewed degrees; the
        // deviation must stay tiny.
        let h = skewed_hypergraph(0);
        let mut rng = StdRng::seed_from_u64(2);
        let randomized = configuration_randomize(&h, &mut rng);
        assert_eq!(randomized.num_edges(), h.num_edges());
        let shrunk: usize = h
            .edge_ids()
            .filter(|&e| randomized.edge_size(e) < h.edge_size(e))
            .count();
        assert!(
            shrunk <= h.num_edges() / 10,
            "{shrunk} of {} hyperedges lost members",
            h.num_edges()
        );
        let lost = h.num_incidences() - randomized.num_incidences();
        assert!(lost <= h.num_incidences() / 20, "lost {lost} incidences");
    }

    #[test]
    fn chung_lu_preserves_degree_structure() {
        let h = skewed_hypergraph(3);
        let original = HypergraphStats::compute(&h);
        let randomized = randomize_many(&h, NullModel::ChungLu, 5, 77);
        // Exact invariants: hyperedge count and total incidences.
        for r in &randomized {
            assert_eq!(r.num_edges(), h.num_edges());
            assert_eq!(r.num_incidences(), h.num_incidences());
        }
        // Distributional similarity: the averaged degree histogram stays close
        // (selection without replacement caps hub degrees, so the bound is
        // deliberately loose for this very skewed input).
        let mut combined = vec![0usize; 1];
        for r in &randomized {
            let stats = HypergraphStats::compute(r);
            if stats.degree_histogram.len() > combined.len() {
                combined.resize(stats.degree_histogram.len(), 0);
            }
            for (i, c) in stats.degree_histogram.iter().enumerate() {
                combined[i] += c;
            }
        }
        let tvd = total_variation_distance(&original.degree_histogram, &combined);
        assert!(tvd < 0.5, "degree-distribution TVD too large: {tvd}");
        // Rank preservation: originally-popular nodes remain the popular ones.
        let mut by_degree: Vec<_> = h.node_ids().collect();
        by_degree.sort_by_key(|&v| std::cmp::Reverse(h.node_degree(v)));
        let randomized_degree = |nodes: &[u32]| -> f64 {
            nodes
                .iter()
                .map(|&v| randomized.iter().map(|r| r.node_degree(v)).sum::<usize>() as f64)
                .sum::<f64>()
                / nodes.len() as f64
        };
        let top = randomized_degree(&by_degree[..10]);
        let bottom = randomized_degree(&by_degree[by_degree.len() - 10..]);
        assert!(
            top > 2.0 * bottom,
            "hub nodes not preserved: top {top}, bottom {bottom}"
        );
    }

    #[test]
    fn configuration_degree_sequence_is_nearly_exact() {
        let h = skewed_hypergraph(4);
        let mut rng = StdRng::seed_from_u64(5);
        let randomized = configuration_randomize(&h, &mut rng);
        // Stub matching preserves each node's degree exactly, except for the
        // rare collision-resolution swaps; allow a small discrepancy.
        let mismatches: usize = h
            .node_ids()
            .filter(|&v| {
                (h.node_degree(v) as i64 - randomized.node_degree(v) as i64).unsigned_abs() > 1
            })
            .count();
        assert!(
            mismatches <= h.num_nodes() / 10,
            "too many degree mismatches: {mismatches}"
        );
    }

    #[test]
    fn randomization_actually_changes_structure() {
        let h = skewed_hypergraph(6);
        let mut rng = StdRng::seed_from_u64(9);
        let randomized = chung_lu_randomize(&h, &mut rng);
        let identical = h
            .edge_ids()
            .filter(|&e| randomized.edge(e) == h.edge(e))
            .count();
        assert!(
            identical < h.num_edges() / 2,
            "randomization left {identical} hyperedges unchanged"
        );
    }

    #[test]
    fn randomize_many_is_deterministic_per_seed() {
        let h = skewed_hypergraph(7);
        let a = randomize_many(&h, NullModel::ChungLu, 3, 42);
        let b = randomize_many(&h, NullModel::ChungLu, 3, 42);
        assert_eq!(a, b);
        let c = randomize_many(&h, NullModel::ChungLu, 3, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn members_within_a_hyperedge_are_distinct() {
        let h = skewed_hypergraph(8);
        for model in [NullModel::ChungLu, NullModel::Configuration] {
            for r in randomize_many(&h, model, 2, 11) {
                for (_, members) in r.edges() {
                    let mut unique = members.to_vec();
                    unique.dedup();
                    assert_eq!(
                        unique.len(),
                        members.len(),
                        "duplicate member under {model:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn tiny_hypergraph_does_not_hang() {
        // Two nodes, hyperedge of size 2: rejection sampling must still finish.
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1])
            .with_edge([0u32, 1])
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let randomized = chung_lu_randomize(&h, &mut rng);
        assert_eq!(randomized.edge_sizes(), vec![2, 2]);
    }
}
