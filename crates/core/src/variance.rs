//! The exact estimator variances of Theorems 2 and 4.
//!
//! Both theorems express the variance of the sampling estimators in terms of
//! *instance-overlap statistics*: the number of (ordered) pairs of instances
//! of a motif that share `l` hyperedges (`p_l[t]`, Theorem 2) or `n`
//! hyperwedges (`q_n[t]`, Theorem 4). This module computes those statistics
//! by explicit enumeration (practical for the small hypergraphs used in tests
//! and ablations) and evaluates the closed-form variance formulas, which the
//! test-suite validates against exactly computed variances over the full
//! sample space.

use mochy_hypergraph::{EdgeId, Hypergraph};
use mochy_motif::{MotifCatalog, MotifId, NUM_MOTIFS};
use mochy_projection::ProjectedGraph;

use crate::exact::mochy_e_enumerate;

/// Instance-overlap statistics of every motif in one hypergraph.
#[derive(Debug, Clone)]
pub struct InstanceOverlapStats {
    /// Exact instance count `M[t]` per motif.
    pub counts: [u64; NUM_MOTIFS],
    /// `p_l[t]`: ordered pairs of *distinct* instances of motif `t` sharing
    /// exactly `l ∈ {0, 1, 2}` hyperedges.
    pub edge_share_pairs: [[u64; 3]; NUM_MOTIFS],
    /// `q_n[t]`: ordered pairs of distinct instances of motif `t` sharing
    /// exactly `n ∈ {0, 1}` hyperwedges.
    pub wedge_share_pairs: [[u64; 2]; NUM_MOTIFS],
    /// Number of hyperedges `|E|`.
    pub num_edges: usize,
    /// Number of hyperwedges `|∧|`.
    pub num_hyperwedges: usize,
}

/// Enumerates every instance and computes the overlap statistics. The cost is
/// quadratic in the number of instances per motif, so this is intended for
/// analysis of small hypergraphs (tests, ablations), not production counting.
pub fn instance_overlap_stats(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
) -> InstanceOverlapStats {
    let mut per_motif: Vec<Vec<[EdgeId; 3]>> = vec![Vec::new(); NUM_MOTIFS];
    mochy_e_enumerate(hypergraph, projected, |i, j, k, motif| {
        let mut triple = [i, j, k];
        triple.sort_unstable();
        per_motif[(motif - 1) as usize].push(triple);
    });

    let mut stats = InstanceOverlapStats {
        counts: [0; NUM_MOTIFS],
        edge_share_pairs: [[0; 3]; NUM_MOTIFS],
        wedge_share_pairs: [[0; 2]; NUM_MOTIFS],
        num_edges: hypergraph.num_edges(),
        num_hyperwedges: projected.num_hyperwedges(),
    };

    for (t, instances) in per_motif.iter().enumerate() {
        stats.counts[t] = instances.len() as u64;
        for (a, lhs) in instances.iter().enumerate() {
            for rhs in instances.iter().skip(a + 1) {
                let shared_edges = shared_count(lhs, rhs);
                // Ordered pairs: each unordered pair contributes twice.
                stats.edge_share_pairs[t][shared_edges] += 2;
                let shared_wedges = shared_hyperwedges(projected, lhs, rhs);
                stats.wedge_share_pairs[t][shared_wedges] += 2;
            }
        }
    }
    stats
}

/// Number of hyperedges shared by two sorted instance triples (0, 1 or 2 —
/// distinct instances cannot share all three).
fn shared_count(a: &[EdgeId; 3], b: &[EdgeId; 3]) -> usize {
    a.iter().filter(|e| b.contains(e)).count()
}

/// Number of hyperwedges contained in both instances: the pairs of shared
/// hyperedges that are adjacent *and* belong to both instances as wedges.
/// For instances of the same motif two distinct instances can share at most
/// one hyperwedge.
fn shared_hyperwedges(projected: &ProjectedGraph, a: &[EdgeId; 3], b: &[EdgeId; 3]) -> usize {
    let shared: Vec<EdgeId> = a.iter().copied().filter(|e| b.contains(e)).collect();
    if shared.len() < 2 {
        return 0;
    }
    usize::from(projected.are_adjacent(shared[0], shared[1]))
}

/// Theorem 2: the variance of the MoCHy-A estimate of `M[t]` with `s`
/// hyperedge samples.
pub fn variance_mochy_a(stats: &InstanceOverlapStats, motif: MotifId, num_samples: usize) -> f64 {
    let t = (motif - 1) as usize;
    let m = stats.counts[t] as f64;
    let e = stats.num_edges as f64;
    let s = num_samples as f64;
    let mut variance = m * (e - 3.0) / (3.0 * s);
    for (l, &p) in stats.edge_share_pairs[t].iter().enumerate() {
        variance += (p as f64) * (l as f64 * e - 9.0) / (9.0 * s);
    }
    variance
}

/// Theorem 4: the variance of the MoCHy-A+ estimate of `M[t]` with `r`
/// hyperwedge samples.
pub fn variance_mochy_a_plus(
    stats: &InstanceOverlapStats,
    catalog: &MotifCatalog,
    motif: MotifId,
    num_samples: usize,
) -> f64 {
    let t = (motif - 1) as usize;
    let m = stats.counts[t] as f64;
    let w = stats.num_hyperwedges as f64;
    let r = num_samples as f64;
    if catalog.is_open(motif) {
        let mut variance = m * (w - 2.0) / (2.0 * r);
        for (n, &q) in stats.wedge_share_pairs[t].iter().enumerate() {
            variance += (q as f64) * (n as f64 * w - 4.0) / (4.0 * r);
        }
        variance
    } else {
        let mut variance = m * (w - 3.0) / (3.0 * r);
        for (n, &q) in stats.wedge_share_pairs[t].iter().enumerate() {
            variance += (q as f64) * (n as f64 * w - 9.0) / (9.0 * r);
        }
        variance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::MotifCounts;
    use crate::sample::WedgeWalk;
    use crate::star::StarWalk;
    use mochy_hypergraph::HypergraphBuilder;
    use mochy_projection::project;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn random_hypergraph(seed: u64, nodes: u32, edges: usize, max_size: usize) -> Hypergraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = HypergraphBuilder::new();
        for _ in 0..edges {
            let size = rng.gen_range(1..=max_size);
            let members: Vec<u32> = (0..size).map(|_| rng.gen_range(0..nodes)).collect();
            builder.add_edge(members);
        }
        builder.build().unwrap()
    }

    /// The exact variance of the MoCHy-A estimator with s = 1, computed by
    /// brute force over the full sample space (every hyperedge equally
    /// likely), must match Theorem 2.
    #[test]
    fn theorem2_matches_exhaustive_variance_at_s1() {
        for seed in [0u64, 3, 12] {
            let h = random_hypergraph(seed, 12, 14, 4);
            let proj = project(&h);
            let stats = instance_overlap_stats(&h, &proj);
            let num_edges = h.num_edges();
            let mut walk = StarWalk::new();

            // Estimator value for each possible sampled hyperedge.
            let mut per_sample: Vec<MotifCounts> = Vec::with_capacity(num_edges);
            for i in h.edge_ids() {
                let mut raw = MotifCounts::zero();
                walk.count(&h, i, &mut raw);
                raw.scale(num_edges as f64 / 3.0);
                per_sample.push(raw);
            }
            for motif in 1..=26u8 {
                let values: Vec<f64> = per_sample.iter().map(|c| c.get(motif)).collect();
                let mean = values.iter().sum::<f64>() / num_edges as f64;
                let exhaustive_var =
                    values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / num_edges as f64;
                let formula = variance_mochy_a(&stats, motif, 1);
                assert!(
                    (exhaustive_var - formula).abs() < 1e-6 * (1.0 + exhaustive_var.abs()),
                    "seed {seed}, motif {motif}: exhaustive {exhaustive_var} vs formula {formula}"
                );
            }
        }
    }

    /// The exact variance of the MoCHy-A+ estimator with r = 1, computed over
    /// the full hyperwedge sample space, must match Theorem 4.
    #[test]
    fn theorem4_matches_exhaustive_variance_at_r1() {
        for seed in [1u64, 7] {
            let h = random_hypergraph(seed, 12, 14, 4);
            let proj = project(&h);
            let catalog = MotifCatalog::new();
            let stats = instance_overlap_stats(&h, &proj);
            let num_wedges = proj.num_hyperwedges();
            if num_wedges == 0 {
                continue;
            }
            let mut walk = WedgeWalk::new(&h);

            // Estimator value for each possible sampled hyperwedge (sample
            // each direction once; both give the same counts, so using the
            // wedge set directly is equivalent).
            let mut per_sample: Vec<MotifCounts> = Vec::new();
            for i in h.edge_ids() {
                for offset in 0..proj.degree(i) {
                    let (j, _) = proj.neighbors(i)[offset];
                    if j < i {
                        continue; // visit each wedge once
                    }
                    let mut raw = MotifCounts::zero();
                    walk.count_wedge(&proj, i, offset, &mut raw);
                    raw.scale_motifs(&catalog.open_motif_ids(), num_wedges as f64 / 2.0);
                    raw.scale_motifs(&catalog.closed_motif_ids(), num_wedges as f64 / 3.0);
                    per_sample.push(raw);
                }
            }
            assert_eq!(per_sample.len(), num_wedges);
            for motif in 1..=26u8 {
                let values: Vec<f64> = per_sample.iter().map(|c| c.get(motif)).collect();
                let mean = values.iter().sum::<f64>() / num_wedges as f64;
                let exhaustive_var =
                    values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / num_wedges as f64;
                let formula = variance_mochy_a_plus(&stats, &catalog, motif, 1);
                assert!(
                    (exhaustive_var - formula).abs() < 1e-6 * (1.0 + exhaustive_var.abs()),
                    "seed {seed}, motif {motif}: exhaustive {exhaustive_var} vs formula {formula}"
                );
            }
        }
    }

    /// Variance decreases linearly in the number of samples.
    #[test]
    fn variance_scales_inversely_with_samples() {
        let h = random_hypergraph(2, 12, 16, 4);
        let proj = project(&h);
        let catalog = MotifCatalog::new();
        let stats = instance_overlap_stats(&h, &proj);
        for motif in 1..=26u8 {
            let v1 = variance_mochy_a(&stats, motif, 1);
            let v10 = variance_mochy_a(&stats, motif, 10);
            assert!((v1 / 10.0 - v10).abs() < 1e-9);
            let w1 = variance_mochy_a_plus(&stats, &catalog, motif, 1);
            let w10 = variance_mochy_a_plus(&stats, &catalog, motif, 10);
            assert!((w1 / 10.0 - w10).abs() < 1e-9);
        }
    }

    /// The analysis in Section 3.3: with the same sampling *ratio*
    /// (α = s/|E| = r/|∧|), MoCHy-A+ should not have larger total variance
    /// than MoCHy-A on typical hypergraphs.
    #[test]
    fn a_plus_variance_is_no_worse_at_equal_ratio() {
        let h = random_hypergraph(13, 20, 40, 5);
        let proj = project(&h);
        let catalog = MotifCatalog::new();
        let stats = instance_overlap_stats(&h, &proj);
        // α = 1 → s = |E|, r = |∧|.
        let total_var_a: f64 = (1..=26u8)
            .map(|m| variance_mochy_a(&stats, m, h.num_edges()))
            .sum();
        let total_var_a_plus: f64 = (1..=26u8)
            .map(|m| variance_mochy_a_plus(&stats, &catalog, m, proj.num_hyperwedges()))
            .sum();
        assert!(
            total_var_a_plus <= total_var_a * 1.05,
            "A+ {total_var_a_plus} vs A {total_var_a}"
        );
    }

    #[test]
    fn overlap_stats_counts_match_exact_counts() {
        let h = random_hypergraph(21, 15, 20, 4);
        let proj = project(&h);
        let stats = instance_overlap_stats(&h, &proj);
        let exact = crate::exact::mochy_e(&h, &proj);
        for motif in 1..=26u8 {
            assert_eq!(stats.counts[(motif - 1) as usize] as f64, exact.get(motif));
        }
        // Every ordered pair is classified into exactly one bucket.
        for t in 0..NUM_MOTIFS {
            let m = stats.counts[t];
            let pairs: u64 = stats.edge_share_pairs[t].iter().sum();
            assert_eq!(pairs, m.saturating_sub(1) * m);
            let wedge_pairs: u64 = stats.wedge_share_pairs[t].iter().sum();
            assert_eq!(wedge_pairs, m.saturating_sub(1) * m);
        }
    }
}
