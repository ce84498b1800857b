//! Diagnostics of how faithfully a null model preserves the marginals the
//! paper's randomization is designed to keep (Appendix D): the node-degree
//! distribution and the hyperedge-size distribution.

use mochy_hypergraph::{EmpiricalDistribution, Hypergraph};

/// A comparison of one randomized hypergraph against the original.
#[derive(Debug, Clone, PartialEq)]
pub struct PreservationReport {
    /// Whether the number of hyperedges is identical.
    pub edge_count_preserved: bool,
    /// Whether the multiset of hyperedge sizes is identical.
    pub sizes_exact: bool,
    /// Whether every node's degree is identical.
    pub degrees_exact: bool,
    /// Kolmogorov–Smirnov distance between the node-degree distributions.
    pub degree_ks: f64,
    /// Kolmogorov–Smirnov distance between the hyperedge-size distributions.
    pub size_ks: f64,
    /// Relative change in total incidences, `|Σ|e'| − Σ|e|| / Σ|e|`.
    pub incidence_drift: f64,
    /// Fraction of hyperedges that are identical (same member set, same id)
    /// in the original and the randomized hypergraph.
    pub unchanged_edge_fraction: f64,
}

impl PreservationReport {
    /// Compares a randomized hypergraph against the original.
    pub fn compare(original: &Hypergraph, randomized: &Hypergraph) -> Self {
        let degree_original = EmpiricalDistribution::node_degrees(original);
        let degree_randomized = EmpiricalDistribution::node_degrees(randomized);
        let size_original = EmpiricalDistribution::edge_sizes(original);
        let size_randomized = EmpiricalDistribution::edge_sizes(randomized);

        let edge_count_preserved = original.num_edges() == randomized.num_edges();
        let sizes_exact = size_original.values() == size_randomized.values();
        let degrees_exact = original.num_nodes() == randomized.num_nodes()
            && original.node_degrees() == randomized.node_degrees();

        let total_original = original.num_incidences() as f64;
        let incidence_drift = if total_original == 0.0 {
            0.0
        } else {
            (randomized.num_incidences() as f64 - total_original).abs() / total_original
        };

        let comparable = original.num_edges().min(randomized.num_edges());
        let unchanged = (0..comparable as u32)
            .filter(|&e| original.edge(e) == randomized.edge(e))
            .count();
        let unchanged_edge_fraction = if comparable == 0 {
            0.0
        } else {
            unchanged as f64 / comparable as f64
        };

        Self {
            edge_count_preserved,
            sizes_exact,
            degrees_exact,
            degree_ks: degree_original.ks_distance(&degree_randomized),
            size_ks: size_original.ks_distance(&size_randomized),
            incidence_drift,
            unchanged_edge_fraction,
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "sizes_exact={} degrees_exact={} degree_ks={:.4} size_ks={:.4} drift={:.4} unchanged={:.3}",
            self.sizes_exact,
            self.degrees_exact,
            self.degree_ks,
            self.size_ks,
            self.incidence_drift,
            self.unchanged_edge_fraction
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swap::swap_randomize;
    use crate::{chung_lu_randomize, uniform_size_randomize};
    use mochy_hypergraph::HypergraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_hypergraph() -> Hypergraph {
        let mut rng = StdRng::seed_from_u64(19);
        let mut builder = HypergraphBuilder::new();
        for _ in 0..250 {
            let size = rng.gen_range(2..=6);
            let mut members = Vec::new();
            while members.len() < size {
                // Skewed: low ids are much more likely.
                let v = (rng.gen_range(0.0f64..1.0).powi(3) * 100.0) as u32;
                if !members.contains(&v) {
                    members.push(v);
                }
            }
            builder.add_edge(members);
        }
        builder.build().unwrap()
    }

    #[test]
    fn identity_report_is_perfect() {
        let h = sample_hypergraph();
        let report = PreservationReport::compare(&h, &h);
        assert!(report.edge_count_preserved);
        assert!(report.sizes_exact);
        assert!(report.degrees_exact);
        assert_eq!(report.degree_ks, 0.0);
        assert_eq!(report.size_ks, 0.0);
        assert_eq!(report.incidence_drift, 0.0);
        assert_eq!(report.unchanged_edge_fraction, 1.0);
    }

    #[test]
    fn swap_model_preserves_both_marginals_exactly() {
        let h = sample_hypergraph();
        let randomized = swap_randomize(&h, &mut StdRng::seed_from_u64(3));
        let report = PreservationReport::compare(&h, &randomized);
        assert!(report.sizes_exact);
        assert!(report.degrees_exact);
        assert!(report.unchanged_edge_fraction < 0.5);
    }

    #[test]
    fn chung_lu_preserves_sizes_and_approximates_degrees() {
        let h = sample_hypergraph();
        let randomized = chung_lu_randomize(&h, &mut StdRng::seed_from_u64(4));
        let report = PreservationReport::compare(&h, &randomized);
        assert!(report.sizes_exact);
        assert!(report.edge_count_preserved);
        assert!(
            report.degree_ks < 0.25,
            "Chung-Lu degree KS too large: {}",
            report.degree_ks
        );
    }

    #[test]
    fn uniform_model_destroys_the_degree_distribution_more() {
        let h = sample_hypergraph();
        let chung_lu =
            PreservationReport::compare(&h, &chung_lu_randomize(&h, &mut StdRng::seed_from_u64(5)));
        let uniform = PreservationReport::compare(
            &h,
            &uniform_size_randomize(&h, &mut StdRng::seed_from_u64(5)),
        );
        assert!(
            uniform.degree_ks > chung_lu.degree_ks,
            "uniform ({}) should distort degrees more than Chung-Lu ({})",
            uniform.degree_ks,
            chung_lu.degree_ks
        );
    }
}
