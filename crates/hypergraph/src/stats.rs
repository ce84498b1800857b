//! Summary statistics of a hypergraph (the columns of Table 2 of the paper,
//! except the motif counts which live in `mochy-core`).

use serde::{Deserialize, Serialize};

use crate::graph::Hypergraph;

/// Summary statistics of a hypergraph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HypergraphStats {
    /// Number of nodes `|V|` (nodes that appear in at least one hyperedge).
    pub num_nodes: usize,
    /// Number of nodes including isolated identifiers (`max id + 1`).
    pub num_node_ids: usize,
    /// Number of hyperedges `|E|`.
    pub num_edges: usize,
    /// Total number of incidences `Σ|e|`.
    pub num_incidences: usize,
    /// Maximum hyperedge size (the `|e¯|` column of Table 2).
    pub max_edge_size: usize,
    /// Minimum hyperedge size.
    pub min_edge_size: usize,
    /// Mean hyperedge size.
    pub mean_edge_size: f64,
    /// Maximum node degree.
    pub max_node_degree: usize,
    /// Mean node degree over nodes that appear in at least one hyperedge.
    pub mean_node_degree: f64,
    /// Histogram of hyperedge sizes: `size_histogram[s]` is the number of
    /// hyperedges with exactly `s` members.
    pub size_histogram: Vec<usize>,
    /// Histogram of node degrees, truncated at the maximum degree.
    pub degree_histogram: Vec<usize>,
}

impl HypergraphStats {
    /// Computes the statistics of `hypergraph`.
    pub fn compute(hypergraph: &Hypergraph) -> Self {
        let sizes = hypergraph.edge_sizes();
        let degrees = hypergraph.node_degrees();
        let active_nodes = degrees.iter().filter(|&&d| d > 0).count();

        let max_edge_size = sizes.iter().copied().max().unwrap_or(0);
        let min_edge_size = sizes.iter().copied().min().unwrap_or(0);
        let mean_edge_size = if sizes.is_empty() {
            0.0
        } else {
            sizes.iter().sum::<usize>() as f64 / sizes.len() as f64
        };
        let max_node_degree = degrees.iter().copied().max().unwrap_or(0);
        let mean_node_degree = if active_nodes == 0 {
            0.0
        } else {
            degrees.iter().sum::<usize>() as f64 / active_nodes as f64
        };

        let mut size_histogram = vec![0usize; max_edge_size + 1];
        for s in &sizes {
            size_histogram[*s] += 1;
        }
        let mut degree_histogram = vec![0usize; max_node_degree + 1];
        for d in &degrees {
            degree_histogram[*d] += 1;
        }

        Self {
            num_nodes: active_nodes,
            num_node_ids: hypergraph.num_nodes(),
            num_edges: hypergraph.num_edges(),
            num_incidences: hypergraph.num_incidences(),
            max_edge_size,
            min_edge_size,
            mean_edge_size,
            max_node_degree,
            mean_node_degree,
            size_histogram,
            degree_histogram,
        }
    }
}

/// Total variation distance between two discrete distributions given as
/// (possibly unnormalized) histograms. Used to verify that the null model
/// preserves degree/size distributions.
pub fn total_variation_distance(a: &[usize], b: &[usize]) -> f64 {
    let sum_a: f64 = a.iter().sum::<usize>() as f64;
    let sum_b: f64 = b.iter().sum::<usize>() as f64;
    if sum_a == 0.0 || sum_b == 0.0 {
        return if sum_a == sum_b { 0.0 } else { 1.0 };
    }
    let len = a.len().max(b.len());
    let mut distance = 0.0f64;
    for i in 0..len {
        let pa = a.get(i).copied().unwrap_or(0) as f64 / sum_a;
        let pb = b.get(i).copied().unwrap_or(0) as f64 / sum_b;
        distance += (pa - pb).abs();
    }
    distance / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HypergraphBuilder;

    fn sample() -> Hypergraph {
        HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0, 3, 1])
            .with_edge([4, 5, 0])
            .with_edge([2, 6, 7])
            .build()
            .unwrap()
    }

    #[test]
    fn basic_stats() {
        let stats = HypergraphStats::compute(&sample());
        assert_eq!(stats.num_nodes, 8);
        assert_eq!(stats.num_node_ids, 8);
        assert_eq!(stats.num_edges, 4);
        assert_eq!(stats.num_incidences, 12);
        assert_eq!(stats.max_edge_size, 3);
        assert_eq!(stats.min_edge_size, 3);
        assert!((stats.mean_edge_size - 3.0).abs() < 1e-12);
        assert_eq!(stats.max_node_degree, 3);
        assert!((stats.mean_node_degree - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histograms_sum_to_counts() {
        let stats = HypergraphStats::compute(&sample());
        assert_eq!(stats.size_histogram.iter().sum::<usize>(), stats.num_edges);
        assert_eq!(
            stats.degree_histogram.iter().sum::<usize>(),
            stats.num_node_ids
        );
        assert_eq!(stats.size_histogram[3], 4);
    }

    #[test]
    fn isolated_ids_counted_separately() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 9])
            .build()
            .unwrap();
        let stats = HypergraphStats::compute(&h);
        assert_eq!(stats.num_nodes, 2);
        assert_eq!(stats.num_node_ids, 10);
    }

    #[test]
    fn tvd_identical_is_zero() {
        assert_eq!(total_variation_distance(&[1, 2, 3], &[2, 4, 6]), 0.0);
    }

    #[test]
    fn tvd_disjoint_is_one() {
        let d = total_variation_distance(&[10, 0], &[0, 10]);
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tvd_empty_histograms() {
        assert_eq!(total_variation_distance(&[], &[]), 0.0);
        assert_eq!(total_variation_distance(&[0, 0], &[0]), 0.0);
        assert_eq!(total_variation_distance(&[1], &[]), 1.0);
    }

    #[test]
    fn stats_clone_and_eq() {
        let stats = HypergraphStats::compute(&sample());
        let copy = stats.clone();
        assert_eq!(stats, copy);
    }
}
